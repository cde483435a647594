package service

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/tsdb"
)

// FSStore is the durable RunStore: a filesystem archive of completed
// runs, one versioned JSON envelope per spec hash, modeled on
// cc-backend's file-backed job archive. Records are content-addressed
// by sim.SpecHash — "<hash>.json" in the archive directory — and
// written atomically (temp file, fsync, rename), so a crash mid-write
// never leaves a half-record behind and concurrent writers of one hash
// converge on a whole file.
//
// Opening a store scans the directory once into an in-memory metadata
// index (everything Meta and List answer); Get and ByHash read and
// verify the envelope from disk. Files that fail to decode — truncated,
// corrupt, or written by an unknown format version — are skipped at open
// and reported via Skipped, not fatal: one bad file must not take the
// whole archive down with it.
type FSStore struct {
	dir    string
	max    int
	maxAge time.Duration
	// now is the age-sweep clock, replaceable in tests.
	now func() time.Time

	mu      sync.Mutex
	meta    map[string]Record // hash -> light record
	byID    map[string]string // id -> hash
	skipped []string
}

// FSOptions bound a filesystem archive.
type FSOptions struct {
	// MaxRecords caps the archive (0 = keep everything forever, the
	// archive default); beyond it the oldest records are deleted.
	MaxRecords int
	// MaxAge expires records older than this (0 = keep forever). Age
	// is measured from the record's Finished time — Submitted for
	// records that never finished — and the sweep runs at open and on
	// every Put, so an idle archive shrinks the next time the daemon
	// boots or stores a run.
	MaxAge time.Duration
}

// OpenFSStore opens (creating if needed) the archive directory and
// indexes its envelopes.
func OpenFSStore(dir string, opt FSOptions) (*FSStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("service: archive needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating archive dir: %w", err)
	}
	st := &FSStore{
		dir:    dir,
		max:    opt.MaxRecords,
		maxAge: opt.MaxAge,
		now:    time.Now,
		meta:   map[string]Record{},
		byID:   map[string]string{},
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: scanning archive dir: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		rec, err := st.readFile(filepath.Join(dir, name))
		if err != nil {
			st.skipped = append(st.skipped, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		st.meta[rec.SpecHash] = rec.light()
		st.byID[rec.ID] = rec.SpecHash
	}
	// Age out stale records before the store serves anything: a daemon
	// rebooting after a quiet week must not resurrect expired results.
	st.mu.Lock()
	st.sweepAgeLocked("")
	st.mu.Unlock()
	return st, nil
}

// Skipped reports the files the open scan could not decode (corrupt or
// foreign), one "name: reason" line each.
func (st *FSStore) Skipped() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]string(nil), st.skipped...)
}

func (st *FSStore) path(hash string) string {
	return filepath.Join(st.dir, hash+".json")
}

// encodeRecord builds the archive envelope for a record: the record's
// own JSON form is the envelope's Meta. The live Report pointer is
// process state and is deliberately not encoded; the Renders carry what
// readers consume.
func encodeRecord(rec Record) (sim.Envelope, error) {
	env, err := sim.NewEnvelope(rec.Spec)
	if err != nil {
		return sim.Envelope{}, err
	}
	if env.SpecHash != rec.SpecHash {
		return sim.Envelope{}, fmt.Errorf("service: record %s claims hash %.12s but its spec hashes to %.12s",
			rec.ID, rec.SpecHash, env.SpecHash)
	}
	if env.Meta, err = json.Marshal(rec); err != nil {
		return sim.Envelope{}, err
	}
	env.Renders = rec.Renders
	if rec.Telemetry != nil {
		// The snapshot is its own encoding: no second marshal.
		if env.Telemetry, err = rec.Telemetry.MarshalJSON(); err != nil {
			return sim.Envelope{}, err
		}
	}
	return env, nil
}

// decodeRecord rebuilds a Record from a verified envelope. The
// telemetry snapshot stays encoded: only a series query restores it.
func decodeRecord(env sim.Envelope) (Record, error) {
	var rec Record
	if len(env.Meta) == 0 {
		return Record{}, fmt.Errorf("service: archive envelope carries no run metadata")
	}
	if err := json.Unmarshal(env.Meta, &rec); err != nil {
		return Record{}, fmt.Errorf("service: archive metadata: %w", err)
	}
	if rec.ID == "" {
		return Record{}, fmt.Errorf("service: archive metadata names no run id")
	}
	rec.SpecHash, rec.Spec, rec.Renders = env.SpecHash, env.Spec, env.Renders
	if len(env.Telemetry) > 0 {
		// Decoding the envelope copied these bytes out of the file
		// already: the snapshot adopts them.
		rec.Telemetry = tsdb.SnapshotFromJSON(env.Telemetry)
	}
	return rec, nil
}

// readFile decodes and verifies one archive file, read whole in one
// read of exactly its size.
func (st *FSStore) readFile(path string) (Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return Record{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return Record{}, err
	}
	if info.Size() > sim.MaxEnvelopeBytes {
		return Record{}, fmt.Errorf("service: archive file of %d bytes exceeds %d", info.Size(), sim.MaxEnvelopeBytes)
	}
	data := make([]byte, info.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return Record{}, err
	}
	env, err := sim.DecodeEnvelope(data)
	if err != nil {
		return Record{}, err
	}
	return decodeRecord(env)
}

// Put archives the record atomically: encode to a temp file in the
// archive directory, fsync, rename onto "<hash>.json". A replaced
// record of the same hash simply loses the rename race — the invariant
// "one record per hash, the newest write wins" is the filesystem's.
func (st *FSStore) Put(rec Record) error {
	if rec.ID == "" || rec.SpecHash == "" {
		return fmt.Errorf("service: record needs an id and a spec hash")
	}
	env, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(st.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("service: archive temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := env.Encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("service: archive fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), st.path(rec.SpecHash)); err != nil {
		return fmt.Errorf("service: archive rename: %w", err)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.meta[rec.SpecHash]; ok && prev.ID != rec.ID {
		delete(st.byID, prev.ID)
	}
	st.meta[rec.SpecHash] = rec.light()
	st.byID[rec.ID] = rec.SpecHash
	st.sweepAgeLocked(rec.SpecHash)
	for st.max > 0 && len(st.meta) > st.max {
		oldest, ok := st.oldestLocked(rec.SpecHash)
		if !ok {
			break
		}
		st.removeLocked(oldest)
	}
	return nil
}

// sweepAgeLocked removes every record past MaxAge except keep (the
// record a Put just wrote is never its own victim); st.mu held. Age
// comes from Finished, falling back to Submitted for records that
// never finished.
func (st *FSStore) sweepAgeLocked(keep string) {
	if st.maxAge <= 0 {
		return
	}
	cutoff := st.now().Add(-st.maxAge)
	for hash, rec := range st.meta {
		if hash == keep {
			continue
		}
		ts := rec.Finished
		if ts.IsZero() {
			ts = rec.Submitted
		}
		if ts.Before(cutoff) {
			st.removeLocked(hash)
		}
	}
}

// oldestLocked finds the lowest-Seq hash other than keep; st.mu held.
func (st *FSStore) oldestLocked(keep string) (string, bool) {
	best, bestSeq := "", -1
	for hash, rec := range st.meta {
		if hash == keep {
			continue
		}
		if bestSeq < 0 || rec.Seq < bestSeq {
			best, bestSeq = hash, rec.Seq
		}
	}
	return best, best != ""
}

// removeLocked drops the record from the index and disk; st.mu held.
func (st *FSStore) removeLocked(hash string) {
	rec, ok := st.meta[hash]
	if !ok {
		return
	}
	delete(st.meta, hash)
	if st.byID[rec.ID] == hash {
		delete(st.byID, rec.ID)
	}
	_ = os.Remove(st.path(hash))
}

// Get reads the record owning the run id from disk.
func (st *FSStore) Get(id string) (Record, bool, error) {
	st.mu.Lock()
	hash, ok := st.byID[id]
	st.mu.Unlock()
	if !ok {
		return Record{}, false, nil
	}
	rec, err := st.readFile(st.path(hash))
	if err != nil {
		if os.IsNotExist(err) {
			return Record{}, false, nil
		}
		return Record{}, false, fmt.Errorf("service: reading archived run %s: %w", id, err)
	}
	if rec.ID != id {
		// Another process sharing the directory re-put the spec: the
		// file under the hash now holds a different run.
		return Record{}, false, nil
	}
	return rec, true, nil
}

// Meta answers from the in-memory metadata index, with no file read.
func (st *FSStore) Meta(id string) (Record, bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.meta[st.byID[id]]
	if !ok || rec.ID != id {
		return Record{}, false, nil
	}
	return rec, true, nil
}

// ByHash reads the record for the spec hash from disk.
func (st *FSStore) ByHash(hash string) (Record, bool, error) {
	st.mu.Lock()
	_, ok := st.meta[hash]
	st.mu.Unlock()
	if !ok {
		return Record{}, false, nil
	}
	rec, err := st.readFile(st.path(hash))
	if err != nil {
		if os.IsNotExist(err) {
			return Record{}, false, nil
		}
		return Record{}, false, fmt.Errorf("service: reading archived spec %.12s: %w", hash, err)
	}
	return rec, true, nil
}

// List answers from the in-memory metadata index — no file reads, so
// paging a large archive stays cheap — and copies only the page's rows.
func (st *FSStore) List(f ListFilter) ([]Record, string, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return listPage(st.meta, f, storedRow)
}

// Len counts the archived records.
func (st *FSStore) Len() (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.meta), nil
}

// MaxSeq returns the highest archived sequence number, or -1 when
// empty.
func (st *FSStore) MaxSeq() (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	max := -1
	for _, rec := range st.meta {
		if rec.Seq > max {
			max = rec.Seq
		}
	}
	return max, nil
}

// Close releases the store. The archive holds no open handles between
// calls, so this is a no-op kept for the interface's lifecycle.
func (st *FSStore) Close() error { return nil }
