package service_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// TestMemStoreConformance runs the cross-backend suite on the hot tier.
func TestMemStoreConformance(t *testing.T) {
	runStoreConformance(t, func(t *testing.T, opt storeOptions) service.RunStore {
		return service.NewMemStore(opt.MaxRecords, nil)
	})
}

// TestMemStoreEvictHook pins the hot tier's eviction callback, through
// which the daemon drops an evicted run's live telemetry: it sees the
// record a same-hash put replaces, nothing for a same-id re-put, and
// capacity evictions oldest-first.
func TestMemStoreEvictHook(t *testing.T) {
	var evicted []string
	st := service.NewMemStore(3, func(rec service.Record) { evicted = append(evicted, rec.ID) })
	put := func(rec service.Record) {
		t.Helper()
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
	}

	first := sampleRecord(t, "upsert", 0)
	put(first)
	second := sampleRecord(t, "upsert", 5)
	put(second)
	if !reflect.DeepEqual(evicted, []string{first.ID}) {
		t.Fatalf("replacing put: hook saw %v, want exactly the replaced record %s", evicted, first.ID)
	}
	second.CacheHits++
	put(second)
	if len(evicted) != 1 {
		t.Fatalf("same-id re-put fired the hook: %v", evicted)
	}

	evicted = nil
	for i := 0; i < 4; i++ {
		put(sampleRecord(t, fmt.Sprintf("evict-%d", i), 10+i))
	}
	if want := []string{second.ID, "r000011"}; !reflect.DeepEqual(evicted, want) {
		t.Errorf("capacity evictions: hook saw %v, want oldest-first %v", evicted, want)
	}
}

// TestFSStoreConformance runs the same suite on the filesystem archive:
// identical semantics, durable medium.
func TestFSStoreConformance(t *testing.T) {
	runStoreConformance(t, fsFactory)
}

func fsFactory(t *testing.T, opt storeOptions) service.RunStore {
	st, err := service.OpenFSStore(t.TempDir(), service.FSOptions{
		MaxRecords: opt.MaxRecords,
		MaxAge:     opt.MaxAge,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFSStoreAgeExpiry runs the optional age-bound suite on the
// archive (the only shipped backend with an age sweep).
func TestFSStoreAgeExpiry(t *testing.T) {
	runStoreAgeExpiry(t, fsFactory)
}

// TestFSStoreAgeSweepAtOpen pins the boot-time half of the age bound:
// a reopened archive expires stale records before serving anything,
// and removes their files.
func TestFSStoreAgeSweepAtOpen(t *testing.T) {
	dir := t.TempDir()
	first, err := service.OpenFSStore(dir, service.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stale := sampleRecord(t, "open-stale", 0) // January 2026 timestamps
	fresh := sampleRecord(t, "open-fresh", 1)
	fresh.Submitted = time.Now()
	fresh.Started = fresh.Submitted
	fresh.Finished = fresh.Submitted
	for _, rec := range []service.Record{stale, fresh} {
		if err := first.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	first.Close()

	second, err := service.OpenFSStore(dir, service.FSOptions{MaxAge: 30 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := second.Get(stale.ID); ok {
		t.Error("stale record served after the open sweep")
	}
	if _, ok, _ := second.Get(fresh.ID); !ok {
		t.Error("fresh record lost to the open sweep")
	}
	if _, err := os.Stat(filepath.Join(dir, stale.SpecHash+".json")); !os.IsNotExist(err) {
		t.Errorf("expired record's file still on disk (stat err %v)", err)
	}
	if n, _ := second.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
}

// TestFSStoreReopen pins the durable half the suite cannot see: records
// put by one store are indexed and served by a fresh store over the
// same directory — the daemon-restart contract.
func TestFSStoreReopen(t *testing.T) {
	dir := t.TempDir()
	first, err := service.OpenFSStore(dir, service.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord(t, "reopen", 41)
	if err := first.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := service.OpenFSStore(dir, service.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if skipped := second.Skipped(); len(skipped) != 0 {
		t.Fatalf("reopen skipped files: %v", skipped)
	}
	got, ok, err := second.Get(rec.ID)
	if err != nil || !ok {
		t.Fatalf("Get after reopen = ok:%v err:%v", ok, err)
	}
	if got.SpecHash != rec.SpecHash || got.State != rec.State || got.CacheHits != rec.CacheHits {
		t.Errorf("reopened record drifted: %+v", got)
	}
	if string(got.Renders["json"]) != string(rec.Renders["json"]) {
		t.Errorf("reopened render = %q, want %q", got.Renders["json"], rec.Renders["json"])
	}
	if max, _ := second.MaxSeq(); max != rec.Seq {
		t.Errorf("reopened MaxSeq = %d, want %d", max, rec.Seq)
	}
}

// TestFSStoreMetaReadsNoFile pins where the archive's Meta answer comes
// from: the index built at open and kept by Put. With the run's file
// removed behind the store's back, Meta still answers the listing row
// while Get, which reads the file, reports the run not found.
func TestFSStoreMetaReadsNoFile(t *testing.T) {
	dir := t.TempDir()
	st, err := service.OpenFSStore(dir, service.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord(t, "meta-no-file", 3)
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, rec.SpecHash+".json")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Meta(rec.ID)
	if err != nil || !ok {
		t.Fatalf("Meta after the file went = ok:%v err:%v, want the indexed row", ok, err)
	}
	if got.ID != rec.ID || got.Tenant != rec.Tenant || got.State != rec.State || got.Renders != nil {
		t.Errorf("Meta = %+v, want the metadata-only row of %s", got, rec.ID)
	}
	if _, ok, err := st.Get(rec.ID); err != nil || ok {
		t.Errorf("Get after the file went = ok:%v err:%v, want not found", ok, err)
	}
}

// TestFSStoreGetRefusesReplacedRun pins Get to the run it is asked for
// when a second process shares the archive directory: that process
// re-puts the same spec as another run, so the file under the hash now
// holds the other run while this store's index still maps the old id to
// the hash. Get must miss rather than answer with the other tenant's
// run and event log (Meta, which reads no file, still answers the
// indexed row).
func TestFSStoreGetRefusesReplacedRun(t *testing.T) {
	dir := t.TempDir()
	st1, err := service.OpenFSStore(dir, service.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := service.OpenFSStore(dir, service.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := sampleRecord(t, "shared-spec", 0)
	if err := st1.Put(first); err != nil {
		t.Fatal(err)
	}
	other := sampleRecord(t, "shared-spec", 5)
	other.Tenant = "tenant-b"
	if err := st2.Put(other); err != nil {
		t.Fatal(err)
	}
	if rec, ok, err := st1.Get(first.ID); err != nil || ok {
		t.Errorf("Get(%s) = %s/%s ok:%v err:%v, want a miss: the file holds %s now",
			first.ID, rec.ID, rec.Tenant, ok, err, other.ID)
	}
	if rec, ok, err := st2.Get(other.ID); err != nil || !ok || rec.ID != other.ID || rec.Tenant != "tenant-b" {
		t.Errorf("Get(%s) = %s/%s ok:%v err:%v, want the run the file holds", other.ID, rec.ID, rec.Tenant, ok, err)
	}
}

// TestFSStoreServesParentWrittenEnvelope opens an archive written by
// the simd binary that predates the shared rjms.Options struct
// (testdata/archive, one single run with every option and the cap
// window set): the envelope must index under its recorded hash with its
// seal intact, answer the identical spec as a cache hit without
// executing anything, and hold the report bytes today's engine renders
// for that spec. A renamed or reordered option field fails the first, a
// changed scheduling decision the last.
func TestFSStoreServesParentWrittenEnvelope(t *testing.T) {
	const hash = "fb518e50d40b7acce493955d4212ff2a6694c974f1ae884ed98f7fa3773e0791"
	env, err := os.ReadFile(filepath.Join("testdata", "archive", hash+".json"))
	if err != nil {
		t.Fatal(err)
	}
	// A cache hit rewrites the envelope; serve a copy.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, hash+".json"), env, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := service.OpenFSStore(dir, service.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if skipped := st.Skipped(); len(skipped) != 0 {
		t.Fatalf("parent-written envelope skipped: %v", skipped)
	}
	rec, ok, err := st.ByHash(hash)
	if err != nil || !ok {
		t.Fatalf("ByHash = ok:%v err:%v", ok, err)
	}
	if rec.Spec.Options.BackfillDepth != 50 || rec.Spec.Cap.DurationSec != 1200 {
		t.Fatalf("archived spec decoded as %+v", rec.Spec)
	}

	s, c := newTestServer(t, service.Config{Workers: 1, Archive: st})
	ctx := context.Background()
	v, hit, err := c.Submit(ctx, rec.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || v.ID != rec.ID || v.State != service.StateDone {
		t.Fatalf("resubmission = hit:%v id:%s state:%s, want a hit on %s", hit, v.ID, v.State, rec.ID)
	}
	if n := s.Stats().Executions; n != 0 {
		t.Errorf("serving the archived run executed %d runs", n)
	}
	var served, local bytes.Buffer
	if err := c.WriteReport(ctx, v.ID, "json", sim.SinkOptions{}, &served); err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(ctx, rec.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Export(&local, "json", rep, sim.SinkOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), local.Bytes()) {
		t.Errorf("archived report differs from a local run of its spec:\narchived: %.400s\nlocal:    %.400s", served.Bytes(), local.Bytes())
	}
}

// TestFSStoreCorruptFileSkipped pins the archive's damage tolerance:
// truncated or tampered envelopes are skipped with a reason at open,
// never fatal, and the rest of the archive still serves.
func TestFSStoreCorruptFileSkipped(t *testing.T) {
	dir := t.TempDir()
	st, err := service.OpenFSStore(dir, service.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := sampleRecord(t, "survivor", 0)
	if err := st.Put(good); err != nil {
		t.Fatal(err)
	}
	bad := sampleRecord(t, "corrupted", 1)
	if err := st.Put(bad); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Truncate the second envelope mid-file and drop a non-envelope
	// stray in the directory.
	path := filepath.Join(dir, bad.SpecHash+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.json"), []byte("not an envelope"), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := service.OpenFSStore(dir, service.FSOptions{})
	if err != nil {
		t.Fatalf("open with corrupt files failed: %v", err)
	}
	skipped := reopened.Skipped()
	if len(skipped) != 2 {
		t.Fatalf("skipped = %v, want the truncated envelope and the stray file", skipped)
	}
	for _, s := range skipped {
		if !strings.Contains(s, ":") {
			t.Errorf("skip entry %q carries no reason", s)
		}
	}
	if _, ok, _ := reopened.Get(good.ID); !ok {
		t.Error("intact record lost to a sibling's corruption")
	}
	if _, ok, _ := reopened.Get(bad.ID); ok {
		t.Error("truncated record served anyway")
	}
	if n, _ := reopened.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
}
