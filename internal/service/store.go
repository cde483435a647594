package service

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/tsdb"
)

// Record is one run as the service holds it: the normalized spec with
// its content address, the lifecycle metadata and event log, the report
// rendered through every sink, and the downsampled telemetry snapshot.
// A daemon run embeds one (the gateway's routing entry too), the
// stores keep completed ones, and every view and listing renders from
// it. Policies and Kinds are derived from the spec at submission so
// list filters match without re-walking spec structure per request.
//
// The JSON form is the archive envelope's run metadata. The envelope
// carries the spec, its hash, the renders and the telemetry itself, and
// Report is process-local: it embeds live engine state and is carried
// only by in-memory stores (the filesystem archive serves Renders
// instead).
type Record struct {
	ID     string `json:"id"`
	Seq    int    `json:"seq"`
	Tenant string `json:"tenant,omitempty"`

	SpecHash string   `json:"-"`
	Name     string   `json:"name,omitempty"`
	Mode     sim.Mode `json:"mode"`
	// Policies/Kinds are the canonical policy and workload-kind names
	// the spec touches (spec-level axes plus explicit cells), sorted.
	Policies []string `json:"policies,omitempty"`
	Kinds    []string `json:"kinds,omitempty"`

	State State  `json:"state"`
	Error string `json:"error,omitempty"`

	Submitted time.Time `json:"submitted_at"`
	Started   time.Time `json:"started_at,omitempty"`
	Finished  time.Time `json:"finished_at,omitempty"`

	CacheHits  int `json:"cache_hits"`
	CellsDone  int `json:"cells_done"`
	CellsTotal int `json:"cells_total"`

	// Stages breaks the run's wall-clock into pipeline stages; set as
	// the run turns terminal and again as it retires (nil for runs
	// archived before stage timing existed).
	Stages *StageTimings `json:"stages,omitempty"`

	// Events is the run's event log; a held daemon run keeps it in its
	// eventLog instead, and copies it in for the archive.
	Events []Event     `json:"events,omitempty"`
	Spec   sim.RunSpec `json:"-"`

	// Renders maps sink names to the rendered report (nil for runs that
	// produced none). A daemon run holds them from the moment retire has
	// rendered them.
	Renders map[string][]byte `json:"-"`
	// Telemetry is the run's downsampled telemetry snapshot.
	Telemetry *tsdb.Snapshot `json:"-"`

	// Report is the live report of a run completed in this process;
	// never persisted.
	Report *sim.Report `json:"-"`
}

// light returns the record stripped to its list-view metadata — the
// form List results carry, so paging through a large archive never
// loads report payloads or telemetry.
func (r Record) light() Record {
	r.Events = nil
	r.Renders = nil
	r.Telemetry = nil
	r.Report = nil
	return r
}

// ListFilter selects and pages run records. The zero value matches
// everything from the start of the listing.
type ListFilter struct {
	// State matches the exact run state ("done", "failed", ...).
	State string
	// HashPrefix matches spec hashes by prefix.
	HashPrefix string
	// Policy matches records whose spec touches the policy (canonical
	// or any registered spelling).
	Policy string
	// Kind matches records whose spec touches the workload kind.
	Kind string
	// Name substring-matches the run name.
	Name string
	// Tenant matches the exact owning tenant.
	Tenant string
	// Since/Until bound the submission time (inclusive); zero means
	// unbounded.
	Since time.Time
	Until time.Time
	// Cursor resumes a paged listing: the opaque value a previous page
	// returned ("" starts from the beginning).
	Cursor string
	// Limit caps the page size (0 means unlimited).
	Limit int
}

// Match reports whether the record passes the filter's predicates
// (cursor and limit are paging, not matching, and are ignored here).
func (f ListFilter) Match(rec Record) bool {
	if f.State != "" && string(rec.State) != f.State {
		return false
	}
	if f.HashPrefix != "" && !strings.HasPrefix(rec.SpecHash, f.HashPrefix) {
		return false
	}
	if f.Policy != "" && !containsFold(rec.Policies, f.Policy) {
		return false
	}
	if f.Kind != "" && !containsFold(rec.Kinds, f.Kind) {
		return false
	}
	if f.Name != "" && !strings.Contains(rec.Name, f.Name) {
		return false
	}
	if f.Tenant != "" && rec.Tenant != f.Tenant {
		return false
	}
	if !f.Since.IsZero() && rec.Submitted.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && rec.Submitted.After(f.Until) {
		return false
	}
	return true
}

func containsFold(names []string, want string) bool {
	for _, n := range names {
		if strings.EqualFold(n, want) {
			return true
		}
	}
	return false
}

// ParseListFilter builds a filter from list-API query parameters:
//
//	?state=&hash=&policy=&kind=&name=&tenant=&since=&until=&cursor=&limit=
//
// since/until accept unix seconds or RFC 3339 timestamps. Malformed
// values are 400-class errors, never silently ignored predicates — a
// filter that quietly matched everything would hand a caller someone
// else's runs.
func ParseListFilter(q url.Values) (ListFilter, error) {
	f := ListFilter{
		State:      q.Get("state"),
		HashPrefix: q.Get("hash"),
		Policy:     q.Get("policy"),
		Kind:       q.Get("kind"),
		Name:       q.Get("name"),
		Tenant:     q.Get("tenant"),
		Cursor:     q.Get("cursor"),
	}
	var err error
	if f.Since, err = parseTimeParam("since", q.Get("since")); err != nil {
		return ListFilter{}, err
	}
	if f.Until, err = parseTimeParam("until", q.Get("until")); err != nil {
		return ListFilter{}, err
	}
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return ListFilter{}, &Error{Status: 400, Msg: fmt.Sprintf("bad limit %q: want a non-negative integer", s)}
		}
		f.Limit = n
	}
	if f.Cursor != "" {
		if _, err := parseCursor(f.Cursor); err != nil {
			return ListFilter{}, err
		}
	}
	return f, nil
}

// parseTimeParam reads an optional time bound: unix seconds or RFC 3339.
func parseTimeParam(name, s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if sec, err := strconv.ParseInt(s, 10, 64); err == nil {
		return time.Unix(sec, 0), nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return time.Time{}, &Error{Status: 400, Msg: fmt.Sprintf("bad %s %q: want unix seconds or RFC 3339", name, s)}
	}
	return t, nil
}

// parseCursor decodes a listing cursor: the sequence number of the last
// record of the previous page.
func parseCursor(cursor string) (int, error) {
	if cursor == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(cursor)
	if err != nil || n < 0 {
		return 0, &Error{Status: 400, Msg: fmt.Sprintf("bad cursor %q", cursor)}
	}
	return n, nil
}

// seqKey locates one row of a run table by its sequence number.
type seqKey struct {
	seq int
	key string
}

// listPage pages a run table: the rows after the filter's cursor that
// it matches, in Seq order, cut to its limit, plus the next page's
// cursor. row reads one entry's record (under whatever lock the entry
// needs). The matching rows are keyed first and only the page's are
// copied out, metadata only, so a listing costs its page, not the
// table. A cursor past the end leaves an empty page, the natural "you
// have read everything" answer, not an error.
func listPage[V any](table map[string]V, f ListFilter, row func(V) Record) ([]Record, string, error) {
	after, err := parseCursor(f.Cursor)
	if err != nil {
		return nil, "", err
	}
	keys := make([]seqKey, 0, len(table))
	for key, v := range table {
		if rec := row(v); rec.Seq > after && f.Match(rec) {
			keys = append(keys, seqKey{rec.Seq, key})
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].seq < keys[j].seq })
	keys, next := cutPage(keys, f.Limit, func(k seqKey) int { return k.seq })
	page := make([]Record, len(keys))
	for i, k := range keys {
		page[i] = row(table[k.key]).light()
	}
	return page, next, nil
}

// storedRow is listPage's row for a table of records.
func storedRow(rec Record) Record { return rec }

// cutPage cuts rows sorted by Seq to a page: the first limit of them
// (limit 0: all), plus the next cursor — the Seq of the last row kept,
// "" on the final page.
func cutPage[T any](rows []T, limit int, seq func(T) int) ([]T, string) {
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
		return rows, strconv.Itoa(seq(rows[limit-1]))
	}
	return rows, ""
}

// RunStore is the persistence seam of the service: the daemon's done
// runs (their reports rendered through every sink, plus telemetry
// snapshots) are Put as they retire, and read back once the daemon no
// longer holds them. Two implementations ship — the filesystem archive
// that survives restarts, and the in-memory MemStore — and any
// future backend (sqlite, badger, ...) must pass the conformance suite
// in store_conformance_test.go, which pins these semantics:
//
//   - Put upserts by spec hash: at most one record per hash (the result
//     cache invariant); re-putting a hash replaces the prior record and
//     retires its run id.
//   - Get/ByHash return the full record; Meta returns one id's
//     metadata-only record and List a page of them, ordered by Seq with
//     cursor pagination. Meta and List are answered from an index: they
//     never load payloads.
//   - A capacity bound evicts oldest records first, never the one just
//     put.
//   - Concurrent Puts of one hash are safe and leave exactly one
//     record.
//
// All implementations must be safe for concurrent use.
type RunStore interface {
	// Put stores the record, replacing any record with the same spec
	// hash.
	Put(rec Record) error
	// Get returns the record owning the run id.
	Get(id string) (Record, bool, error)
	// Meta returns the metadata-only record owning the run id: the row
	// List returns for it.
	Meta(id string) (Record, bool, error)
	// ByHash returns the record for the spec hash.
	ByHash(hash string) (Record, bool, error)
	// List returns the metadata-only records matching the filter in Seq
	// order, plus the cursor of the next page ("" when exhausted).
	List(f ListFilter) ([]Record, string, error)
	// Len counts the stored records.
	Len() (int, error)
	// MaxSeq returns the highest stored sequence number, or -1 when
	// empty — how a rebooted daemon avoids reissuing archived run ids.
	MaxSeq() (int, error)
	// Close releases the store.
	Close() error
}

// MemStore is the in-memory RunStore: full records, the process-local
// live Report included, bounded by MaxRecords with oldest-first
// eviction. The daemon holds its runs in its own table and does not use
// one; Server.Store hands out a MemStore copy of its retired runs, and
// the store conformance suite and the benchmarks drive it beside the
// filesystem archive.
type MemStore struct {
	max     int
	onEvict func(Record)

	mu     sync.Mutex
	byID   map[string]Record
	byHash map[string]string // hash -> id
	order  []string          // ids in Seq order
}

// NewMemStore builds a memory store keeping at most max records
// (0 = unbounded). onEvict, when non-nil, observes each evicted or
// replaced record.
func NewMemStore(max int, onEvict func(Record)) *MemStore {
	return &MemStore{
		max:     max,
		onEvict: onEvict,
		byID:    map[string]Record{},
		byHash:  map[string]string{},
	}
}

// Put stores the record, replacing any prior record of the same hash.
func (m *MemStore) Put(rec Record) error {
	if rec.ID == "" || rec.SpecHash == "" {
		return fmt.Errorf("service: record needs an id and a spec hash")
	}
	m.mu.Lock()
	var evicted []Record
	if prevID, ok := m.byHash[rec.SpecHash]; ok && prevID != rec.ID {
		if prev, ok := m.byID[prevID]; ok {
			evicted = append(evicted, prev)
		}
		m.removeLocked(prevID)
	}
	if _, ok := m.byID[rec.ID]; !ok {
		m.order = append(m.order, rec.ID)
	}
	m.byID[rec.ID] = rec
	m.byHash[rec.SpecHash] = rec.ID
	for m.max > 0 && len(m.byID) > m.max {
		oldest := m.order[0]
		if oldest == rec.ID {
			break // never evict the record just put
		}
		if prev, ok := m.byID[oldest]; ok {
			evicted = append(evicted, prev)
		}
		m.removeLocked(oldest)
	}
	m.mu.Unlock()
	if m.onEvict != nil {
		for _, e := range evicted {
			m.onEvict(e)
		}
	}
	return nil
}

// removeLocked drops one id from every index; m.mu must be held.
func (m *MemStore) removeLocked(id string) {
	rec, ok := m.byID[id]
	if !ok {
		return
	}
	delete(m.byID, id)
	if m.byHash[rec.SpecHash] == id {
		delete(m.byHash, rec.SpecHash)
	}
	for i, cur := range m.order {
		if cur == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// Get returns the record owning the run id.
func (m *MemStore) Get(id string) (Record, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.byID[id]
	return rec, ok, nil
}

// Meta returns the metadata-only record owning the run id.
func (m *MemStore) Meta(id string) (Record, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.byID[id]
	return rec.light(), ok, nil
}

// ByHash returns the record for the spec hash.
func (m *MemStore) ByHash(hash string) (Record, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id, ok := m.byHash[hash]
	if !ok {
		return Record{}, false, nil
	}
	rec, ok := m.byID[id]
	return rec, ok, nil
}

// List returns the metadata-only records matching the filter in Seq
// order with cursor pagination.
func (m *MemStore) List(f ListFilter) ([]Record, string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return listPage(m.byID, f, storedRow)
}

// Len counts the stored records.
func (m *MemStore) Len() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byID), nil
}

// MaxSeq returns the highest stored sequence number, or -1 when empty.
func (m *MemStore) MaxSeq() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	max := -1
	for _, rec := range m.byID {
		if rec.Seq > max {
			max = rec.Seq
		}
	}
	return max, nil
}

// Close releases the store (a no-op for memory).
func (m *MemStore) Close() error { return nil }

// newRecord is the row of a fresh submission of the normalized spec,
// queued now.
func newRecord(id string, seq int, tenant, hash string, spec sim.RunSpec) Record {
	policies, kinds := derivePolicyKinds(spec)
	return Record{
		ID:        id,
		Seq:       seq,
		Tenant:    tenant,
		SpecHash:  hash,
		Name:      spec.Name,
		Mode:      spec.Mode,
		Policies:  policies,
		Kinds:     kinds,
		State:     StateQueued,
		Submitted: time.Now(),
		Spec:      spec,
	}
}

// derivePolicyKinds extracts the sorted canonical policy and
// workload-kind names a normalized spec touches — the derived filter
// columns of a Record.
func derivePolicyKinds(spec sim.RunSpec) (policies, kinds []string) {
	pset, kset := map[string]bool{}, map[string]bool{}
	for _, p := range spec.Policies {
		pset[p] = true
	}
	if spec.Workload.Kind != "" {
		kset[spec.Workload.Kind] = true
	}
	for _, c := range spec.Cells {
		if c.Policy != "" {
			pset[c.Policy] = true
		}
		if c.Workload != nil && c.Workload.Kind != "" {
			kset[c.Workload.Kind] = true
		}
	}
	for p := range pset {
		policies = append(policies, p)
	}
	for k := range kset {
		kinds = append(kinds, k)
	}
	sort.Strings(policies)
	sort.Strings(kinds)
	return policies, kinds
}
