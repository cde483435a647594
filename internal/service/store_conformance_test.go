// The cross-backend conformance suite for service.RunStore
// implementations. Both shipped backends — the in-memory hot tier and
// the filesystem archive — run the same suite, and any future backend
// (sqlite, badger, ...) must pass it before the daemon will treat it as
// a persistence tier: the suite pins exactly the semantics
// internal/service relies on (one record per spec hash, Seq-ordered
// listing with cursor pagination, Meta answering an id's listing row,
// oldest-first eviction that never evicts the record just put,
// concurrent-put convergence).
//
// A new backend adds its own test to this package:
//
//	func TestMyStoreConformance(t *testing.T) {
//		runStoreConformance(t, func(t *testing.T, opt storeOptions) service.RunStore {
//			return newMyStore(t, opt.MaxRecords)
//		})
//	}

package service_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tsdb"
)

// storeOptions carry the bounds a conformance subtest wants the store
// under test constructed with.
type storeOptions struct {
	// MaxRecords caps the store (0 = unbounded).
	MaxRecords int
	// MaxAge expires records older than this (0 = keep forever). Only
	// exercised by runStoreAgeExpiry; backends without age support skip
	// that suite.
	MaxAge time.Duration
}

// storeFactory builds a fresh, empty store for one subtest. The factory
// owns cleanup (use t.Cleanup); the suite still calls Close and expects
// it to succeed.
type storeFactory func(t *testing.T, opt storeOptions) service.RunStore

// runStoreConformance exercises the full conformance suite against the
// factory's stores.
func runStoreConformance(t *testing.T, factory storeFactory) {
	t.Run("PutGetRoundtrip", func(t *testing.T) { testRoundtrip(t, factory) })
	t.Run("UpsertByHash", func(t *testing.T) { testUpsert(t, factory) })
	t.Run("MetaIsTheListRow", func(t *testing.T) { testMeta(t, factory) })
	t.Run("ListOrderAndFilters", func(t *testing.T) { testListFilters(t, factory) })
	t.Run("Pagination", func(t *testing.T) { testPagination(t, factory) })
	t.Run("Eviction", func(t *testing.T) { testEviction(t, factory) })
	t.Run("ConcurrentPutOneHash", func(t *testing.T) { testConcurrent(t, factory) })
	t.Run("LenMaxSeq", func(t *testing.T) { testLenMaxSeq(t, factory) })
}

// runStoreAgeExpiry exercises the optional age-bound contract: records
// whose Finished time (Submitted when never finished) is older than
// storeOptions.MaxAge are expired by later puts, and the record a Put
// just wrote is never its own victim. Backends without age support
// don't call this.
func runStoreAgeExpiry(t *testing.T, factory storeFactory) {
	t.Run("ExpiredByLaterPut", func(t *testing.T) {
		st := factory(t, storeOptions{MaxAge: 30 * 24 * time.Hour})

		// The suite's base timestamps (January 2026) are far past any
		// reasonable MaxAge; stale carries them as-is.
		stale := sampleRecord(t, "age-stale", 0)
		mustPut(t, st, stale)
		if _, ok, _ := st.Get(stale.ID); !ok {
			t.Fatal("record expired by its own put")
		}

		// A record that never finished ages from Submitted.
		unfinished := sampleRecord(t, "age-unfinished", 1)
		unfinished.State = service.StateFailed
		unfinished.Finished = time.Time{}
		mustPut(t, st, unfinished)

		fresh := sampleRecord(t, "age-fresh", 2)
		fresh.Submitted = time.Now()
		fresh.Started = fresh.Submitted
		fresh.Finished = fresh.Submitted
		mustPut(t, st, fresh)

		for _, id := range []string{stale.ID, unfinished.ID} {
			if _, ok, _ := st.Get(id); ok {
				t.Errorf("expired record %s still resolves", id)
			}
		}
		if _, ok, _ := st.Get(fresh.ID); !ok {
			t.Error("fresh record expired")
		}
		if n, _ := st.Len(); n != 1 {
			t.Errorf("Len = %d, want 1", n)
		}
	})
	t.Run("UnboundedKeepsEverything", func(t *testing.T) {
		st := factory(t, storeOptions{})
		old := sampleRecord(t, "age-forever", 0)
		mustPut(t, st, old)
		mustPut(t, st, sampleRecord(t, "age-forever-2", 1))
		if n, _ := st.Len(); n != 2 {
			t.Errorf("MaxAge 0 expired records: Len = %d, want 2", n)
		}
	})
}

// sampleSpec builds a distinct valid normalized spec per name; distinct names
// hash differently, which is what gives each record its own address.
func sampleSpec(name string) sim.RunSpec {
	return sim.RunSpec{
		Name:         name,
		Workload:     sim.WorkloadSpec{Kind: "smalljob", Seed: 42, DurationSec: 3600},
		Racks:        1,
		Policies:     []string{"SHUT"},
		CapFractions: []float64{0.6},
	}.Normalize()
}

// sampleRecord builds a well-formed stored-run record for the named
// spec at the given sequence number — the shape the suite stores, also
// used by the backends' own tests (reopen, corruption).
func sampleRecord(t *testing.T, name string, seq int) service.Record {
	t.Helper()
	sp := sampleSpec(name)
	hash, err := sim.SpecHash(sp)
	if err != nil {
		t.Fatalf("hashing spec %q: %v", name, err)
	}
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return service.Record{
		ID:         fmt.Sprintf("r%06d", seq+1),
		Seq:        seq,
		Tenant:     "tenant-a",
		SpecHash:   hash,
		Name:       sp.Name,
		Mode:       sp.Mode,
		Policies:   []string{"SHUT"},
		Kinds:      []string{"smalljob"},
		State:      service.StateDone,
		Submitted:  base.Add(time.Duration(seq) * time.Minute),
		Started:    base.Add(time.Duration(seq)*time.Minute + time.Second),
		Finished:   base.Add(time.Duration(seq)*time.Minute + 2*time.Second),
		CacheHits:  seq,
		CellsDone:  1,
		CellsTotal: 1,
		Events: []service.Event{
			{Seq: 0, Type: "queued"},
			{Seq: 1, Type: "started"},
			{Seq: 2, Type: "done", Done: 1, Total: 1},
		},
		Spec:    sp,
		Renders: map[string][]byte{"json": []byte(`{"ok":true}` + "\n")},
	}
}

func mustPut(t *testing.T, st service.RunStore, rec service.Record) {
	t.Helper()
	if err := st.Put(rec); err != nil {
		t.Fatalf("Put(%s): %v", rec.ID, err)
	}
}

func testRoundtrip(t *testing.T, factory storeFactory) {
	st := factory(t, storeOptions{})
	rec := sampleRecord(t, "roundtrip", 0)
	mustPut(t, st, rec)

	for _, lookup := range []struct {
		kind string
		get  func() (service.Record, bool, error)
	}{
		{"Get", func() (service.Record, bool, error) { return st.Get(rec.ID) }},
		{"ByHash", func() (service.Record, bool, error) { return st.ByHash(rec.SpecHash) }},
	} {
		got, ok, err := lookup.get()
		if err != nil || !ok {
			t.Fatalf("%s = ok:%v err:%v, want hit", lookup.kind, ok, err)
		}
		if got.ID != rec.ID || got.Seq != rec.Seq || got.SpecHash != rec.SpecHash ||
			got.Tenant != rec.Tenant || got.Name != rec.Name || got.State != rec.State ||
			got.CacheHits != rec.CacheHits {
			t.Errorf("%s metadata mismatch:\n got %+v\nwant %+v", lookup.kind, got, rec)
		}
		if !got.Submitted.Equal(rec.Submitted) || !got.Finished.Equal(rec.Finished) {
			t.Errorf("%s timestamps drifted: got %v/%v want %v/%v",
				lookup.kind, got.Submitted, got.Finished, rec.Submitted, rec.Finished)
		}
		if !reflect.DeepEqual(got.Events, rec.Events) {
			t.Errorf("%s events = %+v, want %+v", lookup.kind, got.Events, rec.Events)
		}
		if string(got.Renders["json"]) != string(rec.Renders["json"]) {
			t.Errorf("%s json render = %q, want %q", lookup.kind, got.Renders["json"], rec.Renders["json"])
		}
		if gotHash, err := sim.SpecHash(got.Spec); err != nil || gotHash != rec.SpecHash {
			t.Errorf("%s returned spec re-hashes to %.12s (err %v), want %.12s", lookup.kind, gotHash, err, rec.SpecHash)
		}
	}

	if _, ok, err := st.Get("r999999"); err != nil || ok {
		t.Errorf("Get(unknown) = ok:%v err:%v, want miss", ok, err)
	}
	if _, ok, err := st.ByHash("feedfeed"); err != nil || ok {
		t.Errorf("ByHash(unknown) = ok:%v err:%v, want miss", ok, err)
	}
	if err := st.Put(service.Record{}); err == nil {
		t.Error("Put of a record without id/hash succeeded")
	}
}

func testUpsert(t *testing.T, factory storeFactory) {
	st := factory(t, storeOptions{})

	first := sampleRecord(t, "upsert", 0)
	mustPut(t, st, first)

	// Same spec hash, new run id: the replacement wins and the old id is
	// retired — the store holds at most one record per hash.
	second := sampleRecord(t, "upsert", 5)
	second.CacheHits = 99
	mustPut(t, st, second)

	if n, _ := st.Len(); n != 1 {
		t.Fatalf("after upsert Len = %d, want 1", n)
	}
	got, ok, err := st.ByHash(first.SpecHash)
	if err != nil || !ok || got.ID != second.ID || got.CacheHits != 99 {
		t.Errorf("ByHash after upsert = %+v (ok:%v err:%v), want the replacement", got, ok, err)
	}
	if _, ok, _ := st.Get(first.ID); ok {
		t.Errorf("retired id %s still resolves", first.ID)
	}
	if _, ok, _ := st.Get(second.ID); !ok {
		t.Errorf("replacement id %s does not resolve", second.ID)
	}

	// Re-putting the same id (a hit-count bump) must not evict anything.
	second.CacheHits = 100
	mustPut(t, st, second)
	if n, _ := st.Len(); n != 1 {
		t.Errorf("after same-id re-put Len = %d, want 1", n)
	}
	if _, ok, _ := st.Get(second.ID); !ok {
		t.Errorf("same-id re-put retired %s", second.ID)
	}
	if got, _, _ := st.ByHash(first.SpecHash); got.CacheHits != 100 {
		t.Errorf("re-put did not update: cache hits = %d, want 100", got.CacheHits)
	}
}

// testMeta pins Meta as the one-id form of List: the same metadata-only
// row, resolvable exactly while the id is stored.
func testMeta(t *testing.T, factory storeFactory) {
	st := factory(t, storeOptions{})
	a, b := sampleRecord(t, "meta-a", 0), sampleRecord(t, "meta-b", 1)
	for _, rec := range []*service.Record{&a, &b} {
		// Heavy payloads Meta must strip (a durable store drops the live
		// Report on its own).
		rec.Telemetry = &tsdb.Snapshot{}
		rec.Report = &sim.Report{}
		mustPut(t, st, *rec)
	}
	checkRows := func(when string) {
		t.Helper()
		rows, _, err := st.List(service.ListFilter{})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			got, ok, err := st.Meta(row.ID)
			if err != nil || !ok {
				t.Errorf("%s: Meta(%s) = ok:%v err:%v, want the List row", when, row.ID, ok, err)
				continue
			}
			if !reflect.DeepEqual(got, row) {
				t.Errorf("%s: Meta(%s) differs from its List row:\n got %+v\nwant %+v", when, row.ID, got, row)
			}
			if got.Events != nil || got.Renders != nil || got.Telemetry != nil || got.Report != nil {
				t.Errorf("%s: Meta(%s) carries heavy payloads", when, row.ID)
			}
		}
	}
	checkRows("after put")

	if _, ok, err := st.Meta("r999999"); err != nil || ok {
		t.Errorf("Meta(unknown) = ok:%v err:%v, want miss", ok, err)
	}

	// Upsert by hash: the replaced id goes, the new one resolves.
	replacement := sampleRecord(t, "meta-b", 7)
	mustPut(t, st, replacement)
	if _, ok, err := st.Meta(b.ID); err != nil || ok {
		t.Errorf("Meta(replaced %s) = ok:%v err:%v, want miss", b.ID, ok, err)
	}
	if got, ok, err := st.Meta(replacement.ID); err != nil || !ok || got.ID != replacement.ID {
		t.Errorf("Meta(replacement %s) = %s ok:%v err:%v", replacement.ID, got.ID, ok, err)
	}
	checkRows("after upsert")
}

func testListFilters(t *testing.T, factory storeFactory) {
	st := factory(t, storeOptions{})
	recs := make([]service.Record, 6)
	for i := range recs {
		recs[i] = sampleRecord(t, fmt.Sprintf("list-%d", i), i)
	}
	recs[1].State = service.StateFailed
	recs[2].Tenant = "tenant-b"
	recs[3].Policies = []string{"DVFS"}
	// Put out of order: listings must come back Seq-sorted regardless.
	for _, i := range []int{3, 0, 5, 1, 4, 2} {
		mustPut(t, st, recs[i])
	}

	all, next, err := st.List(service.ListFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if next != "" {
		t.Errorf("unlimited listing returned next cursor %q", next)
	}
	if len(all) != len(recs) {
		t.Fatalf("List returned %d records, want %d", len(all), len(recs))
	}
	for i, rec := range all {
		if rec.Seq != i {
			t.Errorf("List[%d].Seq = %d, want ascending from 0", i, rec.Seq)
		}
		if rec.Events != nil || rec.Renders != nil || rec.Telemetry != nil || rec.Report != nil {
			t.Errorf("List[%d] carries heavy payloads; listings must be metadata-only", i)
		}
	}

	cases := []struct {
		name string
		f    service.ListFilter
		want []string
	}{
		{"state", service.ListFilter{State: "failed"}, []string{recs[1].ID}},
		{"hash prefix", service.ListFilter{HashPrefix: recs[4].SpecHash[:12]}, []string{recs[4].ID}},
		{"policy fold", service.ListFilter{Policy: "dvfs"}, []string{recs[3].ID}},
		{"kind", service.ListFilter{Kind: "smalljob"}, ids(recs...)},
		{"name substring", service.ListFilter{Name: "list-2"}, []string{recs[2].ID}},
		{"tenant", service.ListFilter{Tenant: "tenant-b"}, []string{recs[2].ID}},
		{"since", service.ListFilter{Since: recs[4].Submitted}, []string{recs[4].ID, recs[5].ID}},
		{"until", service.ListFilter{Until: recs[1].Submitted}, []string{recs[0].ID, recs[1].ID}},
		{"no match", service.ListFilter{Tenant: "nobody"}, nil},
	}
	for _, tc := range cases {
		got, _, err := st.List(tc.f)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(ids(got...), tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, ids(got...), tc.want)
		}
	}
}

func ids(recs ...service.Record) []string {
	var out []string
	for _, rec := range recs {
		out = append(out, rec.ID)
	}
	return out
}

func testPagination(t *testing.T, factory storeFactory) {
	st := factory(t, storeOptions{})
	const n = 7
	for i := 0; i < n; i++ {
		mustPut(t, st, sampleRecord(t, fmt.Sprintf("page-%d", i), i))
	}

	// Walk the listing two records at a time; the pages must tile the
	// full Seq order with no overlap and no gap.
	var walked []int
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > n {
			t.Fatal("cursor walk did not terminate")
		}
		page, next, err := st.List(service.ListFilter{Limit: 2, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		if len(page) > 2 {
			t.Fatalf("page of %d records, limit 2", len(page))
		}
		for _, rec := range page {
			walked = append(walked, rec.Seq)
		}
		if next == "" {
			break
		}
		cursor = next
	}
	for i, seq := range walked {
		if seq != i {
			t.Fatalf("cursor walk visited seqs %v, want 0..%d in order", walked, n-1)
		}
	}
	if len(walked) != n {
		t.Fatalf("cursor walk visited %d records, want %d", len(walked), n)
	}

	// The final exact-fit page must not dangle a cursor to an empty
	// page... but if a caller fabricates one past the end, the answer is
	// an empty page, not an error.
	page, next, err := st.List(service.ListFilter{Limit: 2, Cursor: "9999"})
	if err != nil || len(page) != 0 || next != "" {
		t.Errorf("cursor past end: page=%d next=%q err=%v, want empty page", len(page), next, err)
	}

	// A malformed cursor is the caller's error.
	if _, _, err := st.List(service.ListFilter{Cursor: "not-a-seq"}); err == nil {
		t.Error("malformed cursor accepted")
	}

	// Limit without cursor takes the head of the listing.
	page, next, err = st.List(service.ListFilter{Limit: 3})
	if err != nil || len(page) != 3 || next == "" {
		t.Fatalf("limit=3: page=%d next=%q err=%v", len(page), next, err)
	}
	if page[0].Seq != 0 || page[2].Seq != 2 {
		t.Errorf("first page seqs = %v, want 0..2", ids(page...))
	}
}

func testEviction(t *testing.T, factory storeFactory) {
	st := factory(t, storeOptions{MaxRecords: 3})

	for i := 0; i < 5; i++ {
		mustPut(t, st, sampleRecord(t, fmt.Sprintf("evict-%d", i), i))
		if n, _ := st.Len(); n > 3 {
			t.Fatalf("after put %d, Len = %d > cap 3", i, n)
		}
	}
	// Oldest-first: seq 0 and 1 are gone, 2..4 remain.
	for seq := 0; seq <= 1; seq++ {
		if _, ok, _ := st.Get(fmt.Sprintf("r%06d", seq+1)); ok {
			t.Errorf("seq %d survived, want it evicted oldest-first", seq)
		}
	}
	for seq := 2; seq <= 4; seq++ {
		if _, ok, _ := st.Get(fmt.Sprintf("r%06d", seq+1)); !ok {
			t.Errorf("survivor seq %d missing", seq)
		}
	}
	// The record just put is never the victim, even when it is the
	// oldest in the store.
	mustPut(t, st, sampleRecord(t, "evict-late", 0))
	if _, ok, _ := st.Get("r000001"); !ok {
		t.Error("record just put was evicted by its own put")
	}
}

func testConcurrent(t *testing.T, factory storeFactory) {
	st := factory(t, storeOptions{})
	rec := sampleRecord(t, "concurrent", 0)
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rec
			r.CacheHits = i
			errs[i] = st.Put(r)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Put %d: %v", i, err)
		}
	}
	if n, _ := st.Len(); n != 1 {
		t.Fatalf("after %d concurrent puts of one hash, Len = %d, want 1", n, n)
	}
	got, ok, err := st.ByHash(rec.SpecHash)
	if err != nil || !ok || got.ID != rec.ID {
		t.Fatalf("ByHash after concurrent puts = %+v (ok:%v err:%v)", got, ok, err)
	}
}

func testLenMaxSeq(t *testing.T, factory storeFactory) {
	st := factory(t, storeOptions{})
	if max, err := st.MaxSeq(); err != nil || max != -1 {
		t.Errorf("empty MaxSeq = %d, %v; want -1", max, err)
	}
	if n, err := st.Len(); err != nil || n != 0 {
		t.Errorf("empty Len = %d, %v", n, err)
	}

	mustPut(t, st, sampleRecord(t, "seq-a", 3))
	mustPut(t, st, sampleRecord(t, "seq-b", 8))
	if max, _ := st.MaxSeq(); max != 8 {
		t.Errorf("MaxSeq = %d, want 8", max)
	}
	if n, _ := st.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}
	if err := st.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
