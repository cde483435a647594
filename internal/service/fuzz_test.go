package service_test

import (
	"net/url"
	"testing"

	"repro/internal/service"
)

// FuzzParseListFilter pins the list API's parameter handling on
// arbitrary query strings (seed corpus inline plus the checked-in
// files under testdata/fuzz/): parsing never panics, and any filter it
// accepts must be executable — matching a record and paging a store
// without error — since a 200 listing computed from a half-parsed
// filter would quietly hand a caller the wrong runs.
func FuzzParseListFilter(f *testing.F) {
	seeds := []string{
		"",
		"state=done&hash=ab12&limit=10",
		"policy=SHUT&kind=smalljob&name=sweep&tenant=alice",
		"since=1700000000&until=2026-01-02T03:04:05Z",
		"cursor=42&limit=2",
		"cursor=-1",
		"cursor=banana",
		"limit=-5",
		"limit=999999999999999999999",
		"since=yesterday",
		"until=1e9",
		"state=%zz",
		"cursor=42;limit=2",
		"a=1&a=2&a=3&state=done&state=failed",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, query string) {
		q, err := url.ParseQuery(query)
		if err != nil {
			return // not a query string; nothing to parse a filter from
		}
		filter, err := service.ParseListFilter(q)
		if err != nil {
			// Rejections must be classified API errors (the HTTP layer
			// turns them into 400s), never bare failures.
			apiErr, ok := err.(*service.Error)
			if !ok || apiErr.Status != 400 {
				t.Fatalf("ParseListFilter(%q) error %v is not a 400", query, err)
			}
			return
		}
		if filter.Limit < 0 {
			t.Fatalf("accepted filter has negative limit: %+v", filter)
		}
		// An accepted filter must execute: Match on a sample record and
		// List against a populated store, both without error.
		rec := sampleRecord(t, "fuzz", 7)
		filter.Match(rec)
		store := service.NewMemStore(0, nil)
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
		if _, _, err := store.List(filter); err != nil {
			t.Fatalf("accepted filter %+v failed to list: %v", filter, err)
		}
	})
}
