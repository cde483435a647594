package service

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"
)

// fullMerge is the listing as a merge of everything: the held table's
// and the archive's whole matching listings, ids deduplicated with the
// held run winning, sorted by Seq, then paged once.
func fullMerge(held, archive []Record, f ListFilter) ([]Record, string) {
	after := -1
	if f.Cursor != "" {
		after, _ = strconv.Atoi(f.Cursor)
	}
	seen := map[string]bool{}
	var merged []Record
	for _, src := range [][]Record{held, archive} {
		for _, rec := range src {
			if seen[rec.ID] || !f.Match(rec) {
				continue
			}
			seen[rec.ID] = true
			merged = append(merged, rec.light())
		}
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Seq < merged[j].Seq })
	var page []Record
	for _, rec := range merged {
		if rec.Seq > after {
			page = append(page, rec)
		}
	}
	if f.Limit > 0 && len(page) > f.Limit {
		page = page[:f.Limit]
		return page, strconv.Itoa(page[len(page)-1].Seq)
	}
	return page, ""
}

// TestListMatchesFullMerge pins Server.List, which asks the held table
// and the archive for one row past the page, to the merge of both whole
// listings, over drawn contents: ids held by the table, the archive or
// both (each copy told apart by its cache-hit count), held runs in
// every state, drawn filters, cursors and limits. Pages and next
// cursors must be identical.
func TestListMatchesFullMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	states := []State{StateDone, StateFailed, StateRunning, StateQueued, StateCancelled}
	for draw := 0; draw < 60; draw++ {
		archive := NewMemStore(0, nil)
		s := New(Config{Workers: 1, Archive: archive})
		n := rng.Intn(40)
		var held, archived []Record
		for seq := 0; seq < n; seq++ {
			rec := Record{
				ID:        fmt.Sprintf("r%06d", seq+1),
				Seq:       seq,
				Tenant:    []string{"a", "b"}[rng.Intn(2)],
				SpecHash:  fmt.Sprintf("%02x%04d", rng.Intn(4), seq),
				Name:      []string{"alpha", "beta", "alphabet"}[rng.Intn(3)],
				Policies:  [][]string{{"SHUT"}, {"MIX", "SHUT"}, {"DVFS"}}[rng.Intn(3)],
				Kinds:     []string{"smalljob"},
				State:     states[rng.Intn(len(states))],
				Submitted: time.Date(2026, 1, 1, 0, seq, 0, 0, time.UTC),
			}
			in := rng.Intn(3) + 1 // a nonempty subset of held, archive
			if in&1 != 0 {
				r := rec
				r.CacheHits = 100
				held = append(held, r)
				s.runs[r.ID] = &run{Record: r}
			}
			if in&2 != 0 {
				r := rec
				r.CacheHits = 200
				archived = append(archived, r)
				if err := archive.Put(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		for q := 0; q < 20; q++ {
			var f ListFilter
			switch rng.Intn(5) {
			case 0:
				f.State = string(states[rng.Intn(len(states))])
			case 1:
				f.Tenant = []string{"a", "b"}[rng.Intn(2)]
			case 2:
				f.Name, f.Policy = "alpha", "shut"
			case 3:
				f.HashPrefix = fmt.Sprintf("%02x", rng.Intn(4))
			}
			if c := rng.Intn(n+2) - 1; c >= 0 {
				f.Cursor = strconv.Itoa(c)
			}
			f.Limit = rng.Intn(n + 2)

			wantRows, wantNext := fullMerge(held, archived, f)
			want := viewsFromRecords(wantRows)
			got, gotNext, err := s.List(f)
			if err != nil {
				t.Fatal(err)
			}
			if gotNext != wantNext || !reflect.DeepEqual(got, want) {
				t.Fatalf("draw %d, %+v: page %v next %q, want %v next %q",
					draw, f, listIDs(got), gotNext, listIDs(want), wantNext)
			}
		}
		s.mu.Lock()
		s.runs = map[string]*run{}
		s.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
}

// listIDs names a page's rows with the source each came from.
func listIDs(views []RunView) []string {
	out := make([]string, len(views))
	for i, v := range views {
		out[i] = fmt.Sprintf("%s/%d", v.ID, v.CacheHits)
	}
	return out
}
