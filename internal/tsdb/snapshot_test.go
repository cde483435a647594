package tsdb

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestSnapshotRestoreRoundtrip pins the archive contract: a restored
// run answers every query identically to the original, at every level,
// and later appends continue the cascade as if nothing happened.
func TestSnapshotRestoreRoundtrip(t *testing.T) {
	st := New(smallOpts())
	orig := st.Run("run1")
	// Mid-batch at both cascades: one level-2 point, fanout+1 level-1
	// points (one pending toward level 2) and fanout-1 raw points
	// pending toward level 1.
	n := fanout*fanout + 2*fanout - 1
	appendRamp(t, orig, "power", n, 10)
	appendRamp(t, orig, "cap", fanout+1, 10)

	snap := orig.Snapshot()
	// The snapshot must survive the same JSON round-trip the archive
	// envelope puts it through.
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := decoded.Restore()
	if err != nil {
		t.Fatal(err)
	}

	queries := []struct {
		series string
		res    int64
	}{{"power", 0}, {"power", 10 * fanout}, {"power", 10 * fanout * fanout}, {"cap", 0}, {"cap", 10 * fanout}}
	for _, q := range queries {
		wantPts, wantPer, wantErr := orig.Query(q.series, 0, 0, q.res)
		gotPts, gotPer, gotErr := restored.Query(q.series, 0, 0, q.res)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s res=%d: err %v vs %v", q.series, q.res, wantErr, gotErr)
		}
		if gotPer != wantPer || !reflect.DeepEqual(gotPts, wantPts) {
			t.Errorf("%s res=%d: restored (%v, per=%d), original (%v, per=%d)",
				q.series, q.res, gotPts, gotPer, wantPts, wantPer)
		}
	}
	if !reflect.DeepEqual(restored.Series(), orig.Series()) {
		t.Errorf("series names = %v, want %v", restored.Series(), orig.Series())
	}

	// Continuing the cascade: the same appends to both runs must keep
	// them identical — pending batches and watermarks restored exactly.
	for i := n; i < 2*fanout*fanout; i++ {
		if err := orig.Append("power", int64(i)*10, float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := restored.Append("power", int64(i)*10, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, res := range []int64{0, 10 * fanout, 10 * fanout * fanout} {
		wantPts, _, _ := orig.Query("power", 0, 0, res)
		gotPts, _, _ := restored.Query("power", 0, 0, res)
		if !reflect.DeepEqual(gotPts, wantPts) {
			t.Errorf("post-restore appends diverged at res=%d:\n got %v\nwant %v", res, gotPts, wantPts)
		}
	}

	// Out-of-order appends are still refused: the watermark survived.
	if err := restored.Append("power", 0, 1); err == nil {
		t.Error("restored run accepted an out-of-order append")
	}
}

// TestSnapshotIsolated pins that a snapshot shares no state with the
// live run: appends after the snapshot must not leak into it.
func TestSnapshotIsolated(t *testing.T) {
	st := New(smallOpts())
	r := st.Run("run1")
	appendRamp(t, r, "power", 4, 10)
	snap := r.Snapshot()
	before := len(snap.Series[0].Levels[0])

	appendRamp(t, r, "more", 4, 10)
	if err := r.Append("power", 100, 99); err != nil {
		t.Fatal(err)
	}
	if len(snap.Series) != 1 || len(snap.Series[0].Levels[0]) != before {
		t.Errorf("snapshot mutated by later appends: %+v", snap.Series)
	}
}

// TestSnapshotDropped pins that the per-run series-cap marker list
// survives the round trip (partial telemetry must stay labeled partial).
func TestSnapshotDropped(t *testing.T) {
	st := New(smallOpts()) // MaxSeriesPerRun: 3
	r := st.Run("run1")
	for _, name := range []string{"a", "b", "c"} {
		if err := r.Append(name, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Append("overflow", 0, 1); err == nil {
		t.Fatal("series cap did not refuse the 4th series")
	}
	restored, err := r.Snapshot().Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Dropped(); !reflect.DeepEqual(got, []string{"overflow"}) {
		t.Errorf("restored Dropped() = %v, want [overflow]", got)
	}
}

// TestRestoreRejectsMalformed pins the hostile-input contract: decoded
// snapshots with impossible shapes error, never panic, never install.
func TestRestoreRejectsMalformed(t *testing.T) {
	valid := func() *Snapshot {
		st := New(smallOpts())
		r := st.Run("run1")
		appendRamp(t, r, "power", 4, 10)
		return r.Snapshot()
	}
	cases := []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"nil snapshot", nil},
		{"unnamed series", func(s *Snapshot) { s.Series[0].Name = "" }},
		{"duplicate series", func(s *Snapshot) { s.Series = append(s.Series, s.Series[0]) }},
		{"too many levels", func(s *Snapshot) {
			s.Series[0].Levels = append(s.Series[0].Levels, nil, nil, nil, nil)
		}},
		{"too many pending", func(s *Snapshot) {
			s.Series[0].Pending = make([]Point, 10)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var snap *Snapshot
			if tc.mutate != nil {
				snap = valid()
				tc.mutate(snap)
			}
			if _, err := snap.Restore(); err == nil {
				t.Errorf("%s restored without error", tc.name)
			}
		})
	}
}

// TestStoreRestoreInstalls pins the store-level hook: a restored run is
// reachable through Lookup under its id.
func TestStoreRestoreInstalls(t *testing.T) {
	src := New(smallOpts())
	r := src.Run("orig")
	appendRamp(t, r, "power", 4, 10)

	dst := New(smallOpts())
	if _, err := dst.Restore("copied", r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := dst.Lookup("copied")
	if got == nil {
		t.Fatal("restored run not installed")
	}
	wantPts, _, _ := r.Query("power", 0, 0, 0)
	gotPts, _, _ := got.Query("power", 0, 0, 0)
	if !reflect.DeepEqual(gotPts, wantPts) {
		t.Errorf("installed run answers %v, want %v", gotPts, wantPts)
	}
}
