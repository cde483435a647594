package tsdb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// small options keep the pyramids inspectable: 4 points per ring,
// 3 levels (of fanout 4).
func smallOpts() Options {
	return Options{PointsPerLevel: 4, Levels: 3, MaxSeriesPerRun: 3}
}

func appendRamp(t *testing.T, r *Run, name string, n int, step int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := r.Append(name, int64(i)*step, float64(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// TestDownsampleGolden pins the exact pyramid of a ramp 0..15 at step
// 10: level 1 points aggregate raw quadruples, level 2 the whole
// sixteen, with mean/min/max computed over each batch.
func TestDownsampleGolden(t *testing.T) {
	if fanout != 4 {
		t.Fatalf("the golden pyramid is written for fanout 4, not %d", fanout)
	}
	st := New(smallOpts())
	r := st.Run("run1")
	appendRamp(t, r, "power", 16, 10)

	// Level 0 ring holds the last 4 raw points (12..15).
	got, per, err := r.Query("power", 120, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []Point{
		{T: 120, Mean: 12, Min: 12, Max: 12, Count: 1},
		{T: 130, Mean: 13, Min: 13, Max: 13, Count: 1},
		{T: 140, Mean: 14, Min: 14, Max: 14, Count: 1},
		{T: 150, Mean: 15, Min: 15, Max: 15, Count: 1},
	}
	if per != 1 || !reflect.DeepEqual(got, want) {
		t.Errorf("level0 query = (%v, per=%d)\nwant %v", got, per, want)
	}

	// Level 1: quadruples (0..3) (4..7) (8..11) (12..15).
	got, per, err = r.Query("power", 0, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	want = []Point{
		{T: 0, Mean: 1.5, Min: 0, Max: 3, Count: 4},
		{T: 40, Mean: 5.5, Min: 4, Max: 7, Count: 4},
		{T: 80, Mean: 9.5, Min: 8, Max: 11, Count: 4},
		{T: 120, Mean: 13.5, Min: 12, Max: 15, Count: 4},
	}
	if per != fanout || !reflect.DeepEqual(got, want) {
		t.Errorf("level1 query = (%v, per=%d)\nwant %v", got, per, want)
	}

	// Level 2: all sixteen (0..15).
	got, per, err = r.Query("power", 0, 0, 160)
	if err != nil {
		t.Fatal(err)
	}
	want = []Point{
		{T: 0, Mean: 7.5, Min: 0, Max: 15, Count: 16},
	}
	if per != fanout*fanout || !reflect.DeepEqual(got, want) {
		t.Errorf("level2 query = (%v, per=%d)\nwant %v", got, per, want)
	}
}

// TestQueryFallsBackToCoarserLevel checks the eviction trade: asking
// for full resolution over a window the level-0 ring has already
// dropped steps up to the coarser level that still covers it.
func TestQueryFallsBackToCoarserLevel(t *testing.T) {
	st := New(smallOpts())
	r := st.Run("run1")
	// Four full level-2 batches: level 0 retains the last 4 raw points
	// and level 1 the last 4 quadruples, so t=0 survives only at
	// level 2.
	appendRamp(t, r, "power", 4*fanout*fanout, 10)

	got, per, err := r.Query("power", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].T != 0 {
		t.Fatalf("fallback query = %v, want coverage from t=0", got)
	}
	if per != fanout*fanout {
		t.Errorf("fallback picked raw_per_point=%d, want %d (level 2)", per, fanout*fanout)
	}
}

// TestQueryFallsBackToFinerLevel pins the short-series regression: a
// coarse-resolution query on a series that has not cascaded anything
// into the picked level yet must answer from the finest populated level
// instead of returning an empty result.
func TestQueryFallsBackToFinerLevel(t *testing.T) {
	st := New(Options{}) // defaults: fanout 4, 4 levels
	r := st.Run("run1")
	appendRamp(t, r, "power", 60, 60) // level 3 needs 64 raw points — still empty

	got, per, err := r.Query("power", 0, 0, 7200)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatalf("coarse query on a short series returned no points (per=%d)", per)
	}
	if per > 16 {
		t.Errorf("answered from raw_per_point=%d, which holds no data for 60 samples", per)
	}
}

// TestBoundedMemory pins the bound: however many points stream in, each
// series retains at most Levels x PointsPerLevel points.
func TestBoundedMemory(t *testing.T) {
	o := smallOpts()
	st := New(o)
	r := st.Run("run1")
	appendRamp(t, r, "power", 100000, 1)
	total := 0
	for i, lv := range r.series["power"].levels {
		if lv.n > o.PointsPerLevel {
			t.Errorf("level %d holds %d points, cap %d", i, lv.n, o.PointsPerLevel)
		}
		total += lv.n
	}
	if max := o.Levels * o.PointsPerLevel; total > max {
		t.Errorf("series holds %d points, bound %d", total, max)
	}
}

func TestAppendErrors(t *testing.T) {
	st := New(smallOpts())
	r := st.Run("run1")
	if err := r.Append("a", 10, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Append("a", 5, 1); err == nil {
		t.Error("out-of-order append accepted")
	}
	// equal timestamps are legal (several samples in one event tick)
	if err := r.Append("a", 10, 2); err != nil {
		t.Errorf("equal-timestamp append rejected: %v", err)
	}
	for _, name := range []string{"b", "c"} {
		if err := r.Append(name, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Append("d", 0, 0); err == nil {
		t.Error("series cap not enforced")
	}
	if _, _, err := r.Query("nope", 0, 0, 0); err == nil {
		t.Error("unknown series query succeeded")
	}
}

func TestStoreRunLifecycle(t *testing.T) {
	st := New(Options{})
	st.Run("a").Append("s", 0, 1)
	st.Run("b").Append("s", 0, 1)
	if st.Lookup("a") == nil || st.Lookup("b") == nil || len(st.runs) != 2 {
		t.Errorf("stored runs = %v, want a and b", st.runs)
	}
	st.Drop("a")
	if st.Lookup("a") != nil {
		t.Error("Drop left the run behind")
	}
	if st.Lookup("never") != nil {
		t.Error("Lookup of unknown run non-nil")
	}
}

// TestConcurrentAppend exercises the locking under -race: many
// goroutines streaming into distinct series and runs of one store.
func TestConcurrentAppend(t *testing.T) {
	st := New(Options{PointsPerLevel: 32})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := st.Run(fmt.Sprintf("run%d", g%2))
			name := fmt.Sprintf("s%d", g)
			for i := 0; i < 1000; i++ {
				if err := r.Append(name, int64(i), float64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, id := range []string{"run0", "run1"} {
		if n := len(st.Run(id).Series()); n != 4 {
			t.Errorf("%s holds %d series, want 4", id, n)
		}
	}
}
