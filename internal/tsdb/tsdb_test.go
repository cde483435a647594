package tsdb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// small options keep the pyramids inspectable: 4 points per ring,
// 3 levels, fanout 2.
func smallOpts() Options {
	return Options{PointsPerLevel: 4, Levels: 3, Fanout: 2, MaxSeriesPerRun: 3}
}

func appendRamp(t *testing.T, r *Run, name string, n int, step int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := r.Append(name, int64(i)*step, float64(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// TestDownsampleGolden pins the exact pyramid of a ramp 0..7 at step 10:
// level 1 points aggregate raw pairs, level 2 aggregates quadruples,
// with mean/min/max computed over each batch.
func TestDownsampleGolden(t *testing.T) {
	st := New(smallOpts())
	r := st.Run("run1")
	appendRamp(t, r, "power", 8, 10)

	// Level 0 ring holds the last 4 raw points (4..7).
	got, per, err := r.Query("power", 40, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []Point{
		{T: 40, Mean: 4, Min: 4, Max: 4, Count: 1},
		{T: 50, Mean: 5, Min: 5, Max: 5, Count: 1},
		{T: 60, Mean: 6, Min: 6, Max: 6, Count: 1},
		{T: 70, Mean: 7, Min: 7, Max: 7, Count: 1},
	}
	if per != 1 || !reflect.DeepEqual(got, want) {
		t.Errorf("level0 query = (%v, per=%d)\nwant %v", got, per, want)
	}

	// Level 1: pairs (0,1) (2,3) (4,5) (6,7).
	got, per, err = r.Query("power", 0, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	want = []Point{
		{T: 0, Mean: 0.5, Min: 0, Max: 1, Count: 2},
		{T: 20, Mean: 2.5, Min: 2, Max: 3, Count: 2},
		{T: 40, Mean: 4.5, Min: 4, Max: 5, Count: 2},
		{T: 60, Mean: 6.5, Min: 6, Max: 7, Count: 2},
	}
	if per != 2 || !reflect.DeepEqual(got, want) {
		t.Errorf("level1 query = (%v, per=%d)\nwant %v", got, per, want)
	}

	// Level 2: quadruples (0..3) (4..7).
	got, per, err = r.Query("power", 0, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	want = []Point{
		{T: 0, Mean: 1.5, Min: 0, Max: 3, Count: 4},
		{T: 40, Mean: 5.5, Min: 4, Max: 7, Count: 4},
	}
	if per != 4 || !reflect.DeepEqual(got, want) {
		t.Errorf("level2 query = (%v, per=%d)\nwant %v", got, per, want)
	}
}

// TestQueryFallsBackToCoarserLevel checks the eviction trade: asking
// for full resolution over a window the level-0 ring has already
// dropped steps up to the coarser level that still covers it.
func TestQueryFallsBackToCoarserLevel(t *testing.T) {
	st := New(smallOpts())
	r := st.Run("run1")
	appendRamp(t, r, "power", 16, 10)

	// Level 0 retains t in [120, 150]; t=0 survives only at level 2.
	got, per, err := r.Query("power", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].T != 0 {
		t.Fatalf("fallback query = %v, want coverage from t=0", got)
	}
	if per != 4 {
		t.Errorf("fallback picked raw_per_point=%d, want 4 (level 2)", per)
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
