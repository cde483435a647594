package tsdb

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
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

// TestDroppedRunReadsUnchanged holds a run across Drop while another
// run refills the series Drop recycled: every read of the held run —
// queries at several resolutions, its series and refused names, its
// snapshot bytes — answers as before, also from a reader racing the
// drop and the refill, and an append to it is refused without a write.
func TestDroppedRunReadsUnchanged(t *testing.T) {
	const step = 60
	st := New(Options{PointsPerLevel: 64, Levels: 3, MaxSeriesPerRun: 4})
	old := st.Run("old")
	names := []string{"cap", "pending_cores", "power", "running_jobs"}
	for i, name := range names {
		// Past 64 points level 0 wraps; the counts differ so each
		// series stops mid-batch at a different level.
		appendRamp(t, old, name, 300+7*i, step)
	}
	if err := old.Append("extra", 0, 0); err == nil {
		t.Fatal("a fifth series was accepted past MaxSeriesPerRun 4")
	}

	type view struct {
		Series, Dropped []string
		Points          [][]Point
		Per             []int
		Snapshot        []byte
	}
	look := func(r *Run) (view, error) {
		v := view{Series: r.Series(), Dropped: r.Dropped()}
		for _, name := range names {
			for _, q := range [][3]int64{{0, 0, 0}, {0, 0, fanout * step}, {0, 0, fanout * fanout * step}, {100 * step, 200 * step, 0}} {
				pts, per, err := r.Query(name, q[0], q[1], q[2])
				if err != nil {
					return v, err
				}
				v.Points, v.Per = append(v.Points, pts), append(v.Per, per)
			}
		}
		var err error
		v.Snapshot, err = r.Snapshot().MarshalJSON()
		return v, err
	}
	want, err := look(old)
	if err != nil {
		t.Fatal(err)
	}
	held := map[*series]bool{}
	for _, s := range old.series {
		held[s] = true
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got, err := look(old); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("a concurrent read of the dropped run changed (err %v)", err)
				return
			}
		}
	}()
	st.Drop("old")
	fresh, ref := st.Run("fresh"), New(st.opt).Run("fresh")
	for i, name := range names {
		for j := 0; j < 500; j++ {
			for _, r := range []*Run{fresh, ref} {
				if err := r.Append(name, int64(j)*step/2, -float64(i+j)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	close(stop)
	<-done
	refView, err := look(ref)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := look(fresh); err != nil || !reflect.DeepEqual(got, refView) {
		t.Errorf("a run refilling recycled series reads unlike one on new series (err %v)", err)
	}
	recycled := 0
	for _, s := range fresh.series {
		if held[s] {
			recycled++
		}
	}
	t.Logf("the refill took %d of the dropped run's %d series", recycled, len(held))

	if got, err := look(old); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("reads of the dropped run changed after the refill (err %v)", err)
	}
	if err := old.Append("power", 1<<40, 1); err == nil {
		t.Error("an append to a dropped run was accepted")
	}
	if got, err := look(old); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("a refused append changed the dropped run (err %v)", err)
	}
}

// TestRecycleKeepsToStoreOptions pins who shares the pool: a snapshot
// restored at the store's own options fills a dropped run's series, and
// one restored at other options neither takes the store's series nor
// gives back its own when dropped.
func TestRecycleKeepsToStoreOptions(t *testing.T) {
	o := smallOpts()
	st := New(o)
	appendRamp(t, st.Run("own"), "power", 10, 1)
	snap := st.Lookup("own").Snapshot()
	dropped := st.Lookup("own").series["power"]
	st.Drop("own")

	foreign := New(Options{PointsPerLevel: 8, Levels: 3, MaxSeriesPerRun: 3}).Run("x")
	appendRamp(t, foreign, "power", 10, 1)
	fr, err := st.Restore("foreign", foreign.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if fr.series["power"] == dropped {
		t.Error("a snapshot at other options took the store's dropped series")
	}
	restored, err := st.Restore("own", snap)
	if err != nil {
		t.Fatal(err)
	}
	if !raceEnabled && restored.series["power"] != dropped {
		t.Error("a snapshot at the store's options did not fill the dropped series")
	}

	foreignSeries := fr.series["power"]
	st.Drop("foreign")
	appendRamp(t, st.Run("next"), "power", 10, 1)
	next := st.Lookup("next").series["power"]
	if next == foreignSeries {
		t.Error("a new run took the series a foreign snapshot's run gave back")
	}
	if len(next.levels[0].buf) != o.PointsPerLevel {
		t.Errorf("a new run's rings hold %d points, want %d", len(next.levels[0].buf), o.PointsPerLevel)
	}
}

// TestRecycledRunAllocCeiling gates the recycling: once a run has been
// dropped, the daemon's four series at 31 points each — one service_cold
// run — written into a new run and dropped again allocate under 16 kB,
// the run itself and the compact copies Drop leaves a reader. With
// every series built afresh it was 330 kB.
func TestRecycledRunAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	const ceilingKB = 16
	// The collector empties a sync.Pool; keep it off while counting.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st := New(Options{})
	names := []string{"power", "cap", "pending_cores", "running_jobs"}
	cycle := func() {
		r := st.Run("run")
		for i := 0; i < 31; i++ {
			for _, name := range names {
				if err := r.Append(name, int64(i)*60, float64(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		st.Drop("run")
	}
	cycle()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e3
	t.Logf("a recycled run of 4 series x 31 points allocates %.2f kB (ceiling %d kB)", kb, ceilingKB)
	if kb > ceilingKB {
		t.Errorf("a recycled run of 4 series x 31 points allocates %.2f kB, ceiling %d kB", kb, ceilingKB)
	}
}
