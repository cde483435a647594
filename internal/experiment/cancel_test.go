package experiment

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/trace"
)

// cancelGrid is a sweep big enough that a quick cancellation lands
// mid-run at any worker count.
func cancelGrid() []replay.Scenario {
	return Grid{
		Workloads: []trace.Config{
			{Kind: trace.SmallJob, Seed: 1002},
			{Kind: trace.MedianJob, Seed: 1001},
		},
		CapFractions: []float64{0, 0.6, 0.4},
		Policies:     []core.Policy{core.PolicyShut, core.PolicyDvfs, core.PolicyMix},
		Base:         replay.Scenario{ScaleRacks: 2},
	}.Scenarios()
}

// TestRunContextCancelDrainsWorkers pins the cancellation contract:
// RunContext returns promptly with ctx.Err(), every unrun row carries
// its scenario plus the context error, finished rows are intact, and no
// pool goroutine outlives the call (the -race run of this test is the
// leak check the issue asks for).
func TestRunContextCancelDrainsWorkers(t *testing.T) {
	scens := cancelGrid()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var r Runner
	r.Workers = 4
	r.OnResult = func(done, total int, res Result) {
		if done == 1 {
			cancel() // cancel as soon as the first cell lands
		}
	}
	tab, err := r.RunContext(ctx, "cancelled", scens)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if len(tab.Rows) != len(scens) {
		t.Fatalf("partial table has %d rows, want %d", len(tab.Rows), len(scens))
	}
	finished, skipped := 0, 0
	for i, row := range tab.Rows {
		if row.Scenario.Name == "" {
			t.Errorf("row %d lost its scenario", i)
		}
		if errors.Is(row.Err, context.Canceled) {
			skipped++
			continue
		}
		if row.Err != nil {
			t.Errorf("row %d: unexpected error %v", i, row.Err)
		}
		finished++
	}
	if finished == 0 {
		t.Error("cancellation lost every finished cell; want the pre-cancel results kept")
	}
	if skipped == 0 {
		t.Error("cancellation skipped no cell; cancel landed too late to test anything")
	}

	// Workers must be gone: poll briefly, then compare goroutine counts.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after drain", before, after)
	}
}

// TestRunContextPreCancelled: a context cancelled before the call runs
// nothing, returns immediately, and still yields a fully-labelled table.
func TestRunContextPreCancelled(t *testing.T) {
	scens := cancelGrid()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	tab, err := Runner{Workers: 4}.RunContext(ctx, "dead", scens)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("pre-cancelled run took %v; want a prompt return", elapsed)
	}
	for i, row := range tab.Rows {
		if !errors.Is(row.Err, context.Canceled) {
			t.Errorf("row %d error = %v, want context.Canceled", i, row.Err)
		}
	}
}

// TestFederationRunContextCancel exercises the same contract on the
// federated pool.
func TestFederationRunContextCancel(t *testing.T) {
	grid := FederationGrid{
		MemberCounts: []int{2, 3},
		CapFractions: []float64{0.5, 0.6},
		Divisions:    []replay.Division{replay.DivideProRata, replay.DivideDemand},
		ScaleRacks:   1,
	}
	scens := grid.Scenarios()
	ctx, cancel := context.WithCancel(context.Background())
	var r FederationRunner
	r.Workers = 2
	r.OnResult = func(done, total int, res FederationResult) {
		if done == 1 {
			cancel()
		}
	}
	tab, err := r.RunContext(ctx, "fed-cancelled", scens)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	for i, row := range tab.Rows {
		if row.Scenario.Name == "" {
			t.Errorf("row %d lost its scenario", i)
		}
	}
}

// TestRunContextUncancelledMatchesRun: threading a live context through
// changes nothing — same fingerprint as the legacy entry point.
func TestRunContextUncancelledMatchesRun(t *testing.T) {
	scens := cancelGrid()[:4]
	a := Runner{Workers: 2}.Run("x", scens)
	b, err := Runner{Workers: 2}.RunContext(context.Background(), "x", scens)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("RunContext with a live context drifted from Run")
	}
}
