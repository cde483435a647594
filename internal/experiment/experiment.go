// Package experiment is the parallel experiment-sweep engine: it takes a
// grid of (policy x powercap schedule x workload trace x cluster
// topology) configurations, fans the cells out across a bounded worker
// pool, and aggregates the per-run metrics into one comparable table
// with CSV/JSON export and ASCII summary charts.
//
// The concurrency contract comes from the layers below: an
// rjms.Controller and its simengine.Engine are single-goroutine by
// construction, so a sweep runs one independent controller per cell and
// never shares mutable state between workers — the sweep is
// embarrassingly parallel. Every cell is seeded and replayed
// deterministically, and results are written back by cell index, so the
// aggregated table is identical at any worker count (Table.Fingerprint
// makes that checkable); only the wall-clock time changes.
//
// Typical use:
//
//	grid := experiment.Grid{
//		Workloads:    []trace.Config{{Kind: trace.SmallJob, Seed: 1002}},
//		CapFractions: []float64{0, 0.6, 0.4},
//		Policies:     []core.Policy{core.PolicyShut, core.PolicyMix},
//		Base:         replay.Scenario{ScaleRacks: 4},
//	}
//	table := experiment.Runner{}.Run("sweep", grid.Scenarios())
//	fmt.Print(table.ASCII(80))
package experiment

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/replay"
	"repro/internal/rjms"
	"repro/internal/trace"
)

// Grid is the declarative form of a sweep: the axes of the cross
// product plus a base scenario carrying everything the axes do not vary
// (machine scale, ablation switches, sampling period, an explicit SWF
// job list, ...).
type Grid struct {
	// Name labels the sweep; callers hand it to Runner.Run.
	Name string
	// Workloads is the trace axis (kind + seed + optional duration).
	Workloads []trace.Config
	// CapFractions is the powercap axis; values outside (0, 1) stand
	// for the uncapped baseline and collapse to one PolicyNone cell
	// per workload.
	CapFractions []float64
	// Policies is the powercap-policy axis, applied at each capped
	// fraction.
	Policies []core.Policy
	// Base supplies the shared scenario fields of every cell:
	// ScaleRacks, Scattered, DynamicDVFS, KillOnOverrun, window
	// placement, explicit Jobs, and the rest of replay.Scenario.
	Base replay.Scenario
}

// Scenarios expands the grid into its scenario list (the deterministic
// cell order of replay.SweepScenarios).
func (g Grid) Scenarios() []replay.Scenario {
	return replay.SweepScenarios(g.Base, g.Workloads, g.CapFractions, g.Policies)
}

// Result is one sweep cell's outcome plus its position and wall-clock
// cost.
type Result struct {
	replay.Result
	// Index is the cell's position in the expanded grid (results keep
	// this order regardless of scheduling).
	Index int
	// Elapsed is the cell's own wall-clock run time.
	Elapsed time.Duration
}

// Table is an aggregated sweep: one row per cell in grid order, plus
// the sweep-level accounting needed to judge parallel speedup.
type Table struct {
	// Name is the sweep label handed to Runner.Run.
	Name string
	// Rows hold the per-cell results in grid order.
	Rows []Result
	// Workers is the pool size the sweep ran with.
	Workers int
	// Elapsed is the whole sweep's wall-clock time.
	Elapsed time.Duration
}

// Results strips the sweep bookkeeping, returning the plain replay
// results in grid order — the form the figures package consumes.
func (t Table) Results() []replay.Result {
	out := make([]replay.Result, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r.Result
	}
	return out
}

// SerialCost is the summed per-cell wall-clock time — what a one-worker
// sweep would cost.
func (t Table) SerialCost() time.Duration {
	var sum time.Duration
	for _, r := range t.Rows {
		sum += r.Elapsed
	}
	return sum
}

// Speedup is the summed per-cell cost over the sweep's wall-clock: 1.0
// when serial, approaching the worker count when the cells balance.
// When workers exceed physical cores the per-cell times include
// runnable-but-descheduled waits, so this measures the pool's achieved
// concurrency; for hardware-level speedup compare whole-sweep
// wall-clock times at different worker counts (the Sweep benchmark
// does exactly that).
func (t Table) Speedup() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.SerialCost()) / float64(t.Elapsed)
}

// Runner executes sweeps on a bounded worker pool.
type Runner struct {
	// Workers bounds the pool; <= 0 means GOMAXPROCS. The pool never
	// exceeds the cell count.
	Workers int
	// OnResult, when set, observes each finished cell (serialized
	// across workers; done counts finished cells so far).
	OnResult func(done, total int, r Result)
	// Observe, when set, sees every cell's controller after its
	// workload is loaded and before any virtual time passes — the
	// attach point of telemetry collectors and invariant checkers. It
	// is called concurrently from the pool workers (one call per cell,
	// each with its own controller), so the callback must be safe for
	// concurrent use; anything it registers on the controller
	// (AddObserver) stays single-goroutine per cell.
	Observe func(index int, sc replay.Scenario, ctl *rjms.Controller)
}

// poolSize clamps a requested worker count against the cell count
// (<= 0 requests GOMAXPROCS).
func poolSize(workers, cells int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cells {
		workers = cells
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runIndexed fans fn(0..n-1) out across a bounded worker pool — the
// repo's one sweep pool. fn must write its result to its own index;
// runIndexed provides no other synchronization. workers must already be
// clamped by poolSize.
//
// Cancelling ctx stops the run promptly but cleanly: the feeder stops
// handing out cells, every worker finishes (or skips) the cell it
// holds, and runIndexed only returns once the whole pool has drained —
// no goroutine outlives the call, however early the cancellation (the
// -race cancellation tests pin this). Cells fn never ran stay untouched
// for the caller to mark. Returns ctx.Err().
func runIndexed(ctx context.Context, n, workers int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			fn(i)
		}
		return ctx.Err()
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// A cell handed over in the same instant as the cancel
				// is skipped, not run: drain the channel so the feeder
				// never blocks, but do no further work.
				if ctx.Err() == nil {
					fn(i)
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return ctx.Err()
}

// runCells is the one cell runner behind Runner and FederationRunner:
// it runs cell(i) for every index on the pool, reports each finished
// row through onResult (serialized across workers; done counts
// finished cells so far), and fills the rows of cells that never ran
// with skipped(i, ctx.Err()). Rows land at their index regardless of
// which worker ran them or in what order they finished.
func runCells[Row any](ctx context.Context, n, workers int, onResult func(done, total int, r Row),
	cell func(i int) Row, skipped func(i int, err error) Row) ([]Row, error) {
	rows := make([]Row, n)
	ran := make([]bool, n) // index-owned by the cell's worker
	var (
		mu   sync.Mutex // serializes onResult and the done counter
		done int
	)
	err := runIndexed(ctx, n, workers, func(i int) {
		rows[i] = cell(i)
		ran[i] = true
		if onResult != nil {
			mu.Lock()
			done++
			onResult(done, n, rows[i])
			mu.Unlock()
		}
	})
	for i := range rows {
		if !ran[i] {
			rows[i] = skipped(i, err)
		}
	}
	return rows, err
}

// Run executes the scenario list and aggregates the table. Each cell
// builds its own controller, so cells share nothing but the immutable
// scenario inputs.
func (r Runner) Run(name string, scenarios []replay.Scenario) Table {
	t, _ := r.RunContext(context.Background(), name, scenarios)
	return t
}

// sharedWorkload is one synthetic workload several scenarios of a sweep
// replay — sweep cells, or members of federation cells — generated by
// whichever of them loads first. The list is read-only once generated:
// each scenario loads it through Scenario.Jobs, and a controller reads
// jobs and never writes them, so the scenarios replay the one list
// concurrently and copy none of it.
type sharedWorkload struct {
	cfg  trace.Config
	once sync.Once
	jobs []*job.Job
	err  error
	left atomic.Int32 // scenarios yet to load the list
}

func (w *sharedWorkload) get() ([]*job.Job, error) {
	w.once.Do(func() { w.jobs, w.err = trace.Generate(w.cfg) })
	return w.jobs, w.err
}

// loaded records that one scenario is done with the list; the last one
// lets it go, so a sweep holds only the workloads it has still to
// replay.
func (w *sharedWorkload) loaded() {
	if w.left.Add(-1) == 0 {
		w.jobs = nil
	}
}

// generatedWorkload is what a scenario's synthetic workload is a
// function of: its trace.Config on its machine's core count. It is
// false for a scenario that replays an explicit list or an SWF stream.
func generatedWorkload(sc replay.Scenario) (trace.Config, bool) {
	if sc.Jobs != nil || sc.SWF != nil {
		return trace.Config{}, false
	}
	k := sc.Workload
	k.Cores = sc.Machine().Cores()
	return k, true
}

// shareWorkloads gives the scenarios that would generate the same
// workload one sharedWorkload. cells[i] lists the scenarios cell i
// replays — a sweep cell's one, a federation cell's members — and
// shared[i][m] is the entry of its m-th, nil where the workload is its
// own.
func shareWorkloads(cells [][]replay.Scenario) [][]*sharedWorkload {
	byKey := map[trace.Config]*sharedWorkload{}
	for _, scens := range cells {
		for _, sc := range scens {
			if k, ok := generatedWorkload(sc); ok {
				if byKey[k] == nil {
					byKey[k] = &sharedWorkload{cfg: k}
				}
				byKey[k].left.Add(1)
			}
		}
	}
	shared := make([][]*sharedWorkload, len(cells))
	for i, scens := range cells {
		shared[i] = make([]*sharedWorkload, len(scens))
		for m, sc := range scens {
			if k, ok := generatedWorkload(sc); ok && byKey[k].left.Load() >= 2 {
				shared[i][m] = byKey[k]
			}
		}
	}
	return shared
}

// loadShared runs one cell on its scenarios with every shared workload
// loaded from its one list instead of generated anew. run sees a copy
// of scenarios whose shared entries carry the list in Scenario.Jobs, so
// the caller's scenarios never hold one, and each list is let go once
// the cell is done with it. A cell that starts after ctx is cancelled
// loads nothing; a list that fails to generate ends the cell with
// failed(err).
func loadShared[Row any](ctx context.Context, scenarios []replay.Scenario, shared []*sharedWorkload,
	run func([]replay.Scenario) Row, failed func(error) Row) Row {
	if ctx.Err() != nil {
		return run(scenarios)
	}
	var loaded []replay.Scenario
	for m, w := range shared {
		if w == nil {
			continue
		}
		defer w.loaded()
		jobs, err := w.get()
		if err != nil {
			return failed(err)
		}
		if loaded == nil {
			loaded = slices.Clone(scenarios)
		}
		loaded[m].Jobs = jobs
	}
	if loaded == nil {
		loaded = scenarios
	}
	return run(loaded)
}

// RunContext is Run with cancellation: when ctx is cancelled the pool
// stops handing out cells, drains its in-flight workers, and returns
// the partial table plus ctx.Err(). Rows whose cell never ran carry
// their scenario and ctx.Err(), so the table stays self-describing;
// rows that finished before the cancel are complete and identical to
// an uncancelled run's.
//
// A workload several cells replay is generated once per sweep, by the
// first of its cells to run, so workers generate distinct workloads in
// parallel; the rows are bit-identical to cells that each generate their
// own, and carry the caller's scenario, not the shared list.
func (r Runner) RunContext(ctx context.Context, name string, scenarios []replay.Scenario) (Table, error) {
	return r.runShared(ctx, name, scenarios, shareWorkloads(singleCells(scenarios)))
}

// singleCells lists a sweep's scenarios as shareWorkloads cells, one
// scenario each.
func singleCells(scenarios []replay.Scenario) [][]replay.Scenario {
	cells := make([][]replay.Scenario, len(scenarios))
	for i := range scenarios {
		cells[i] = scenarios[i : i+1 : i+1]
	}
	return cells
}

// runShared is RunContext over the given shareWorkloads entries, one
// list per cell.
func (r Runner) runShared(ctx context.Context, name string, scenarios []replay.Scenario, shared [][]*sharedWorkload) (Table, error) {
	start := time.Now()
	workers := poolSize(r.Workers, len(scenarios))
	rows, err := runCells(ctx, len(scenarios), workers, r.OnResult,
		func(i int) Result {
			t0 := time.Now()
			var observe func(*rjms.Controller)
			if r.Observe != nil {
				observe = func(ctl *rjms.Controller) { r.Observe(i, scenarios[i], ctl) }
			}
			return loadShared(ctx, scenarios[i:i+1], shared[i],
				func(sc []replay.Scenario) Result {
					res := replay.RunContextWith(ctx, sc[0], observe)
					res.Scenario = scenarios[i]
					return Result{Result: res, Index: i, Elapsed: time.Since(t0)}
				},
				func(err error) Result {
					return Result{Result: replay.Result{Scenario: scenarios[i], Err: err}, Index: i, Elapsed: time.Since(t0)}
				})
		},
		func(i int, err error) Result {
			return Result{Result: replay.Result{Scenario: scenarios[i], Err: err}, Index: i}
		})
	return Table{Name: name, Rows: rows, Workers: workers, Elapsed: time.Since(start)}, err
}
