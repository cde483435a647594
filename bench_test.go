// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Figures 2-8 and the Section VII-C claims), plus ablations
// of the design choices ARCHITECTURE.md calls out and micro-benchmarks of the
// hot paths. Replayed figures run on a 4-rack (360-node) slice so a full
// `go test -bench=.` stays in laptop territory; pass the full machine via
// the cmd/expfig tool instead when absolute fidelity matters.
//
// Benchmarks report normalized work/energy through b.ReportMetric so the
// paper-shape comparisons `expfig -fig claims` prints (README,
// "Reproducing a figure end to end") regenerate from the bench output
// alone.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/experiment"
	"repro/internal/job"
	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/reservation"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/signal"
	"repro/internal/sim"
	"repro/internal/simengine"
	"repro/internal/trace"
)

const benchRacks = 4 // 360 nodes, 5760 cores

// --- Figures 2-5: model tables --------------------------------------

// figureText renders one static figure through the registry.
func figureText(b *testing.B, name string) string {
	b.Helper()
	text, _, err := sim.RunFigure(context.Background(), name, sim.FigureOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return text
}

func BenchmarkFig2PowerBonus(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = figureText(b, "2")
	}
	if len(out) == 0 {
		b.Fatal("empty artifact")
	}
}

func BenchmarkFig3PowerTimeTradeoff(b *testing.B) {
	prof := power.CurieProfile()
	for i := 0; i < b.N; i++ {
		pts := apps.Figure3Points(prof)
		if len(pts) != 32 {
			b.Fatalf("points = %d", len(pts))
		}
	}
}

func BenchmarkFig4PowerTable(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = figureText(b, "4")
	}
	if len(out) == 0 {
		b.Fatal("empty artifact")
	}
}

func BenchmarkFig5RhoTable(b *testing.B) {
	prof := power.CurieProfile()
	for i := 0; i < b.N; i++ {
		for _, row := range apps.Figure5Rows() {
			_ = row.Rho(prof)
		}
	}
}

// --- Figures 6-8 and claims: replayed experiments -------------------

func runScenario(b *testing.B, s replay.Scenario) replay.Result {
	b.Helper()
	var r replay.Result
	for i := 0; i < b.N; i++ {
		r = replay.RunContextWith(context.Background(), s, nil)
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ReportMetric(r.Summary.NormWork, "normWork")
	b.ReportMetric(r.Summary.NormEnergy, "normEnergy")
	return r
}

func BenchmarkFig6Mix24h(b *testing.B) {
	r := runScenario(b, replay.Fig6Scenario(benchRacks))
	if len(r.Samples) == 0 {
		b.Fatal("no samples")
	}
}

func BenchmarkFig7aShutBigjob(b *testing.B) {
	runScenario(b, replay.Fig7aScenario(benchRacks))
}

func BenchmarkFig7bDvfsSmalljob(b *testing.B) {
	runScenario(b, replay.Fig7bScenario(benchRacks))
}

func BenchmarkFig8PolicySweep(b *testing.B) {
	scens := replay.Fig8Scenarios(benchRacks)
	var results []replay.Result
	for i := 0; i < b.N; i++ {
		results = experiment.Runner{}.Run("sweep", scens).Results()
	}
	for _, r := range results {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

func BenchmarkClaims24h(b *testing.B) {
	scens := replay.Claims24hScenarios(benchRacks)
	var results []replay.Result
	for i := 0; i < b.N; i++ {
		results = experiment.Runner{}.Run("sweep", scens).Results()
	}
	for _, r := range results {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

// --- Ablations -------------------------------------------------------

func BenchmarkAblationGroupedShutdown(b *testing.B) {
	scens := replay.AblationGroupingScenarios(benchRacks)
	var results []replay.Result
	for i := 0; i < b.N; i++ {
		results = experiment.Runner{}.Run("sweep", scens).Results()
	}
	if results[0].Err != nil || results[1].Err != nil {
		b.Fatal("ablation run failed")
	}
	// grouped[0] vs scattered[1]: report the bonus harvested.
	b.ReportMetric(float64(results[0].Plan.PlannedSaving-results[1].Plan.PlannedSaving), "bonusWattsGain")
}

func BenchmarkAblationMixFloor(b *testing.B) {
	scens := replay.AblationMixFloorScenarios(benchRacks)
	var results []replay.Result
	for i := 0; i < b.N; i++ {
		results = experiment.Runner{}.Run("sweep", scens).Results()
	}
	for _, r := range results {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ReportMetric(results[0].Summary.NormEnergy, "mixEnergy")
	b.ReportMetric(results[1].Summary.NormEnergy, "fullRangeEnergy")
}

func BenchmarkAblationDynamicDVFS(b *testing.B) {
	scens := replay.AblationDynamicDVFSScenarios(benchRacks)
	var results []replay.Result
	for i := 0; i < b.N; i++ {
		results = experiment.Runner{}.Run("sweep", scens).Results()
	}
	for _, r := range results {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ReportMetric(float64(results[1].Summary.Rescales), "rescales")
	b.ReportMetric(results[0].Summary.NormWork, "staticWork")
	b.ReportMetric(results[1].Summary.NormWork, "dynamicWork")
}

func BenchmarkAblationMeasuredPower(b *testing.B) {
	s := replay.Fig7aScenario(benchRacks)
	s.MeasuredNoise = 0.03
	runScenario(b, s)
}

func BenchmarkAblationCompactPlacement(b *testing.B) {
	s := replay.Fig7bScenario(benchRacks)
	// Compact, topology-aware allocation (Section IV-A's network
	// criterion) versus the default first-fit packing.
	var results []replay.Result
	for i := 0; i < b.N; i++ {
		results = experiment.Runner{}.Run("sweep", []replay.Scenario{s, func() replay.Scenario {
			c := s
			c.Compact = true
			c.Name += "/compact"
			return c
		}()}).Results()
	}
	for _, r := range results {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ReportMetric(results[0].Summary.NormWork, "firstFitWork")
	b.ReportMetric(results[1].Summary.NormWork, "compactWork")
}

func BenchmarkAblationKillOnOverrun(b *testing.B) {
	s := replay.Fig7aScenario(benchRacks)
	s.KillOnOverrun = true
	r := runScenario(b, s)
	b.ReportMetric(float64(r.Summary.JobsKilled), "killed")
}

func BenchmarkAblationReservationLead(b *testing.B) {
	s := replay.Fig7aScenario(benchRacks)
	s.ReservationLeadSec = 1800
	runScenario(b, s)
}

func BenchmarkAblationBackfillDepth(b *testing.B) {
	s := replay.Fig6Scenario(benchRacks)
	s.BackfillDepth = 10 // starved backfill, the paper's observed pathology
	runScenario(b, s)
}

// --- Parallel sweep engine -------------------------------------------

// sweepBenchGrid is the experiment-engine benchmark grid: 2 workloads x
// (uncapped baseline + 2 caps x 3 policies) = 14 configurations on a
// 2-rack machine — big enough that the worker pool has real work to
// balance, small enough for `go test -bench Sweep` to stay quick.
func sweepBenchGrid() experiment.Grid {
	return experiment.Grid{
		Name: "bench",
		Workloads: []trace.Config{
			{Kind: trace.SmallJob, Seed: 1002},
			{Kind: trace.MedianJob, Seed: 1001},
		},
		CapFractions: []float64{0, 0.6, 0.4},
		Policies:     []core.Policy{core.PolicyShut, core.PolicyDvfs, core.PolicyMix},
		Base:         replay.Scenario{ScaleRacks: 2},
	}
}

// TestSweepAllocCeiling bounds the bytes one serial sweep of
// sweepBenchGrid allocates: 21.6 MB when each of the 14 cells generated
// its workload and cloned the list it had just generated, 14.6 MB once
// each of the two workloads was generated once per sweep and a replay
// kept the list it generated, 10.7 MB once a cell's clones were one
// slab, no event was a closure and the pending queue reused its array,
// 3.92 MB once a controller never wrote a job and a cell copied none of
// the list it shares, 3.48 MB once the controller kept no per-node job
// lists (the cluster counts each node's cores per rung in one slice it
// allocates up front), 2.92 MB now that a metrics sample builds no map,
// a workload's user names come from one table and the running table
// grows in blocks. The ceiling keeps that from regressing silently.
func TestSweepAllocCeiling(t *testing.T) {
	const ceilingMB = 3.4
	grid := sweepBenchGrid()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := experiment.Runner{Workers: 1}.Run(grid.Name, grid.Scenarios())
	runtime.ReadMemStats(&after)
	if errs := tab.Errs(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("one sweep of %d cells allocates %.2f MB (ceiling %.1f MB)", len(tab.Rows), mb, ceilingMB)
	if mb > ceilingMB {
		t.Errorf("one sweep of %d cells allocates %.2f MB, ceiling %.1f MB", len(tab.Rows), mb, ceilingMB)
	}
}

// TestFederationAllocCeiling bounds the bytes one operation of the
// benchmark's federation_epochs workload allocates: entry 0 of its pool
// (bench/replay.go federationPool), a four-cell federated sweep — {2, 4}
// members x {prorata, demand} on 4-rack machines under a 50 % site
// budget following a diurnal signal, 300 s epochs — run through sim.Run
// as the benchmark runs it. 3.42 MB while every metrics sample built a
// map of its cores by frequency, every workload built its user names
// anew and the running table grew by copying, 2.70 MB while every
// member of every cell generated its own workload (12 lists, 4 of them
// distinct) and the division records and site series grew by copying,
// 2.02 MB now. The ceiling keeps that from regressing silently.
func TestFederationAllocCeiling(t *testing.T) {
	const ceilingMB = 2.1
	spec := sim.RunSpec{
		Racks:        4,
		CapFractions: []float64{0.5},
		Workers:      1,
		Federation: &sim.FederationSpec{
			MemberCounts: []int{2, 4},
			Divisions:    []string{"prorata", "demand"},
			EpochSec:     300,
			Signal:       &signal.Spec{Kind: "diurnal", Amplitude: 0.3},
		},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := sim.Run(context.Background(), spec)
	runtime.ReadMemStats(&after)
	if err == nil && len(rep.Errs()) > 0 {
		err = rep.Errs()[0]
	}
	if err != nil {
		t.Fatal(err)
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("one federation_epochs operation allocates %.2f MB (ceiling %.1f MB)", mb, ceilingMB)
	if mb > ceilingMB {
		t.Errorf("one federation_epochs operation allocates %.2f MB, ceiling %.1f MB", mb, ceilingMB)
	}
}

// BenchmarkSweep measures the parallel sweep engine: the serial
// baseline against 4-worker and GOMAXPROCS pools over the same
// 14-configuration grid. Every variant must aggregate to the identical
// fingerprint — the engine's determinism contract. Its timings are for
// profiling; bench/run.sh's sweep_grid workload is the measurement.
func BenchmarkSweep(b *testing.B) {
	grid := sweepBenchGrid()
	scens := grid.Scenarios()
	if len(scens) < 12 {
		b.Fatalf("grid has %d configurations, want >= 12", len(scens))
	}
	refFP := ""
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"workers4", 4},
		{"workersMax", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var t experiment.Table
			for i := 0; i < b.N; i++ {
				t = experiment.Runner{Workers: bc.workers}.Run(grid.Name, scens)
			}
			if errs := t.Errs(); len(errs) > 0 {
				b.Fatal(errs[0])
			}
			if fp := t.Fingerprint(); refFP == "" {
				refFP = fp
			} else if fp != refFP {
				b.Fatalf("aggregated metrics differ from serial reference at %d workers", t.Workers)
			}
			b.ReportMetric(float64(len(t.Rows)), "configs")
		})
	}
}

// --- Micro-benchmarks of the hot paths -------------------------------

func BenchmarkClusterPowerTransition(b *testing.B) {
	c := cluster.NewCurie()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := cluster.NodeID(i % c.Nodes())
		if err := c.Occupy([]cluster.Alloc{{Node: id, Cores: 1}}, dvfs.F2700); err != nil {
			b.Fatal(err)
		}
		if err := c.Vacate([]cluster.Alloc{{Node: id, Cores: 1}}, dvfs.F2700); err != nil {
			b.Fatal(err)
		}
		_ = c.Power()
	}
}

func BenchmarkOfflinePlanFullCurie(b *testing.B) {
	c := cluster.NewCurie()
	pm := core.CuriePolicyModel(core.PolicyShut)
	budget := power.CapFraction(0.4, c.MaxPower())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := core.PlanOffline(c, pm, budget, true, nil)
		if len(plan.OffNodes) == 0 {
			b.Fatal("empty plan")
		}
	}
}

func BenchmarkOnlineSelectFreq(b *testing.B) {
	c := cluster.NewCurie()
	pm := core.CuriePolicyModel(core.PolicyDvfs)
	nodes := []cluster.NodeID{0, 1, 2, 3}
	budget := power.CapWatts(c.IdlePower() + 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := core.SelectFreqUnderCap(c, pm, nodes, func(dvfs.Freq) power.Cap {
			return budget
		}); !ok {
			b.Fatal("selection failed")
		}
	}
}

// BenchmarkSelectFreqRefused is the federation case of Algorithm 2: a
// DVFS launch onto 64 partly used Curie nodes (half of them busy at
// 1.2 GHz, so the frequency uplift counts) and 8 idle ones, under an
// active cap with no headroom, so the draw check refuses every rung.
// The bracketed search settles it in two draw checks — top, then bottom
// — where a walk made one per rung.
func BenchmarkSelectFreqRefused(b *testing.B) {
	c := cluster.NewCurie()
	pm := core.CuriePolicyModel(core.PolicyDvfs)
	nodes := make([]cluster.NodeID, 64)
	for i := range nodes {
		nodes[i] = cluster.NodeID(i)
		f := dvfs.F2700
		if i%2 == 0 {
			f = dvfs.F1200
		}
		if err := c.Occupy([]cluster.Alloc{{Node: nodes[i], Cores: 1}}, f); err != nil {
			b.Fatal(err)
		}
	}
	const idle = 8
	budget := power.CapWatts(c.Power())
	draw := func(f dvfs.Freq) bool {
		return budget.Allows(c.Power() + c.OccupyDelta(nodes, f) + c.IdleOccupyDelta(idle, f))
	}
	ahead := func(dvfs.Freq) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := core.SelectFreq(pm, draw, ahead); ok {
			b.Fatal("a launch with no headroom was admitted")
		}
	}
}

// BenchmarkAllocateFullCurie materialises a 512-core allocation on an
// idle Curie, as a commit does: off the standing first-fit frontier into
// a reused buffer.
func BenchmarkAllocateFullCurie(b *testing.B) {
	c := cluster.NewCurie()
	var (
		frontiers sched.Frontiers
		dst       []job.Alloc
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		allocs, found := frontiers.For(c, nil, nil).Take(512, dst)
		dst = allocs[:0]
		if !found {
			b.Fatal("allocation failed")
		}
	}
}

// blockedCurie is the machine as a capped replay sees it: the book holds
// the upper 60 % of Curie for a switch-off whose lead-in has begun
// (preferred, yet blocked for any job reaching the window), the rest is
// busy except for a partly used node in eight and an idle one in sixteen.
func blockedCurie(b *testing.B) (*cluster.Cluster, *reservation.Book) {
	c := cluster.NewCurie()
	per := c.Topology().CoresPerNode
	group := cluster.SelectGrouped(c, c.Nodes()*6/10, nil)
	book := reservation.NewBook(c.Topology())
	if _, err := book.AddSwitchOff(1000, 5000, group); err != nil {
		b.Fatal(err)
	}
	for id := cluster.NodeID(0); int(id) < c.Nodes()-len(group); id++ {
		used := per
		switch {
		case id%16 == 0:
			continue
		case id%8 == 0:
			used = per / 2
		}
		if err := c.Occupy([]cluster.Alloc{{Node: id, Cores: used}}, dvfs.F2700); err != nil {
			b.Fatal(err)
		}
	}
	return c, book
}

// blockedCurieRequests are the probes of the two benchmarks below; the
// 8 192-core request passes the free-core bound and must fail.
var blockedCurieRequests = []struct {
	cores int
	fits  bool
}{{16, true}, {512, true}, {8192, false}}

// BenchmarkAllocateBlockedCurie materialises an allocation on
// blockedCurie, as a commit does: eligibility decided once
// (Book.BlockedSet), then the standing first-fit frontier takes the
// nodes into a reused buffer. Its cost grows with the nodes the request
// spans.
func BenchmarkAllocateBlockedCurie(b *testing.B) {
	c, book := blockedCurie(b)
	const now, wall, lead = 0, 86400, 1800
	var (
		frontiers sched.Frontiers
		dst       []job.Alloc
		scratch   cluster.NodeSet
	)
	for _, req := range blockedCurieRequests {
		b.Run(fmt.Sprintf("cores%d", req.cores), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blocked := book.BlockedSet(now, now+wall, lead, &scratch)
				held, _ := book.Held()
				allocs, found := frontiers.For(c, blocked, held).Take(req.cores, dst)
				dst = allocs[:0]
				if found != req.fits {
					b.Fatalf("%d cores: found = %v", req.cores, found)
				}
			}
		})
	}
}

// BenchmarkProbeBlockedCurie asks the same questions as a scheduling
// probe does: eligibility decided once, then the standing first-fit
// frontier counts what the request would take. Its cost must be flat in
// the request size — where the allocator's above grows — and it
// allocates nothing.
func BenchmarkProbeBlockedCurie(b *testing.B) {
	c, book := blockedCurie(b)
	const now, wall, lead = 0, 86400, 1800
	var (
		frontiers sched.Frontiers
		scratch   cluster.NodeSet
	)
	for _, req := range blockedCurieRequests {
		b.Run(fmt.Sprintf("cores%d", req.cores), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blocked := book.BlockedSet(now, now+wall, lead, &scratch)
				held, _ := book.Held()
				if _, _, found := frontiers.For(c, blocked, held).Fit(req.cores); found != req.fits {
					b.Fatalf("%d cores: found = %v", req.cores, found)
				}
			}
		})
	}
}

func BenchmarkEventEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := simengine.New(0)
		for t := int64(0); t < 1000; t++ {
			if _, err := e.At(t, func(simengine.Time, any) {}, nil); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Run(-1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCycle measures the event queue's steady-state cycle —
// the At/Cancel/fire trio every simulated event pays, on Run, the loop
// the controller drives. A pool of self-rescheduling handlers, one per
// second of virtual time, keeps the heap at constant depth; each
// iteration runs one second further (one event fires) and also
// schedules-and-cancels one event so tombstone purging is part of the
// measured cost.
func BenchmarkEngineCycle(b *testing.B) {
	e := simengine.New(0)
	const pool = 512
	var tick simengine.Handler
	tick = func(now simengine.Time, _ any) {
		if _, err := e.At(now+pool, tick, nil); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < pool; i++ {
		if _, err := e.At(int64(i), tick, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := e.At(e.Now()+pool/2, tick, nil)
		if err != nil {
			b.Fatal(err)
		}
		e.Cancel(id)
		if err := e.Run(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if e.Fired() != uint64(b.N) {
		b.Fatalf("fired %d events in %d cycles", e.Fired(), b.N)
	}
}

// BenchmarkSchedulePass measures the controller's scheduling hot path
// end to end: one capped SHUT scenario on the bench slice, whose cost
// is dominated by EASY-backfill passes (allocation probes, the shadow
// window, power projections) rather than event dispatch.
func BenchmarkSchedulePass(b *testing.B) {
	s := replay.Scenario{
		Name:        "bench-pass",
		Workload:    trace.Config{Kind: trace.MedianJob, Seed: 3},
		Policy:      core.PolicyShut,
		CapFraction: 0.5,
		ScaleRacks:  benchRacks,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := replay.RunContextWith(context.Background(), s, nil)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if res.Summary.JobsCompleted == 0 {
			b.Fatal("scenario completed no jobs")
		}
	}
}

func BenchmarkTraceGenerate(b *testing.B) {
	cfg := trace.Config{Kind: trace.MedianJob, Seed: 1, Cores: 5760}
	for i := 0; i < b.N; i++ {
		jobs, err := trace.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(jobs) == 0 {
			b.Fatal("empty workload")
		}
	}
}

// BenchmarkSWFStream measures the streaming trace pipeline: scanning a
// ~10k-job SWF trace through window + rescale transforms, the per-job
// cost that bounds how fast million-job archive traces ingest.
func BenchmarkSWFStream(b *testing.B) {
	jobs, err := trace.Generate(trace.Config{Kind: trace.MedianJob, Seed: 1, Cores: 80640})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteSWF(&buf, jobs, "bench trace"); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	dur := trace.MedianJob.Duration()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := trace.ScaleCores(trace.Window(trace.NewScanner(bytes.NewReader(raw)), 0, dur), 80640, 5760)
		n := 0
		for {
			j, err := src.Next()
			if err != nil {
				b.Fatal(err)
			}
			if j == nil {
				break
			}
			n++
		}
		if n == 0 {
			b.Fatal("empty stream")
		}
	}
	b.ReportMetric(float64(len(jobs)), "jobs")
}

func BenchmarkModelSolve(b *testing.B) {
	p := model.CurieParams(5040)
	for i := 0; i < b.N; i++ {
		if _, err := model.SolveFraction(p, 0.4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Service layer ----------------------------------------------------

// BenchmarkServiceSubmit measures the simd submission round trip
// through the real HTTP API: "cold" submits distinct specs (every
// iteration executes the engine), "cachehit" resubmits one already
// finished spec (every iteration is served from the spec-hash result
// cache). The gap between the two is the daemon's heavy-traffic story.
func BenchmarkServiceSubmit(b *testing.B) {
	baseSpec := func() sim.RunSpec {
		return sim.RunSpec{
			Workload:     sim.WorkloadSpec{Kind: "smalljob", Seed: 1002, DurationSec: 3600},
			Racks:        1,
			Policies:     []string{"SHUT"},
			CapFractions: []float64{0.6},
		}
	}
	boot := func(b *testing.B) (*service.Server, *service.Client, func()) {
		srv := service.New(service.Config{Workers: 1, MaxRuns: 1 << 20})
		ts := httptest.NewServer(srv.Handler())
		c := service.NewClient(ts.URL)
		c.PollInterval = 2 * time.Millisecond
		return srv, c, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			ts.Close()
		}
	}

	b.Run("cold", func(b *testing.B) {
		_, c, stop := boot(b)
		defer stop()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			spec := baseSpec()
			spec.Name = fmt.Sprintf("cold-%d", i) // distinct hash: forces execution
			v, hit, err := c.Submit(ctx, spec)
			if err != nil {
				b.Fatal(err)
			}
			if hit {
				b.Fatal("cold submission hit the cache")
			}
			if _, err := c.Wait(ctx, v.ID, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("cachehit", func(b *testing.B) {
		srv, c, stop := boot(b)
		defer stop()
		ctx := context.Background()
		v, _, err := c.Submit(ctx, baseSpec())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Wait(ctx, v.ID, nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, hit, err := c.Submit(ctx, baseSpec())
			if err != nil {
				b.Fatal(err)
			}
			if !hit || got.ID != v.ID {
				b.Fatalf("resubmission missed the cache (hit=%v id=%s)", hit, got.ID)
			}
		}
		b.StopTimer()
		if st := srv.Stats(); st.Executions != 1 {
			b.Fatalf("cache-hit loop executed %d times", st.Executions)
		}
	})
}
