package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/federation"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/rjms"
	"repro/internal/signal"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The three replay-family workloads run a fixed pool of specs whose
// fingerprints are committed in expected.json. The pools do not derive
// their simulated populations from the seed: the host cost of one
// full-Curie replay moves by a factor of two with the job population
// (0.32 s to 0.69 s over five trace seeds on the box this was written
// on), a run has time for two dozen of them, and so a seed-drawn
// population would hand every run a different benchmark. The seed orders
// the pool instead, every run covers the whole pool the same number of
// times, and the simulated counters repeat exactly.

// curiePool is the paper's Section VII cell at paper scale — the full
// 56-rack Curie, smalljob, MIX under a 40 % cap, the default one-hour
// window — over four job populations.
func curiePool() []sim.RunSpec {
	var pool []sim.RunSpec
	for _, seed := range []int64{1002, 1003, 1004, 1005} {
		pool = append(pool, sim.RunSpec{
			Workload:     sim.WorkloadSpec{Kind: "smalljob", Seed: seed},
			Policies:     []string{"MIX"},
			CapFractions: []float64{0.4},
		})
	}
	return pool
}

// sweepPool is the 14-cell grid of BenchmarkSweep (smalljob + medianjob
// x {uncapped, 60 %, 40 % x SHUT/DVFS/MIX} on 2 racks) written as
// explicit cells, over four pairs of job populations; entry 0 is the
// BENCH_sweep.json grid itself.
func sweepPool(workers int) []sim.RunSpec {
	var pool []sim.RunSpec
	for k := int64(0); k < 4; k++ {
		var cells []sim.CellSpec
		for _, wl := range []sim.WorkloadSpec{
			{Kind: "smalljob", Seed: 1002 + 10*k},
			{Kind: "medianjob", Seed: 1001 + 10*k},
		} {
			wl := wl
			cells = append(cells, sim.CellSpec{Workload: &wl, Policy: "NONE"})
			for _, frac := range []float64{0.6, 0.4} {
				for _, p := range []string{"SHUT", "DVFS", "MIX"} {
					cells = append(cells, sim.CellSpec{Workload: &wl, Policy: p, CapFraction: frac})
				}
			}
		}
		pool = append(pool, sim.RunSpec{Name: "bench", Racks: 2, Cells: cells, Workers: workers})
	}
	return pool
}

// federationPool is a four-cell federated sweep — {2, 4} members x
// {prorata, demand} on 4-rack machines under a 50 % site budget with
// 300 s epochs — whose budget follows a diurnal signal; the four pool
// entries shift the signal's phase by six hours each.
func federationPool() []sim.RunSpec {
	var pool []sim.RunSpec
	for k := int64(0); k < 4; k++ {
		pool = append(pool, sim.RunSpec{
			Racks:        4,
			CapFractions: []float64{0.5},
			Workers:      1,
			Federation: &sim.FederationSpec{
				MemberCounts: []int{2, 4},
				Divisions:    []string{"prorata", "demand"},
				EpochSec:     300,
				Signal:       &signal.Spec{Kind: "diurnal", Amplitude: 0.3, PhaseSec: k * 6 * 3600},
			},
		})
	}
	return pool
}

// replayInst runs one of the fixed pools through sim.Run, or — in the
// traced leg — through the harness's own decomposition of the same run.
type replayInst struct {
	name   string
	pool   []sim.RunSpec
	order  []int
	expect expectations
	procs  int

	// Pool accounting of the Workers = 1 sweep legs.
	mu           sync.Mutex
	poolOverhead []float64 // Table.Elapsed - sum of cell Elapsed, ms
	cellSkew     []float64 // slowest cell / mean cell
}

// newReplayInst builds the pool and runs one warm-up operation, which
// must already fingerprint as committed.
func newReplayInst(cfg *config, name string, pool []sim.RunSpec) (instance, error) {
	r := &replayInst{name: name, pool: pool, order: shuffled(cfg.seed, len(pool)), expect: cfg.expect, procs: cfg.procs}
	if _, ok := r.run(context.Background(), 0, 0, nil); !ok {
		return nil, fmt.Errorf("%s: warm-up operation does not match expected.json", name)
	}
	return r, nil
}

func (r *replayInst) clients() int { return 1 }
func (r *replayInst) cycle() int   { return len(r.pool) }
func (r *replayInst) warm() int    { return len(r.pool) }
func (r *replayInst) close()       {}

func (r *replayInst) verify() (int, error) { return 0, nil }

func (r *replayInst) op(ctx context.Context, i int, tr *tracer) (int, float64, bool) {
	k := r.order[i%len(r.order)]
	ms, ok := r.run(ctx, k, i, tr)
	return k, ms, ok
}

// run executes pool entry k as operation op and checks its fingerprint.
func (r *replayInst) run(ctx context.Context, k, op int, tr *tracer) (float64, bool) {
	spec := r.pool[k]
	var (
		rep sim.Report
		err error
	)
	t0 := time.Now()
	if tr == nil {
		rep, err = sim.Run(ctx, spec)
	} else {
		rep, err = decompose(tr, op, spec)
	}
	ms := msSince(t0)
	if err != nil || len(rep.Errs()) > 0 {
		return ms, false
	}
	if t := rep.Table; t != nil && t.Workers == 1 && tr == nil {
		r.notePool(*t)
	}
	fp, err := rep.Fingerprint()
	return ms, err == nil && r.expect.check(r.name, k, fp)
}

// fingerprints runs every pool entry once, in pool order.
func (r *replayInst) fingerprints() ([]string, error) {
	out := make([]string, len(r.pool))
	for k, spec := range r.pool {
		rep, err := sim.Run(context.Background(), spec)
		if err == nil && len(rep.Errs()) > 0 {
			err = rep.Errs()[0]
		}
		if err != nil {
			return nil, fmt.Errorf("%s pool entry %d: %w", r.name, k, err)
		}
		if out[k], err = rep.Fingerprint(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *replayInst) notePool(t experiment.Table) {
	var sum, max time.Duration
	for _, row := range t.Rows {
		sum += row.Elapsed
		if row.Elapsed > max {
			max = row.Elapsed
		}
	}
	if sum <= 0 {
		return
	}
	r.mu.Lock()
	r.poolOverhead = append(r.poolOverhead, float64(t.Elapsed-sum)/1e6)
	r.cellSkew = append(r.cellSkew, float64(max)*float64(len(t.Rows))/float64(sum))
	r.mu.Unlock()
}

func (r *replayInst) layers(cfg *config, tr *tracer, untraced, traced []opRec, m map[string]float64) error {
	spans, counts := tr.snapshot()
	engineLayers(spans, counts, m)
	if r.name == "federation_epochs" {
		run := perOp(spans, "federation.run")
		m["federation.run_ms"] = median(run)
		m["federation.epochs_per_op"] = mean(countPerOp(counts, "federation.epochs"))
		if me := sum(countPerOp(counts, "federation.member_epochs")); me > 0 {
			m["federation.us_per_member_epoch"] = sum(run) * 1000 / me
		}
		// The epoch loop is inside federation.Run, so the controller's
		// stepping cannot be spanned apart from member assembly and budget
		// division: host time per event is the whole federation run here.
		if ev := sum(countPerOp(counts, "simengine.events")); ev > 0 {
			m["rjms.host_us_per_event"] = sum(run) * 1000 / ev
		}
	}
	if r.name != "sweep_grid" {
		return nil
	}
	// The traced run of sweep_grid uses Workers = 1 throughout, so that
	// the decomposed operations compare with sim.Run at equal
	// parallelism; one more pass over the pool at Workers = nproc gives
	// the parallel leg the efficiency is taken against.
	serial := median(latencies(untraced))
	m["experiment.serial_ms_p50"] = serial
	m["experiment.pool_overhead_ms"] = median(r.poolOverhead)
	m["experiment.cell_ms_max_over_mean"] = median(r.cellSkew)
	par := &replayInst{name: r.name, pool: sweepPool(r.procs), order: r.order, expect: r.expect, procs: r.procs}
	var parMS []float64
	for k := range par.pool {
		ms, ok := par.run(context.Background(), k, k, nil)
		if !ok {
			return fmt.Errorf("sweep_grid: parallel leg entry %d failed its fingerprint", k)
		}
		parMS = append(parMS, ms)
	}
	if p := median(parMS); p > 0 {
		m["experiment.parallel_efficiency"] = serial / (p * float64(r.procs))
	}
	return nil
}

// engineLayers turns the spans and counts of decomposed operations into
// the per-layer metrics every engine-executing workload shares: the
// median, over operations, of the time one operation spent in each
// layer, and the exact simulated counts per operation.
func engineLayers(spans []span, counts []count, m map[string]float64) {
	for name, metric := range map[string]string{
		"trace.generate":    "trace.generate_ms",
		"replay.build":      "replay.build_ms",
		"core.plan_offline": "core.plan_offline_ms",
		"rjms.advance":      "rjms.advance_ms",
		"sim.export_json":   "sim.export_json_ms",
		"sim.fingerprint":   "sim.fingerprint_ms",
	} {
		if v := perOp(spans, name); len(v) > 0 {
			m[metric] = median(v)
		}
	}
	if v := perOp(spans, "sim.spec_hash"); len(v) > 0 {
		m["sim.spec_hash_us"] = median(v) * 1000
	}
	for name, metric := range map[string]string{
		"simengine.events":      "simengine.events_per_op",
		"rjms.passes":           "rjms.passes_per_op",
		"rjms.jobs":             "rjms.jobs_per_op",
		"metrics.samples":       "metrics.samples_per_op",
		"sim.export_json_bytes": "sim.export_json_bytes",
	} {
		if v := countPerOp(counts, name); len(v) > 0 {
			m[metric] = mean(v)
		}
	}
	passes, skipped := sum(countPerOp(counts, "rjms.passes")), sum(countPerOp(counts, "rjms.passes_skipped"))
	if passes+skipped > 0 {
		m["rjms.pass_skip_ratio"] = skipped / (passes + skipped)
	}
	hits, misses := sum(countPerOp(counts, "power.memo_hits")), sum(countPerOp(counts, "power.memo_misses"))
	if hits+misses > 0 {
		m["power.projection_memo_hit_ratio"] = hits / (hits + misses)
	}
	if ev := sum(countPerOp(counts, "simengine.events")); ev > 0 {
		m["rjms.host_us_per_event"] = sum(perOp(spans, "rjms.advance")) * 1000 / ev
	}
}

// advanceSteps matches replay.RunContextWith, which advances a replay in
// 128 bounded steps so a cancellation is seen promptly.
const advanceSteps = 128

// decompose executes a spec the way sim.Run does, but from the
// benchmark's side of every layer boundary, with a span around each
// call: spec.Scenarios -> trace.Generate -> replay.Build ->
// ReservePowerCap -> Start/Advance/Finish -> sim.Export. The report it
// assembles must fingerprint like sim.Run's, which the caller checks.
func decompose(tr *tracer, op int, spec sim.RunSpec) (sim.Report, error) {
	root := tr.start("op", -1, op)
	defer tr.end(root)

	id := tr.start("sim.spec_hash", root, op)
	_, err := sim.SpecHash(spec)
	tr.end(id)
	if err != nil {
		return sim.Report{}, err
	}
	norm := spec.Normalize()
	rep := sim.Report{Spec: norm, Mode: norm.Mode}
	if norm.Mode == sim.ModeFederation {
		if err := decomposeFederation(tr, root, op, spec, &rep); err != nil {
			return rep, err
		}
	} else {
		scens, err := spec.Scenarios()
		if err != nil {
			return rep, err
		}
		rows := make([]experiment.Result, len(scens))
		sweepStart := time.Now()
		for i, sc := range scens {
			t0 := time.Now()
			rows[i] = experiment.Result{Result: runScenario(tr, root, op, sc), Index: i, Elapsed: time.Since(t0)}
		}
		if norm.Mode == sim.ModeSingle {
			rep.Single = &rows[0].Result
		} else {
			rep.Table = &experiment.Table{Name: norm.Name, Rows: rows, Workers: 1, Elapsed: time.Since(sweepStart)}
		}
	}

	var buf bytes.Buffer
	id = tr.start("sim.export_json", root, op)
	err = sim.Export(&buf, "json", rep, sim.SinkOptions{})
	tr.end(id)
	if err != nil {
		return rep, err
	}
	tr.count(op, "sim.export_json_bytes", float64(buf.Len()))
	id = tr.start("sim.fingerprint", root, op)
	_, err = rep.Fingerprint()
	tr.end(id)
	return rep, err
}

// runScenario is replay.RunContextWith with a span around each layer it
// calls into.
func runScenario(tr *tracer, parent, op int, sc replay.Scenario) replay.Result {
	res := replay.Result{Scenario: sc}

	wl := sc.Workload
	wl.Cores = sc.Machine().Cores()
	id := tr.start("trace.generate", parent, op)
	jobs, err := trace.Generate(wl)
	tr.end(id)
	if err != nil {
		res.Err = err
		return res
	}

	withJobs := sc
	withJobs.Jobs = jobs
	id = tr.start("replay.build", parent, op)
	ctl, cleanup, err := replay.Build(withJobs)
	tr.end(id)
	if err != nil {
		res.Err = err
		return res
	}
	defer cleanup()
	res.MaxPower = ctl.Cluster().MaxPower()
	res.Cores = ctl.Cluster().Cores()

	if sc.Capped() {
		start, end := sc.Window()
		budget := power.CapFraction(sc.CapFraction, ctl.Cluster().MaxPower())
		id = tr.start("core.plan_offline", parent, op)
		plan, err := ctl.ReservePowerCap(start, end, budget)
		tr.end(id)
		if err != nil {
			res.Err = err
			return res
		}
		res.Plan = plan
	}

	dur := sc.Duration()
	id = tr.start("rjms.advance", parent, op)
	err = ctl.Start(dur)
	step := dur / advanceSteps
	if step < 1 {
		step = 1
	}
	for t := step; err == nil; t += step {
		if t > dur {
			t = dur
		}
		err = ctl.Advance(t)
		if t == dur {
			break
		}
	}
	if err == nil {
		res.Summary = ctl.Finish()
	}
	tr.end(id)
	if err != nil {
		res.Err = err
		return res
	}
	res.Samples = ctl.Samples()
	countController(tr, op, ctl)
	tr.count(op, "rjms.jobs", float64(res.Summary.JobsSubmitted))
	tr.count(op, "metrics.samples", float64(len(res.Samples)))
	return res
}

func countController(tr *tracer, op int, ctl *rjms.Controller) {
	c := ctl.SchedCounters()
	tr.count(op, "simengine.events", float64(c.EventsFired))
	tr.count(op, "rjms.passes", float64(c.Passes))
	tr.count(op, "rjms.passes_skipped", float64(c.PassesSkipped))
	tr.count(op, "power.memo_hits", float64(c.ProjectionMemoHits))
	tr.count(op, "power.memo_misses", float64(c.ProjectionMemoMiss))
}

// decomposeFederation runs each federated cell through federation.Run
// with a span around it; the epoch loop is inside that call, so the
// span is the finest boundary the benchmark can see from outside.
func decomposeFederation(tr *tracer, parent, op int, spec sim.RunSpec, rep *sim.Report) error {
	cells, err := spec.FederationScenarios()
	if err != nil {
		return err
	}
	rows := make([]experiment.FederationResult, len(cells))
	start := time.Now()
	for i, fs := range cells {
		var ctls []*rjms.Controller
		t0 := time.Now()
		id := tr.start("federation.run", parent, op)
		res := federation.RunWith(fs, func(_ int, _ string, ctl *rjms.Controller) { ctls = append(ctls, ctl) })
		tr.end(id)
		rows[i] = experiment.FederationResult{Result: res, Index: i, Elapsed: time.Since(t0)}
		if res.Err != nil {
			continue
		}
		for mi, ctl := range ctls {
			countController(tr, op, ctl)
			tr.count(op, "rjms.jobs", float64(res.Members[mi].Summary.JobsSubmitted))
			tr.count(op, "metrics.samples", float64(len(res.Members[mi].Samples)))
		}
		// One boundary per recorded redistribution, plus the final
		// stretch to the horizon.
		epochs := len(res.Epochs) + 1
		tr.count(op, "federation.epochs", float64(epochs))
		tr.count(op, "federation.member_epochs", float64(epochs*len(res.Members)))
	}
	t := experiment.FederationTable{Name: rep.Spec.Name, Rows: rows, Workers: 1, Elapsed: time.Since(start)}
	rep.FederationTable = &t
	if len(rows) == 1 {
		rep.Federation = &rows[0].Result
	}
	return nil
}
