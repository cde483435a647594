package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// config is one benchmark invocation: the flags plus what they derive.
type config struct {
	root    string
	seed    int64
	seconds float64
	trace   bool
	// procs is min(nproc, 2): the client count of every closed loop, the
	// sweep pool size and GOMAXPROCS. The load is sized for a 2-core box.
	procs  int
	outDir string
	expect expectations
	log    io.Writer
}

// opRec is one timed operation: its wall time, its type within the
// workload (pool entry or read type) and whether its outputs checked out.
type opRec struct {
	ms   float64
	kind int
	ok   bool
	// done is when the operation completed, since its window started.
	done time.Duration
}

// instance is one workload set up and ready for load. Building one is
// what setup_s times; close tears it down.
type instance interface {
	// clients is the number of closed-loop load generators: each sends
	// its next operation only when the previous one has completed.
	clients() int
	// cycle is the number of consecutive operations that cover the
	// workload's operation pool once; a timed window ends on a cycle
	// boundary so that every run times the same mix.
	cycle() int
	// warm is how many untimed operations run between set-up and the
	// timed window, so that the heap has grown and lazy set-up has
	// finished before anything is timed.
	warm() int
	// op runs operation i and returns its type, its wall time in
	// milliseconds (checks excluded) and whether its outputs were
	// correct. With a tracer it records spans at each layer boundary.
	op(ctx context.Context, i int, tr *tracer) (kind int, ms float64, ok bool)
	// verify runs the checks kept out of the timed window and returns how
	// many operations they fail; an error means the run as a whole is
	// wrong (the engine executed during a read-only workload).
	verify() (failed int, err error)
	// layers fills in the per-layer metrics of the traced run from the
	// recorded spans, and measures single layers directly.
	layers(cfg *config, tr *tracer, untraced, traced []opRec, m map[string]float64) error
	close()
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// gate is the part of the correctness gate this workload runs before
	// any set-up: the engine workloads replay the repository's goldens.
	gate  func(g goldens, workers int) error
	setup func(cfg *config) (instance, error)
}

var workloads = []workload{
	{
		name: "replay_curie",
		why:  "the paper's Section VII cell at paper scale: rjms pass, sched allocation and cluster bitsets do the work",
		gate: libraryGate,
		setup: func(cfg *config) (instance, error) {
			return newReplayInst(cfg, "replay_curie", curiePool())
		},
	},
	{
		name: "sweep_grid",
		why:  "14 short cells on 2 workers: per-cell set-up, the experiment pool and the GC carry the cost",
		gate: libraryGate,
		setup: func(cfg *config) (instance, error) {
			workers := cfg.procs
			if cfg.trace {
				workers = 1
			}
			return newReplayInst(cfg, "sweep_grid", sweepPool(workers))
		},
	},
	{
		name: "federation_epochs",
		why:  "the same controller stepped in lockstep epochs with a budget division at every boundary",
		gate: federationGate,
		setup: func(cfg *config) (instance, error) {
			return newReplayInst(cfg, "federation_epochs", federationPool())
		},
	},
	{
		name:  "service_cold",
		why:   "never-seen specs through one daemon: the service write path around an engine execution",
		setup: func(cfg *config) (instance, error) { return newColdInst(cfg, false) },
	},
	{
		name:  "service_read",
		why:   "cache hits, reports, series and listings over finished runs: the engine executes nothing",
		setup: func(cfg *config) (instance, error) { return newReadInst(cfg) },
	},
	{
		name:  "fleet_cold",
		why:   "the service_cold operation through a gateway and two workers: the difference is the gateway",
		setup: func(cfg *config) (instance, error) { return newColdInst(cfg, true) },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// An untraced run sets its workload up several times and reports the
// median: at least minSetupReps times, and until setupBudget is spent or
// maxSetupReps is reached, so that a set-up of tens of milliseconds is
// sampled often enough to be steady. The run continues on the last
// instance.
const (
	minSetupReps = 3
	maxSetupReps = 9
	setupBudget  = 1500 * time.Millisecond
)

// opTimeout bounds a whole run's operations, so a hung daemon fails the
// run instead of hanging it.
const opTimeout = 150 * time.Second

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// memDelta is what the Go runtime did during a timed window.
type memDelta struct {
	allocBytes, mallocs, gcCycles, pauseNS float64
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{float64(ms.TotalAlloc), float64(ms.Mallocs), float64(ms.NumGC), float64(ms.PauseTotalNs)}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs, a.gcCycles - b.gcCycles, a.pauseNS - b.pauseNS}
}

func (a memDelta) plus(b memDelta) memDelta {
	return memDelta{a.allocBytes + b.allocBytes, a.mallocs + b.mallocs, a.gcCycles + b.gcCycles, a.pauseNS + b.pauseNS}
}

// window runs the instance's closed loop for at least d, and for at
// least minOps operations: every client claims the next operation
// number, runs it, and stops at the first cycle boundary past both. It
// returns the operations in no particular order, the wall time from the
// first start to the last completion, and the first operation number the
// next window may use.
func window(ctx context.Context, inst instance, d time.Duration, minOps int, tr *tracer, first int) ([]opRec, time.Duration, int) {
	n, cyc := inst.clients(), int64(inst.cycle())
	var (
		next    atomic.Int64
		stopped atomic.Bool
	)
	next.Store(int64(first))
	per := make([][]opRec, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if stopped.Load() {
					return
				}
				if i%cyc == 0 && (time.Since(start) >= d && i-int64(first) >= int64(minOps) || ctx.Err() != nil) {
					// The client that reaches the boundary stops them all,
					// so the window holds whole cycles.
					stopped.Store(true)
					return
				}
				kind, ms, ok := inst.op(ctx, int(i), tr)
				per[c] = append(per[c], opRec{ms: ms, kind: kind, ok: ok, done: time.Since(start)})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var recs []opRec
	for _, p := range per {
		recs = append(recs, p...)
	}
	// Operation numbers name runs, so none may be used twice: the next
	// window starts at the first cycle boundary past every number claimed.
	claimed := next.Load()
	return recs, elapsed, int((claimed + cyc - 1) / cyc * cyc)
}

// throughput is the operations completed per second of a window, taken
// cycle by cycle — the operations in completion order, cut into groups
// of one cycle, each group's count over the time it took to complete —
// and reported as the median over the cycles. Every cycle holds the same
// mix, so the cycles are comparable, and a stall of a second or two (a
// neighbour on the host, a slow fsync) slows some cycles and leaves the
// median where it was; operations over the whole window's wall time
// would move with it.
func throughput(recs []opRec, cycle int) float64 {
	done := make([]float64, len(recs))
	for i, r := range recs {
		done[i] = r.done.Seconds()
	}
	sort.Float64s(done)
	var rates []float64
	prev := 0.0
	for end := cycle; end <= len(done); end += cycle {
		if t := done[end-1]; t > prev {
			rates = append(rates, float64(cycle)/(t-prev))
			prev = t
		}
	}
	if len(rates) == 0 {
		return float64(len(done)) / done[len(done)-1]
	}
	return median(rates)
}

func latencies(recs []opRec) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.ms
	}
	return out
}

func failures(recs []opRec) int {
	n := 0
	for _, r := range recs {
		if !r.ok {
			n++
		}
	}
	return n
}

// traceOverhead is how much slower the traced operations ran than the
// untraced ones, as a share. Operations of different types cost
// different amounts (the pool entries of a replay workload differ by a
// factor of two), so the comparison is made type by type and the median
// ratio reported.
func traceOverhead(untraced, traced []opRec) float64 {
	group := func(recs []opRec) map[int][]float64 {
		g := map[int][]float64{}
		for _, r := range recs {
			g[r.kind] = append(g[r.kind], r.ms)
		}
		return g
	}
	u, t := group(untraced), group(traced)
	var ratios []float64
	for kind, ms := range t {
		if base, ok := u[kind]; ok {
			ratios = append(ratios, median(ms)/median(base))
		}
	}
	return median(ratios) - 1
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// runWorkload is one invocation: the gate, the set-up, the timed
// window(s), the checks, and the result.
func runWorkload(cfg *config, w workload) (result, error) {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	if w.gate != nil {
		g, err := loadGoldens(cfg.root)
		if err != nil {
			return res, err
		}
		t0 := time.Now()
		if err := w.gate(g, cfg.procs); err != nil {
			fmt.Fprintf(cfg.log, "GATE FAILED: %v\n", err)
			res.Correct = false
		}
		fmt.Fprintf(cfg.log, "gate: goldens replayed in %.2f s\n", time.Since(t0).Seconds())
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return res, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	var (
		inst   instance
		setups []float64
		spent  time.Duration
	)
	again := func() bool {
		n := len(setups)
		if cfg.trace {
			return n == 0 // the traced run reports no setup_s
		}
		return n < minSetupReps || spent < setupBudget && n < maxSetupReps
	}
	for again() {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		spent += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	total := time.Duration(cfg.seconds * float64(time.Second))
	warm, _, next := window(ctx, inst, 0, inst.warm(), nil, 0)
	if n := failures(warm); n > 0 {
		return res, fmt.Errorf("%s: %d of %d warm-up operations failed", w.name, n, len(warm))
	}
	// The untraced run spends the whole time on one timed window. The
	// traced run alternates one untraced cycle, the overhead base, with two
	// cycles under the span recorder, so that a drift of the host's speed
	// during the run falls on both sides alike.
	var (
		untraced, recs []opRec
		elapsed        time.Duration
		mem            memDelta
		tr             *tracer
	)
	runtime.GC()
	if !cfg.trace {
		before := readMem()
		recs, elapsed, _ = window(ctx, inst, total, 0, nil, next)
		mem = readMem().since(before)
	} else {
		tr = newTracer()
		cyc := inst.cycle()
		for start := time.Now(); time.Since(start) < total && ctx.Err() == nil; {
			var u, t []opRec
			u, _, next = window(ctx, inst, 0, cyc, nil, next)
			before := readMem()
			t, _, next = window(ctx, inst, 0, 2*cyc, tr, next)
			mem = mem.plus(readMem().since(before))
			untraced, recs = append(untraced, u...), append(recs, t...)
		}
	}
	extra, err := inst.verify()
	if err != nil {
		fmt.Fprintf(cfg.log, "CHECK FAILED: %v\n", err)
		res.Correct = false
	}
	if len(recs) == 0 || cfg.trace && len(untraced) == 0 {
		return res, fmt.Errorf("%s: no operation completed", w.name)
	}
	res.Attempted = len(untraced) + len(recs)
	res.Failed = failures(untraced) + failures(recs) + extra
	ops := float64(len(recs))
	lat := latencies(recs)

	if !cfg.trace {
		values := map[string]float64{
			"setup_s":         median(setups),
			"op_ms_p50":       median(lat),
			"ops_per_s":       throughput(recs, inst.cycle()),
			"alloc_mb_per_op": mem.allocBytes / ops / 1e6,
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		}
		fmt.Fprintf(cfg.log, "%s seed=%d: %d operations in %.2f s, %d failed, set-up x%d\n",
			w.name, cfg.seed, len(recs), elapsed.Seconds(), res.Failed, len(setups))
		report(cfg.log, endToEnd, res.Metrics, map[string]int{"setup_s": len(setups), "op_ms_p50": len(lat)})
		return res, nil
	}

	m := map[string]float64{}
	m["go.allocs_per_op"] = mem.mallocs / ops
	m["go.gc_cycles_per_op"] = mem.gcCycles / ops
	m["go.gc_pause_ms_per_op"] = mem.pauseNS / 1e6 / ops
	m["bench.op_ms_p90"] = percentile(lat, 0.9)
	m["bench.trace_overhead_pct"] = traceOverhead(untraced, recs) * 100
	if err := inst.layers(cfg, tr, untraced, recs, m); err != nil {
		return res, fmt.Errorf("%s: per-layer measurement: %w", w.name, err)
	}
	m["go.peak_rss_mb"] = peakRSSMB()
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	if err := tr.writeFile(path, w.name, cfg.seed); err != nil {
		return res, err
	}
	fmt.Fprintf(cfg.log, "%s seed=%d traced: %d untraced + %d traced operations, %d failed, spans in %s\n",
		w.name, cfg.seed, len(untraced), len(recs), res.Failed, path)
	if !tailOK(len(lat), 0.9) {
		fmt.Fprintf(cfg.log, "note: bench.op_ms_p90 has fewer than %d samples beyond it (n=%d)\n", minTailSamples, len(lat))
	}
	report(cfg.log, perLayer, res.Metrics, map[string]int{"bench.op_ms_p90": len(lat)})
	return res, nil
}

// report prints every metric by name with its unit, and the sample count
// next to the timings that have one.
func report(w io.Writer, defs []metricDef, got map[string]metricValue, samples map[string]int) {
	for _, d := range defs {
		v := got[d.Name]
		n := ""
		if c, ok := samples[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-36s %14.4f %s%s\n", d.Name, v.Value, v.Unit, n)
	}
}

// peakRSSMB is the process's high-water resident set (VmHWM), or 0 where
// /proc does not say.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(b)
}
