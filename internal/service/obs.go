package service

import (
	"io"
	"sync"

	"repro/internal/obs"
)

// serverMetrics bundles the daemon's metric registry and every
// instrument the service layer drives. Two kinds of family live here:
//
//   - event-driven instruments (counters, histograms) incremented at
//     the point the event happens — HTTP requests, scheduler waits,
//     stage timings, engine counter deltas, cache-tier hits;
//   - stats-derived families (GaugeFunc/CounterFunc) that read the
//     most recent Stats snapshot. A scrape calls Stats() exactly once
//     (see scrape), stores it, and the closures read the copy — eleven
//     families cost one lock acquisition per scrape, not eleven.
//
// The pre-resolved vec children (passRun, passSkipped, ...) exist so the
// engine-sampling observer does plain atomic adds with no per-sample
// map lookups.
type serverMetrics struct {
	reg     *obs.Registry
	httpMet *obs.HTTPMetrics

	schedWait *obs.Histogram
	runStage  *obs.HistogramVec

	engineEvents *obs.Counter
	passRun      *obs.Counter
	passSkipped  *obs.Counter

	tierLive    *obs.Counter
	tierHot     *obs.Counter
	tierArchive *obs.Counter

	mu        sync.Mutex
	lastStats Stats
}

// schedWaitBuckets spans queue waits from "free worker" (sub-ms) to a
// deeply backed-up daemon (minutes).
var schedWaitBuckets = []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 15, 60, 300}

func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:     reg,
		httpMet: obs.NewHTTPMetrics(reg, "simd"),
		schedWait: reg.Histogram("simd_sched_wait_seconds",
			"Queue wait from submission to execution start.", schedWaitBuckets),
		runStage: reg.HistogramVec("simd_run_stage_seconds",
			"Per-run pipeline stage durations.", nil, "stage"),
	}
	engine := reg.CounterVec("simd_engine_sched_passes_total",
		"Scheduling passes, by whether the probe cycle ran or the pass memo skipped it.", "result")
	m.passRun = engine.With("run")
	m.passSkipped = engine.With("skipped")
	m.engineEvents = reg.Counter("simd_engine_events_total",
		"Simulation engine events fired across all runs.")
	tiers := reg.CounterVec("simd_cache_tier_hits_total",
		"Spec-hash cache hits, by what answered: a run not yet retired (live), a retired held run (hot), the archive.", "tier")
	m.tierLive = tiers.With("live")
	m.tierHot = tiers.With("hot")
	m.tierArchive = tiers.With("archive")

	reg.GaugeFunc("simd_sched_queue_depth",
		"Run ids queued on the scheduler, waiting for a worker.",
		func() float64 { return float64(s.sched.Queued()) })

	// The stats-derived set keeps the family names the pre-registry
	// /metrics exposed (dashboards and tests pin them); the *_total
	// families gain their proper counter TYPE.
	st := func(f func(Stats) float64) func() float64 {
		return func() float64 { return f(m.stats()) }
	}
	reg.GaugeFunc("simd_runs", "Runs the daemon holds, from submission to eviction.",
		st(func(v Stats) float64 { return float64(v.Runs) }))
	reg.GaugeFunc("simd_runs_queued", "Runs waiting for a worker.",
		st(func(v Stats) float64 { return float64(v.Queued) }))
	reg.GaugeFunc("simd_runs_running", "Runs executing now.",
		st(func(v Stats) float64 { return float64(v.Running) }))
	reg.CounterFunc("simd_executions_total", "Fresh executions since boot (cache misses).",
		st(func(v Stats) float64 { return float64(v.Executions) }))
	reg.CounterFunc("simd_cache_hits_total", "Submissions deduped into existing runs.",
		st(func(v Stats) float64 { return float64(v.CacheHits) }))
	reg.GaugeFunc("simd_workers", "Run worker pool size.",
		st(func(v Stats) float64 { return float64(v.Workers) }))
	reg.GaugeFunc("simd_archived", "Records in the durable archive.",
		st(func(v Stats) float64 { return float64(v.Archived) }))
	reg.CounterFunc("simd_archive_errors_total", "Failed archive writes since boot.",
		st(func(v Stats) float64 { return float64(v.ArchiveErrors) }))
	reg.GaugeFunc("simd_twins_live", "Twin sessions currently running.",
		st(func(v Stats) float64 { return float64(v.TwinsLive) }))
	reg.CounterFunc("simd_twins_total", "Twin sessions started and retained since boot.",
		st(func(v Stats) float64 { return float64(v.TwinsTotal) }))
	reg.GaugeFunc("simd_draining", "1 while the daemon refuses new work.",
		st(func(v Stats) float64 {
			if v.Draining {
				return 1
			}
			return 0
		}))
	return m
}

// scrape writes the full exposition, refreshing the stats snapshot the
// derived families read. One Stats() call serves the whole scrape.
func (m *serverMetrics) scrape(w io.Writer, st Stats) error {
	m.mu.Lock()
	m.lastStats = st
	m.mu.Unlock()
	return m.reg.WritePrometheus(w)
}

func (m *serverMetrics) stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastStats
}

// observeTerminalStages feeds the stages a run's terminal timings
// already hold — queued, setup, execute — into the stage histogram
// (milliseconds on the record, seconds on the wire). Callers run it
// before the terminal state is visible, so a reader that saw the state
// sees them.
func (m *serverMetrics) observeTerminalStages(st *StageTimings) {
	m.observeStage("queued", st.QueuedMS)
	m.observeStage("setup", st.SetupMS)
	m.observeStage("execute", st.ExecuteMS)
}

// observeRetireStages feeds the stages retire adds: render and archive.
func (m *serverMetrics) observeRetireStages(st *StageTimings) {
	m.observeStage("render", st.RenderMS)
	m.observeStage("archive", st.ArchiveMS)
}

func (m *serverMetrics) observeStage(name string, ms float64) {
	if ms > 0 {
		m.runStage.With(name).Observe(ms / 1000)
	}
}
