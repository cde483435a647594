package rjms

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/power"
)

// Samples returns the recorded time series.
func (c *Controller) Samples() []metrics.Sample { return c.rec.Samples() }

// SchedCounters is a snapshot of the controller's lifetime hot-path
// counters: engine events fired, scheduling passes run vs skipped by
// the pass memo, probes and starts. The counters are plain uint64
// increments on the deterministic simulation path — this
// accessor exists so observers can sample them out-of-band (e.g. from
// a metrics observer callback) and publish deltas without touching the
// hot path.
type SchedCounters struct {
	EventsFired        uint64
	Passes             uint64
	PassesSkipped      uint64
	ProjectionMemoHits uint64 // always 0, like the next: the memo is gone, the frozen bench/ still reads both
	ProjectionMemoMiss uint64
	Probes             uint64 // jobs a pass asked plan about
	Starts             uint64 // probes committed
	FrontierBuilds     uint64 // first-fit frontiers (re)built for those probes
}

// SchedCounters returns the current counter snapshot. Call only from
// the simulation goroutine (e.g. inside an observer), like the other
// read accessors.
func (c *Controller) SchedCounters() SchedCounters {
	return SchedCounters{
		EventsFired:    c.eng.Fired(),
		Passes:         c.statPasses,
		PassesSkipped:  c.statPassesSkipped,
		Probes:         c.statProbes,
		Starts:         c.statStarts,
		FrontierBuilds: c.frontiers.Builds(),
	}
}

// PendingCores sums the core requests of the queued jobs — the demand
// signal the federation broker's demand-driven division reads.
func (c *Controller) PendingCores() int {
	n := 0
	for _, j := range c.pending {
		n += j.Cores
	}
	return n
}

// SnapshotJobs returns the jobs the controller currently tracks:
// first the pending queue in its (deterministic) queue order, then the
// running set sorted by ID. The order is reproducible across replays
// but is not globally ID-sorted — sorting the whole backlog at every
// probe would dominate sampled-checker runs. The pointers alias live
// scheduling state: callers must treat them as read-only (the
// invariant checker's contract).
func (c *Controller) SnapshotJobs() []*job.Job {
	out := make([]*job.Job, 0, len(c.pending)+len(c.running))
	out = append(out, c.pending...)
	run := make([]*job.Job, 0, len(c.running))
	for _, j := range c.running {
		run = append(run, j)
	}
	sort.Slice(run, func(i, k int) bool { return run[i].ID < run[k].ID })
	return append(out, run...)
}

// SetObserver registers fn to run after every metrics sample is
// recorded — the attach point of the test-only invariant checker. A nil
// fn clears it (including anything added with AddObserver).
func (c *Controller) SetObserver(fn func(now int64)) { c.observer = fn }

// AddObserver chains fn behind the current observer instead of
// replacing it, so independent probes compose: the service's telemetry
// collector attaches this way and an invariant checker (or another
// collector) can still ride along. Observers run in attach order.
func (c *Controller) AddObserver(fn func(now int64)) {
	if fn == nil {
		return
	}
	if prev := c.observer; prev != nil {
		c.observer = func(now int64) {
			prev(now)
			fn(now)
		}
		return
	}
	c.observer = fn
}

func (c *Controller) sampleTick(now int64) {
	c.addSample(now)
	next := now + c.cfg.SampleEverySec
	if next <= c.horizon {
		if _, err := c.eng.At(next, c.sampleTick); err != nil {
			panic(fmt.Sprintf("rjms: sample scheduling: %v", err))
		}
	}
}

func (c *Controller) addSample(now int64) {
	capW := power.Watts(0)
	if b := c.book.CapAt(now); b.IsSet() {
		capW = b.Watts()
	}
	c.rec.AddSample(metrics.Sample{
		T:           now,
		CoresByFreq: c.clus.CoresByFreq(),
		BusyNodes:   c.clus.Count(cluster.StateBusy),
		IdleNodes:   c.clus.Count(cluster.StateIdle),
		OffNodes:    c.clus.Count(cluster.StateOff),
		OffCores:    c.clus.Count(cluster.StateOff) * c.cfg.Topology.CoresPerNode,
		Power:       c.clus.Power(),
		Cap:         capW,
		Bonus:       c.clus.BonusWatts(),
	})
	if c.observer != nil {
		c.observer(now)
	}
}

// noteState pushes the power and busy-core integrals after any mutation
// and, in measured mode, feeds the sensor.
func (c *Controller) noteState(now int64) {
	if c.estimator != nil {
		c.estimator.Sample(c.clus.Power())
	}
	if err := c.rec.NotePower(now, c.clus.Power()); err != nil {
		panic(fmt.Sprintf("rjms: power meter: %v", err))
	}
	if err := c.rec.NoteCores(now, c.clus.BusyCores()); err != nil {
		panic(fmt.Sprintf("rjms: work meter: %v", err))
	}
}
