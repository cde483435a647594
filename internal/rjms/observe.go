package rjms

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/cluster"
	"repro/internal/dvfs"
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

// JobView is one job the controller tracks, as it stands at one instant:
// the request and its state and, for a running job, the frequency it
// runs at, its launch time and its allocation. Allocs aliases the live
// allocation, valid until the next event; copy it to keep it.
type JobView struct {
	*job.Job
	State  job.State // pending or running: the controller tracks no other
	Freq   dvfs.Freq
	Start  int64
	Allocs []job.Alloc
}

// SnapshotJobs returns the jobs the controller currently tracks:
// first the pending queue in its (deterministic) queue order, then the
// running set sorted by ID. The order is reproducible across replays
// but is not globally ID-sorted — sorting the whole backlog at every
// probe would dominate sampled-checker runs. The requests are the
// caller's own; a finished job is tracked no more. The views are
// written over buf, grown when it is short: a caller sampling at every
// tick passes back what it got last time, so a backlog of thousands
// costs no new array per sample.
func (c *Controller) SnapshotJobs(buf []JobView) []JobView {
	out := slices.Grow(buf[:0], len(c.pending)+len(c.running))
	for _, j := range c.pending {
		out = append(out, JobView{Job: j, State: job.StatePending})
	}
	for _, r := range c.sortedRunning(func(a, b *run) bool { return a.j.ID < b.j.ID }) {
		out = append(out, JobView{Job: r.j, State: job.StateRunning, Freq: r.freq, Start: r.start, Allocs: r.allocs})
	}
	if len(buf) > len(out) {
		clear(buf[len(out):]) // no view left over from a longer snapshot keeps a job alive
	}
	return out
}

// AddObserver registers fn to run after every metrics sample is
// recorded, behind any observer already attached, so independent
// probes compose: the service's telemetry collector attaches this way
// and an invariant checker (or another collector) can still ride
// along. Observers run in attach order.
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
		if _, err := c.eng.At(next, c.sampleFn, nil); err != nil {
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
		CoresByFreq: c.clus.CurieCores(),
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
	if c.measured != nil {
		c.measured.push(c.clus.Power())
	}
	if err := c.rec.NotePower(now, c.clus.Power()); err != nil {
		panic(fmt.Sprintf("rjms: power meter: %v", err))
	}
	if err := c.rec.NoteCores(now, c.clus.BusyCores()); err != nil {
		panic(fmt.Sprintf("rjms: work meter: %v", err))
	}
}

// measuredPower is measured mode's view of the cluster draw, the
// paper's closing future-work item ("consider the real-time power
// consumption measures of the nodes, instead of ... static values"): a
// deterministic sensor reading the true draw with Gaussian noise of
// relative standard deviation noise (clamped at zero), a ring of its
// last measuredPowerWindow readings with a running sum, and a guard
// band of measuredPowerGuard noise sigmas over the window mean, so
// that staying under the cap with the estimate keeps the true draw
// under it with high probability. push never allocates: the controller
// feeds it on every cluster-state mutation.
type measuredPower struct {
	rng     *rand.Rand
	noise   float64
	ring    [measuredPowerWindow]power.Watts
	next, n int
	sum     float64
}

func newMeasuredPower(noise float64) *measuredPower {
	return &measuredPower{rng: rand.New(rand.NewSource(measuredPowerSeed)), noise: noise}
}

// push reads the sensor against the true draw and folds the reading
// into the window, evicting the oldest when full.
func (m *measuredPower) push(truth power.Watts) {
	r := float64(truth) * (1 + m.rng.NormFloat64()*m.noise)
	if r < 0 {
		r = 0
	}
	if m.n == len(m.ring) {
		m.sum -= float64(m.ring[m.next])
	} else {
		m.n++
	}
	m.ring[m.next] = power.Watts(r)
	m.sum += r
	if m.next++; m.next == len(m.ring) {
		m.next = 0
	}
}

// estimate returns the guarded draw estimate, mean + guard x noise x
// mean / sqrt(readings held); 0 before the first reading.
func (m *measuredPower) estimate() power.Watts {
	if m.n == 0 {
		return 0
	}
	mean := m.sum / float64(m.n)
	guard := measuredPowerGuard * m.noise * mean / math.Sqrt(float64(m.n))
	return power.Watts(mean + guard)
}
