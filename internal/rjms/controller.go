package rjms

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/powerlog"
	"repro/internal/reservation"
	"repro/internal/sched"
	"repro/internal/simengine"
)

// Controller is the central RJMS daemon. It is single-goroutine by
// construction (all activity happens inside the event engine); run
// independent controllers in parallel for experiment sweeps.
type Controller struct {
	cfg  Config
	pm   core.PolicyModel
	clus *cluster.Cluster
	eng  *simengine.Engine
	book *reservation.Book
	rec  *metrics.Recorder

	pending   []*job.Job
	running   map[job.ID]*job.Job
	nodeJobs  [][]nodeJobEntry    // per-node running jobs and their frequencies (SoA, swap-removal)
	runStates map[job.ID]runState // progress accounting for dynamic DVFS (value map, no per-job alloc)

	// allocFree recycles the Allocs slices of finished jobs: bucket k
	// holds slices with room for at least 1<<k entries. A start takes one
	// from the bucket of its node count, a finish returns it, so the
	// slices kept never outnumber the allocations that ran at once.
	allocFree [bits.UintSize][][]job.Alloc

	// offPending holds reserved nodes that were busy when their
	// switch-off window opened; they power down as their jobs drain.
	offPending cluster.NodeSet

	// failed holds nodes taken out by an injected failure (FailNode);
	// they stay off — windowClose must not power them back on — until
	// RepairNode returns them. requeueSeq numbers the fresh IDs of
	// requeued victim clones deterministically.
	failed     cluster.NodeSet
	requeueSeq int64

	horizon    int64
	sampling   bool
	passQueued bool

	// loadErr records a streaming-workload failure (parse error,
	// invalid or out-of-order job) raised inside an event handler; Run
	// surfaces it.
	loadErr error

	// Cached projection inputs for optimalFutureFreq, plus the keyed
	// budget→frequency memo built on them. Both are invalidated
	// together whenever the reservation flags (the survivor set)
	// change.
	survivorFresh    bool
	survivorCount    int
	survivorOverhead power.Watts
	futureFreqMemo   power.ProjectionMemo

	// Scheduling-pass memo: when the previous pass committed nothing,
	// the frontier it saw is recorded and later passes are skipped
	// outright while nothing that could change the outcome has moved —
	// no job started or finished, no cap boundary or reservation phase
	// crossed, and every submission since needs at least as many cores
	// as the smallest request the memoized pass refused (the same
	// within-pass pruning rule, carried across passes). Restricted to
	// exact power bookkeeping.
	passMemoValid   bool
	passMemoNow     int64
	passMemoMinFail int

	// Lifetime scheduling counters: full probe cycles run vs skipped by
	// the pass memo. Plain increments on the single-threaded simulation
	// path; sampled out-of-band via SchedCounters.
	statPasses        uint64
	statPassesSkipped uint64
	statProbes        uint64 // plan calls
	statStarts        uint64 // commits

	// estimator is non-nil in measurement-based capping mode: active-cap
	// checks use its guarded estimate instead of the exact bookkeeping.
	estimator *powerlog.Estimator

	// observer, when set, runs after every recorded metrics sample (the
	// invariant checker's hook; see SetObserver).
	observer func(now int64)

	// Scratch reused across scheduling passes. A pass probes up to
	// BackfillDepth jobs at every event and starts few of them, so a
	// probe builds nothing: it reads a first-fit frontier that stands
	// until the cluster changes.
	viewBuf    []sched.RunningJob // running view, sorted by expected end
	frontiers  sched.Frontiers    // what first fit can take, per blocked set
	nodeBuf    []cluster.NodeID   // node list of the current compact-placement probe
	blockedBuf cluster.NodeSet    // union of several blocking switch-off groups

	// Pre-bound closures with their parameter fields. plan() runs up to
	// BackfillDepth times per event; a literal admit closure there would
	// escape to the heap on every probe, so it is built once in New and
	// reads the plan* fields the current probe sets: the nodes the launch
	// would take, the idle ones among them (planIdle) as a count only.
	planNow    int64
	planJob    *job.Job
	planCapNow power.Cap
	planNodes  []cluster.NodeID
	planIdle   int
	admitFn    func(dvfs.Freq) bool
	passFn     simengine.Handler
}

// New builds a controller at virtual time 0.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	profile := power.CurieProfile()
	pm, err := core.NewPolicyModel(cfg.Policy, profile, dvfs.DegMinCommon, dvfs.DegMinMix, core.DefaultMixFloor)
	if err != nil {
		return nil, err
	}
	clus, err := cluster.New(cfg.Topology, profile, cluster.CurieOverhead())
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:        cfg,
		pm:         pm,
		clus:       clus,
		eng:        simengine.New(0),
		book:       reservation.NewBook(),
		running:    map[job.ID]*job.Job{},
		runStates:  map[job.ID]runState{},
		nodeJobs:   make([][]nodeJobEntry, cfg.Topology.Nodes()),
		offPending: cluster.NewNodeSet(cfg.Topology.Nodes()),
		failed:     cluster.NewNodeSet(cfg.Topology.Nodes()),
	}
	if cfg.MeasuredNoise > 0 {
		sensor, err := powerlog.NewSensor(measuredPowerSeed, cfg.MeasuredNoise, 0)
		if err != nil {
			return nil, err
		}
		est, err := powerlog.NewEstimator(sensor, measuredPowerWindow, measuredPowerGuard)
		if err != nil {
			return nil, err
		}
		c.estimator = est
		est.Sample(clus.Power())
	}
	c.rec = metrics.NewRecorder(0, clus.Power(), 0)
	c.admitFn = func(f dvfs.Freq) bool {
		now, j := c.planNow, c.planJob
		end := now + j.ScaledWalltime(c.pm.Deg, f)
		// Active cap: checked against the observed draw (Algorithm 2;
		// exact bookkeeping, or the guarded measurement estimate).
		if c.planCapNow.IsSet() && !c.planCapNow.Allows(c.observedPower()+
			c.clus.OccupyDelta(c.planNodes, f)+c.clus.IdleOccupyDelta(c.planIdle, f)) {
			return false
		}
		// A future window the job's walltime crosses caps the launch
		// frequency at the window's "optimal CPU frequency" (Section
		// IV-B): the highest rung at which every surviving node could
		// run busy within the budget. Jobs still launch — the paper's
		// Figure 6 shows the system "preparing itself" by running at
		// 2.0 GHz ahead of the reservation, not by idling.
		if fut := c.book.MinFutureCapOver(now, end, c.cfg.PlanningHorizonSec); fut.IsSet() {
			if f > c.optimalFutureFreq(fut) {
				return false
			}
		}
		return true
	}
	c.passFn = func(t int64) {
		c.passQueued = false
		c.pass(t)
	}
	return c, nil
}

// observedPower is the draw the active-cap checks compare against the
// budget: the exact bookkeeping by default, or the guarded measurement
// estimate in measured mode.
func (c *Controller) observedPower() power.Watts {
	if c.estimator != nil {
		return c.estimator.Estimate()
	}
	return c.clus.Power()
}

// Options returns the switches the controller runs with, defaults
// resolved.
func (c *Controller) Options() Options { return c.cfg.Options }

// Cluster exposes the machine state (read-only use expected).
func (c *Controller) Cluster() *cluster.Cluster { return c.clus }

// PolicyModel exposes the active policy binding.
func (c *Controller) PolicyModel() core.PolicyModel { return c.pm }

// Now returns the virtual clock.
func (c *Controller) Now() int64 { return c.eng.Now() }

// RunningCount returns the dispatched-job count.
func (c *Controller) RunningCount() int { return len(c.running) }

// LoadWorkload loads a materialized workload: every job is checked up
// front (a bad one anywhere in the list is this call's error, not a
// mid-Run one) and cloned, the clones are put in submit order — stably,
// so equal-time jobs keep their list order — and handed to
// LoadWorkloadStream, the one ingestion mechanism.
func (c *Controller) LoadWorkload(jobs []*job.Job) error {
	owned := make([]*job.Job, len(jobs))
	for i, j := range jobs {
		if err := c.checkJob(j); err != nil {
			return err
		}
		owned[i] = j.Clone()
	}
	sort.SliceStable(owned, func(a, b int) bool { return owned[a].Submit < owned[b].Submit })
	return c.LoadWorkloadStream(&sliceSource{jobs: owned})
}

// sliceSource is the JobSource over a job list, yielded in list order.
type sliceSource struct {
	jobs []*job.Job
	i    int
}

func (s *sliceSource) Next() (*job.Job, error) {
	if s.i >= len(s.jobs) {
		return nil, nil
	}
	j := s.jobs[s.i]
	s.i++
	return j, nil
}

// checkJob rejects jobs the machine cannot run.
func (c *Controller) checkJob(j *job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.Cores > c.clus.Cores() {
		return fmt.Errorf("rjms: job %d wants %d cores, machine has %d", j.ID, j.Cores, c.clus.Cores())
	}
	return nil
}

// JobSource is the pull contract of streaming workload ingestion: Next
// returns the next job in nondecreasing submit order, or (nil, nil) at
// end of stream. trace.Stream (e.g. a Scanner over an SWF archive trace,
// wrapped in window/rescale transforms) satisfies it.
type JobSource interface {
	Next() (*job.Job, error)
}

// LoadWorkloadStream schedules submissions lazily from src: only the
// next future submission event exists at any moment, and each fired
// submission pulls the records sharing its timestamp plus the one after
// (all equal-time submissions enter the queue before the scheduling
// pass they trigger). Memory stays bounded by the jobs pending or
// running in the simulated machine, not by the trace length.
// The source must yield jobs in nondecreasing submit order and hands
// over ownership of each job. Errors found mid-replay stop ingestion and
// surface from Run.
func (c *Controller) LoadWorkloadStream(src JobSource) error {
	j, err := c.pullStream(src)
	if err != nil || j == nil {
		return err
	}
	return c.scheduleStream(src, j)
}

// pullStream fetches and validates the next streamed job.
func (c *Controller) pullStream(src JobSource) (*job.Job, error) {
	j, err := src.Next()
	if err != nil || j == nil {
		return nil, err
	}
	if err := c.checkJob(j); err != nil {
		return nil, err
	}
	return j, nil
}

// scheduleStream schedules j's submission; the event submits every
// following job with the same timestamp too, then schedules the next
// strictly-later one.
func (c *Controller) scheduleStream(src JobSource, j *job.Job) error {
	_, err := c.eng.At(j.Submit, func(now int64) {
		c.submit(j, now)
		for c.loadErr == nil {
			next, err := c.pullStream(src)
			if err != nil {
				c.loadErr = err
				return
			}
			if next == nil {
				return
			}
			if next.Submit < now {
				c.loadErr = fmt.Errorf("rjms: stream out of order: job %d submits at %d, clock at %d",
					next.ID, next.Submit, now)
				return
			}
			if next.Submit == now {
				c.submit(next, now)
				continue
			}
			if err := c.scheduleStream(src, next); err != nil {
				c.loadErr = err
			}
			return
		}
	})
	return err
}

// ReservePowerCap registers a powercap reservation over [start, end)
// (reservation.Horizon for open-ended) with the given budget, runs the
// offline planning of Algorithm 1, and schedules the window's switch-off
// and wake-up actions. It returns the offline plan for inspection.
func (c *Controller) ReservePowerCap(start, end int64, budget power.Cap) (core.OfflinePlan, error) {
	_, plan, err := c.ReservePowerCapID(start, end, budget)
	return plan, err
}

// ReservePowerCapID is ReservePowerCap returning also the reservation's
// ID, the handle AdjustPowerCap needs to re-budget the window later —
// the federation broker reserves one open-ended cap per member cluster
// and moves watts between them at redistribution boundaries.
func (c *Controller) ReservePowerCapID(start, end int64, budget power.Cap) (int, core.OfflinePlan, error) {
	resID, err := c.book.AddPowerCap(start, end, budget)
	if err != nil {
		return 0, core.OfflinePlan{}, err
	}
	c.invalidatePassMemo()
	eligible := func(id cluster.NodeID) bool { return !c.clus.Reserved(id) }
	plan := core.PlanOffline(c.clus, c.pm, budget, !c.cfg.Scattered, eligible)
	if c.cfg.Policy == core.PolicyIdle {
		// IDLE keeps nodes powered; no switch-off reservation.
		plan.OffNodes = nil
	}
	if len(plan.OffNodes) > 0 {
		if _, err := c.book.AddSwitchOff(start, end, plan.OffNodes); err != nil {
			return resID, plan, err
		}
		for _, id := range plan.OffNodes {
			if err := c.clus.SetReserved(id, true); err != nil {
				return resID, plan, err
			}
		}
		c.survivorFresh = false
		c.futureFreqMemo.Invalidate()
		offNodes := append([]cluster.NodeID(nil), plan.OffNodes...)
		if _, err := c.eng.At(start, func(now int64) { c.windowOpen(offNodes, now) }); err != nil {
			return resID, plan, err
		}
		if end != reservation.Horizon {
			if _, err := c.eng.At(end, func(now int64) { c.windowClose(offNodes, now) }); err != nil {
				return resID, plan, err
			}
		}
	}
	// Wake the scheduler at the cap boundaries even without shutdowns:
	// budgets change what may launch.
	if _, err := c.eng.At(start, func(now int64) { c.capBoundary(now) }); err != nil {
		return resID, plan, err
	}
	if end != reservation.Horizon {
		if _, err := c.eng.At(end, func(now int64) { c.capEnded(now) }); err != nil {
			return resID, plan, err
		}
	}
	return resID, plan, nil
}

// Run drives the simulation until the given horizon and returns the
// run's summary. Pending events beyond the horizon stay unfired.
// Equivalent to Start + one Advance to the horizon + Finish; callers
// that interleave external control between epochs (the federation
// broker) use those pieces directly.
func (c *Controller) Run(until int64) (metrics.Summary, error) {
	if err := c.Start(until); err != nil {
		return metrics.Summary{}, err
	}
	if err := c.Advance(until); err != nil {
		return metrics.Summary{}, err
	}
	return c.Finish(), nil
}

// Start fixes the run's horizon and arms the metrics sampling chain.
// It fires no events; follow with Advance calls up to the horizon.
func (c *Controller) Start(until int64) error {
	if until <= 0 {
		return fmt.Errorf("rjms: non-positive horizon %d", until)
	}
	c.horizon = until
	if c.cfg.SampleEverySec > 0 && !c.sampling {
		c.sampling = true
		// The sample count is known up front — pre-size the series so
		// long replays don't regrow the buffer dozens of times.
		c.rec.Reserve(int(until/c.cfg.SampleEverySec) + 2)
		if _, err := c.eng.At(0, c.sampleTick); err != nil {
			return err
		}
	}
	return nil
}

// Advance drives the simulation to virtual time until (at most the
// Start horizon), firing every event at or before it. Repeated calls
// with nondecreasing times run the same event sequence as one Run to
// the horizon — the lockstep primitive of the federation broker, which
// inspects and re-budgets the controller between Advance calls.
func (c *Controller) Advance(until int64) error {
	if until > c.horizon {
		return fmt.Errorf("rjms: advance to %d beyond horizon %d", until, c.horizon)
	}
	if until < c.eng.Now() {
		return fmt.Errorf("rjms: advance to %d behind clock %d", until, c.eng.Now())
	}
	if err := c.eng.Run(until); err != nil {
		return err
	}
	return c.loadErr
}

// Finish closes the run at the Start horizon and returns its summary.
func (c *Controller) Finish() metrics.Summary {
	return c.rec.Finalize(0, c.horizon, c.clus.MaxPower(), c.clus.Cores())
}

// AdjustPowerCap re-budgets an existing powercap reservation in place.
// It is the federation hook: called between Advance calls (never from
// inside an event handler), it changes the cap value at the current
// virtual time and immediately runs the cap-boundary reactions — the
// dynamic-DVFS throttle, the kill-to-fit extreme action when enabled,
// and a scheduling pass — exactly as if a window with the new budget
// had just opened. The offline switch-off plan of the original
// reservation is kept: redistribution moves launch headroom, it does
// not re-plan shutdowns mid-window.
func (c *Controller) AdjustPowerCap(id int, budget power.Cap) error {
	if err := c.book.UpdateCap(id, budget); err != nil {
		return err
	}
	c.capBoundary(c.eng.Now())
	return nil
}

// requeueIDBase offsets the IDs of requeued failure victims into a
// range no workload generator occupies, so a clone can never collide
// with a yet-unsubmitted trace job.
const requeueIDBase = int64(1) << 40

// FailNode injects a node failure at the current virtual time: every
// job with an allocation on the node is killed and requeued as a fresh
// pending clone (new deterministic ID, Submit = now), and the node
// powers off and stays off — excluded from scheduling and from
// reservation window reopenings — until RepairNode. Like
// AdjustPowerCap it is a between-Advance hook (the twin's mutation
// queue), never called from inside an event handler.
func (c *Controller) FailNode(id cluster.NodeID) error {
	if int(id) < 0 || int(id) >= len(c.nodeJobs) {
		return fmt.Errorf("rjms: fail node %d: no such node", id)
	}
	if c.failed.Has(id) {
		return fmt.Errorf("rjms: fail node %d: already failed", id)
	}
	now := c.eng.Now()
	// Snapshot the victims before finish() rewrites nodeJobs; sort by
	// job ID so requeue IDs assign reproducibly regardless of the
	// swap-removal order the list happens to be in.
	victims := make([]*job.Job, 0, len(c.nodeJobs[id]))
	for _, e := range c.nodeJobs[id] {
		if j, ok := c.running[e.id]; ok {
			victims = append(victims, j)
		}
	}
	sort.Slice(victims, func(i, k int) bool { return victims[i].ID < victims[k].ID })
	for _, j := range victims {
		c.finish(j, now, true)
	}
	for _, j := range victims {
		clone := j.Clone()
		c.requeueSeq++
		clone.ID = job.ID(requeueIDBase + c.requeueSeq)
		clone.Submit = now
		clone.StartTime = 0
		clone.EndTime = 0
		clone.Freq = 0
		clone.Allocs = nil
		c.submit(clone, now)
	}
	if err := c.clus.PowerOff(id); err != nil {
		return fmt.Errorf("rjms: fail node %d: %w", id, err)
	}
	c.failed.Add(id)
	c.invalidatePassMemo()
	c.survivorFresh = false
	c.futureFreqMemo.Invalidate()
	c.noteState(now)
	c.requestPass(now)
	return nil
}

// RepairNode returns a failed node to service: it powers back on
// (unless a reservation window currently holds it off) and rejoins the
// schedulable pool at the current virtual time.
func (c *Controller) RepairNode(id cluster.NodeID) error {
	if int(id) < 0 || int(id) >= len(c.nodeJobs) {
		return fmt.Errorf("rjms: repair node %d: no such node", id)
	}
	if !c.failed.Has(id) {
		return fmt.Errorf("rjms: repair node %d: not failed", id)
	}
	now := c.eng.Now()
	c.failed.Remove(id)
	if !c.clus.Reserved(id) {
		_ = c.clus.PowerOn(id)
	}
	c.invalidatePassMemo()
	c.survivorFresh = false
	c.futureFreqMemo.Invalidate()
	c.noteState(now)
	c.requestPass(now)
	return nil
}

// NodeFailed reports whether the node is currently failure-injected —
// the invariant checker's hook for the kill path.
func (c *Controller) NodeFailed(id cluster.NodeID) bool { return c.failed.Has(id) }

// FailedNodes returns the failure-injected nodes, sorted.
func (c *Controller) FailedNodes() []cluster.NodeID {
	out := []cluster.NodeID{}
	for id := cluster.NodeID(0); int(id) < c.clus.Nodes(); id++ {
		if c.failed.Has(id) {
			out = append(out, id)
		}
	}
	return out
}

// Samples returns the recorded time series.
func (c *Controller) Samples() []metrics.Sample { return c.rec.Samples() }

// SchedCounters is a snapshot of the controller's lifetime hot-path
// counters: engine events fired, scheduling passes run vs skipped by
// the pass memo, and projection-memo hits/misses. The counters are
// plain uint64 increments on the deterministic simulation path — this
// accessor exists so observers can sample them out-of-band (e.g. from
// a metrics observer callback) and publish deltas without touching the
// hot path.
type SchedCounters struct {
	EventsFired        uint64
	Passes             uint64
	PassesSkipped      uint64
	ProjectionMemoHits uint64
	ProjectionMemoMiss uint64
	Probes             uint64 // jobs a pass asked plan about
	Starts             uint64 // probes committed
	FrontierBuilds     uint64 // first-fit frontiers (re)built for those probes
}

// SchedCounters returns the current counter snapshot. Call only from
// the simulation goroutine (e.g. inside an observer), like the other
// read accessors.
func (c *Controller) SchedCounters() SchedCounters {
	hits, misses := c.futureFreqMemo.Stats()
	return SchedCounters{
		EventsFired:        c.eng.Fired(),
		Passes:             c.statPasses,
		PassesSkipped:      c.statPassesSkipped,
		ProjectionMemoHits: hits,
		ProjectionMemoMiss: misses,
		Probes:             c.statProbes,
		Starts:             c.statStarts,
		FrontierBuilds:     c.frontiers.Builds(),
	}
}

// ActiveCap returns the tightest powercap budget active at the current
// virtual time (power.NoCap when none).
func (c *Controller) ActiveCap() power.Cap { return c.book.CapAt(c.eng.Now()) }

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

// --- event handlers -------------------------------------------------

// requestPass coalesces scheduling passes: all triggers at one timestamp
// (e.g. a backlog of hundreds of submissions at t=0) share a single pass,
// enqueued behind them in the same event tick.
func (c *Controller) requestPass(now int64) {
	if c.passQueued {
		return
	}
	c.passQueued = true
	if _, err := c.eng.At(now, c.passFn); err != nil {
		panic(fmt.Sprintf("rjms: pass scheduling: %v", err))
	}
}

// invalidatePassMemo drops the committed-nothing pass memo; called by
// every event that moves the scheduling frontier.
func (c *Controller) invalidatePassMemo() { c.passMemoValid = false }

func (c *Controller) submit(j *job.Job, now int64) {
	j.State = job.StatePending
	c.pending = append(c.pending, j)
	// A submission needing fewer cores than the smallest request the
	// memoized pass refused could launch — anything wider is pruned by
	// the same rule the pass itself applies, so the memo holds.
	if c.passMemoValid && j.Cores < c.passMemoMinFail {
		c.invalidatePassMemo()
	}
	c.rec.NoteSubmit()
	c.requestPass(now)
}

func (c *Controller) capBoundary(now int64) {
	c.invalidatePassMemo()
	if c.cfg.DynamicDVFS && c.cfg.Policy.CanScale() {
		c.throttleRunning(now)
	}
	if c.cfg.KillOnOverrun {
		c.killToFit(now)
	}
	c.requestPass(now)
}

// capEnded fires when a powercap window closes.
func (c *Controller) capEnded(now int64) {
	c.invalidatePassMemo()
	if c.cfg.DynamicDVFS && c.cfg.Policy.CanScale() {
		c.boostRunning(now)
	}
	c.requestPass(now)
}

// windowOpen powers down the reserved group; busy nodes drain first.
func (c *Controller) windowOpen(nodes []cluster.NodeID, now int64) {
	c.invalidatePassMemo()
	for _, id := range nodes {
		switch c.clus.State(id) {
		case cluster.StateIdle:
			if err := c.clus.PowerOff(id); err == nil {
				continue
			}
		case cluster.StateBusy:
			c.offPending.Add(id)
		}
	}
	c.noteState(now)
	c.requestPass(now)
}

// windowClose powers the group back on and releases the reservation
// flags.
func (c *Controller) windowClose(nodes []cluster.NodeID, now int64) {
	c.invalidatePassMemo()
	for _, id := range nodes {
		c.offPending.Remove(id)
		// A failed node stays off past its window; RepairNode brings
		// it back.
		if !c.failed.Has(id) {
			_ = c.clus.PowerOn(id)
		}
		_ = c.clus.SetReserved(id, false)
	}
	c.survivorFresh = false
	c.futureFreqMemo.Invalidate()
	c.noteState(now)
	c.requestPass(now)
}

func (c *Controller) finish(j *job.Job, now int64, killed bool) {
	if j.State != job.StateRunning {
		return
	}
	c.invalidatePassMemo()
	c.viewRemove(c.viewKey(j))
	for _, a := range j.Allocs {
		nj := c.nodeJobs[a.Node]
		rem := dvfs.Freq(0)
		for k := 0; k < len(nj); {
			if nj[k].id == j.ID {
				last := len(nj) - 1
				nj[k] = nj[last]
				nj = nj[:last]
				continue
			}
			if nj[k].f > rem {
				rem = nj[k].f
			}
			k++
		}
		c.nodeJobs[a.Node] = nj
		if err := c.clus.Vacate(a.Node, a.Cores, rem); err != nil {
			panic(fmt.Sprintf("rjms: vacate inconsistency for job %d node %d: %v", j.ID, a.Node, err))
		}
		// Drain-to-off: reserved node freed inside its window.
		if c.offPending.Has(a.Node) && c.clus.State(a.Node) == cluster.StateIdle {
			if err := c.clus.PowerOff(a.Node); err == nil {
				c.offPending.Remove(a.Node)
			}
		}
	}
	c.recycleAllocs(j)
	if killed {
		j.State = job.StateKilled
	} else {
		j.State = job.StateCompleted
	}
	j.EndTime = now
	if rs, ok := c.runStates[j.ID]; ok {
		c.eng.Cancel(rs.endEv)
		delete(c.runStates, j.ID)
	}
	delete(c.running, j.ID)
	c.rec.NoteCompletion(killed)
	if !killed {
		c.rec.NoteJobDone(j.StartTime-j.Submit, now-j.StartTime)
	}
	c.noteState(now)
	c.requestPass(now)
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

// --- scheduling -----------------------------------------------------

// planned is a successful probe: the frequency Algorithm 2 settled on,
// the walltime at it, and how many nodes the allocation spans. The
// allocation itself does not exist yet — commit builds it.
type planned struct {
	nodes int
	freq  dvfs.Freq
	wall  int64
}

// freeCoresUpperBound is the quick-reject bound: cores not allocated and
// not on switched-off nodes.
func (c *Controller) freeCoresUpperBound() int {
	off := c.clus.Count(cluster.StateOff) * c.cfg.Topology.CoresPerNode
	return c.clus.Cores() - c.clus.BusyCores() - off
}

// blockedFor returns the nodes j may not use if started now — the
// members of the switch-off groups that refuse work over the job's
// longest possible span (ladder minimum), so a placement stays valid for
// any frequency the online algorithm settles on. The set may alias
// blockedBuf: it is current until the next call.
func (c *Controller) blockedFor(j *job.Job, now int64) cluster.NodeSet {
	wallMax := j.ScaledWalltime(c.pm.Deg, c.pm.Ladder.Min())
	return c.book.BlockedSet(now, now+wallMax, c.cfg.ReservationLeadSec, &c.blockedBuf)
}

// compactPlacement reports whether placements come from the chassis-
// greedy allocator instead of first fit; probe and commit must agree.
func (c *Controller) compactPlacement() bool {
	return c.cfg.Compact && c.clus.ReservedCount() == 0
}

// plan finds a placement and a frequency for a job; ok is false when
// there is none. allocFail reports that the failure happened while
// finding cores (as opposed to the power check) — the scheduling pass
// uses it to prune same-or-larger requests within the same pass.
//
// Nothing is allocated: first fit is read off the standing frontier as
// the partly used nodes the launch would take plus a count of idle ones,
// which is all Algorithm 2 needs to price it — most successful probes are
// then refused by the pass's shadow check. Compact placement has no such
// summary (its order depends on per-chassis totals) and keeps walking.
func (c *Controller) plan(j *job.Job, now int64) (pl planned, ok, allocFail bool) {
	c.statProbes++
	if j.Cores > c.freeCoresUpperBound() {
		return planned{}, false, true
	}
	blocked := c.blockedFor(j, now)
	var found bool
	if c.compactPlacement() {
		nodes := c.nodeBuf[:0]
		for _, a := range sched.AllocateCompact(c.clus, j.Cores, blocked) {
			nodes = append(nodes, a.Node)
		}
		c.nodeBuf = nodes[:0] // same backing array; only alive within this call
		c.planNodes, c.planIdle, found = nodes, 0, len(nodes) > 0
	} else {
		c.planNodes, c.planIdle, found = c.frontiers.For(c.clus, blocked).Fit(j.Cores)
	}
	if !found {
		return planned{}, false, true
	}
	c.planNow = now
	c.planJob = j
	c.planCapNow = c.book.CapAt(now)
	f, ok := core.SelectFreq(c.pm, c.admitFn)
	if !ok {
		return planned{}, false, false
	}
	return planned{nodes: len(c.planNodes) + c.planIdle, freq: f, wall: j.ScaledWalltime(c.pm.Deg, f)}, true, false
}

// takeAllocs returns an empty slice with room for n entries, off the
// free list when a finished job left one of that class.
func (c *Controller) takeAllocs(n int) []job.Alloc {
	k := bits.Len(uint(n - 1))
	if free := c.allocFree[k]; len(free) > 0 {
		s := free[len(free)-1]
		c.allocFree[k] = free[:len(free)-1]
		return s
	}
	return make([]job.Alloc, 0, 1<<k)
}

// recycleAllocs ends a running job's allocation: the slice goes back to
// the free list, filed under the largest class it can serve (the compact
// allocator's slices have any capacity), and the job forgets it.
func (c *Controller) recycleAllocs(j *job.Job) {
	k := bits.Len(uint(cap(j.Allocs))) - 1
	c.allocFree[k] = append(c.allocFree[k], j.Allocs[:0])
	j.Allocs = nil
}

// commit starts j as planned. This is the one place an allocation is
// built, straight into a slice the job owns until it finishes; it must
// come out as the probe counted it and occupy cleanly — anything else is
// a bug.
func (c *Controller) commit(j *job.Job, pl planned, now int64) {
	c.invalidatePassMemo()
	c.statStarts++
	if blocked := c.blockedFor(j, now); c.compactPlacement() {
		j.Allocs = sched.AllocateCompact(c.clus, j.Cores, blocked)
	} else {
		j.Allocs, _ = sched.AllocateInto(c.takeAllocs(pl.nodes), c.clus, j.Cores, blocked, c.clus.ReservedSet())
	}
	if len(j.Allocs) != pl.nodes {
		panic(fmt.Sprintf("rjms: job %d probed onto %d nodes, allocated on %d", j.ID, pl.nodes, len(j.Allocs)))
	}
	for _, a := range j.Allocs {
		if err := c.clus.Occupy(a.Node, a.Cores, pl.freq); err != nil {
			panic(fmt.Sprintf("rjms: occupy inconsistency for job %d: %v", j.ID, err))
		}
		c.nodeJobs[a.Node] = append(c.nodeJobs[a.Node], nodeJobEntry{id: j.ID, f: pl.freq})
	}
	j.State = job.StateRunning
	j.Freq = pl.freq
	j.StartTime = now
	c.running[j.ID] = j
	c.viewInsert(c.viewKey(j))
	c.rec.NoteLaunch(pl.freq, now-j.Submit)

	runFor := j.ScaledRuntime(c.pm.Deg, pl.freq)
	ev, err := c.eng.At(now+runFor, func(t int64) { c.finish(j, t, false) })
	if err != nil {
		panic(fmt.Sprintf("rjms: end scheduling for job %d: %v", j.ID, err))
	}
	c.runStates[j.ID] = runState{endEv: ev, remainingNominal: float64(j.Runtime), freqSince: now}
	c.noteState(now)
}

// viewKey is a running job's entry in the backfill view: its core count
// and the time the scheduler must assume it ends (start + walltime
// scaled by the frequency it currently runs at).
func (c *Controller) viewKey(j *job.Job) sched.RunningJob {
	return sched.RunningJob{
		Cores:       j.Cores,
		ExpectedEnd: j.StartTime + j.ScaledWalltime(c.pm.Deg, j.Freq),
	}
}

func viewLess(a, b sched.RunningJob) bool {
	if a.ExpectedEnd != b.ExpectedEnd {
		return a.ExpectedEnd < b.ExpectedEnd
	}
	return a.Cores < b.Cores
}

// viewInsert adds one entry to the persistent (end, cores)-sorted
// running view at its binary-search position.
func (c *Controller) viewInsert(r sched.RunningJob) {
	v := c.viewBuf
	i := sort.Search(len(v), func(k int) bool { return viewLess(r, v[k]) })
	v = append(v, sched.RunningJob{})
	copy(v[i+1:], v[i:])
	v[i] = r
	c.viewBuf = v
}

// viewRemove deletes one entry equal to r from the sorted view. Equal
// (end, cores) keys are indistinguishable to every consumer
// (ShadowTime accumulates cores until the threshold, FreeCoresAt
// sums), so removing any of them keeps replays bit-identical.
func (c *Controller) viewRemove(r sched.RunningJob) {
	v := c.viewBuf
	i := sort.Search(len(v), func(k int) bool { return !viewLess(v[k], r) })
	if i >= len(v) || v[i] != r {
		panic(fmt.Sprintf("rjms: running view out of sync: missing entry %+v", r))
	}
	copy(v[i:], v[i+1:])
	c.viewBuf = v[:len(v)-1]
}

// runningView returns the backfill view of the running set, sorted by
// ascending (expected end, cores) — the order ShadowTimeSorted
// consumes. The view is maintained incrementally on job start, finish
// and re-clock instead of being rebuilt and re-sorted every pass.
func (c *Controller) runningView() []sched.RunningJob {
	return c.viewBuf
}

// pass runs one EASY-backfill scheduling cycle. Within one pass,
// failures are memoized by core count: once an allocation (or the power
// check) has refused a request of c cores, requests of >= c cores are
// pruned — the cluster state only shrinks as the pass commits jobs, so
// the pruning is sound for allocations and a SLURM-like heuristic for
// the power check.
func (c *Controller) pass(now int64) {
	if len(c.pending) == 0 {
		return
	}
	if c.passMemoValid {
		// The previous pass committed nothing and nothing that could
		// change its outcome has happened since: same cluster and cap
		// state (any commit/finish/re-clock/boundary invalidates), every
		// newer submission at least as wide as the smallest refused
		// request (pruned by the pass's own rule), the queue order
		// time-independent, and every switch-off reservation in the same
		// blocking phase — so a re-run would provably refuse everything
		// again. Skip it.
		if c.book.OffsPhaseStable(c.passMemoNow, now, c.cfg.ReservationLeadSec) {
			c.statPassesSkipped++
			return
		}
		c.invalidatePassMemo()
	}
	c.statPasses++
	startedCount := 0

	shadowAt := int64(-1)
	shadowNeed := 0
	freeAtShadow := 0
	minAllocFail := math.MaxInt
	minPowerFail := math.MaxInt

	// Nothing may change the cluster between a successful tryPlan and the
	// commit that consumes it: commit re-derives the allocation pl counted.
	tryPlan := func(j *job.Job) (planned, bool) {
		if j.Cores >= minAllocFail || j.Cores >= minPowerFail {
			return planned{}, false
		}
		pl, ok, allocFail := c.plan(j, now)
		if !ok {
			if allocFail {
				minAllocFail = j.Cores
			} else {
				minPowerFail = j.Cores
			}
		}
		return pl, ok
	}

	considered := 0
	// One queue order: arrival (submissions in time order, requeued
	// victims at the back).
	for _, j := range c.pending {
		if considered >= c.cfg.BackfillDepth {
			break
		}
		considered++

		if shadowAt < 0 {
			if pl, ok := tryPlan(j); ok {
				c.commit(j, pl, now)
				startedCount++
				continue
			}
			// Head blocked: set up the EASY reservation. The view is
			// already end-sorted, so no per-event re-sort happens in
			// the shadow computation.
			running := c.runningView()
			free := c.freeCoresUpperBound()
			if at, ok := sched.ShadowTimeSorted(running, free, j.Cores, now); ok {
				shadowAt = at
				shadowNeed = j.Cores
				freeAtShadow = sched.FreeCoresAt(running, free, at)
			} else {
				// Cannot fit even when everything drains (nodes off);
				// backfill the rest unconstrained.
				shadowAt = math.MaxInt64
			}
			continue
		}

		// Backfill candidate: must not delay the head reservation.
		pl, ok := tryPlan(j)
		if !ok {
			continue
		}
		if now+pl.wall > shadowAt && shadowAt != math.MaxInt64 {
			if freeAtShadow-j.Cores < shadowNeed {
				continue
			}
			freeAtShadow -= j.Cores
		}
		c.commit(j, pl, now)
		startedCount++
	}

	if startedCount > 0 {
		// commit flipped the started jobs to StateRunning, so they are
		// found by state — no per-pass started set. Most of a backlogged
		// queue is untouched: nothing is written before the first started
		// job, and once the last one is passed the rest moves in one copy.
		q := c.pending
		r, w := 0, 0
		for seen := 0; seen < startedCount && r < len(q); r++ {
			if q[r].State != job.StatePending {
				seen++
				continue
			}
			if w != r {
				q[w] = q[r]
			}
			w++
		}
		c.pending = q[:w+copy(q[w:], q[r:])]
		return
	}
	// Nothing launched: memoize the refusal so the next pass can skip
	// the whole probe cycle unless the frontier moves. Only sound when
	// the power checks use the exact bookkeeping (a measurement
	// estimator's guarded estimate drifts between samples).
	if c.estimator == nil {
		mf := minAllocFail
		if minPowerFail < mf {
			mf = minPowerFail
		}
		c.passMemoValid = true
		c.passMemoNow = now
		c.passMemoMinFail = mf
	}
}

// optimalFutureFreq returns the highest policy-ladder frequency at which
// all surviving (unreserved) nodes could run busy within the future
// budget, accounting for the shared equipment of the chassis and racks
// that keep at least one survivor. When even the ladder minimum exceeds
// the budget the minimum is returned: launches are then as conservative
// as the policy allows and the active-cap check takes over once the
// window opens.
func (c *Controller) optimalFutureFreq(budget power.Cap) dvfs.Freq {
	// The projection is a pure function of (budget, survivor set); a
	// pass probes it for every backfill candidate against the same few
	// reservation budgets, so the keyed memo answers all but the first.
	// Invalidated together with the survivor stats.
	w := budget.Watts()
	if f, ok := c.futureFreqMemo.Get(w); ok {
		return f
	}
	c.ensureSurvivorStats()
	prof := c.clus.Profile()
	out := c.pm.Ladder.Min()
	for i := len(c.pm.Ladder) - 1; i >= 0; i-- {
		f := c.pm.Ladder[i]
		projected := power.Watts(float64(c.survivorCount)*float64(prof.Busy(f))) + c.survivorOverhead
		if budget.Allows(projected) {
			out = f
			break
		}
	}
	c.futureFreqMemo.Put(w, out)
	return out
}

// ensureSurvivorStats caches the survivor count and the shared-equipment
// draw of groups containing at least one unreserved node; invalidated
// whenever reservation flags change.
func (c *Controller) ensureSurvivorStats() {
	if c.survivorFresh {
		return
	}
	topo := c.cfg.Topology
	ov := c.clus.Overhead()
	chassisHasSurvivor := make([]bool, topo.Chassis())
	rackHasSurvivor := make([]bool, topo.Racks)
	count := 0
	c.clus.ForEach(func(n cluster.NodeInfo) bool {
		if !n.Reserved {
			count++
			chassisHasSurvivor[topo.ChassisOf(n.ID)] = true
			rackHasSurvivor[topo.RackOf(n.ID)] = true
		}
		return true
	})
	overhead := 0.0
	for _, has := range chassisHasSurvivor {
		if has {
			overhead += ov.ChassisWatts
		}
	}
	for _, has := range rackHasSurvivor {
		if has {
			overhead += ov.RackWatts
		}
	}
	c.survivorCount = count
	c.survivorOverhead = power.Watts(overhead)
	c.survivorFresh = true
}

// killToFit implements the "extreme actions" option: terminate running
// jobs, newest first, until the draw respects the active cap.
func (c *Controller) killToFit(now int64) {
	budget := c.book.CapAt(now)
	if !budget.IsSet() || budget.Allows(c.observedPower()) {
		return
	}
	victims := make([]*job.Job, 0, len(c.running))
	for _, j := range c.running {
		victims = append(victims, j)
	}
	sort.Slice(victims, func(i, k int) bool {
		if victims[i].StartTime != victims[k].StartTime {
			return victims[i].StartTime > victims[k].StartTime
		}
		return victims[i].ID > victims[k].ID
	})
	for _, v := range victims {
		if budget.Allows(c.observedPower()) {
			return
		}
		c.finish(v, now, true)
	}
}
