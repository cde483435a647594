package rjms

import (
	"fmt"
	"math/bits"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/power"
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

	pending  []*job.Job
	queueBuf []*job.Job // pending's backing array from its first slot (enqueue reuses its front)

	// The running table: a job's run state lives here while it runs and
	// only then — the controller never writes a job and keeps no record
	// of one that ended. running maps each running job to its slot; a
	// finish frees the slot (runFree) and the next commit reuses it, so
	// the map's values stay small and the nRuns slots handed out are as
	// many as the most jobs that ran at once. The slots come in blocks of
	// runBlock records (slot), so the table grows without copying one.
	running map[job.ID]int
	runs    []*[runBlock]run
	nRuns   int
	runFree []int

	// allocFree recycles the Allocs slices of finished jobs: bucket k
	// holds slices with room for at least 1<<k entries. A start takes one
	// from the bucket of its node count, a finish returns it, so the
	// slices kept never outnumber the allocations that ran at once.
	allocFree [bits.UintSize][][]job.Alloc

	// failed holds nodes taken out by an injected failure (FailNode);
	// they stay off — settle leaves them be — until RepairNode returns
	// them. requeueSeq numbers the fresh IDs of
	// requeued victims deterministically.
	failed     cluster.NodeSet
	requeueSeq int64

	horizon    int64
	sampling   bool
	passQueued bool

	// runErr records a failure raised inside an event handler — a
	// streaming-workload error (parse error, invalid or out-of-order
	// job) or a start refused for a repeated job ID; Advance returns it,
	// and a run that failed starts no more jobs.
	runErr error

	// memo is what the last pass that started nothing saw; while it
	// holds (passMemoHolds) the next pass is skipped.
	memo passMemo

	// Lifetime scheduling counters: full probe cycles run vs skipped by
	// the pass memo. Plain increments on the single-threaded simulation
	// path; sampled out-of-band via SchedCounters.
	statPasses        uint64
	statPassesSkipped uint64
	statProbes        uint64 // plan calls
	statStarts        uint64 // commits

	// measured is non-nil in measurement-based capping mode: active-cap
	// checks use its guarded estimate instead of the exact bookkeeping.
	measured *measuredPower

	// observer, when set, runs after every recorded metrics sample (see
	// AddObserver).
	observer func(now int64)

	// Scratch reused across scheduling passes. A pass probes up to
	// BackfillDepth jobs at every event and starts few of them, so a
	// probe builds nothing: it reads a first-fit frontier that stands
	// until the cluster changes.
	viewBuf    []sched.RunningJob // running view, sorted by expected end
	viewGen    uint64             // counts viewInsert and viewRemove, the view's only mutators
	frontiers  sched.Frontiers    // what first fit can take, per blocked set
	nodeBuf    []cluster.NodeID   // node list of the current compact-placement probe
	blockedBuf cluster.NodeSet    // union of several blocking switch-off groups
	deferBuf   []int              // queue positions of shadow-refused candidates not yet planned
	startBuf   []int              // queue positions the current pass started, ascending

	// Pre-bound closures with their parameter fields. plan() runs up to
	// BackfillDepth times per event; literal admit closures there would
	// escape to the heap on every probe, so they are built once in New
	// and read the plan* fields the current probe sets: the nodes the
	// launch would take, the idle ones among them (planIdle) as a count
	// only.
	planNow      int64
	planJob      *job.Job
	planCapNow   power.Cap
	planNodes    []cluster.NodeID
	planIdle     int
	admitDrawFn  func(dvfs.Freq) bool
	admitAheadFn func(dvfs.Freq) bool

	// Event handlers, bound once in New. What differs between two events
	// of one kind travels as the event's argument — the job that ends,
	// the stream a submission pulls from, the switch-off window that
	// closes — so scheduling an event allocates nothing.
	passFn, endFn, submitFn, sampleFn                    simengine.Handler
	windowOpenFn, windowCloseFn, capBoundaryFn, capEndFn simengine.Handler
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
		cfg:     cfg,
		pm:      pm,
		clus:    clus,
		eng:     simengine.New(0),
		book:    reservation.NewBook(cfg.Topology),
		running: map[job.ID]int{},
		failed:  cluster.NewNodeSet(cfg.Topology.Nodes()),
	}
	if cfg.MeasuredNoise > 0 {
		c.measured = newMeasuredPower(cfg.MeasuredNoise)
		c.measured.push(clus.Power())
	}
	c.rec = metrics.NewRecorder(0, clus.Power(), 0)
	c.admitDrawFn, c.admitAheadFn = c.admitDraw, c.admitAhead
	c.passFn = func(t int64, _ any) {
		c.passQueued = false
		c.pass(t)
	}
	c.endFn = func(t int64, j any) { c.finish(j.(*job.Job), t, false) }
	c.submitFn = func(t int64, st any) { c.submitStream(st.(*stream), t) }
	c.sampleFn = func(t int64, _ any) { c.sampleTick(t) }
	c.windowOpenFn = func(t int64, _ any) { c.settle(t) }
	c.windowCloseFn = func(t int64, id any) {
		c.book.Release(id.(int))
		c.settle(t)
	}
	c.capBoundaryFn = func(t int64, _ any) { c.capBoundary(t) }
	c.capEndFn = func(t int64, _ any) { c.capEnded(t) }
	return c, nil
}

// observedPower is the draw the active-cap checks compare against the
// budget: the exact bookkeeping by default, or the guarded measurement
// estimate in measured mode.
func (c *Controller) observedPower() power.Watts {
	if c.measured != nil {
		return c.measured.estimate()
	}
	return c.clus.Power()
}

// Cluster exposes the machine state (read-only use expected).
func (c *Controller) Cluster() *cluster.Cluster { return c.clus }

// RunningCount returns the dispatched-job count.
func (c *Controller) RunningCount() int { return len(c.running) }

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
		if _, err := c.eng.At(0, c.sampleFn, nil); err != nil {
			return err
		}
	}
	return nil
}

// Advance drives the simulation to virtual time until (at most the
// Start horizon), firing every event at or before it. Repeated calls
// with nondecreasing times run the same event sequence as one Advance to
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
	return c.runErr
}

// Finish closes the run at the Start horizon and returns its summary.
func (c *Controller) Finish() metrics.Summary {
	return c.rec.Finalize(0, c.horizon, c.clus.MaxPower(), c.clus.Cores())
}

// requestPass coalesces scheduling passes: all triggers at one timestamp
// (e.g. a backlog of hundreds of submissions at t=0) share a single pass,
// enqueued behind them in the same event tick.
func (c *Controller) requestPass(now int64) {
	if c.passQueued {
		return
	}
	c.passQueued = true
	if _, err := c.eng.At(now, c.passFn, nil); err != nil {
		panic(fmt.Sprintf("rjms: pass scheduling: %v", err))
	}
}
