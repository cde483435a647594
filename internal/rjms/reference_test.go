package rjms

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

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

// refController is the controller written a second time, plainly: FCFS +
// EASY backfilling, Algorithm 1's switch-off plan when a reservation
// arrives and Algorithm 2's frequency choice at every launch, with
// DynamicDVFS, KillOnOverrun, drain-to-off and node failures, as the
// shipped Controller runs them. It keeps none of the shipped one's
// optimisations: no pass memo, no generations, no frontier, no running
// view, no free list and no shadow deferral. Every pass plans each
// candidate in queue order, first fit walks the nodes, a node's
// frequency is the maximum over the running jobs found on it (nodeFreq,
// which every sample holds the cluster's charged frequency to), the
// running jobs are sorted whenever an order is needed, and the
// future-cap rule prices the survivors node by node.
//
// It reuses what is stateless or has an oracle of its own: the event
// engine, the cluster's transitions and plain reads, the reservation
// book's window calls, Algorithm 1 (core.PlanOffline), compact
// placement, the EASY shadow arithmetic, the metrics recorder, the
// measured-power sensor and the job methods. Like the shipped one it
// never writes a job: its run records and the way each job ended are its
// own. FuzzControllerAgainstReference holds the shipped controller to it.
type refController struct {
	cfg      Config
	pm       core.PolicyModel
	prof     *power.Profile
	clus     *cluster.Cluster
	eng      *simengine.Engine
	book     *reservation.Book
	rec      *metrics.Recorder
	measured *measuredPower

	pending    []*job.Job
	running    map[job.ID]*refRun
	ends       map[job.ID]jobEnd     // the jobs that ended, and how
	classes    [4][]cluster.NodeInfo // firstFit's scratch
	offs       []refOff              // switch-offs not yet released
	failed     map[cluster.NodeID]bool
	requeueSeq int64

	horizon    int64
	passQueued bool
	starts     uint64
	observer   func(now int64)
}

// refRun is one running job: its frequency, launch time, allocation,
// completion event and progress.
type refRun struct {
	j         *job.Job
	freq      dvfs.Freq
	start     int64
	allocs    []job.Alloc
	endEv     simengine.EventID
	remaining float64 // nominal-frequency seconds of work left at since
	since     int64
}

// refOff is a switch-off reservation whose window has not closed.
type refOff struct {
	id         int
	start, end int64
	nodes      []cluster.NodeID
}

// heldOpen reports whether a switch-off window open at now holds node id.
func (r *refController) heldOpen(id cluster.NodeID, now int64) bool {
	for _, o := range r.offs {
		if o.start <= now && now < o.end && slices.Contains(o.nodes, id) {
			return true
		}
	}
	return false
}

func newRef(cfg Config) (*refController, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	prof := power.CurieProfile()
	pm, err := core.NewPolicyModel(cfg.Policy, prof, dvfs.DegMinCommon, dvfs.DegMinMix, core.DefaultMixFloor)
	if err != nil {
		return nil, err
	}
	clus, err := cluster.New(cfg.Topology, prof, cluster.CurieOverhead())
	if err != nil {
		return nil, err
	}
	r := &refController{
		cfg: cfg, pm: pm, prof: prof, clus: clus,
		eng:     simengine.New(0),
		book:    reservation.NewBook(cfg.Topology),
		rec:     metrics.NewRecorder(0, clus.Power(), 0),
		running: map[job.ID]*refRun{},
		ends:    map[job.ID]jobEnd{},
		failed:  map[cluster.NodeID]bool{},
	}
	if cfg.MeasuredNoise > 0 {
		r.measured = newMeasuredPower(cfg.MeasuredNoise)
		r.measured.push(clus.Power())
	}
	return r, nil
}

// at schedules fn; the reference never schedules into the past.
func (r *refController) at(t int64, fn func(now int64)) simengine.EventID {
	ev, err := r.eng.At(t, func(now int64, _ any) { fn(now) }, nil)
	if err != nil {
		panic(fmt.Sprintf("reference: %v", err))
	}
	return ev
}

// load submits jobs, which are in submit order, the way a stream does:
// one event per submit time, each scheduling the next when it fires.
func (r *refController) load(jobs []*job.Job) {
	if len(jobs) > 0 {
		r.at(jobs[0].Submit, func(now int64) { r.submitFrom(jobs, now) })
	}
}

func (r *refController) submitFrom(jobs []*job.Job, now int64) {
	i := 0
	for ; i < len(jobs) && jobs[i].Submit == now; i++ {
		r.submit(jobs[i], now)
	}
	if rest := jobs[i:]; len(rest) > 0 {
		r.at(rest[0].Submit, func(now int64) { r.submitFrom(rest, now) })
	}
}

func (r *refController) submit(j *job.Job, now int64) {
	r.pending = append(r.pending, j)
	r.rec.NoteSubmit()
	r.requestPass(now)
}

func (r *refController) start(until int64) error {
	r.horizon = until
	if r.cfg.SampleEverySec > 0 {
		r.at(0, r.sampleTick)
	}
	return nil
}

func (r *refController) finishRun() metrics.Summary {
	return r.rec.Finalize(0, r.horizon, r.clus.MaxPower(), r.cfg.Topology.Cores())
}

// snapshot is SnapshotJobs: the queue in order, then the running jobs by ID.
func (r *refController) snapshot() []JobView {
	var out []JobView
	for _, j := range r.pending {
		out = append(out, JobView{Job: j, State: job.StatePending})
	}
	for _, run := range r.sortedRunning(func(a, b *refRun) bool { return a.j.ID < b.j.ID }) {
		out = append(out, JobView{Job: run.j, State: job.StateRunning, Freq: run.freq, Start: run.start, Allocs: run.allocs})
	}
	return out
}

// outcome is how job j stands: how it ended, or that it runs or waits.
func (r *refController) outcome(j *job.Job) jobEnd {
	if run := r.running[j.ID]; run != nil {
		return jobEnd{state: job.StateRunning, start: run.start, freq: run.freq}
	}
	return r.ends[j.ID]
}

func (r *refController) requestPass(now int64) {
	if r.passQueued {
		return
	}
	r.passQueued = true
	r.at(now, func(t int64) {
		r.passQueued = false
		r.pass(t)
	})
}

// pass is one EASY-backfill cycle over the first BackfillDepth queued
// jobs. A job is planned unless a request of no more cores was refused
// earlier in the pass (the SLURM-like prune). The first job that cannot
// start sets the head's reservation; after it a job starts only if it
// ends by the reservation or leaves the head its cores.
func (r *refController) pass(now int64) {
	queue := r.pending
	r.pending = nil
	shadowAt, shadowNeed, freeAtShadow, minFail := int64(-1), 0, 0, math.MaxInt
	for i, j := range queue {
		if i >= r.cfg.BackfillDepth || j.Cores >= minFail {
			r.pending = append(r.pending, j)
			continue
		}
		allocs, f, ok := r.plan(j, now)
		if !ok {
			minFail = j.Cores
		}
		switch {
		case shadowAt < 0 && !ok:
			shadowAt, shadowNeed, freeAtShadow = r.shadow(j.Cores, now)
		case shadowAt < 0 || !ok || shadowAt == math.MaxInt64:
		case now+j.ScaledWalltime(r.pm.Deg, f) > shadowAt:
			if freeAtShadow-j.Cores < shadowNeed {
				ok = false
			} else {
				freeAtShadow -= j.Cores
			}
		}
		if ok {
			r.commit(j, allocs, f, now)
		} else {
			r.pending = append(r.pending, j)
		}
	}
}

// shadow is the blocked head's reservation: when need cores are free if
// the running jobs end at their walltimes, and how many are free then.
// MaxInt64 means never: the rest backfills unconstrained.
func (r *refController) shadow(need int, now int64) (at int64, _ int, freeAt int) {
	var view []sched.RunningJob
	for _, run := range r.running {
		view = append(view, sched.RunningJob{Cores: run.j.Cores, ExpectedEnd: r.expectedEnd(run)})
	}
	slices.SortFunc(view, func(a, b sched.RunningJob) int { return cmp.Compare(a.ExpectedEnd, b.ExpectedEnd) })
	free := r.freeCores()
	at, ok := sched.ShadowTimeSorted(view, free, need, now)
	if !ok {
		return math.MaxInt64, need, 0
	}
	return at, need, sched.FreeCoresAt(view, free, at)
}

func (r *refController) expectedEnd(run *refRun) int64 {
	return run.start + run.j.ScaledWalltime(r.pm.Deg, run.freq)
}

// held marks the nodes of the switch-off groups not yet released.
func (r *refController) held() []bool {
	out := make([]bool, r.clus.Nodes())
	for _, o := range r.offs {
		for _, id := range o.nodes {
			out[id] = true
		}
	}
	return out
}

// plan places j and picks its frequency, or reports that it cannot start.
func (r *refController) plan(j *job.Job, now int64) ([]job.Alloc, dvfs.Freq, bool) {
	var scratch cluster.NodeSet
	blocked := r.book.BlockedSet(now, now+j.ScaledWalltime(r.pm.Deg, r.pm.Ladder.Min()), r.cfg.ReservationLeadSec, &scratch)
	held := r.held()
	var allocs []job.Alloc
	if r.cfg.Compact && len(r.offs) == 0 {
		allocs = sched.AllocateCompact(r.clus, j.Cores, blocked)
	} else {
		allocs = r.firstFit(j.Cores, blocked, held)
	}
	if allocs == nil {
		return nil, 0, false
	}
	nodes := make([]cluster.NodeID, len(allocs))
	for i, a := range allocs {
		nodes[i] = a.Node
	}
	ladder := r.pm.Ladder
	if r.pm.Policy == core.PolicyNone {
		return allocs, ladder.Max(), true
	}
	if !r.pm.Policy.CanScale() {
		ladder = ladder[len(ladder)-1:]
	}
	for i := len(ladder) - 1; i >= 0; i-- {
		if f := ladder[i]; r.admits(j, now, nodes, held, f) {
			return allocs, f, true
		}
	}
	return nil, 0, false
}

// firstFit walks the nodes class by class — held partly used, held idle,
// other partly used, other idle, IDs ascending in each — skipping blocked
// and off nodes, each node giving all its free cores until the request is
// met. nil when it cannot be.
func (r *refController) firstFit(cores int, blocked cluster.NodeSet, held []bool) []job.Alloc {
	perNode := r.cfg.Topology.CoresPerNode
	classes := &r.classes
	for k := range classes {
		classes[k] = classes[k][:0]
	}
	r.clus.ForEach(func(n cluster.NodeInfo) bool {
		k := 0
		if !held[n.ID] {
			k = 2
		}
		switch {
		case blocked.Has(n.ID):
			return true
		case n.State == cluster.StateIdle:
			k++
		case n.State != cluster.StateBusy || n.UsedCores == perNode:
			return true
		}
		classes[k] = append(classes[k], n)
		return true
	})
	var allocs []job.Alloc
	need := cores
	for _, class := range classes {
		for _, n := range class {
			if need == 0 {
				break
			}
			allocs = append(allocs, job.Alloc{Node: n.ID, Cores: min(perNode-n.UsedCores, need)})
			need -= allocs[len(allocs)-1].Cores
		}
	}
	if need > 0 {
		return nil
	}
	return allocs
}

// admits is Algorithm 2's launch check at f: the active cap holds the
// observed draw plus the launch's, and f is at most the optimal frequency
// of the tightest future window the walltime at f reaches within the
// planning horizon — every survivor busy at f fits that window's budget —
// unless f is the ladder minimum.
func (r *refController) admits(j *job.Job, now int64, nodes []cluster.NodeID, held []bool, f dvfs.Freq) bool {
	if c := r.book.CapAt(now); c.IsSet() && !c.Allows(r.observedPower()+r.clus.OccupyDelta(nodes, f)) {
		return false
	}
	end := now + j.ScaledWalltime(r.pm.Deg, f)
	fut := r.book.MinFutureCapOver(now, end, r.cfg.PlanningHorizonSec)
	return !fut.IsSet() || f <= r.pm.Ladder.Min() || fut.Allows(r.survivorDraw(held, r.prof.Busy(f)))
}

// survivorDraw is what the machine draws with the held nodes down and
// every other node busy at busy watts, summed node by node, plus the
// shared equipment of each chassis and rack keeping a survivor.
func (r *refController) survivorDraw(held []bool, busy power.Watts) power.Watts {
	topo, over := r.cfg.Topology, cluster.CurieOverhead()
	chassis, racks := map[int]bool{}, map[int]bool{}
	var w power.Watts
	for id, off := range held {
		if !off {
			w += busy
			chassis[topo.ChassisOf(cluster.NodeID(id))], racks[topo.RackOf(cluster.NodeID(id))] = true, true
		}
	}
	return w + power.Watts(over.ChassisWatts*float64(len(chassis))+over.RackWatts*float64(len(racks)))
}

func (r *refController) observedPower() power.Watts {
	if r.measured != nil {
		return r.measured.estimate()
	}
	return r.clus.Power()
}

func (r *refController) commit(j *job.Job, allocs []job.Alloc, f dvfs.Freq, now int64) {
	r.starts++
	for _, a := range allocs {
		if err := r.clus.Occupy([]job.Alloc{a}, f); err != nil {
			panic(fmt.Sprintf("reference: job %d: %v", j.ID, err))
		}
	}
	r.rec.NoteLaunch(f, now-j.Submit)
	ev := r.at(now+j.ScaledRuntime(r.pm.Deg, f), func(t int64) { r.finish(j, t, false) })
	r.running[j.ID] = &refRun{j: j, freq: f, start: now, allocs: allocs, endEv: ev, remaining: float64(j.Runtime), since: now}
	r.noteState(now)
}

// nodeFreq is the highest frequency among the running jobs on node id,
// leaving out job skip; 0 when there are none. It is the shared-node
// rule stated plainly: sampleTick holds the cluster's charged frequency
// of every busy node to it, and uplift prices a re-clock with it.
func (r *refController) nodeFreq(id cluster.NodeID, skip job.ID) dvfs.Freq {
	f := dvfs.Freq(0)
	for _, run := range r.running {
		for _, a := range run.allocs {
			if a.Node == id && run.j.ID != skip {
				f = max(f, run.freq)
			}
		}
	}
	return f
}

func (r *refController) finish(j *job.Job, now int64, killed bool) {
	run := r.running[j.ID]
	if run == nil {
		return
	}
	for _, a := range run.allocs {
		if err := r.clus.Vacate([]job.Alloc{a}, run.freq); err != nil {
			panic(fmt.Sprintf("reference: job %d: %v", j.ID, err))
		}
		if r.clus.State(a.Node) == cluster.StateIdle && r.heldOpen(a.Node, now) {
			_ = r.clus.PowerOff(a.Node)
		}
	}
	end := jobEnd{state: job.StateCompleted, start: run.start, end: now, freq: run.freq}
	if killed {
		end.state = job.StateKilled
	}
	r.ends[j.ID] = end
	r.eng.Cancel(run.endEv)
	delete(r.running, j.ID)
	r.rec.NoteCompletion(killed)
	if !killed {
		r.rec.NoteJobDone(run.start-j.Submit, now-run.start)
	}
	r.noteState(now)
	r.requestPass(now)
}

// reclock moves a running job to f: the work done at the old frequency
// is consumed, its nodes are re-charged and its end is rescheduled for
// the work left, stretched at f and rounded up.
func (r *refController) reclock(run *refRun, now int64, f dvfs.Freq) {
	if f == run.freq {
		return
	}
	if elapsed := now - run.since; elapsed > 0 {
		run.remaining = max(0, run.remaining-float64(elapsed)/r.pm.Deg.Factor(run.freq))
	}
	run.since = now
	j := run.j
	for _, a := range run.allocs {
		if err := r.clus.Reclock([]job.Alloc{a}, run.freq, f); err != nil {
			panic(fmt.Sprintf("reference: job %d: %v", j.ID, err))
		}
	}
	run.freq = f
	r.eng.Cancel(run.endEv)
	run.endEv = r.at(now+int64(run.remaining*r.pm.Deg.Factor(f)+0.999999), func(t int64) { r.finish(j, t, false) })
	r.rec.NoteRescale()
	r.noteState(now)
}

func (r *refController) sortedRunning(less func(a, b *refRun) bool) []*refRun {
	var out []*refRun
	for _, run := range r.running {
		out = append(out, run)
	}
	sort.Slice(out, func(a, b int) bool { return less(out[a], out[b]) })
	return out
}

// throttle lowers running jobs one rung per round — highest frequency,
// then youngest, first — until the active cap admits the draw.
func (r *refController) throttle(now int64) {
	budget := r.book.CapAt(now)
	if !budget.IsSet() || budget.Allows(r.observedPower()) {
		return
	}
	runs := r.sortedRunning(func(a, b *refRun) bool {
		if a.freq != b.freq {
			return a.freq > b.freq
		}
		if a.start != b.start {
			return a.start > b.start
		}
		return a.j.ID > b.j.ID
	})
	for range r.pm.Ladder {
		changed := false
		for _, run := range runs {
			if budget.Allows(r.observedPower()) {
				return
			}
			if below, ok := r.pm.Ladder.Below(run.freq); ok && run.freq > r.pm.Ladder.Min() {
				r.reclock(run, now, below)
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// boost raises running jobs, oldest first, to the highest rung whose
// uplift the active cap admits (nominal when none is active).
func (r *refController) boost(now int64) {
	budget := r.book.CapAt(now)
	nominal := r.pm.Ladder.Max()
	for _, run := range r.sortedRunning(func(a, b *refRun) bool {
		if a.start != b.start {
			return a.start < b.start
		}
		return a.j.ID < b.j.ID
	}) {
		if run.freq >= nominal {
			continue
		}
		target := nominal
		for target > run.freq && budget.IsSet() && !budget.Allows(r.observedPower()+r.uplift(run, target)) {
			below, ok := r.pm.Ladder.Below(target)
			if !ok || below <= run.freq {
				target = run.freq
				break
			}
			target = below
		}
		if target > run.freq {
			r.reclock(run, now, target)
		}
	}
}

// uplift is the extra draw of running run's job at f, given its nodes'
// other jobs.
func (r *refController) uplift(run *refRun, f dvfs.Freq) (d power.Watts) {
	for _, a := range run.allocs {
		cur, to := r.nodeFreq(a.Node, -1), max(f, r.nodeFreq(a.Node, run.j.ID))
		if to > cur {
			d += r.prof.Busy(to) - r.prof.Busy(cur)
		}
	}
	return d
}

func (r *refController) killToFit(now int64) {
	budget := r.book.CapAt(now)
	for _, v := range r.sortedRunning(func(a, b *refRun) bool {
		if a.start != b.start {
			return a.start > b.start
		}
		return a.j.ID > b.j.ID
	}) {
		if !budget.IsSet() || budget.Allows(r.observedPower()) {
			return
		}
		r.finish(v.j, now, true)
	}
}

func (r *refController) reserve(start, end int64, budget power.Cap) (int, error) {
	resID, err := r.book.AddPowerCap(start, end, budget)
	if err != nil {
		return 0, err
	}
	// A plan may take the group of a window that closes inside its own,
	// and no other held node.
	hole := make([]bool, r.clus.Nodes())
	for _, o := range r.offs {
		if o.end < start || o.end > end {
			for _, id := range o.nodes {
				hole[id] = true
			}
		}
	}
	plan := core.PlanOffline(r.clus, r.pm, budget, !r.cfg.Scattered, func(id cluster.NodeID) bool { return !hole[id] })
	if len(plan.OffNodes) > 0 {
		offID, err := r.book.AddSwitchOff(start, end, plan.OffNodes)
		if err != nil {
			return resID, err
		}
		r.offs = append(r.offs, refOff{id: offID, start: start, end: end, nodes: plan.OffNodes})
		r.at(start, r.settle)
		if end != reservation.Horizon {
			r.at(end, func(now int64) { r.windowClose(offID, now) })
		}
	}
	r.at(start, r.capBoundary)
	if end != reservation.Horizon {
		r.at(end, r.capEnded)
	}
	return resID, nil
}

func (r *refController) adjust(id int, budget power.Cap) error {
	if err := r.book.UpdateCap(id, budget); err != nil {
		return err
	}
	r.capBoundary(r.eng.Now())
	return nil
}

func (r *refController) capBoundary(now int64) {
	if r.cfg.DynamicDVFS && r.cfg.Policy.CanScale() {
		r.throttle(now)
	}
	if r.cfg.KillOnOverrun {
		r.killToFit(now)
	}
	r.requestPass(now)
}

func (r *refController) capEnded(now int64) {
	if r.cfg.DynamicDVFS && r.cfg.Policy.CanScale() {
		r.boost(now)
	}
	r.requestPass(now)
}

func (r *refController) windowClose(id int, now int64) {
	r.book.Release(id)
	r.offs = slices.DeleteFunc(r.offs, func(o refOff) bool { return o.id == id })
	r.settle(now)
}

// settle powers each node that has not failed off exactly while a window
// that holds it is open: idle ones at once, busy ones as they drain
// (finish).
func (r *refController) settle(now int64) {
	for id := cluster.NodeID(0); int(id) < r.clus.Nodes(); id++ {
		if r.failed[id] {
			continue
		}
		if r.heldOpen(id, now) {
			if r.clus.State(id) == cluster.StateIdle {
				_ = r.clus.PowerOff(id)
			}
		} else if r.clus.State(id) == cluster.StateOff {
			_ = r.clus.PowerOn(id)
		}
	}
	r.noteState(now)
	r.requestPass(now)
}

func (r *refController) failNode(id cluster.NodeID) error {
	if int(id) < 0 || int(id) >= r.clus.Nodes() {
		return fmt.Errorf("rjms: fail node %d: no such node", id)
	}
	if r.failed[id] {
		return fmt.Errorf("rjms: fail node %d: already failed", id)
	}
	now := r.eng.Now()
	var victims []*job.Job
	for _, run := range r.sortedRunning(func(a, b *refRun) bool { return a.j.ID < b.j.ID }) {
		for _, a := range run.allocs {
			if a.Node == id {
				victims = append(victims, run.j)
			}
		}
	}
	for _, j := range victims {
		r.finish(j, now, true)
	}
	for _, j := range victims {
		r.requeueSeq++
		r.submit(&job.Job{ID: job.ID(requeueIDBase + r.requeueSeq), User: j.User, Cores: j.Cores,
			Submit: now, Runtime: j.Runtime, Walltime: j.Walltime}, now)
	}
	if err := r.clus.PowerOff(id); err != nil {
		return fmt.Errorf("rjms: fail node %d: %w", id, err)
	}
	r.failed[id] = true
	r.noteState(now)
	r.requestPass(now)
	return nil
}

func (r *refController) repairNode(id cluster.NodeID) error {
	if int(id) < 0 || int(id) >= r.clus.Nodes() {
		return fmt.Errorf("rjms: repair node %d: no such node", id)
	}
	if !r.failed[id] {
		return fmt.Errorf("rjms: repair node %d: not failed", id)
	}
	delete(r.failed, id)
	r.settle(r.eng.Now())
	return nil
}

// noteState feeds the integrals, and the sensor in measured mode, after
// every change of the machine.
func (r *refController) noteState(now int64) {
	if r.measured != nil {
		r.measured.push(r.clus.Power())
	}
	if err := r.rec.NotePower(now, r.clus.Power()); err != nil {
		panic(err)
	}
	if err := r.rec.NoteCores(now, r.busyCores()); err != nil {
		panic(err)
	}
}

// busyCores and freeCores count the machine's cores node by node: the
// allocated ones, and the others on powered nodes.
func (r *refController) busyCores() (busy int) {
	r.clus.ForEach(func(n cluster.NodeInfo) bool {
		busy += n.UsedCores
		return true
	})
	return busy
}

func (r *refController) freeCores() (free int) {
	r.clus.ForEach(func(n cluster.NodeInfo) bool {
		if n.State != cluster.StateOff {
			free += r.cfg.Topology.CoresPerNode - n.UsedCores
		}
		return true
	})
	return free
}

func (r *refController) sampleTick(now int64) {
	r.clus.ForEach(func(n cluster.NodeInfo) bool {
		if n.State != cluster.StateBusy {
			return true
		}
		if f := r.nodeFreq(n.ID, -1); n.Freq != f {
			panic(fmt.Sprintf("reference: t=%d: node %d charged at %v, its jobs' highest frequency is %v", now, n.ID, n.Freq, f))
		}
		return true
	})
	capW := power.Watts(0)
	if b := r.book.CapAt(now); b.IsSet() {
		capW = b.Watts()
	}
	off := r.clus.Count(cluster.StateOff)
	r.rec.AddSample(metrics.Sample{
		T: now, CoresByFreq: r.clus.CurieCores(),
		BusyNodes: r.clus.Count(cluster.StateBusy), IdleNodes: r.clus.Count(cluster.StateIdle),
		OffNodes: off, OffCores: off * r.cfg.Topology.CoresPerNode,
		Power: r.clus.Power(), Cap: capW, Bonus: r.clus.BonusWatts(),
	})
	if r.observer != nil {
		r.observer(now)
	}
	if next := now + r.cfg.SampleEverySec; next <= r.horizon {
		r.at(next, r.sampleTick)
	}
}
