package rjms

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/job"
	"repro/internal/power"
	"repro/internal/sched"
)

// planned is a successful probe: the frequency Algorithm 2 settled on,
// the walltime at it, how many nodes the allocation spans, and where it
// lies — the first-fit frontier the probe read (commit takes from it), or
// the allocation compact placement already built.
type planned struct {
	nodes    int
	freq     dvfs.Freq
	wall     int64
	frontier *sched.Frontier
	compact  []job.Alloc
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

// plan finds a placement and a frequency for a job; ok is false when
// there is none — no cores, or no rung Algorithm 2 admits. The
// scheduling pass prunes same-or-larger requests after either.
//
// Nothing is allocated: first fit is read off the standing frontier as
// the partly used nodes the launch would take plus a count of idle ones,
// which is all Algorithm 2 needs to price it — many successful probes
// commit nothing (the pass plans a candidate its shadow refused only to
// learn whether it fails). Compact placement has no such
// summary (its order depends on per-chassis totals): it builds the
// allocation here, and a commit keeps it.
func (c *Controller) plan(j *job.Job, now int64) (pl planned, ok bool) {
	c.statProbes++
	if j.Cores > c.freeCoresUpperBound() {
		return planned{}, false
	}
	blocked := c.blockedFor(j, now)
	held, heldGroups := c.book.Held()
	var found bool
	if c.cfg.Compact && heldGroups.Nodes == 0 { // chassis-greedy, unless nodes are held
		pl.compact = sched.AllocateCompact(c.clus, j.Cores, blocked)
		nodes := c.nodeBuf[:0]
		for _, a := range pl.compact {
			nodes = append(nodes, a.Node)
		}
		c.nodeBuf = nodes[:0] // same backing array; only alive within this call
		c.planNodes, c.planIdle, found = nodes, 0, len(nodes) > 0
	} else {
		pl.frontier = c.frontiers.For(c.clus, blocked, held)
		c.planNodes, c.planIdle, found = pl.frontier.Fit(j.Cores)
	}
	if !found {
		return planned{}, false
	}
	c.planNow = now
	c.planJob = j
	c.planCapNow = c.book.CapAt(now)
	f, ok := core.SelectFreq(c.pm, c.admitDrawFn, c.admitAheadFn)
	if !ok {
		return planned{}, false
	}
	pl.nodes, pl.freq, pl.wall = len(c.planNodes)+c.planIdle, f, j.ScaledWalltime(c.pm.Deg, f)
	return pl, true
}

// admitDraw and admitAhead are Algorithm 2's launch check, at frequency
// f, for the probe the plan* fields describe; New binds them once as
// admitDrawFn and admitAheadFn.
//
// admitDraw checks the active cap against the observed draw (exact
// bookkeeping, or the guarded measurement estimate) plus the launch's
// occupation delta. Both deltas are nondecreasing in f, so the check is
// monotone, as core.SelectFreq requires. The idle nodes' share alone
// refuses most probes once a cap binds; every OccupyDelta term is ≥ 0
// and float addition is monotone, so (P+OD)+IOD ≥ P+IOD, and refusing on
// P+IOD before walking planNodes refuses exactly what the full sum does.
func (c *Controller) admitDraw(f dvfs.Freq) bool {
	if !c.planCapNow.IsSet() {
		return true
	}
	p, idle := c.observedPower(), c.clus.IdleOccupyDelta(c.planIdle, f)
	return c.planCapNow.Allows(p+idle) && c.planCapNow.Allows(p+c.clus.OccupyDelta(c.planNodes, f)+idle)
}

// admitAhead checks the future windows the job's walltime at f crosses:
// they cap the launch frequency. Jobs still launch — the paper's Figure 6
// shows the system "preparing itself" by running at 2.0 GHz ahead of the
// reservation, not by idling.
func (c *Controller) admitAhead(f dvfs.Freq) bool {
	now := c.planNow
	end := now + c.planJob.ScaledWalltime(c.pm.Deg, f)
	fut := c.book.MinFutureCapOver(now, end, c.cfg.PlanningHorizonSec)
	return !fut.IsSet() || c.fitsFutureCap(f, fut)
}

// fitsFutureCap reports whether f is at most a future window's "optimal
// CPU frequency" (Section IV-B): the highest ladder rung at which every
// surviving node (held by no switch-off) could run busy within the budget, the
// shared equipment of the chassis and racks that keep a survivor
// included. Draws rise with frequency, so that is f's own projection
// fitting. When not even the ladder minimum fits, the minimum is still
// admitted: launches are then as conservative as the policy allows and
// the active-cap check takes over once the window opens.
func (c *Controller) fitsFutureCap(f dvfs.Freq, budget power.Cap) bool {
	_, held := c.book.Held()
	return f <= c.pm.Ladder.Min() || budget.Allows(c.clus.SurvivorDraw(held, c.clus.Profile().Busy(f)))
}

// viewKey is a running job's entry in the backfill view: its core count
// and the time the scheduler must assume it ends (start + walltime
// scaled by the frequency it currently runs at).
func (c *Controller) viewKey(r *run) sched.RunningJob {
	return sched.RunningJob{
		Cores:       r.j.Cores,
		ExpectedEnd: r.start + r.j.ScaledWalltime(c.pm.Deg, r.freq),
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
	c.viewGen++
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
	c.viewGen++
}

// passMemo is what a scheduling pass that started nothing saw, kept as
// a key: when it ran, the smallest core request it knew to be refused,
// the generations of what it read and the length of the queue it walked.
// Nothing invalidates it — passMemoHolds compares.
type passMemo struct {
	valid                     bool
	now                       int64
	minFail                   int
	clusGen, bookGen, viewGen uint64
	queued                    int
}

// passMemoHolds reports whether a pass at now would, like the recorded
// one, start nothing. A pass is a function of the machine, the book, the
// running view, the queue and the clock, so it refuses everything again
// when
//   - the cluster generation stands: no node changed state or cores —
//     same placements, same free-core bound;
//   - the book generation stands: nothing reserved, re-budgeted or
//     released — same held nodes, same caps;
//   - the view generation stands: no job started, finished or was
//     re-clocked (the one way a node's draw moves without the cluster
//     generation; it always moves the job's view entry);
//   - the clock crossed nothing (Book.PhaseStable): the same cap is
//     active, the switch-off windows block the same spans, and a future
//     cap that came nearer only refuses more;
//   - the clock crossed no running job's expected end: a job re-clocked
//     up under DynamicDVFS can outlive its view entry, and once the
//     clock passes that end the shadow is clamped to now and the cores
//     free at it (FreeCoresAt) grow with the clock. With no end in
//     (m.now, now] the shadow point and the cores free at it are the
//     recorded ones, and a walltime that crossed it still does;
//   - the queue the pass walked is still there, and every job a pass
//     would walk behind it — later submissions, a failed node's requeued
//     victims, up to BackfillDepth, past which no pass looks — asks for
//     at least minFail cores, which the pass's own pruning refuses
//     unprobed.
//
// Measured-power mode records no memo: the estimate its cap checks read
// drifts between samples under none of these keys.
func (c *Controller) passMemoHolds(now int64) bool {
	m := &c.memo
	if !m.valid ||
		m.clusGen != c.clus.Generation() || m.bookGen != c.book.Generation() || m.viewGen != c.viewGen ||
		len(c.pending) < m.queued ||
		!c.book.PhaseStable(m.now, now, c.cfg.ReservationLeadSec) {
		return false
	}
	v := c.viewBuf
	if i := sort.Search(len(v), func(k int) bool { return v[k].ExpectedEnd > m.now }); i < len(v) && v[i].ExpectedEnd <= now {
		return false
	}
	walked := min(len(c.pending), c.cfg.BackfillDepth)
	for _, j := range c.pending[min(m.queued, walked):walked] {
		if j.Cores < m.minFail {
			return false
		}
	}
	return true
}

// pass runs one EASY-backfill scheduling cycle. Within one pass,
// failures are memoized by core count: once a probe has refused a
// request of c cores (no cores, or no power), requests of >= c cores are
// pruned — the cluster state only shrinks as the pass commits jobs, so
// the pruning is sound for allocations and a SLURM-like heuristic for
// the power check.
//
// A backfill candidate whose nominal walltime already crosses the head's
// reservation, and whose cores the reservation cannot spare, is refused
// without a probe: no rung shortens a walltime (dvfs.ScaleDuration), so
// the shadow check would refuse it after any plan. Its plan still counts
// in one place: a failure lowers the prune threshold. So its queue
// position is deferred, and the deferred plans run — in queue order,
// under the same pruning — just before the next candidate the shadow
// does not refuse is planned. Only such a candidate commits, so the
// cluster, the book and the view have not changed since the deferral:
// each deferred plan decides what it would have decided in place, and
// every prune and every start is the one a pass planning each candidate
// in turn makes. Plans still deferred when the pass ends could only
// prune candidates there are none of, and are dropped: the memo records
// the threshold the pass knows, never below the one planning them would
// reach, which can only make the memo hold less.
func (c *Controller) pass(now int64) {
	if len(c.pending) == 0 || c.runErr != nil {
		return
	}
	if c.passMemoHolds(now) {
		c.statPassesSkipped++
		return
	}
	c.statPasses++
	started := c.startBuf[:0] // queue positions, ascending

	shadowAt := int64(-1)
	shadowNeed := 0
	freeAtShadow := 0
	minFail := math.MaxInt
	deferred := c.deferBuf[:0]

	// Nothing may change the cluster between a successful tryPlan and the
	// commit that consumes it: commit takes the allocation pl counted off
	// the frontier pl read, which stands only while the cluster does.
	tryPlan := func(j *job.Job) (planned, bool) {
		if j.Cores >= minFail {
			return planned{}, false
		}
		pl, ok := c.plan(j, now)
		if !ok {
			minFail = j.Cores
		}
		return pl, ok
	}

	considered := 0
	// One queue order: arrival (submissions in time order, requeued
	// victims at the back).
	for i, j := range c.pending {
		if considered >= c.cfg.BackfillDepth {
			break
		}
		considered++

		if shadowAt < 0 {
			if pl, ok := tryPlan(j); ok {
				if !c.commit(j, pl, now) {
					break
				}
				started = append(started, i)
				continue
			}
			// Head blocked: set up the EASY reservation. The view is
			// already end-sorted, so no per-event re-sort happens in
			// the shadow computation.
			running := c.viewBuf
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
		bounded := shadowAt != math.MaxInt64
		if bounded && now+j.Walltime > shadowAt && freeAtShadow-j.Cores < shadowNeed {
			if j.Cores < minFail {
				deferred = append(deferred, i)
			}
			continue
		}
		if j.Cores >= minFail {
			continue // pruned already; the deferred plans wait for a planned candidate
		}
		for _, k := range deferred {
			tryPlan(c.pending[k])
		}
		deferred = deferred[:0]
		pl, ok := tryPlan(j)
		if !ok {
			continue
		}
		if bounded && now+pl.wall > shadowAt { // the walltime at the admitted rung crosses
			if freeAtShadow-j.Cores < shadowNeed {
				continue
			}
			freeAtShadow -= j.Cores
		}
		if !c.commit(j, pl, now) {
			break
		}
		started = append(started, i)
	}
	c.deferBuf = deferred[:0]
	c.startBuf = started[:0]

	if len(started) > 0 {
		c.pending = dropStarted(c.pending, started)
		return
	}
	// Nothing launched: record what this pass saw, so the next one can
	// skip the whole probe cycle while passMemoHolds.
	if c.measured == nil {
		c.memo = passMemo{
			valid: true, now: now, minFail: minFail,
			clusGen: c.clus.Generation(), bookGen: c.book.Generation(), viewGen: c.viewGen,
			queued: len(c.pending),
		}
	}
}

// dropStarted removes a pass's starts — their queue positions, ascending
// and non-empty — from the pending queue q, keeping the rest in arrival
// order. The starts all lie in q[first:last+1], first and last being the
// outermost positions. The gaps inside that span close first; then
// whichever side of it is shorter moves over what is left — the suffix
// toward the front, or the prefix toward the back with the front
// re-sliced away. A backlogged queue is mostly an untouched tail, and
// moving it pointer by pointer under the collector's write barrier after
// every starting pass was 16 % of a sweep's CPU; the cost is now the span
// plus the shorter side. Vacated slots are cleared, so no slot of the
// backing array outside the queue keeps a job alive.
func dropStarted(q []*job.Job, started []int) []*job.Job {
	n := len(started)
	first, last := started[0], started[n-1]
	if first < len(q)-1-last {
		w, s := last, n-1
		for r := last; r >= first; r-- {
			if s >= 0 && started[s] == r {
				s--
				continue
			}
			if w != r {
				q[w] = q[r]
			}
			w--
		}
		copy(q[n:first+n], q[:first])
		clear(q[:n])
		return q[n:]
	}
	w, s := first, 0
	for r := first; r <= last; r++ {
		if s < n && started[s] == r {
			s++
			continue
		}
		if w != r {
			q[w] = q[r]
		}
		w++
	}
	end := w + copy(q[w:], q[last+1:])
	clear(q[end:])
	return q[:end]
}
