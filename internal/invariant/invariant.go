// Package invariant is a test-only runtime checker of the simulator's
// safety contracts. A Checker attaches to a controller's sample hook
// and, at every metrics sample of a run, asserts:
//
//  1. Cap safety — the cluster draw never climbs above the active
//     powercap. The paper's controller gates launches, it does not
//     evict: a window can open (or tighten) over running work, so a
//     draw above the cap is legal only while it monotonically drains.
//     The enforced rule between consecutive samples under a
//     same-or-looser cap is therefore Power <= max(Cap, prevPower):
//     once under the budget the draw must stay under it, and while
//     over it must never rise. A tightening cap resets the baseline.
//  2. Node sanity — no node holds more cores than it has, no
//     powered-off node holds any, and the per-node core bookkeeping
//     matches the sum of the running jobs' allocations exactly.
//  3. Lifecycle legality — the jobs the controller shows
//     (rjms.Controller.SnapshotJobs: the pending queue and the running
//     set) carry a state it tracks, their timestamps are ordered
//     (submit <= start <= now), running allocations cover the requested
//     cores, and no job ever moves backwards (running to pending, or
//     terminal back to active).
//
// The checks run against the exact power bookkeeping; attach only to
// controllers without measurement noise (MeasuredPowerNoise = 0),
// where the guarded estimate may legitimately admit a launch the exact
// table would not.
//
// Checkers record violations instead of failing fast, so one run
// reports every broken contract; tests assert Err() == nil.
package invariant

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/rjms"
)

// capEpsilon absorbs float rounding in the watts bookkeeping.
const capEpsilon = 1e-6

// maxViolations bounds how many violations one checker records; a
// broken invariant usually trips at every subsequent sample.
const maxViolations = 16

// Checker validates one controller's run at every metrics sample.
type Checker struct {
	name string
	ctl  *rjms.Controller

	havePrev  bool
	prevPower power.Watts
	prevCap   power.Watts

	// seen maps every job ID ever observed to its last observed state
	// and the sample that showed it; jobs that vanish from the active
	// sets are tombstoned terminal. sample counts the checks.
	seen   map[job.ID]sighting
	sample uint64
	// lastActive holds the IDs active at the previous sample — the only
	// candidates for tombstoning, so the per-sample sweep is O(active),
	// not O(every job ever seen).
	lastActive []job.ID
	views      []rjms.JobView // the last sample's jobs, whose array the next reuses

	errs    []error
	dropped int
}

// Attach registers a checker on the controller's sample hook and
// returns it. The name labels violations (e.g. the scenario or
// federation-member name). Attach before the run starts; the checker
// runs behind any observer already attached (a telemetry collector),
// so the two compose.
func Attach(ctl *rjms.Controller, name string) *Checker {
	k := &Checker{name: name, ctl: ctl, seen: map[job.ID]sighting{}}
	ctl.AddObserver(k.check)
	return k
}

// Err returns the first recorded violation, or nil after a clean run.
func (k *Checker) Err() error {
	if len(k.errs) == 0 {
		return nil
	}
	return k.errs[0]
}

// Violations returns every recorded violation in order (capped; a
// positive Dropped reports how many more followed).
func (k *Checker) Violations() []error { return k.errs }

// Dropped returns how many violations were discarded past the cap.
func (k *Checker) Dropped() int { return k.dropped }

func (k *Checker) violatef(now int64, format string, args ...any) {
	if len(k.errs) >= maxViolations {
		k.dropped++
		return
	}
	prefix := fmt.Sprintf("invariant: %s: t=%d: ", k.name, now)
	k.errs = append(k.errs, fmt.Errorf(prefix+format, args...))
}

// check is the sample hook: it runs after every recorded sample.
func (k *Checker) check(now int64) {
	samples := k.ctl.Samples()
	if len(samples) == 0 {
		return
	}
	s := samples[len(samples)-1]
	k.checkCap(now, s)
	k.views = k.ctl.SnapshotJobs(k.views)
	k.checkJobs(now, k.views)
	k.checkNodes(now, k.views)
}

// checkCap enforces the monotone cap-approach rule between consecutive
// samples (see the package comment for why plain Power <= Cap is not
// the controller's contract).
func (k *Checker) checkCap(now int64, s metrics.Sample) {
	defer func() {
		k.havePrev = true
		k.prevPower = s.Power
		k.prevCap = s.Cap
	}()
	if s.Cap <= 0 {
		return // uncapped instant: nothing to enforce
	}
	if !k.havePrev || k.prevCap <= 0 || s.Cap < k.prevCap {
		// First capped sample, window just opened, or the budget
		// tightened: the draw may legitimately sit above the new cap
		// (inherited running work); the rule starts at the next sample.
		return
	}
	if limit := maxWatts(s.Cap, k.prevPower); float64(s.Power) > float64(limit)+capEpsilon {
		if k.prevPower <= s.Cap {
			k.violatef(now, "draw %v crossed above the active cap %v (was %v)",
				s.Power, s.Cap, k.prevPower)
		} else {
			k.violatef(now, "draw %v rose while above the active cap %v (was %v)",
				s.Power, s.Cap, k.prevPower)
		}
	}
}

func maxWatts(a, b power.Watts) power.Watts {
	if a > b {
		return a
	}
	return b
}

// sighting is a job's state at the last sample that showed it.
type sighting struct {
	state  job.State
	sample uint64
}

// checkJobs validates the visible job states and their transitions
// since the previous sample. One map serves both: a job the current
// sample already showed is a duplicate, and one the previous sample
// showed that this one does not has vanished.
func (k *Checker) checkJobs(now int64, jobs []rjms.JobView) {
	k.sample++
	for i := range jobs {
		j := &jobs[i]
		prev, ok := k.seen[j.ID]
		if ok && prev.sample == k.sample {
			k.violatef(now, "job %d appears twice in the active sets", j.ID)
			continue
		}

		switch j.State {
		case job.StatePending:
			// Nothing beyond the transition check: a regression from
			// running back to pending is caught below.
		case job.StateRunning:
			if j.Start < j.Submit {
				k.violatef(now, "job %d started at %d before its submission %d", j.ID, j.Start, j.Submit)
			}
			if j.Start > now {
				k.violatef(now, "job %d start time %d in the future", j.ID, j.Start)
			}
			if got := allocatedCores(*j); got != j.Cores {
				k.violatef(now, "job %d runs on %d cores, requested %d", j.ID, got, j.Cores)
			}
		default:
			k.violatef(now, "job %d in the active sets with terminal state %v", j.ID, j.State)
		}

		if ok && !LegalObserved(prev.state, j.State) {
			k.violatef(now, "job %d moved %v -> %v", j.ID, prev.state, j.State)
		}
		k.seen[j.ID] = sighting{j.State, k.sample}
	}
	// Jobs that vanished from the active sets are terminal; tombstone
	// them so a reappearance is caught. Only last sample's active jobs
	// can vanish, so the sweep stays proportional to the active set.
	for _, id := range k.lastActive {
		if s := k.seen[id]; s.sample != k.sample && (s.state == job.StatePending || s.state == job.StateRunning) {
			k.seen[id] = sighting{job.StateCompleted, s.sample}
		}
	}
	k.lastActive = k.lastActive[:0]
	for i := range jobs {
		k.lastActive = append(k.lastActive, jobs[i].ID)
	}
}

// allocatedCores sums j's allocation.
func allocatedCores(j rjms.JobView) int {
	n := 0
	for _, a := range j.Allocs {
		n += a.Cores
	}
	return n
}

// LegalObserved reports whether observing a job in state from at one
// sample and in state to at a later one is consistent with the
// lifecycle pending -> running -> completed|killed. Sampling may skip
// states entirely (a job can submit, run and finish between samples),
// so the relation is the reachability closure of the lifecycle graph.
func LegalObserved(from, to job.State) bool {
	switch from {
	case job.StatePending:
		return true // every state is reachable from pending
	case job.StateRunning:
		return to != job.StatePending
	default: // terminal states reach nothing
		return to == from
	}
}

// checkNodes validates per-node core accounting against the running
// jobs' allocations.
func (k *Checker) checkNodes(now int64, jobs []rjms.JobView) {
	clus := k.ctl.Cluster()
	perNode := make(map[cluster.NodeID]int)
	for _, j := range jobs {
		if j.State != job.StateRunning {
			continue
		}
		for _, a := range j.Allocs {
			perNode[a.Node] += a.Cores
			if clus.State(a.Node) == cluster.StateOff {
				k.violatef(now, "job %d holds %d cores on powered-off node %d", j.ID, a.Cores, a.Node)
			}
		}
	}
	failed := map[cluster.NodeID]bool{}
	for _, id := range k.ctl.FailedNodes() {
		failed[id] = true
	}
	coresPerNode := clus.Topology().CoresPerNode
	clus.ForEach(func(n cluster.NodeInfo) bool {
		if n.UsedCores < 0 || n.UsedCores > coresPerNode {
			k.violatef(now, "node %d oversubscribed: %d cores of %d", n.ID, n.UsedCores, coresPerNode)
		}
		if n.State == cluster.StateOff && n.UsedCores != 0 {
			k.violatef(now, "node %d powered off while holding %d cores", n.ID, n.UsedCores)
		}
		if want := perNode[n.ID]; want != n.UsedCores {
			k.violatef(now, "node %d bookkeeping %d cores, running jobs hold %d", n.ID, n.UsedCores, want)
		}
		// Failure injection (the twin's kill path): a failed node must
		// be off and hold nothing — its jobs were killed and requeued.
		if failed[n.ID] {
			if n.State != cluster.StateOff {
				k.violatef(now, "failed node %d is %v, want off", n.ID, n.State)
			}
			if n.UsedCores != 0 {
				k.violatef(now, "failed node %d holds %d cores", n.ID, n.UsedCores)
			}
		}
		return len(k.errs) < maxViolations
	})
}
