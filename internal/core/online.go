package core

import (
	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/power"
)

// SelectFreq runs the online part (Algorithm 2) for one job about to be
// dispatched: starting from the highest frequency of the policy ladder,
// it lowers the frequency until the launch check accepts, and fails when
// even the ladder minimum is refused ("Impossible to schedule the job
// now"). Policies that may not scale (SHUT, IDLE) probe only the nominal
// frequency; NONE skips admission entirely.
//
// The launch check is draw(f) && ahead(f), split so the ladder can be
// searched instead of walked. draw must be monotone in f: if it refuses
// a rung it refuses every higher one — the controller's check of the
// active cap against the observed draw plus the probe's occupation
// delta is (cluster.OccupyDelta and IdleOccupyDelta are nondecreasing
// along the ladder). ahead may be any predicate — the controller's check
// of future cap windows is not monotone, because the job's span
// lengthens as f drops. So draw is bracketed: the top rung, then the
// bottom, then a binary search between them for the highest rung it
// accepts, at most 2+⌈log2 n⌉ draw calls on n rungs; ahead is then
// walked down from that rung. The result is the rung a top-down walk of
// draw && ahead settles on. Both predicates are called with ladder
// frequencies only and must be pure.
func SelectFreq(pm PolicyModel, draw, ahead func(dvfs.Freq) bool) (dvfs.Freq, bool) {
	if pm.Policy == PolicyNone {
		return pm.Ladder.Max(), true
	}
	// Index the ascending ladder: this probe runs per backfill candidate
	// and must not allocate.
	l := pm.Ladder
	if !pm.Policy.CanScale() {
		l = l[len(l)-1:] // SHUT/IDLE probe only the nominal frequency
	}
	hi := len(l) - 1 // becomes the highest rung draw accepts
	if !draw(l[hi]) {
		if hi == 0 || !draw(l[0]) {
			return 0, false
		}
		lo := 0 // draw accepts l[lo] and refuses l[hi]
		for hi-lo > 1 {
			if mid := (lo + hi) / 2; draw(l[mid]) {
				lo = mid
			} else {
				hi = mid
			}
		}
		hi = lo
	}
	for i := hi; i >= 0; i-- {
		if ahead(l[i]) {
			return l[i], true
		}
	}
	return 0, false
}

// SelectFreqUnderCap is the single-budget form of SelectFreq: the
// candidate draw is the current cluster power plus the exact occupation
// delta of the allocation — jobs filling already-busy nodes at or below
// the node's frequency add nothing and therefore "always pass the
// powercapping criteria". capFor returns the effective budget when the
// job runs at frequency f (the tightest cap over the job's expected
// span, which lengthens as f drops because the walltime is stretched by
// the degradation model of Section V). That budget depends on f, so the
// whole check is passed as SelectFreq's ahead predicate and the
// selection is the plain top-down walk.
func SelectFreqUnderCap(c *cluster.Cluster, pm PolicyModel, nodes []cluster.NodeID, capFor func(dvfs.Freq) power.Cap) (dvfs.Freq, bool) {
	return SelectFreq(pm, func(dvfs.Freq) bool { return true }, func(f dvfs.Freq) bool {
		return capFor(f).Allows(c.Power() + c.OccupyDelta(nodes, f))
	})
}
