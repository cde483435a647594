package core

import (
	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/power"
)

// SelectFreq runs the online part (Algorithm 2) for one job about to be
// dispatched: starting from the highest frequency of the policy ladder,
// it lowers the frequency until admit accepts, and fails when even the
// ladder minimum is refused ("Impossible to schedule the job now").
// Policies that may not scale (SHUT, IDLE) probe only the nominal
// frequency; NONE skips admission entirely.
//
// admit receives a candidate frequency and decides whether the cluster
// stays within every applicable power budget if the job starts at it —
// the controller checks the currently active cap against the actual draw
// and future cap windows against the draw projected after the planned
// switch-offs (see SelectFreqUnderCap for the single-budget form).
func SelectFreq(pm PolicyModel, admit func(dvfs.Freq) bool) (dvfs.Freq, bool) {
	if pm.Policy == PolicyNone {
		return pm.Ladder.Max(), true
	}
	// Walk the ascending ladder from its top by index: this probe runs per
	// backfill candidate and must not allocate.
	for i := len(pm.Ladder) - 1; i >= 0; i-- {
		if admit(pm.Ladder[i]) {
			return pm.Ladder[i], true
		}
		if !pm.Policy.CanScale() {
			break // SHUT/IDLE probe only the nominal frequency
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
// the degradation model of Section V).
func SelectFreqUnderCap(c *cluster.Cluster, pm PolicyModel, nodes []cluster.NodeID, capFor func(dvfs.Freq) power.Cap) (dvfs.Freq, bool) {
	return SelectFreq(pm, func(f dvfs.Freq) bool {
		return capFor(f).Allows(c.Power() + c.OccupyDelta(nodes, f))
	})
}
