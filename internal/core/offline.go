package core

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/power"
)

// OfflinePlan is the output of Algorithm 1: which mechanism the powercap
// window will use and, when shutdown participates, the concrete node group
// to reserve for switch-off.
type OfflinePlan struct {
	// Mechanism the window relies on (shutdown, DVFS or both).
	Mechanism dvfs.Mechanism
	// Rho is the published Figure 5 criterion evaluated for the policy's
	// ladder (meaningful for MIX, where the choice is automatic).
	Rho float64
	// CombineBoth reports the low-cap regime of Algorithm 1
	// (P < N*Pmin) where shutdown and DVFS must both be used.
	CombineBoth bool
	// OffNodes is the node group to reserve for switch-off during the
	// window (nil when shutdown does not participate).
	OffNodes []cluster.NodeID
	// PlannedSaving is the power the group sheds relative to those
	// nodes running busy at AssumedBusy, bonuses included.
	PlannedSaving power.Watts
	// NeededSaving is the reduction the cap demands under the same
	// assumption.
	NeededSaving power.Watts
	// AssumedBusy is the per-node draw the plan assumed for powered
	// nodes (nominal for SHUT; the MIX floor draw in the combined
	// regime).
	AssumedBusy power.Watts
}

// PlanOffline runs Algorithm 1 for a powercap reservation. It sizes the
// switch-off group against the worst case — every powered node busy at the
// frequency the online part may still hand out — and selects concrete
// nodes with SelectGrouped (or SelectScattered when grouped is false; the
// ablation of the offline phase's bonus harvesting). eligible filters
// nodes that may be reserved (nil accepts all).
//
// Policy behaviour:
//
//   - NONE, IDLE, DVFS: no shutdown; the plan only records the mechanism.
//   - SHUT: shutdown sized so that the remaining nodes can all run at
//     nominal frequency within the cap.
//   - MIX: Algorithm 1 verbatim — below N*Pmin (floor draw) both
//     mechanisms combine (shutdown sized assuming survivors run at the
//     MIX floor); otherwise the published rho picks the mechanism, and on
//     Curie constants (rho < 0) that is shutdown.
func PlanOffline(c *cluster.Cluster, pm PolicyModel, cap power.Cap, grouped bool, eligible func(cluster.NodeID) bool) OfflinePlan {
	prof := c.Profile()
	plan := OfflinePlan{
		Rho:         prof.Rho(pm.Deg.DegMin(), pm.Ladder.Min()),
		AssumedBusy: prof.Max(),
	}
	if !cap.IsSet() {
		plan.Mechanism = dvfs.MechanismEither
		return plan
	}

	switch pm.Policy {
	case PolicyNone, PolicyIdle:
		plan.Mechanism = dvfs.MechanismEither
		return plan
	case PolicyDvfs:
		plan.Mechanism = dvfs.MechanismDVFS
		return plan
	}

	// SHUT or MIX: shutdown participates.
	plan.Mechanism = dvfs.MechanismShutdown
	busy := prof.Max()
	if pm.Policy == PolicyMix {
		floorDraw := prof.Busy(pm.Ladder.Min())
		allAtFloor := wattsAllBusy(c, floorDraw)
		if cap.Watts() < allAtFloor {
			// Algorithm 1, first branch: P < N*Pmin — combine.
			plan.CombineBoth = true
			plan.Mechanism = dvfs.MechanismEither
			busy = floorDraw
		} else if plan.Mechanism = dvfs.ChooseMechanism(plan.Rho); plan.Mechanism == dvfs.MechanismDVFS {
			// rho > 0: DVFS alone (never the case on Curie).
			return plan
		}
	}
	plan.AssumedBusy = busy

	need := wattsAllBusy(c, busy) - cap.Watts()
	plan.NeededSaving = need
	if need <= 0 {
		return plan
	}

	sel := selectForSaving(c, busy, need, grouped, eligible)
	plan.OffNodes = sel
	plan.PlannedSaving = cluster.PlannedSaving(c, sel, busy)
	return plan
}

// wattsAllBusy returns the cluster draw with every node busy at the given
// per-node wattage, all shared equipment powered.
func wattsAllBusy(c *cluster.Cluster, busy power.Watts) power.Watts {
	return c.SurvivorDraw(cluster.Groups{}, busy)
}

// selectForSaving grows a switch-off group until it sheds at least `need`
// watts (assuming survivors draw `busy` each), then trims trailing single
// nodes made redundant by the harvested bonuses — the Section VI-A
// observation that grouping "allows us to use 2 extra nodes".
func selectForSaving(c *cluster.Cluster, busy power.Watts, need power.Watts, grouped bool, eligible func(cluster.NodeID) bool) []cluster.NodeID {
	perNode := float64(busy - c.Profile().Down())
	if perNode <= 0 {
		return nil
	}
	// Upper bound on the node count: ignore bonuses, then trim.
	want := int(float64(need)/perNode) + 1
	if want > c.Nodes() {
		want = c.Nodes()
	}
	pick := cluster.SelectGrouped
	if !grouped {
		pick = cluster.SelectScattered
	}
	sel := pick(c, want, eligible)
	for cluster.PlannedSaving(c, sel, busy) < need && len(sel) < c.Nodes() {
		more := pick(c, len(sel)+c.Topology().NodesPerChassis, eligible)
		if len(more) <= len(sel) {
			break // eligibility exhausted
		}
		sel = more
	}
	// Keep the shortest prefix whose saving still meets the need. The
	// grouped selector appends loose single nodes last, so cutting the
	// tail removes exactly the nodes the bonus made redundant. A prefix
	// saves more the longer it is — each node sheds perNode > 0, the
	// selectors repeat none, and a bonus is never negative — so the cut is
	// found by bisection instead of one PlannedSaving per dropped node.
	return sel[:sort.Search(len(sel), func(k int) bool {
		return cluster.PlannedSaving(c, sel[:k], busy) >= need
	})]
}
