package cluster

import "repro/internal/power"

// Selection strategies for the offline phase of the powercap algorithm.
// The paper (Sections III-B, V, VI-A) regroups the nodes to switch off on
// chassis and rack boundaries so the shared-equipment "power bonus" is
// harvested; the scattered variant exists for the ablation benchmark that
// quantifies the value of that grouping.

// SelectGrouped picks `want` nodes to switch off, maximizing the power
// bonus: whole racks first, then whole chassis, then single nodes, scanning
// from the high end of the machine to keep the allocatable region
// contiguous. Only nodes for which eligible returns true are taken (pass
// nil to accept every node). The result is sorted descending by ID and may
// be shorter than `want` when eligibility is scarce.
func SelectGrouped(c *Cluster, want int, eligible func(NodeID) bool) []NodeID {
	if want <= 0 {
		return nil
	}
	ok := eligible
	if ok == nil {
		ok = func(NodeID) bool { return true }
	}
	topo := c.Topology()
	taken := NewNodeSet(topo.Nodes())
	out := make([]NodeID, 0, want)

	take := func(first NodeID, n int) {
		for i := 0; i < n; i++ {
			id := first + NodeID(i)
			if !taken.Has(id) {
				taken.Add(id)
				out = append(out, id)
			}
		}
	}
	groupEligible := func(first NodeID, n int) bool {
		for i := 0; i < n; i++ {
			id := first + NodeID(i)
			if taken.Has(id) || !ok(id) {
				return false
			}
		}
		return true
	}

	// Whole racks.
	perRack := topo.NodesPerRack()
	for r := topo.Racks - 1; r >= 0 && want-len(out) >= perRack; r-- {
		first, n := topo.RackNodes(r)
		if groupEligible(first, n) {
			take(first, n)
		}
	}
	// Whole chassis.
	for ch := topo.Chassis() - 1; ch >= 0 && want-len(out) >= topo.NodesPerChassis; ch-- {
		first, n := topo.ChassisNodes(ch)
		if groupEligible(first, n) {
			take(first, n)
		}
	}
	// Single nodes, highest IDs first.
	for id := NodeID(topo.Nodes() - 1); id >= 0 && len(out) < want; id-- {
		if !taken.Has(id) && ok(id) {
			taken.Add(id)
			out = append(out, id)
		}
	}
	return out
}

// SelectScattered picks `want` eligible nodes deliberately spread across
// chassis (round-robin, one node per chassis per sweep) so that no group
// bonus can be harvested. Used by the grouped-vs-scattered ablation.
func SelectScattered(c *Cluster, want int, eligible func(NodeID) bool) []NodeID {
	if want <= 0 {
		return nil
	}
	ok := eligible
	if ok == nil {
		ok = func(NodeID) bool { return true }
	}
	topo := c.Topology()
	out := make([]NodeID, 0, want)
	taken := NewNodeSet(topo.Nodes())
	for sweep := 0; sweep < topo.NodesPerChassis && len(out) < want; sweep++ {
		for ch := 0; ch < topo.Chassis() && len(out) < want; ch++ {
			first, n := topo.ChassisNodes(ch)
			if sweep >= n {
				continue
			}
			id := first + NodeID(sweep)
			if !taken.Has(id) && ok(id) {
				taken.Add(id)
				out = append(out, id)
			}
		}
	}
	return out
}

// PlannedSaving returns the power that switching off exactly the given node
// set would save relative to those nodes running at the assumed busy draw
// (nominal for SHUT; the MIX floor draw in the combined regime),
// including every chassis and rack bonus the set completes. This is the
// quantity the offline planner maximizes (the paper's worked example at
// nominal: 20 scattered nodes save 20x344 W = 6880 W, one full 18-node
// chassis saves 6692 W). Duplicate and out-of-range IDs count once and
// not at all. The sum is formed in a fixed order — the per-node product,
// then one constant per full chassis, then one per full rack — so equal
// sets give bit-equal results.
func PlannedSaving(c *Cluster, ids []NodeID, busy power.Watts) power.Watts {
	topo, prof, ov := c.Topology(), c.Profile(), c.Overhead()
	set := NewNodeSet(topo.Nodes())
	for _, id := range ids {
		if c.checkID(id) == nil {
			set.Add(id)
		}
	}
	g := topo.Groups(set)
	saving := float64(busy-prof.Down()) * float64(g.Nodes)
	for i := 0; i < g.Chassis; i++ {
		saving += ov.ChassisWatts + float64(prof.Down())*float64(topo.NodesPerChassis)
	}
	for i := 0; i < g.Racks; i++ {
		saving += ov.RackWatts
	}
	return power.Watts(saving)
}
