package sched

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/job"
)

// AllocateCompact finds cores for a job while minimizing the number of
// chassis the allocation spans — the network-topology-aware resource
// selection Section IV-A lists among the RJMS's allocation criteria
// (jobs packed into few chassis share first-level switches). The greedy
// strategy fills the chassis with the most eligible free cores first,
// breaking ties by chassis index for determinism. Nodes in blocked are
// skipped (nil blocks none). Returns nil when the request cannot be
// satisfied.
func AllocateCompact(c *cluster.Cluster, cores int, blocked cluster.NodeSet) []job.Alloc {
	if cores <= 0 {
		return nil
	}
	topo := c.Topology()

	type chassisFree struct {
		idx  int
		free int
	}
	freeBy := make([]chassisFree, topo.Chassis())
	for i := range freeBy {
		freeBy[i].idx = i
	}
	total := 0
	c.ForEach(func(n cluster.NodeInfo) bool {
		if n.State == cluster.StateOff || blocked.Has(n.ID) {
			return true
		}
		f := c.FreeCores(n.ID)
		if f > 0 {
			freeBy[topo.ChassisOf(n.ID)].free += f
			total += f
		}
		return true
	})
	if total < cores {
		return nil
	}
	sort.SliceStable(freeBy, func(i, j int) bool {
		if freeBy[i].free != freeBy[j].free {
			return freeBy[i].free > freeBy[j].free
		}
		return freeBy[i].idx < freeBy[j].idx
	})

	need := cores
	var allocs []job.Alloc
	for _, ch := range freeBy {
		if need <= 0 {
			break
		}
		if ch.free == 0 {
			continue
		}
		first, n := topo.ChassisNodes(ch.idx)
		// Busy-partial nodes first within the chassis, then idle.
		for _, wantState := range []cluster.NodeState{cluster.StateBusy, cluster.StateIdle} {
			for i := 0; i < n && need > 0; i++ {
				id := first + cluster.NodeID(i)
				if c.State(id) != wantState || blocked.Has(id) {
					continue
				}
				free := c.FreeCores(id)
				if free <= 0 {
					continue
				}
				grab := free
				if grab > need {
					grab = need
				}
				allocs = append(allocs, job.Alloc{Node: id, Cores: grab})
				need -= grab
			}
		}
	}
	if need > 0 {
		return nil
	}
	return allocs
}

// ChassisSpan counts the distinct chassis an allocation touches.
func ChassisSpan(topo cluster.Topology, allocs []job.Alloc) int {
	seen := map[int]bool{}
	for _, a := range allocs {
		seen[topo.ChassisOf(a.Node)] = true
	}
	return len(seen)
}
