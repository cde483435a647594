package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/job"
	"repro/internal/power"
)

// allocateRef is first fit written node by node, the oracle Frontier's
// Fit and Take are held to: it asks eligible and prefer about every node
// of a full scan, class by class (preferred busy-partial, preferred
// idle, other busy-partial, other idle), ascending ID inside each.
func allocateRef(c *cluster.Cluster, cores int, eligible, prefer func(cluster.NodeID) bool) ([]job.Alloc, bool) {
	if cores <= 0 {
		return nil, false
	}
	need := cores
	var allocs []job.Alloc
	per := c.Topology().CoresPerNode
	take := func(state cluster.NodeState, preferred bool) {
		c.ForEach(func(n cluster.NodeInfo) bool {
			if need <= 0 {
				return false
			}
			free := per - n.UsedCores
			if n.State != state || free <= 0 {
				return true
			}
			if prefer != nil && prefer(n.ID) != preferred {
				return true
			}
			if eligible != nil && !eligible(n.ID) {
				return true
			}
			if free > need {
				free = need
			}
			allocs = append(allocs, job.Alloc{Node: n.ID, Cores: free})
			need -= free
			return true
		})
	}
	if prefer != nil {
		take(cluster.StateBusy, true)
		take(cluster.StateIdle, true)
	}
	take(cluster.StateBusy, false)
	take(cluster.StateIdle, false)
	return allocs, need <= 0
}

// randomSet draws a NodeSet over IDs in [0, span) with the given member
// density; span may be smaller than the cluster, giving a set shorter
// than the sets it is intersected with.
func randomSet(rng *rand.Rand, span int, density float64) cluster.NodeSet {
	s := cluster.NewNodeSet(span)
	for id := 0; id < span; id++ {
		if rng.Float64() < density {
			s.Add(cluster.NodeID(id))
		}
	}
	return s
}

// diffTopologies are the machines the differential tests run on.
var diffTopologies = []cluster.Topology{
	{Racks: 2, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16}, // 180 nodes: not a multiple of 64
	{Racks: 1, ChassisPerRack: 4, NodesPerChassis: 16, CoresPerNode: 4},  // 64 nodes: exactly one word
	cluster.CurieTopology(), // 5040 nodes
}

// randomCluster draws a machine state — off / idle / partly used / full
// nodes at random ladder frequencies — and a full-length set of nodes a
// switch-off would hold.
func randomCluster(t *testing.T, rng *rand.Rand, topo cluster.Topology) (*cluster.Cluster, cluster.NodeSet) {
	t.Helper()
	c, err := cluster.New(topo, power.CurieProfile(), cluster.CurieOverhead())
	if err != nil {
		t.Fatal(err)
	}
	held := cluster.NewNodeSet(topo.Nodes())
	ladder := dvfs.CurieLadder()
	pOff, pBusy, pHeld := rng.Float64()*0.5, rng.Float64(), rng.Float64()*0.5
	for id := cluster.NodeID(0); int(id) < topo.Nodes(); id++ {
		switch r := rng.Float64(); {
		case r < pOff:
			err = c.PowerOff(id)
		case r < pOff+(1-pOff)*pBusy:
			err = c.Occupy([]cluster.Alloc{{Node: id, Cores: 1 + rng.Intn(topo.CoresPerNode)}}, ladder[rng.Intn(len(ladder))])
		}
		if err != nil {
			t.Fatal(err)
		}
		if rng.Float64() < pHeld {
			held.Add(id)
		}
	}
	return c, held
}

// randomFilter draws a probe filter: absent, full-length, or shorter
// than the cluster (the highest member of a short set is node 70).
func randomFilter(rng *rand.Rand, nodes int) cluster.NodeSet {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		s := randomSet(rng, 70, rng.Float64())
		s.Add(70)
		return s
	default:
		return randomSet(rng, nodes, rng.Float64())
	}
}

func TestFrontierTakeMatchesPerNodeReference(t *testing.T) {
	for _, topo := range diffTopologies {
		topo := topo
		t.Run(fmt.Sprintf("%dnodes", topo.Nodes()), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(topo.Nodes())))
			rounds := 60
			if topo.Nodes() > 1000 {
				rounds = 12
			}
			for round := 0; round < rounds; round++ {
				c, _ := randomCluster(t, rng, topo)
				blocked, prefer := randomFilter(rng, topo.Nodes()), randomFilter(rng, topo.Nodes())
				requests := []int{1, topo.CoresPerNode, topo.CoresPerNode + 1, topo.Cores() / 7, topo.Cores(), topo.Cores() + 1}
				for i := 0; i < 6; i++ {
					requests = append(requests, 1+rng.Intn(topo.Cores()))
				}
				var fr Frontier
				fr.build(c, blocked, prefer)
				checkFrontier(t, c, &fr, blocked, prefer, requests)
			}
		})
	}
}
