package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/job"
	"repro/internal/power"
)

// wideCluster: 1 rack x 4 chassis x 4 nodes, 4 cores each (64 cores).
func wideCluster() *cluster.Cluster {
	topo := cluster.Topology{Racks: 1, ChassisPerRack: 4, NodesPerChassis: 4, CoresPerNode: 4}
	c, err := cluster.New(topo, power.CurieProfile(), cluster.CurieOverhead())
	if err != nil {
		panic(err)
	}
	return c
}

func TestAllocateCompactPrefersFullestChassis(t *testing.T) {
	c := wideCluster()
	// Fragment chassis 0-2: one node busy in each, so they have 12 free
	// cores; chassis 3 untouched has 16.
	for ch := 0; ch < 3; ch++ {
		first, _ := c.Topology().ChassisNodes(ch)
		if err := c.Occupy([]cluster.Alloc{{Node: first, Cores: 4}}, dvfs.F2700); err != nil {
			t.Fatal(err)
		}
	}
	allocs := AllocateCompact(c, 16, nil)
	if allocs == nil {
		t.Fatal("allocation failed")
	}
	if span := ChassisSpan(c.Topology(), allocs); span != 1 {
		t.Errorf("16-core job spans %d chassis, want 1 (chassis 3 has 16 free)", span)
	}
	for _, a := range allocs {
		if c.Topology().ChassisOf(a.Node) != 3 {
			t.Errorf("allocated node %d outside the fullest chassis", a.Node)
		}
	}
}

func TestAllocateCompactBeatsFirstFit(t *testing.T) {
	c := wideCluster()
	// Leave 2 free cores on one node of each of the first three chassis
	// and a fully idle chassis 3: a 12-core job first-fits across four
	// chassis but compacts into one.
	for ch := 0; ch < 3; ch++ {
		first, n := c.Topology().ChassisNodes(ch)
		for i := 0; i < n; i++ {
			id := first + cluster.NodeID(i)
			take := 4
			if i == 0 {
				take = 2
			}
			if err := c.Occupy([]cluster.Alloc{{Node: id, Cores: take}}, dvfs.F2700); err != nil {
				t.Fatal(err)
			}
		}
	}
	firstFit := allocate(c, 12, nil)
	compact := AllocateCompact(c, 12, nil)
	if firstFit == nil || compact == nil {
		t.Fatal("allocation failed")
	}
	ffSpan := ChassisSpan(c.Topology(), firstFit)
	cpSpan := ChassisSpan(c.Topology(), compact)
	if cpSpan >= ffSpan {
		t.Errorf("compact spans %d chassis, first-fit %d — no locality gain", cpSpan, ffSpan)
	}
	if cpSpan != 1 {
		t.Errorf("compact span = %d, want 1", cpSpan)
	}
}

func TestAllocateCompactRespectsEligibilityAndOff(t *testing.T) {
	c := wideCluster()
	if err := c.PowerOff(12); err != nil { // a node of chassis 3
		t.Fatal(err)
	}
	allocs := AllocateCompact(c, 8, cluster.NodeSetOf([]cluster.NodeID{0}))
	if allocs == nil {
		t.Fatal("allocation failed")
	}
	for _, a := range allocs {
		if a.Node == 0 || a.Node == 12 {
			t.Errorf("forbidden node %d allocated", a.Node)
		}
	}
}

func TestAllocateCompactInsufficient(t *testing.T) {
	c := wideCluster()
	if AllocateCompact(c, 65, nil) != nil {
		t.Error("oversized request satisfied")
	}
	if AllocateCompact(c, 0, nil) != nil {
		t.Error("zero request returned an allocation")
	}
}

// Property: compact allocations are exact, never overcommit a node, and
// never span more chassis than the first-fit allocator.
func TestAllocateCompactProperty(t *testing.T) {
	f := func(busy [16]uint8, req uint8) bool {
		c := wideCluster()
		for i, b := range busy {
			n := int(b) % 5
			if n > 0 {
				if err := c.Occupy([]cluster.Alloc{{Node: cluster.NodeID(i), Cores: n}}, dvfs.F2700); err != nil {
					return false
				}
			}
		}
		need := int(req)%40 + 1
		compact := AllocateCompact(c, need, nil)
		firstFit := allocate(c, need, nil)
		if (compact == nil) != (firstFit == nil) {
			return false // both see identical feasibility
		}
		if compact == nil {
			return true
		}
		sum := 0
		seen := map[cluster.NodeID]bool{}
		for _, a := range compact {
			if a.Cores <= 0 || a.Cores > c.FreeCores(a.Node) || seen[a.Node] {
				return false
			}
			seen[a.Node] = true
			sum += a.Cores
		}
		if sum != need {
			return false
		}
		return ChassisSpan(c.Topology(), compact) <= ChassisSpan(c.Topology(), firstFit)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChassisSpan(t *testing.T) {
	topo := cluster.Topology{Racks: 1, ChassisPerRack: 4, NodesPerChassis: 4, CoresPerNode: 4}
	allocs := []job.Alloc{{Node: 0, Cores: 1}, {Node: 3, Cores: 1}, {Node: 4, Cores: 1}}
	if got := ChassisSpan(topo, allocs); got != 2 {
		t.Errorf("span = %d, want 2", got)
	}
	if got := ChassisSpan(topo, nil); got != 0 {
		t.Errorf("empty span = %d", got)
	}
}
