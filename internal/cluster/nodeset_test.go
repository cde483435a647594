package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/power"
)

func TestNodeSetMembership(t *testing.T) {
	s := NodeSetOf([]NodeID{0, 63, -1, 64, 70})
	if len(s) != 2 {
		t.Fatalf("a set up to node 70 has %d words, want 2", len(s))
	}
	for id := NodeID(-3); id < 200; id++ {
		want := id == 0 || id == 63 || id == 64 || id == 70
		if s.Has(id) != want {
			t.Errorf("Has(%d) = %v, want %v", id, s.Has(id), want)
		}
	}
	s.Remove(63)
	if s.Has(63) || !s.Has(64) {
		t.Errorf("Remove(63) left %v", s)
	}
	if s.Word(1) != 1|1<<6 || s.Word(2) != 0 || NodeSet(nil).Word(0) != 0 || NodeSet(nil).Has(0) {
		t.Errorf("Word/Has beyond the set's length: %v", s)
	}
}

func TestNodeSetEqual(t *testing.T) {
	short, long := NodeSetOf([]NodeID{3, 63}), NewNodeSet(200)
	long.Add(3)
	long.Add(63)
	if !short.Equal(long) || !long.Equal(short) || !NodeSet(nil).Equal(NewNodeSet(70)) {
		t.Error("sets with the same members and different lengths compare unequal")
	}
	long.Add(130)
	if short.Equal(long) || long.Equal(short) || long.Equal(nil) {
		t.Error("a member beyond the shorter set's length goes unnoticed")
	}
}

// The generation moves exactly when something a probe reads moves: a
// candidate set or a node's free cores.
func TestGenerationCountsWhatProbesSee(t *testing.T) {
	c, err := New(Topology{Racks: 1, ChassisPerRack: 1, NodesPerChassis: 4, CoresPerNode: 4}, power.CurieProfile(), CurieOverhead())
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name  string
		do    func() error
		moves bool
	}{
		{"occupy idle", func() error { return c.Occupy([]Alloc{{Node: 0, Cores: 2}}, dvfs.F2000) }, true},
		{"occupy more", func() error { return c.Occupy([]Alloc{{Node: 0, Cores: 1}}, dvfs.F2700) }, true},
		{"re-clock", func() error { return c.Reclock([]Alloc{{Node: 0, Cores: 1}}, dvfs.F2700, dvfs.F1200) }, false},
		{"vacate part", func() error { return c.Vacate([]Alloc{{Node: 0, Cores: 1}}, dvfs.F1200) }, true},
		{"vacate rest", func() error { return c.Vacate([]Alloc{{Node: 0, Cores: 2}}, dvfs.F2000) }, true},
		{"multi-node launch", func() error {
			return c.Occupy([]Alloc{{Node: 1, Cores: 4}, {Node: 2, Cores: 2}, {Node: 3, Cores: 1}}, dvfs.F2000)
		}, true},
		{"multi-node finish", func() error {
			return c.Vacate([]Alloc{{Node: 1, Cores: 4}, {Node: 2, Cores: 2}, {Node: 3, Cores: 1}}, dvfs.F2000)
		}, true},
		{"empty launch", func() error { return c.Occupy(nil, dvfs.F2000) }, false},
		{"power off", func() error { return c.PowerOff(1) }, true},
		{"power off again", func() error { return c.PowerOff(1) }, false},
		{"power on", func() error { return c.PowerOn(1) }, true},
		{"power on again", func() error { return c.PowerOn(1) }, false},
	}
	for _, s := range steps {
		gen := c.Generation()
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if moved := c.Generation() != gen; moved != s.moves {
			t.Errorf("%s: generation moved = %v, want %v", s.name, moved, s.moves)
		}
	}
}

// The maintained sets must agree with the per-node state after any
// sequence of transitions.
func TestCandidateSetsTrackNodeState(t *testing.T) {
	topo := Topology{Racks: 2, ChassisPerRack: 3, NodesPerChassis: 13, CoresPerNode: 4} // 78 nodes: two words
	c, err := New(topo, power.CurieProfile(), CurieOverhead())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 4000; step++ {
		id := NodeID(rng.Intn(topo.Nodes()))
		switch rng.Intn(4) {
		case 0:
			_ = c.PowerOff(id)
		case 1:
			_ = c.PowerOn(id)
		case 2:
			_ = c.Occupy([]Alloc{{Node: id, Cores: 1 + rng.Intn(topo.CoresPerNode)}}, dvfs.F2700)
		case 3:
			_ = c.Vacate([]Alloc{{Node: id, Cores: 1 + rng.Intn(topo.CoresPerNode)}}, dvfs.F2700)
		}
		if step%50 != 0 {
			continue
		}
		c.ForEach(func(n NodeInfo) bool {
			partial := n.State == StateBusy && n.UsedCores < topo.CoresPerNode
			if c.PartialBusySet().Has(n.ID) != partial || c.IdleSet().Has(n.ID) != (n.State == StateIdle) {
				t.Fatalf("step %d: sets disagree with node %+v", step, n)
			}
			return true
		})
	}
}

// plannedSavingMaps is the map-based PlannedSaving the dense one
// replaced, kept as the oracle.
func plannedSavingMaps(c *Cluster, ids []NodeID, busy power.Watts) power.Watts {
	topo := c.Topology()
	prof := c.Profile()
	ov := c.Overhead()

	inSet := make(map[NodeID]bool, len(ids))
	chassisHit := map[int]int{}
	for _, id := range ids {
		if c.checkID(id) != nil || inSet[id] {
			continue
		}
		inSet[id] = true
		chassisHit[topo.ChassisOf(id)]++
	}
	saving := float64(busy-prof.Down()) * float64(len(inSet))
	rackFull := map[int]int{}
	for ch, n := range chassisHit {
		if n == topo.NodesPerChassis {
			saving += ov.ChassisWatts + float64(prof.Down())*float64(topo.NodesPerChassis)
			rackFull[ch/topo.ChassisPerRack]++
		}
	}
	for _, n := range rackFull {
		if n == topo.ChassisPerRack {
			saving += ov.RackWatts
		}
	}
	return power.Watts(saving)
}

func TestPlannedSavingMatchesMapVersionBitForBit(t *testing.T) {
	c := NewCurie()
	rng := rand.New(rand.NewSource(11))
	draws := []power.Watts{c.Profile().Max(), c.Profile().Busy(dvfs.F2000), c.Profile().Busy(c.Profile().MinFreq())}
	for round := 0; round < 40; round++ {
		want := 1 + rng.Intn(c.Nodes())
		eligible := func(id NodeID) bool { return true }
		if round%3 == 1 {
			hole := NodeID(rng.Intn(c.Nodes()))
			eligible = func(id NodeID) bool { return id != hole && id%97 != 3 }
		}
		for _, ids := range [][]NodeID{SelectGrouped(c, want, eligible), SelectScattered(c, want, eligible)} {
			// Duplicates and strays must count once and not at all.
			for i := 0; i < 5 && len(ids) > 0; i++ {
				ids = append(ids, ids[rng.Intn(len(ids))])
			}
			ids = append(ids, -1, NodeID(c.Nodes()))
			for _, busy := range draws {
				got, ref := PlannedSaving(c, ids, busy), plannedSavingMaps(c, ids, busy)
				if math.Float64bits(float64(got)) != math.Float64bits(float64(ref)) {
					t.Fatalf("round %d, %d ids at %v W: dense %v != map %v", round, len(ids), busy, got, ref)
				}
			}
		}
	}
}
