package core

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/power"
	"repro/internal/reservation"
)

// fewestNodesRef is the exact answer Algorithm 1's selection is held to:
// the fewest eligible nodes whose switch-off saves at least need, or -1
// when none does. Within one rack, n eligible nodes save at best
// n·perNode, plus a chassis bonus for each of min(⌊n/NodesPerChassis⌋,
// fully eligible chassis), plus the rack bonus when the whole rack is
// off; a knapsack over the racks combines them.
func fewestNodesRef(c *cluster.Cluster, busy, need power.Watts, eligible func(cluster.NodeID) bool) int {
	topo, prof, ov := c.Topology(), c.Profile(), c.Overhead()
	perNode := float64(busy - prof.Down())
	chassisBonus := ov.ChassisWatts + float64(prof.Down())*float64(topo.NodesPerChassis)
	best := []float64{0} // best[n]: the most n nodes of the racks so far save
	for r := 0; r < topo.Racks; r++ {
		inRack, fullChassis := 0, 0
		for ch := r * topo.ChassisPerRack; ch < (r+1)*topo.ChassisPerRack; ch++ {
			first, n := topo.ChassisNodes(ch)
			in := 0
			for id := first; id < first+cluster.NodeID(n); id++ {
				if eligible(id) {
					in++
				}
			}
			inRack += in
			if in == n {
				fullChassis++
			}
		}
		next := make([]float64, len(best)+inRack)
		for i := range next {
			next[i] = -1
		}
		for have, saved := range best {
			for n := 0; n <= inRack; n++ {
				s := saved + float64(n)*perNode + chassisBonus*float64(min(n/topo.NodesPerChassis, fullChassis))
				if n == topo.NodesPerRack() {
					s += ov.RackWatts
				}
				next[have+n] = max(next[have+n], s)
			}
		}
		best = next
	}
	for n, saved := range best {
		if saved >= float64(need) {
			return n
		}
	}
	return -1
}

// Algorithm 1's grouped selection against the exact oracle, for random
// needs on 1, 2 and 4 racks, with every node eligible, with scattered
// holes, and with the holes a prior grouped plan leaves once a
// reservation book holds it: no plan uses more nodes than the fewest
// that suffice, and none falls short where a plan exists.
func TestGroupedSelectionIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, racks := range []int{1, 2, 4} {
		c, err := cluster.New(cluster.Topology{Racks: racks, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16}, power.CurieProfile(), cluster.CurieOverhead())
		if err != nil {
			t.Fatal(err)
		}
		for _, busy := range []power.Watts{c.Profile().Max(), c.Profile().Busy(c.Profile().MinFreq())} {
			most := cluster.PlannedSaving(c, cluster.SelectGrouped(c, c.Nodes(), nil), busy)
			randomNeed := func() power.Watts { return power.Watts(1 + rng.Intn(int(most)+2000)) }
			for _, holes := range []string{"none", "scattered", "prior plan"} {
				eligible := func(cluster.NodeID) bool { return true }
				switch holes {
				case "scattered":
					mask := make([]bool, c.Nodes())
					for i := range mask {
						mask[i] = rng.Float64() < 0.9
					}
					eligible = func(id cluster.NodeID) bool { return mask[id] }
				case "prior plan":
					book := reservation.NewBook(c.Topology())
					if _, err := book.AddSwitchOff(0, 100, selectForSaving(c, busy, randomNeed()/2, true, nil)); err != nil {
						t.Fatal(err)
					}
					held, _ := book.Held()
					eligible = func(id cluster.NodeID) bool { return !held.Has(id) }
				}
				for round := 0; round < 100; round++ {
					need := randomNeed()
					sel := selectForSaving(c, busy, need, true, eligible)
					fewest := fewestNodesRef(c, busy, need, eligible)
					switch {
					case fewest < 0:
					case len(sel) > fewest:
						t.Fatalf("%d racks at %v W, holes %s, need %v: plan takes %d nodes, %d suffice", racks, busy, holes, need, len(sel), fewest)
					case cluster.PlannedSaving(c, sel, busy) < need:
						t.Fatalf("%d racks at %v W, holes %s, need %v: plan of %d nodes falls short, %d suffice", racks, busy, holes, need, len(sel), fewest)
					}
				}
			}
		}
	}
}
