package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/power"
)

// trimRef is selectForSaving as it stood before the trim became a
// bisection: the same growth, then one PlannedSaving per dropped node.
// Kept as the oracle.
func trimRef(c *cluster.Cluster, busy, need power.Watts, grouped bool, eligible func(cluster.NodeID) bool) []cluster.NodeID {
	perNode := float64(busy - c.Profile().Down())
	if perNode <= 0 {
		return nil
	}
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
			break
		}
		sel = more
	}
	for len(sel) > 0 && cluster.PlannedSaving(c, sel[:len(sel)-1], busy) >= need {
		sel = sel[:len(sel)-1]
	}
	return sel
}

// plannedSavingMaps recomputes a plan's saving the way the paper states
// it — per-node product, plus one bonus per chassis the set completes,
// plus one per rack — with maps, sharing no code with cluster.PlannedSaving
// (internal/cluster's tests keep the same oracle for the dense version).
func plannedSavingMaps(c *cluster.Cluster, ids []cluster.NodeID, busy power.Watts) power.Watts {
	topo, prof, ov := c.Topology(), c.Profile(), c.Overhead()
	inSet := map[cluster.NodeID]bool{}
	chassisHit := map[int]int{}
	for _, id := range ids {
		if id < 0 || int(id) >= c.Nodes() || inSet[id] {
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

func sameWatts(a, b power.Watts) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// The bisected trim must stop where the node-at-a-time rescan stops, and
// Algorithm 1's plan must be what the paper says it is: eligible nodes
// only, none twice, no node more than the cap demands, and a planned
// saving equal to node product + chassis bonus + rack bonus.
func TestTrimMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	short, trimmed := 0, 0 // plans eligibility cut short; plans a bonus shortened
	for _, tc := range []struct {
		name      string
		topo      cluster.Topology
		densities []float64 // share of eligible nodes per mask
		needs     int       // random needs per mask, besides the two extremes
	}{
		{"2 racks", cluster.Topology{Racks: 2, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16}, []float64{1, 0.97, 0.7, 0.3}, 12},
		{"4 racks", cluster.Topology{Racks: 4, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16}, []float64{1, 0.97, 0.7, 0.3}, 12},
		{"63 nodes", cluster.Topology{Racks: 3, ChassisPerRack: 3, NodesPerChassis: 7, CoresPerNode: 4}, []float64{1, 0.9, 0.5}, 12},
		{"130 nodes", cluster.Topology{Racks: 2, ChassisPerRack: 5, NodesPerChassis: 13, CoresPerNode: 8}, []float64{1, 0.9, 0.5}, 12},
		{"56 racks", cluster.CurieTopology(), []float64{1, 0.98, 0.6}, 3},
	} {
		c, err := cluster.New(tc.topo, power.CurieProfile(), cluster.CurieOverhead())
		if err != nil {
			t.Fatal(err)
		}
		nominal := c.Profile().Max()
		allBusy := wattsAllBusy(c, nominal)
		for _, density := range tc.densities {
			mask := make([]bool, c.Nodes())
			eligibleCount := 0
			for i := range mask {
				if mask[i] = rng.Float64() < density; mask[i] {
					eligibleCount++
				}
			}
			eligible := func(id cluster.NodeID) bool { return mask[id] }

			for _, grouped := range []bool{true, false} {
				pick := cluster.SelectGrouped
				if !grouped {
					pick = cluster.SelectScattered
				}
				// What the bisection stands on: the selectors hand out
				// every eligible node once, and each one more saves more.
				all := pick(c, c.Nodes(), eligible)
				seen := map[cluster.NodeID]bool{}
				for _, id := range all {
					if seen[id] || !mask[id] {
						t.Fatalf("%s density %v grouped=%v: node %d selected twice or ineligible", tc.name, density, grouped, id)
					}
					seen[id] = true
				}
				if len(all) != eligibleCount {
					t.Fatalf("%s density %v grouped=%v: %d of %d eligible nodes selected", tc.name, density, grouped, len(all), eligibleCount)
				}
				prev := power.Watts(0)
				for k := 1; k <= len(all); k++ {
					s := cluster.PlannedSaving(c, all[:k], nominal)
					if s <= prev {
						t.Fatalf("%s density %v grouped=%v: saving of %d nodes %v is not above %v of %d", tc.name, density, grouped, k, s, prev, k-1)
					}
					prev = s
				}

				// From one node's worth to the whole machine. Whole watts,
				// so the cap round-trips through PlanOffline exactly.
				needs := []float64{float64(nominal - c.Profile().Down()), float64(allBusy) - 1}
				for i := 0; i < tc.needs; i++ {
					needs = append(needs, math.Floor(1+rng.Float64()*float64(allBusy-2)))
				}
				for _, needW := range needs {
					for _, policy := range []Policy{PolicyShut, PolicyMix} {
						budget := power.CapWatts(allBusy - power.Watts(needW))
						plan := PlanOffline(c, CuriePolicyModel(policy), budget, grouped, eligible)
						busy, need := plan.AssumedBusy, plan.NeededSaving
						if policy == PolicyShut && (busy != nominal || need != power.Watts(needW)) {
							t.Fatalf("%s: SHUT plan assumes %v W per node and needs %v W, want %v and %v", tc.name, busy, need, nominal, needW)
						}
						ref := trimRef(c, busy, need, grouped, eligible)
						where := fmt.Sprintf("%s %v density %v grouped=%v need %v", tc.name, policy, density, grouped, need)
						if len(plan.OffNodes) != len(ref) || (len(ref) > 0 && !reflect.DeepEqual(plan.OffNodes, ref)) {
							t.Fatalf("%s: bisected trim keeps %d nodes, rescan keeps %d", where, len(plan.OffNodes), len(ref))
						}
						if want := cluster.PlannedSaving(c, ref, busy); !sameWatts(plan.PlannedSaving, want) {
							t.Fatalf("%s: plan saves %v, rescan's set saves %v", where, plan.PlannedSaving, want)
						}
						if want := plannedSavingMaps(c, plan.OffNodes, busy); !sameWatts(plan.PlannedSaving, want) {
							t.Fatalf("%s: plan saves %v, product + chassis + rack bonuses give %v", where, plan.PlannedSaving, want)
						}
						for _, id := range plan.OffNodes {
							if !mask[id] {
								t.Fatalf("%s: ineligible node %d in the plan", where, id)
							}
						}
						switch n := len(plan.OffNodes); {
						case plan.PlannedSaving < need:
							// Eligibility ran out: the plan is everything there is.
							if short++; n != eligibleCount {
								t.Fatalf("%s: plan of %d nodes falls short though %d are eligible", where, n, eligibleCount)
							}
						case n == 0 || cluster.PlannedSaving(c, plan.OffNodes[:n-1], busy) >= need:
							t.Fatalf("%s: plan of %d nodes is not tight", where, n)
						case float64(n)*float64(busy-c.Profile().Down()) < float64(need):
							trimmed++
						}
					}
				}
			}
		}
	}
	t.Logf("%d plans ran out of eligible nodes, %d met the need only with a bonus", short, trimmed)
	if short == 0 || trimmed == 0 {
		t.Error("the cases must include both exhausted eligibility and a bonus-shortened plan")
	}
}
