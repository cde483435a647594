package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/power"
)

func TestPolicyParseAndString(t *testing.T) {
	cases := map[string]Policy{
		"NONE": PolicyNone, "off": PolicyNone,
		"SHUT": PolicyShut, "shutdown": PolicyShut,
		"dvfs": PolicyDvfs,
		"MIX":  PolicyMix, "mixed": PolicyMix,
		" idle ": PolicyIdle,
	}
	for in, want := range cases {
		got, err := Policies.Lookup(in)
		if err != nil || got != want {
			t.Errorf("Policies.Lookup(%q) = %v,%v want %v", in, got, err, want)
		}
	}
	if _, err := Policies.Lookup("bogus"); err == nil {
		t.Error("unknown policy accepted")
	}
	for p, want := range map[Policy]string{
		PolicyNone: "NONE", PolicyShut: "SHUT", PolicyDvfs: "DVFS",
		PolicyMix: "MIX", PolicyIdle: "IDLE", Policy(9): "Policy(9)",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q", int(p), got)
		}
	}
}

func TestPolicyCapabilities(t *testing.T) {
	if !PolicyDvfs.CanScale() || !PolicyMix.CanScale() {
		t.Error("DVFS/MIX must scale")
	}
	if PolicyShut.CanScale() || PolicyIdle.CanScale() {
		t.Error("SHUT/IDLE must not scale")
	}
}

func TestPolicyModelLadders(t *testing.T) {
	dv := CuriePolicyModel(PolicyDvfs)
	if dv.Ladder.Min() != dvfs.F1200 || dv.Ladder.Max() != dvfs.F2700 {
		t.Errorf("DVFS ladder = %v", dv.Ladder)
	}
	if dv.Deg.DegMin() != dvfs.DegMinCommon {
		t.Errorf("DVFS degMin = %v", dv.Deg.DegMin())
	}
	mx := CuriePolicyModel(PolicyMix)
	if mx.Ladder.Min() != dvfs.F2000 || mx.Ladder.Max() != dvfs.F2700 {
		t.Errorf("MIX ladder = %v (floor must be 2.0 GHz)", mx.Ladder)
	}
	if mx.Deg.DegMin() != dvfs.DegMinMix {
		t.Errorf("MIX degMin = %v", mx.Deg.DegMin())
	}
	for _, p := range []Policy{PolicyNone, PolicyShut, PolicyIdle} {
		pm := CuriePolicyModel(p)
		if len(pm.Ladder) != 1 || pm.Ladder.Max() != dvfs.F2700 {
			t.Errorf("%v ladder = %v, want nominal only", p, pm.Ladder)
		}
		if pm.Deg.Factor(dvfs.F2700) != 1 {
			t.Errorf("%v degradation at nominal = %v", p, pm.Deg.Factor(dvfs.F2700))
		}
	}
}

func TestNewPolicyModelErrors(t *testing.T) {
	if _, err := NewPolicyModel(PolicyDvfs, nil, 1.63, 1.29, 0); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := NewPolicyModel(Policy(42), power.CurieProfile(), 1.63, 1.29, 0); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewPolicyModel(PolicyMix, power.CurieProfile(), 1.63, 1.29, 9999); err == nil {
		t.Error("floor above the ladder accepted")
	}
	if _, err := NewPolicyModel(PolicyDvfs, power.CurieProfile(), 0.5, 1.29, 0); err == nil {
		t.Error("degMin < 1 accepted")
	}
}

func smallCurie() *cluster.Cluster {
	// 2 racks x 5 chassis x 18 nodes = 180 nodes, Curie constants.
	topo := cluster.Topology{Racks: 2, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16}
	c, err := cluster.New(topo, power.CurieProfile(), cluster.CurieOverhead())
	if err != nil {
		panic(err)
	}
	return c
}

func TestPlanOfflineNoCapOrPassivePolicies(t *testing.T) {
	c := smallCurie()
	for _, p := range []Policy{PolicyNone, PolicyIdle, PolicyDvfs} {
		plan := PlanOffline(c, CuriePolicyModel(p), power.CapFraction(0.5, c.MaxPower()), true, nil)
		if plan.OffNodes != nil {
			t.Errorf("%v planned a shutdown: %d nodes", p, len(plan.OffNodes))
		}
	}
	plan := PlanOffline(c, CuriePolicyModel(PolicyShut), power.NoCap, true, nil)
	if plan.OffNodes != nil {
		t.Error("uncapped plan reserved nodes")
	}
}

func TestPlanOfflineShut(t *testing.T) {
	c := smallCurie()
	cap := power.CapFraction(0.6, c.MaxPower())
	plan := PlanOffline(c, CuriePolicyModel(PolicyShut), cap, true, nil)
	if plan.Mechanism != dvfs.MechanismShutdown {
		t.Errorf("mechanism = %v", plan.Mechanism)
	}
	if len(plan.OffNodes) == 0 {
		t.Fatal("no nodes planned at 60% cap")
	}
	if plan.PlannedSaving < plan.NeededSaving {
		t.Errorf("saving %v < need %v", plan.PlannedSaving, plan.NeededSaving)
	}
	// The remaining nodes, all busy at nominal, must fit in the cap:
	// simulate by powering off exactly the plan.
	for _, id := range plan.OffNodes {
		if err := c.PowerOff(id); err != nil {
			t.Fatal(err)
		}
	}
	topo := c.Topology()
	for id := 0; id < topo.Nodes(); id++ {
		if c.State(cluster.NodeID(id)) == cluster.StateIdle {
			if err := c.Occupy([]cluster.Alloc{{Node: cluster.NodeID(id), Cores: topo.CoresPerNode}}, dvfs.F2700); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := c.Power(); !cap.Allows(got) {
		t.Errorf("all-busy survivors draw %v > cap %v", got, cap)
	}
}

func TestPlanOfflineShutGroupsChassis(t *testing.T) {
	c := smallCurie()
	plan := PlanOffline(c, CuriePolicyModel(PolicyShut), power.CapFraction(0.5, c.MaxPower()), true, nil)
	topo := c.Topology()
	perChassis := map[int]int{}
	for _, id := range plan.OffNodes {
		perChassis[topo.ChassisOf(id)]++
	}
	full := 0
	for _, n := range perChassis {
		if n == topo.NodesPerChassis {
			full++
		}
	}
	if full == 0 {
		t.Errorf("50%% cap plan completed no chassis (%d nodes over %d chassis)",
			len(plan.OffNodes), len(perChassis))
	}
	// Grouped planning must not need more nodes than scattered planning.
	scat := PlanOffline(c, CuriePolicyModel(PolicyShut), power.CapFraction(0.5, c.MaxPower()), false, nil)
	if len(plan.OffNodes) > len(scat.OffNodes) {
		t.Errorf("grouped plan uses %d nodes, scattered %d — bonus wasted",
			len(plan.OffNodes), len(scat.OffNodes))
	}
}

func TestPlanOfflineMixCombinedRegime(t *testing.T) {
	c := smallCurie()
	pm := CuriePolicyModel(PolicyMix)
	// All nodes at the 2.0 GHz floor draw 269 W: fraction 269/358 = 0.751
	// of nominal. A 60% cap is below that => combined regime.
	plan := PlanOffline(c, pm, power.CapFraction(0.6, c.MaxPower()), true, nil)
	if !plan.CombineBoth {
		t.Fatalf("60%% cap should combine both mechanisms (Section VI-B: below 75%%)")
	}
	if len(plan.OffNodes) == 0 {
		t.Fatal("combined regime planned no shutdown")
	}
	if plan.AssumedBusy != c.Profile().Busy(dvfs.F2000) {
		t.Errorf("assumed busy = %v, want the 2.0 GHz draw", plan.AssumedBusy)
	}

	// At 80% the cap is above the all-at-floor draw; rho < 0 picks pure
	// shutdown.
	plan80 := PlanOffline(c, pm, power.CapFraction(0.8, c.MaxPower()), true, nil)
	if plan80.CombineBoth {
		t.Error("80% cap combined both mechanisms")
	}
	if plan80.Mechanism != dvfs.MechanismShutdown {
		t.Errorf("80%% mechanism = %v, want shutdown (rho=%v)", plan80.Mechanism, plan80.Rho)
	}
	if len(plan80.OffNodes) == 0 {
		t.Error("80% cap planned no shutdown")
	}
	// MIX at a lower cap must shut down at least as many nodes.
	if len(plan.OffNodes) < len(plan80.OffNodes) {
		t.Errorf("60%% cap plans %d nodes < 80%% cap %d", len(plan.OffNodes), len(plan80.OffNodes))
	}
}

// On a node profile that sits exactly on Figure 5's break-even (rho = 0)
// MIX follows Algorithm 1 — "if rho <= 0 then switch-off" — and a hair
// above it leaves the cap to DVFS alone.
func TestPlanOfflineMixOnTheBreakEven(t *testing.T) {
	// rho = 1 - 1/degMin - Pmin/(Pmax-Poff) = 1 - 1/2 - 190/380, exactly 0.
	prof, err := power.NewProfile(20, 100, map[dvfs.Freq]power.Watts{dvfs.F2000: 190, dvfs.F2700: 400})
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.Topology{Racks: 2, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16}
	c, err := cluster.New(topo, prof, cluster.CurieOverhead())
	if err != nil {
		t.Fatal(err)
	}
	// 80 % is above the all-at-floor draw, so rho alone picks the mechanism.
	cap := power.CapFraction(0.8, c.MaxPower())
	for _, tc := range []struct {
		degMinMix float64
		want      dvfs.Mechanism
	}{
		{2, dvfs.MechanismShutdown},
		{2.5, dvfs.MechanismDVFS},
	} {
		pm, err := NewPolicyModel(PolicyMix, prof, dvfs.DegMinCommon, tc.degMinMix, dvfs.F2000)
		if err != nil {
			t.Fatal(err)
		}
		plan := PlanOffline(c, pm, cap, true, nil)
		if tc.degMinMix == 2 && plan.Rho != 0 {
			t.Fatalf("rho = %v, want exactly 0: the profile no longer sits on the break-even", plan.Rho)
		}
		if plan.CombineBoth || plan.Mechanism != tc.want || (len(plan.OffNodes) > 0) != (tc.want == dvfs.MechanismShutdown) {
			t.Errorf("degMin %v (rho %v): mechanism %v, combine %v, %d nodes off; want %v",
				tc.degMinMix, plan.Rho, plan.Mechanism, plan.CombineBoth, len(plan.OffNodes), tc.want)
		}
	}
}

func TestPlanOfflineRespectsEligibility(t *testing.T) {
	c := smallCurie()
	topo := c.Topology()
	// Only the second rack is eligible.
	eligible := func(id cluster.NodeID) bool { return topo.RackOf(id) == 1 }
	plan := PlanOffline(c, CuriePolicyModel(PolicyShut), power.CapFraction(0.3, c.MaxPower()), true, eligible)
	for _, id := range plan.OffNodes {
		if topo.RackOf(id) != 1 {
			t.Fatalf("ineligible node %d planned", id)
		}
	}
	// A 30% cap on half the machine cannot be met: the plan saturates
	// eligibility rather than looping forever.
	if len(plan.OffNodes) != topo.NodesPerRack() {
		t.Errorf("plan size = %d, want all %d eligible nodes", len(plan.OffNodes), topo.NodesPerRack())
	}
}

func TestPlanOfflineTrimsBonusNodes(t *testing.T) {
	c := smallCurie()
	prof := c.Profile()
	// Need exactly the saving of one full chassis (6692 W): the grouped
	// plan should use one chassis (18 nodes), while the scattered plan
	// needs ceil(6692/344) = 20 singles.
	needW := 6692.0
	capW := float64(wattsAllBusy(c, prof.Max())) - needW
	grouped := PlanOffline(c, CuriePolicyModel(PolicyShut), power.CapWatts(power.Watts(capW)), true, nil)
	scattered := PlanOffline(c, CuriePolicyModel(PolicyShut), power.CapWatts(power.Watts(capW)), false, nil)
	if len(grouped.OffNodes) != 18 {
		t.Errorf("grouped plan = %d nodes, want 18 (one chassis)", len(grouped.OffNodes))
	}
	if len(scattered.OffNodes) != 20 {
		t.Errorf("scattered plan = %d nodes, want 20", len(scattered.OffNodes))
	}
}

func capConst(c power.Cap) func(dvfs.Freq) power.Cap {
	return func(dvfs.Freq) power.Cap { return c }
}

func TestSelectFreqNoneAlwaysNominal(t *testing.T) {
	c := smallCurie()
	pm := CuriePolicyModel(PolicyNone)
	f, ok := SelectFreqUnderCap(c, pm, []cluster.NodeID{0}, capConst(power.CapWatts(1)))
	if !ok || f != dvfs.F2700 {
		t.Errorf("NONE SelectFreq = %v,%v", f, ok)
	}
}

func TestSelectFreqDvfsLowersUntilFit(t *testing.T) {
	c := smallCurie()
	pm := CuriePolicyModel(PolicyDvfs)
	nodes := []cluster.NodeID{0, 1}

	// Budget that admits the two nodes at 1.8 GHz but not at 2.0 GHz.
	base := c.Power()
	budget := base + 2*power.Watts(248-117) // idle -> 1.8 GHz uplift
	f, ok := SelectFreqUnderCap(c, pm, nodes, capConst(power.CapWatts(budget)))
	if !ok || f != dvfs.F1800 {
		t.Errorf("SelectFreq = %v,%v want 1.8 GHz", f, ok)
	}

	// Generous budget: nominal.
	f, ok = SelectFreqUnderCap(c, pm, nodes, capConst(power.CapWatts(base+1000)))
	if !ok || f != dvfs.F2700 {
		t.Errorf("SelectFreq = %v,%v want nominal", f, ok)
	}

	// Budget below even 1.2 GHz: impossible.
	if _, ok := SelectFreqUnderCap(c, pm, nodes, capConst(power.CapWatts(base))); ok {
		t.Error("SelectFreq fit a zero-headroom budget")
	}
}

func TestSelectFreqShutProbesOnlyNominal(t *testing.T) {
	c := smallCurie()
	pm := CuriePolicyModel(PolicyShut)
	base := c.Power()
	// Headroom enough for 1.2 GHz but not for nominal: SHUT must fail.
	budget := base + power.Watts(193-117+1)
	if _, ok := SelectFreqUnderCap(c, pm, []cluster.NodeID{0}, capConst(power.CapWatts(budget))); ok {
		t.Error("SHUT downclocked a job")
	}
	// And succeed with nominal headroom.
	f, ok := SelectFreqUnderCap(c, pm, []cluster.NodeID{0}, capConst(power.CapWatts(base+242)))
	if !ok || f != dvfs.F2700 {
		t.Errorf("SHUT SelectFreq = %v,%v", f, ok)
	}
}

func TestSelectFreqMixRespectsFloor(t *testing.T) {
	c := smallCurie()
	pm := CuriePolicyModel(PolicyMix)
	base := c.Power()
	// Headroom for 1.2 GHz only: MIX may not go below 2.0 GHz => fail.
	budget := base + power.Watts(193-117+1)
	if _, ok := SelectFreqUnderCap(c, pm, []cluster.NodeID{0}, capConst(power.CapWatts(budget))); ok {
		t.Error("MIX went below its 2.0 GHz floor")
	}
	// Headroom for exactly 2.0 GHz: succeed at the floor.
	budget = base + power.Watts(269-117)
	f, ok := SelectFreqUnderCap(c, pm, []cluster.NodeID{0}, capConst(power.CapWatts(budget)))
	if !ok || f != dvfs.F2000 {
		t.Errorf("MIX SelectFreq = %v,%v want 2.0 GHz", f, ok)
	}
}

func TestSelectFreqUsesPerFreqCap(t *testing.T) {
	c := smallCurie()
	pm := CuriePolicyModel(PolicyDvfs)
	base := c.Power()
	// The span at low frequencies overlaps a tight future window: caps
	// tighten as frequency drops, so only high frequencies succeed.
	capFor := func(f dvfs.Freq) power.Cap {
		if f >= dvfs.F2400 {
			return power.CapWatts(base + 500)
		}
		return power.CapWatts(1) // low frequency => longer span => tight window
	}
	f, ok := SelectFreqUnderCap(c, pm, []cluster.NodeID{0}, capFor)
	if !ok || f < dvfs.F2400 {
		t.Errorf("SelectFreq = %v,%v want >= 2.4 GHz", f, ok)
	}
}

func TestSelectFreqPartialNodeFreeRide(t *testing.T) {
	c := smallCurie()
	pm := CuriePolicyModel(PolicyShut)
	if err := c.Occupy([]cluster.Alloc{{Node: 0, Cores: 4}}, dvfs.F2700); err != nil {
		t.Fatal(err)
	}
	// Zero headroom, but the job fills an already-busy node: allowed.
	budget := c.Power()
	f, ok := SelectFreqUnderCap(c, pm, []cluster.NodeID{0}, capConst(power.CapWatts(budget)))
	if !ok || f != dvfs.F2700 {
		t.Errorf("partial-node job rejected: %v,%v", f, ok)
	}
}

func TestCuriePolicyModelMixFloorConstant(t *testing.T) {
	if DefaultMixFloor != dvfs.F2000 {
		t.Errorf("DefaultMixFloor = %v", DefaultMixFloor)
	}
}
