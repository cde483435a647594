package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dvfs"
	"repro/internal/power"
)

func small() *Cluster {
	// 2 racks x 2 chassis x 3 nodes = 12 nodes, 4 cores each.
	topo := Topology{Racks: 2, ChassisPerRack: 2, NodesPerChassis: 3, CoresPerNode: 4}
	c, err := New(topo, power.CurieProfile(), CurieOverhead())
	if err != nil {
		panic(err)
	}
	return c
}

// brutePower recomputes the cluster draw from scratch; the incremental
// Power() must always match it.
func brutePower(c *Cluster) power.Watts {
	topo := c.Topology()
	prof := c.Profile()
	ov := c.Overhead()
	total := 0.0
	for r := 0; r < topo.Racks; r++ {
		rackOff := true
		rackSum := 0.0
		for ci := 0; ci < topo.ChassisPerRack; ci++ {
			ch := r*topo.ChassisPerRack + ci
			first, n := topo.ChassisNodes(ch)
			chassisOff := true
			chassisSum := 0.0
			for i := 0; i < n; i++ {
				info := c.nodes[first+NodeID(i)]
				switch info.state {
				case StateOff:
					chassisSum += float64(prof.Down())
				case StateIdle:
					chassisSum += float64(prof.Idle())
					chassisOff = false
				case StateBusy:
					chassisSum += float64(prof.Busy(info.freq))
					chassisOff = false
				}
			}
			if chassisOff {
				rackSum += 0 // full chassis bonus: nodes' BMCs and equipment off
			} else {
				rackSum += chassisSum + ov.ChassisWatts
				rackOff = false
			}
		}
		if !rackOff {
			total += rackSum + ov.RackWatts
		}
	}
	return power.Watts(total)
}

func TestCurieTopologyConstants(t *testing.T) {
	topo := CurieTopology()
	if topo.Nodes() != 5040 {
		t.Errorf("Curie nodes = %d, want 5040", topo.Nodes())
	}
	if topo.Cores() != 80640 {
		t.Errorf("Curie cores = %d, want 80640", topo.Cores())
	}
	if topo.Chassis() != 280 {
		t.Errorf("Curie chassis = %d, want 280", topo.Chassis())
	}
}

func TestTopologyIndexing(t *testing.T) {
	topo := CurieTopology()
	if got := topo.ChassisOf(0); got != 0 {
		t.Errorf("ChassisOf(0) = %d", got)
	}
	if got := topo.ChassisOf(17); got != 0 {
		t.Errorf("ChassisOf(17) = %d, want 0", got)
	}
	if got := topo.ChassisOf(18); got != 1 {
		t.Errorf("ChassisOf(18) = %d, want 1", got)
	}
	if got := topo.RackOf(89); got != 0 {
		t.Errorf("RackOf(89) = %d, want 0", got)
	}
	if got := topo.RackOf(90); got != 1 {
		t.Errorf("RackOf(90) = %d, want 1", got)
	}
	first, n := topo.ChassisNodes(2)
	if first != 36 || n != 18 {
		t.Errorf("ChassisNodes(2) = %d,%d", first, n)
	}
	first, n = topo.RackNodes(1)
	if first != 90 || n != 90 {
		t.Errorf("RackNodes(1) = %d,%d", first, n)
	}
}

func TestTopologyValidate(t *testing.T) {
	if err := CurieTopology().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Topology{Racks: 0, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16}
	if err := bad.Validate(); err == nil {
		t.Error("zero racks accepted")
	}
	// A node's per-rung core counts are bytes.
	wide := Topology{Racks: 1, ChassisPerRack: 1, NodesPerChassis: 2, CoresPerNode: 255}
	if err := wide.Validate(); err != nil {
		t.Errorf("255 cores per node refused: %v", err)
	}
	wide.CoresPerNode = 256
	if err := wide.Validate(); err == nil {
		t.Error("256 cores per node accepted")
	}
	if _, err := New(wide, power.CurieProfile(), CurieOverhead()); err == nil {
		t.Error("New accepted 256 cores per node")
	}
}

func TestNewRejects(t *testing.T) {
	topo := CurieTopology()
	if _, err := New(topo, nil, CurieOverhead()); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := New(topo, power.CurieProfile(), Overhead{ChassisWatts: -1}); err == nil {
		t.Error("negative overhead accepted")
	}
	if _, err := New(Topology{}, power.CurieProfile(), CurieOverhead()); err == nil {
		t.Error("invalid topology accepted")
	}
}

func TestInitialState(t *testing.T) {
	c := small()
	if c.Count(StateIdle) != 12 || c.Count(StateBusy) != 0 || c.Count(StateOff) != 0 {
		t.Fatalf("initial counts off/idle/busy = %d/%d/%d",
			c.Count(StateOff), c.Count(StateIdle), c.Count(StateBusy))
	}
	if got, want := c.Power(), brutePower(c); got != want {
		t.Errorf("initial Power = %v, want %v", got, want)
	}
	if c.Power() != c.IdlePower() {
		t.Errorf("initial Power %v != IdlePower %v", c.Power(), c.IdlePower())
	}
}

func TestCurieMaxPower(t *testing.T) {
	c := NewCurie()
	// 5040x358 + 280x248 + 56x900 = 1804320 + 69440 + 50400.
	if got, want := c.MaxPower(), power.Watts(1924160); got != want {
		t.Errorf("Curie MaxPower = %v, want %v", got, want)
	}
}

func TestOccupyVacatePowerCycle(t *testing.T) {
	c := small()
	base := c.Power()
	if err := c.Occupy([]Alloc{{Node: 0, Cores: 4}}, dvfs.F2700); err != nil {
		t.Fatal(err)
	}
	if got := c.Power() - base; got != 358-117 {
		t.Errorf("occupy delta = %v, want 241", got)
	}
	if c.State(0) != StateBusy || c.BusyCores() != 4 {
		t.Errorf("state/cores = %v/%d", c.State(0), c.BusyCores())
	}
	if err := c.Vacate([]Alloc{{Node: 0, Cores: 4}}, dvfs.F2700); err != nil {
		t.Fatal(err)
	}
	if got := c.Power(); got != base {
		t.Errorf("power after vacate = %v, want %v", got, base)
	}
	if c.State(0) != StateIdle {
		t.Errorf("state after vacate = %v", c.State(0))
	}
}

func TestOccupySharedNodeHighestFreqWins(t *testing.T) {
	c := small()
	if err := c.Occupy([]Alloc{{Node: 3, Cores: 1}}, dvfs.F1200); err != nil {
		t.Fatal(err)
	}
	if f := c.nodes[3].freq; f != dvfs.F1200 {
		t.Fatalf("freq = %v, want 1.2 GHz", f)
	}
	if err := c.Occupy([]Alloc{{Node: 3, Cores: 1}}, dvfs.F2400); err != nil {
		t.Fatal(err)
	}
	if f := c.nodes[3].freq; f != dvfs.F2400 {
		t.Errorf("freq after second job = %v, want 2.4 GHz", f)
	}
	// Lower-frequency jobs never drag the node frequency down.
	if err := c.Occupy([]Alloc{{Node: 3, Cores: 1}}, dvfs.F1400); err != nil {
		t.Fatal(err)
	}
	if f := c.nodes[3].freq; f != dvfs.F2400 {
		t.Errorf("freq after low-freq third job = %v, want 2.4 GHz", f)
	}
	if got, want := c.Power(), brutePower(c); got != want {
		t.Errorf("Power = %v, want %v", got, want)
	}
}

func TestVacateRemainingFreq(t *testing.T) {
	c := small()
	if err := c.Occupy([]Alloc{{Node: 5, Cores: 2}}, dvfs.F2700); err != nil {
		t.Fatal(err)
	}
	if err := c.Occupy([]Alloc{{Node: 5, Cores: 1}}, dvfs.F1200); err != nil {
		t.Fatal(err)
	}
	// The 2.7 GHz job leaves; the node is charged at the 1.2 GHz job's
	// rung, the highest it still holds.
	if err := c.Vacate([]Alloc{{Node: 5, Cores: 2}}, dvfs.F2700); err != nil {
		t.Fatal(err)
	}
	if n := c.nodes[5]; n.state != StateBusy || n.freq != dvfs.F1200 || n.usedCores != 1 {
		t.Errorf("after vacate: %+v", n)
	}
	if got, want := c.Power(), brutePower(c); got != want {
		t.Errorf("Power = %v, want %v", got, want)
	}
}

func TestOccupyErrors(t *testing.T) {
	c := small()
	if err := c.Occupy([]Alloc{{Node: 0, Cores: 5}}, 0); err == nil {
		t.Error("overcommit accepted")
	}
	if err := c.Occupy([]Alloc{{Node: 0, Cores: 0}}, 0); err == nil {
		t.Error("zero cores accepted")
	}
	if err := c.Occupy([]Alloc{{Node: 99, Cores: 1}}, 0); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := c.PowerOff(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Occupy([]Alloc{{Node: 1, Cores: 1}}, 0); err == nil {
		t.Error("occupy of off node accepted")
	}
}

func TestVacateErrors(t *testing.T) {
	c := small()
	if err := c.Vacate([]Alloc{{Node: 0, Cores: 1}}, 0); err == nil {
		t.Error("vacate of idle node accepted")
	}
	if err := c.Occupy([]Alloc{{Node: 0, Cores: 2}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Vacate([]Alloc{{Node: 0, Cores: 3}}, 0); err == nil {
		t.Error("vacate more cores than held accepted")
	}
	if err := c.Vacate([]Alloc{{Node: 0, Cores: 0}}, 0); err == nil {
		t.Error("vacate zero cores accepted")
	}
	if err := c.Vacate([]Alloc{{Node: 99, Cores: 1}}, 0); err == nil {
		t.Error("vacate out-of-range node accepted")
	}
	// The cores were occupied at nominal: a vacate must name that rung.
	if err := c.Vacate([]Alloc{{Node: 0, Cores: 1}}, dvfs.F2400); err == nil {
		t.Error("vacate of cores the node holds at another rung accepted")
	}
	if err := c.Vacate([]Alloc{{Node: 0, Cores: 1}}, 2650); err == nil {
		t.Error("vacate at a frequency off the profile's rungs accepted")
	}
	if err := c.Vacate([]Alloc{{Node: 0, Cores: 2}}, dvfs.F2700); err != nil {
		t.Errorf("vacate at the rung the cores were occupied at: %v", err)
	}
}

func TestPowerOffOnErrorsAndIdempotence(t *testing.T) {
	c := small()
	if err := c.Occupy([]Alloc{{Node: 0, Cores: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.PowerOff(0); err == nil {
		t.Error("power off of busy node accepted")
	}
	if err := c.PowerOff(2); err != nil {
		t.Fatal(err)
	}
	if err := c.PowerOff(2); err != nil {
		t.Errorf("double power off should be a no-op, got %v", err)
	}
	if err := c.PowerOn(2); err != nil {
		t.Fatal(err)
	}
	if err := c.PowerOn(2); err != nil {
		t.Errorf("double power on should be a no-op, got %v", err)
	}
	if err := c.PowerOff(99); err == nil {
		t.Error("out-of-range power off accepted")
	}
}

// TestChassisBonusFigure2 verifies the worked example of Section VI-A:
// switching off one full 18-node chassis saves 6692 W versus those nodes
// running at max power, and a full rack saves 34360 W.
func TestChassisBonusFigure2(t *testing.T) {
	c := NewCurie()
	topo := c.Topology()

	// Occupy everything at nominal: draw == MaxPower.
	for id := 0; id < topo.Nodes(); id++ {
		if err := c.Occupy([]Alloc{{Node: NodeID(id), Cores: topo.CoresPerNode}}, dvfs.F2700); err != nil {
			t.Fatal(err)
		}
	}
	if c.Power() != c.MaxPower() {
		t.Fatalf("all-busy power %v != MaxPower %v", c.Power(), c.MaxPower())
	}

	// Free and switch off chassis 0.
	before := c.Power()
	first, n := topo.ChassisNodes(0)
	for i := 0; i < n; i++ {
		if err := c.Vacate([]Alloc{{Node: first + NodeID(i), Cores: topo.CoresPerNode}}, dvfs.F2700); err != nil {
			t.Fatal(err)
		}
		if err := c.PowerOff(first + NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	saved := before - c.Power()
	if saved != 6692 {
		t.Errorf("full-chassis saving = %v, want 6692 W (Figure 2)", saved)
	}
	if c.nFullOffChassis != 1 {
		t.Errorf("fully-off chassis = %d, want 1", c.nFullOffChassis)
	}
	if got := c.BonusWatts(); got != 500 {
		t.Errorf("BonusWatts = %v, want 500 (chassis bonus)", got)
	}

	// Now switch off the rest of rack 0.
	firstRack, nr := topo.RackNodes(0)
	for i := 0; i < nr; i++ {
		id := firstRack + NodeID(i)
		if c.State(id) == StateBusy {
			if err := c.Vacate([]Alloc{{Node: id, Cores: topo.CoresPerNode}}, dvfs.F2700); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.PowerOff(id); err != nil {
			t.Fatal(err)
		}
	}
	savedRack := before - c.Power()
	if savedRack != 34360 {
		t.Errorf("full-rack saving = %v, want 34360 W (Figure 2)", savedRack)
	}
	if c.nFullOffRacks != 1 {
		t.Errorf("fully-off racks = %d, want 1", c.nFullOffRacks)
	}
	if got, want := c.Power(), brutePower(c); got != want {
		t.Errorf("Power = %v, want brute %v", got, want)
	}
}

// TestScatteredVersusGrouped reproduces the Section VI-A example: 20
// scattered node switch-offs save 20x344 = 6880 W, while a full chassis
// (18 nodes) saves 6692 W, nearly as much with 2 fewer nodes sacrificed.
func TestScatteredVersusGrouped(t *testing.T) {
	c := NewCurie()
	ids := SelectScattered(c, 20, nil)
	if len(ids) != 20 {
		t.Fatalf("scattered selection returned %d nodes", len(ids))
	}
	if got := PlannedSaving(c, ids, c.Profile().Max()); got != 6880 {
		t.Errorf("scattered 20-node saving = %v, want 6880 W", got)
	}
	first, n := c.Topology().ChassisNodes(0)
	chassis := make([]NodeID, n)
	for i := range chassis {
		chassis[i] = first + NodeID(i)
	}
	if got := PlannedSaving(c, chassis, c.Profile().Max()); got != 6692 {
		t.Errorf("chassis saving = %v, want 6692 W", got)
	}
}

func TestSelectGroupedPrefersWholeRacks(t *testing.T) {
	c := NewCurie()
	topo := c.Topology()
	perRack := topo.NodesPerRack()
	ids := SelectGrouped(c, perRack, nil)
	if len(ids) != perRack {
		t.Fatalf("got %d nodes, want %d", len(ids), perRack)
	}
	racks := map[int]int{}
	for _, id := range ids {
		racks[topo.RackOf(id)]++
	}
	if len(racks) != 1 {
		t.Errorf("selection spans %d racks, want exactly 1 full rack", len(racks))
	}
	if got := PlannedSaving(c, ids, c.Profile().Max()); got != 34360 {
		t.Errorf("full-rack planned saving = %v, want 34360", got)
	}
}

func TestSelectGroupedChassisAlignment(t *testing.T) {
	c := NewCurie()
	topo := c.Topology()
	// 40 nodes = 2 full chassis (36) + 4 singles.
	ids := SelectGrouped(c, 40, nil)
	if len(ids) != 40 {
		t.Fatalf("got %d nodes", len(ids))
	}
	perChassis := map[int]int{}
	for _, id := range ids {
		perChassis[topo.ChassisOf(id)]++
	}
	full := 0
	for _, n := range perChassis {
		if n == topo.NodesPerChassis {
			full++
		}
	}
	if full < 2 {
		t.Errorf("selection completed %d chassis, want >= 2", full)
	}
	// Grouped selection must beat scattered selection on planned savings.
	scat := SelectScattered(c, 40, nil)
	if g, s := PlannedSaving(c, ids, c.Profile().Max()), PlannedSaving(c, scat, c.Profile().Max()); g <= s {
		t.Errorf("grouped saving %v <= scattered %v", g, s)
	}
}

func TestSelectGroupedRespectsEligibility(t *testing.T) {
	c := small()
	// Node 0 ineligible: its chassis (nodes 0..2) cannot be taken whole.
	ids := SelectGrouped(c, 3, func(id NodeID) bool { return id != 0 })
	for _, id := range ids {
		if id == 0 {
			t.Fatalf("ineligible node selected: %v", ids)
		}
	}
	if len(ids) != 3 {
		t.Errorf("got %d nodes, want 3", len(ids))
	}
}

func TestSelectGroupedWantZero(t *testing.T) {
	c := small()
	if got := SelectGrouped(c, 0, nil); got != nil {
		t.Errorf("want=0 returned %v", got)
	}
	if got := SelectScattered(c, -1, nil); got != nil {
		t.Errorf("scattered want=-1 returned %v", got)
	}
}

func TestSelectScatteredAvoidsBonus(t *testing.T) {
	c := small() // 4 chassis of 3 nodes
	ids := SelectScattered(c, 4, nil)
	chassisSeen := map[int]bool{}
	for _, id := range ids {
		chassisSeen[c.Topology().ChassisOf(id)] = true
	}
	if len(chassisSeen) != 4 {
		t.Errorf("scattered selection used %d chassis, want 4", len(chassisSeen))
	}
}

func TestOccupyDelta(t *testing.T) {
	c := small()
	// Idle node at 2.7: +241. Idle node at 1.2: +76.
	if got := c.OccupyDelta([]NodeID{0}, dvfs.F2700); got != 241 {
		t.Errorf("delta idle->2.7 = %v, want 241", got)
	}
	if got := c.OccupyDelta([]NodeID{0}, dvfs.F1200); got != 76 {
		t.Errorf("delta idle->1.2 = %v, want 76", got)
	}
	// Busy node at equal or higher freq adds nothing.
	if err := c.Occupy([]Alloc{{Node: 1, Cores: 1}}, dvfs.F2700); err != nil {
		t.Fatal(err)
	}
	if got := c.OccupyDelta([]NodeID{1}, dvfs.F2400); got != 0 {
		t.Errorf("delta busy(2.7)->2.4 = %v, want 0", got)
	}
	// Busy node at lower freq pays the uplift.
	if err := c.Occupy([]Alloc{{Node: 2, Cores: 1}}, dvfs.F1200); err != nil {
		t.Fatal(err)
	}
	if got := c.OccupyDelta([]NodeID{2}, dvfs.F2700); got != 358-193 {
		t.Errorf("delta busy(1.2)->2.7 = %v, want 165", got)
	}
	// Off node pays busy-down.
	if err := c.PowerOff(3); err != nil {
		t.Fatal(err)
	}
	if got := c.OccupyDelta([]NodeID{3}, dvfs.F2700); got != 358-14 {
		t.Errorf("delta off->2.7 = %v, want 344", got)
	}
	// Nominal default when f == 0.
	if got := c.OccupyDelta([]NodeID{0}, 0); got != 241 {
		t.Errorf("delta f=0 = %v, want 241", got)
	}
	// Idle nodes priced from their count alone.
	if got, want := c.IdleOccupyDelta(3, dvfs.F2000), c.OccupyDelta([]NodeID{0, 4, 5}, dvfs.F2000); got != want || got != 3*(269-117) {
		t.Errorf("delta of 3 idle nodes by count = %v, node by node %v, want 456", got, want)
	}
	if got := c.IdleOccupyDelta(2, 0); got != 2*241 {
		t.Errorf("counted delta f=0 = %v, want 482", got)
	}
	// OccupyDelta must match the real power change for idle nodes.
	before := c.Power()
	delta := c.OccupyDelta([]NodeID{0}, dvfs.F2000)
	if err := c.Occupy([]Alloc{{Node: 0, Cores: 1}}, dvfs.F2000); err != nil {
		t.Fatal(err)
	}
	if got := c.Power() - before; got != delta {
		t.Errorf("actual delta %v != predicted %v", got, delta)
	}
}

// TestDeltasPanicOffRung: a probe prices only what a commit accepts.
// Occupy refuses 2.5 GHz, which is no rung of the Curie profile, so the
// draw it would add has no price either.
func TestDeltasPanicOffRung(t *testing.T) {
	c := small()
	if err := c.Occupy([]Alloc{{Node: 0, Cores: 1}}, 2500); err == nil {
		t.Fatal("Occupy accepted 2.5 GHz")
	}
	for name, price := range map[string]func(){
		"Busy":            func() { c.Profile().Busy(2500) },
		"OccupyDelta":     func() { c.OccupyDelta([]NodeID{0}, 2500) },
		"IdleOccupyDelta": func() { c.IdleOccupyDelta(1, 2500) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "2.5 GHz is not a rung") {
					t.Errorf("%s at 2.5 GHz: recovered %v, want a panic naming the frequency", name, r)
				}
			}()
			price()
		}()
	}
}

func TestCoresByFreq(t *testing.T) {
	c := small()
	if err := c.Occupy([]Alloc{{Node: 0, Cores: 4}}, dvfs.F2700); err != nil {
		t.Fatal(err)
	}
	if err := c.Occupy([]Alloc{{Node: 1, Cores: 2}}, dvfs.F2000); err != nil {
		t.Fatal(err)
	}
	h := c.CurieCores()
	if h.At(dvfs.F2700) != 4 || h.At(dvfs.F2000) != 2 {
		t.Errorf("histogram = %v", h)
	}
	if err := c.Vacate([]Alloc{{Node: 1, Cores: 2}}, dvfs.F2000); err != nil {
		t.Fatal(err)
	}
	if h = c.CurieCores(); h.At(dvfs.F2000) != 0 || len(c.coresByFreq) != 1 {
		t.Errorf("emptied bar kept: %v, live bars %v", h, c.coresByFreq)
	}
}

// liveBars is the cores-by-frequency histogram as a map, for any
// profile: CurieCores has slots for the Curie rungs only.
func liveBars(c *Cluster) map[dvfs.Freq]int {
	out := make(map[dvfs.Freq]int, len(c.coresByFreq))
	for _, e := range c.coresByFreq {
		out[e.freq] = e.cores
	}
	return out
}

func TestForEach(t *testing.T) {
	c := small()
	var seen int
	c.ForEach(func(NodeInfo) bool { seen++; return true })
	if seen != 12 {
		t.Errorf("ForEach visited %d nodes, want 12", seen)
	}
	seen = 0
	c.ForEach(func(NodeInfo) bool { seen++; return seen < 5 })
	if seen != 5 {
		t.Errorf("early-stop ForEach visited %d, want 5", seen)
	}
}

func TestStateAndFreeCoresOutOfRange(t *testing.T) {
	c := small()
	if c.State(-1) != StateOff {
		t.Error("out-of-range State should report off")
	}
	if c.FreeCores(-1) != 0 {
		t.Error("out-of-range FreeCores should be 0")
	}
	if err := c.PowerOff(0); err != nil {
		t.Fatal(err)
	}
	if c.FreeCores(0) != 0 {
		t.Error("off node should have 0 free cores")
	}
}

func TestNodeStateString(t *testing.T) {
	if StateOff.String() != "off" || StateIdle.String() != "idle" || StateBusy.String() != "busy" {
		t.Error("NodeState strings wrong")
	}
	if NodeState(9).String() != "NodeState(9)" {
		t.Error("unknown NodeState string wrong")
	}
}

// curieBusyWatts is Figure 4 as the frequency→watts map the profile used
// to keep — the oracle the cached per-node draws are held to.
var curieBusyWatts = map[dvfs.Freq]float64{
	dvfs.F1200: 193, dvfs.F1400: 213, dvfs.F1600: 234, dvfs.F1800: 248,
	dvfs.F2000: 269, dvfs.F2200: 289, dvfs.F2400: 317, dvfs.F2700: 358,
}

// checkAggregatesBrute recomputes, from ForEach and the map above, every
// aggregate the cluster maintains incrementally — the counts, both
// candidate sets, the draw, the busy cores and the histogram — and every
// OccupyDelta it would answer, and compares with ==: Curie draws are
// whole watts, so the incremental float sums are exact.
func checkAggregatesBrute(t *testing.T, c *Cluster) {
	t.Helper()
	const down, idle = 14.0, 117.0
	topo, ov := c.Topology(), c.Overhead()
	draw := func(n NodeInfo) float64 {
		switch n.State {
		case StateOff:
			return down
		case StateIdle:
			return idle
		}
		return curieBusyWatts[n.Freq]
	}
	var nodes []NodeInfo
	watts, busyCores := 0.0, 0
	byFreq := map[dvfs.Freq]int{}
	offPerChassis := make([]int, topo.Chassis())
	var counts [3]int
	c.ForEach(func(n NodeInfo) bool {
		nodes = append(nodes, n)
		counts[n.State]++
		partial := n.State == StateBusy && n.UsedCores < topo.CoresPerNode
		if c.PartialBusySet().Has(n.ID) != partial || c.IdleSet().Has(n.ID) != (n.State == StateIdle) {
			t.Errorf("candidate sets disagree with node %+v", n)
		}
		watts += draw(n)
		if n.State == StateBusy {
			busyCores += n.UsedCores
			byFreq[n.Freq] += n.UsedCores
		}
		if n.State == StateOff {
			offPerChassis[topo.ChassisOf(n.ID)]++
		}
		return true
	})
	watts += ov.ChassisWatts*float64(topo.Chassis()) + ov.RackWatts*float64(topo.Racks)
	fullPerRack := make([]int, topo.Racks)
	for ch, off := range offPerChassis {
		if off == topo.NodesPerChassis {
			watts -= ov.ChassisWatts + down*float64(topo.NodesPerChassis)
			fullPerRack[ch/topo.ChassisPerRack]++
		}
	}
	for _, full := range fullPerRack {
		if full == topo.ChassisPerRack {
			watts -= ov.RackWatts
		}
	}

	for st, n := range counts {
		if got := c.Count(NodeState(st)); got != n {
			t.Errorf("Count(%v) = %d, recomputed %d", NodeState(st), got, n)
		}
	}
	if got := float64(c.Power()); got != watts {
		t.Errorf("Power() = %v, recomputed %v", got, watts)
	}
	if got := c.BusyCores(); got != busyCores {
		t.Errorf("BusyCores() = %d, recomputed %d", got, busyCores)
	}
	if got := liveBars(c); !reflect.DeepEqual(got, byFreq) {
		t.Errorf("cores-by-frequency bars = %v, recomputed %v (no zero entries)", got, byFreq)
	}
	one := []NodeID{0}
	for _, f := range dvfs.CurieLadder() {
		for _, n := range nodes {
			want := curieBusyWatts[f] - draw(n)
			if n.State == StateBusy && n.Freq >= f {
				want = 0
			}
			one[0] = n.ID
			if got := float64(c.OccupyDelta(one, f)); got != want {
				t.Errorf("OccupyDelta(node %d %v at %v, %v) = %v, recomputed %v", n.ID, n.State, n.Freq, f, got, want)
			}
		}
	}
}

// Property: after any sequence of operations the incremental power equals
// the brute-force recomputation, and no cached per-node draw, count,
// candidate set or histogram bar has drifted from the node states. The
// operations are the ones a controller makes (wholeJobs): multi-node
// starts over whole idle, partly used and shared nodes at mixed rungs,
// whole and partial finishes, and the node-level calls between them.
func TestPowerIncrementalMatchesBrute(t *testing.T) {
	type op struct {
		Kind  uint8
		Node  uint8
		Cores uint8
		Rung  uint8
	}
	f := func(ops []op) bool {
		w := &wholeJobs{c: small()}
		for _, o := range ops {
			if err := w.step(t, o.Kind, o.Node, o.Cores, o.Rung); err != nil {
				t.Error(err)
				return false
			}
		}
		checkAggregatesBrute(t, w.c)
		w.checkHeld(t)
		return !t.Failed() && math.Abs(float64(w.c.Power()-brutePower(w.c))) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: counts always sum to the node count.
func TestCountsConsistency(t *testing.T) {
	c := small()
	checkCounts := func() {
		t.Helper()
		sum := c.Count(StateOff) + c.Count(StateIdle) + c.Count(StateBusy)
		if sum != c.Nodes() {
			t.Fatalf("counts sum to %d, want %d", sum, c.Nodes())
		}
	}
	checkCounts()
	if err := c.Occupy([]Alloc{{Node: 0, Cores: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	checkCounts()
	if err := c.PowerOff(1); err != nil {
		t.Fatal(err)
	}
	checkCounts()
	if c.Count(NodeState(99)) != 0 {
		t.Error("invalid state count should be 0")
	}
}

func TestPlannedSavingDeduplicates(t *testing.T) {
	c := NewCurie()
	ids := []NodeID{0, 0, 1}
	if got := PlannedSaving(c, ids, c.Profile().Max()); got != 2*344 {
		t.Errorf("deduplicated saving = %v, want 688", got)
	}
	if got := PlannedSaving(c, []NodeID{-1, 9999999}, c.Profile().Max()); got != 0 {
		t.Errorf("invalid IDs saving = %v, want 0", got)
	}
}

// survivorDrawScan is SurvivorDraw as the controller computed it while it
// owned the projection: one walk over the nodes marking the chassis and
// racks that keep a node outside held, the shared draws added group by
// group in that order. Kept as the oracle for the counted answer.
func survivorDrawScan(c *Cluster, held NodeSet, busy power.Watts) power.Watts {
	topo, ov := c.Topology(), c.Overhead()
	chassisHasSurvivor := make([]bool, topo.Chassis())
	rackHasSurvivor := make([]bool, topo.Racks)
	count := 0
	c.ForEach(func(n NodeInfo) bool {
		if !held.Has(n.ID) {
			count++
			chassisHasSurvivor[topo.ChassisOf(n.ID)] = true
			rackHasSurvivor[topo.RackOf(n.ID)] = true
		}
		return true
	})
	overhead := 0.0
	for _, has := range chassisHasSurvivor {
		if has {
			overhead += ov.ChassisWatts
		}
	}
	for _, has := range rackHasSurvivor {
		if has {
			overhead += ov.RackWatts
		}
	}
	return power.Watts(float64(count)*float64(busy)) + power.Watts(overhead)
}

// SurvivorDraw over Topology.Groups against the scan, compared with ==,
// through random holds and releases of single nodes, whole chassis and
// whole racks. The two group sums agree bit for bit only because
// Curie's shared draws are whole watts — pinned first.
func TestSurvivorDrawMatchesScan(t *testing.T) {
	if ov := CurieOverhead(); ov.ChassisWatts != math.Trunc(ov.ChassisWatts) || ov.RackWatts != math.Trunc(ov.RackWatts) {
		t.Fatalf("Curie overheads %+v are not whole watts", ov)
	}
	for _, topo := range []Topology{
		{Racks: 2, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16},
		{Racks: 4, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16},
		CurieTopology(),
		{Racks: 3, ChassisPerRack: 3, NodesPerChassis: 7, CoresPerNode: 4},  // 63 nodes
		{Racks: 2, ChassisPerRack: 5, NodesPerChassis: 13, CoresPerNode: 8}, // 130 nodes
	} {
		c, err := New(topo, power.CurieProfile(), CurieOverhead())
		if err != nil {
			t.Fatal(err)
		}
		held := NewNodeSet(topo.Nodes())
		check := func(when string) {
			t.Helper()
			for _, f := range dvfs.CurieLadder() {
				busy := c.Profile().Busy(f)
				if got, want := c.SurvivorDraw(topo.Groups(held), busy), survivorDrawScan(c, held, busy); got != want {
					t.Fatalf("%d nodes, %s: SurvivorDraw(%v) = %v, scan %v", topo.Nodes(), when, busy, float64(got), float64(want))
				}
			}
		}
		setRange := func(first NodeID, n int, v bool) {
			for id := first; id < first+NodeID(n); id++ {
				if v {
					held.Add(id)
				} else {
					held.Remove(id)
				}
			}
		}
		check("nothing held")
		rng := rand.New(rand.NewSource(int64(topo.Nodes())))
		for step := 0; step < 400; step++ {
			switch rng.Intn(8) {
			case 0:
				first, n := topo.ChassisNodes(rng.Intn(topo.Chassis()))
				setRange(first, n, rng.Intn(2) == 0)
			case 1:
				first, n := topo.RackNodes(rng.Intn(topo.Racks))
				setRange(first, n, rng.Intn(2) == 0)
			default:
				setRange(NodeID(rng.Intn(topo.Nodes())), 1, rng.Intn(2) == 0)
			}
			check(fmt.Sprintf("step %d", step))
		}
		setRange(0, topo.Nodes(), true)
		check("everything held")
		setRange(0, topo.Nodes(), false)
		check("everything released")
	}
}

// randomProfile draws a profile NewProfile accepts, with fractional
// watts and repeated draws between neighbouring rungs.
func randomProfile(t *testing.T, rng *rand.Rand) *power.Profile {
	t.Helper()
	down := power.Watts(rng.Float64() * 40)
	idle := down + power.Watts(rng.Float64()*150)
	freqW := map[dvfs.Freq]power.Watts{}
	f, w := dvfs.Freq(1000+rng.Intn(500)), idle
	for rungs := 1 + rng.Intn(12); len(freqW) < rungs; {
		if rng.Intn(4) > 0 {
			w += power.Watts(rng.Float64() * 60)
		}
		freqW[f] = w
		f += dvfs.Freq(1 + rng.Intn(300))
	}
	prof, err := power.NewProfile(down, idle, freqW)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// TestOccupyDeltaMonotoneInFreq pins the contract core.SelectFreq's
// bracketed search relies on for Algorithm 2's draw check: on any
// cluster state — busy nodes at mixed rungs, idle nodes, off nodes —
// OccupyDelta(nodes, f) and IdleOccupyDelta(n, f) are ≥ 0 and
// nondecreasing along the ladder, on the Curie profile and on random
// profiles.
func TestOccupyDeltaMonotoneInFreq(t *testing.T) {
	rng := rand.New(rand.NewSource(20150525))
	topo := Topology{Racks: 2, ChassisPerRack: 2, NodesPerChassis: 5, CoresPerNode: 4}
	profiles := []*power.Profile{power.CurieProfile()}
	for len(profiles) < 6 {
		profiles = append(profiles, randomProfile(t, rng))
	}
	for pi, prof := range profiles {
		ladder := prof.Ladder()
		for trial := 0; trial < 40; trial++ {
			c, err := New(topo, prof, CurieOverhead())
			if err != nil {
				t.Fatal(err)
			}
			for id := NodeID(0); int(id) < c.Nodes(); id++ {
				switch rng.Intn(3) {
				case 0:
					err = c.PowerOff(id)
				case 1:
					for k := rng.Intn(3); k >= 0 && err == nil; k-- {
						err = c.Occupy([]Alloc{{Node: id, Cores: 1}}, ladder[rng.Intn(len(ladder))])
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for probe := 0; probe < 8; probe++ {
				var ids []NodeID
				for id := NodeID(0); int(id) < c.Nodes(); id++ {
					if rng.Intn(3) == 0 {
						ids = append(ids, id)
					}
				}
				n := rng.Intn(c.Nodes() + 1)
				prevOD, prevIOD := power.Watts(0), power.Watts(0)
				for _, f := range ladder {
					od, iod := c.OccupyDelta(ids, f), c.IdleOccupyDelta(n, f)
					if od < prevOD || iod < prevIOD {
						t.Fatalf("profile %d, nodes %v, %d idle: at %v OccupyDelta %v, IdleOccupyDelta %v, below zero or the rung under it (%v, %v)",
							pi, ids, n, f, od, iod, prevOD, prevIOD)
					}
					prevOD, prevIOD = od, iod
				}
			}
		}
	}
}
