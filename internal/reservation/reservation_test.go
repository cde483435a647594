package reservation

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/power"
)

// testTopo is the machine the books of these tests plan for: 270 nodes,
// room for every node ID they name.
var testTopo = cluster.Topology{Racks: 3, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16}

func TestAddPowerCapValidation(t *testing.T) {
	b := NewBook(testTopo)
	if _, err := b.AddPowerCap(10, 10, power.CapWatts(100)); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := b.AddPowerCap(10, 5, power.CapWatts(100)); err == nil {
		t.Error("inverted window accepted")
	}
	if _, err := b.AddPowerCap(0, 10, power.NoCap); err == nil {
		t.Error("unset cap accepted")
	}
	id, err := b.AddPowerCap(0, Horizon, power.CapWatts(100))
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Error("zero reservation ID")
	}
}

func TestCapAt(t *testing.T) {
	b := NewBook(testTopo)
	mustCap(t, b, 100, 200, 500)
	mustCap(t, b, 150, 300, 300)

	cases := []struct {
		t    int64
		want power.Cap
	}{
		{50, power.NoCap},
		{100, power.CapWatts(500)},
		{149, power.CapWatts(500)},
		{150, power.CapWatts(300)}, // overlapping: tightest wins
		{199, power.CapWatts(300)},
		{200, power.CapWatts(300)},
		{299, power.CapWatts(300)},
		{300, power.NoCap}, // End is exclusive
	}
	for _, tc := range cases {
		if got := b.CapAt(tc.t); got != tc.want {
			t.Errorf("CapAt(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func mustCap(t *testing.T, b *Book, start, end int64, w power.Watts) int {
	t.Helper()
	id, err := b.AddPowerCap(start, end, power.CapWatts(w))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// MinFutureCapOver is what the online algorithm asks about a launch: the
// tightest window that opens after the launch instant, within the
// planning horizon, and overlaps the job's span.
func TestMinFutureCapOver(t *testing.T) {
	b := NewBook(testTopo)
	mustCap(t, b, 100, 200, 500)
	mustCap(t, b, 400, 500, 200)

	for _, tc := range []struct {
		name              string
		from, to, horizon int64
		want              power.Cap
	}{
		{"span before any window", 0, 50, 0, power.NoCap},
		{"span into the first window", 0, 150, 0, power.CapWatts(500)},
		{"span across both: the tightest", 0, 450, 0, power.CapWatts(200)},
		{"span in the gap", 200, 400, 0, power.NoCap},
		{"span ending exactly at a start", 0, 100, 0, power.NoCap},
		{"span after the last window", 500, 600, 0, power.NoCap},
		{"a window already open at from is not a future one", 150, 450, 0, power.CapWatts(200)},
		{"a window opening exactly at from is not a future one", 100, 150, 0, power.NoCap},
		{"a window beyond the horizon is not prepared for yet", 0, 450, 150, power.CapWatts(500)},
		{"a window exactly at the horizon is", 0, 450, 400, power.CapWatts(200)},
	} {
		if got := b.MinFutureCapOver(tc.from, tc.to, tc.horizon); got != tc.want {
			t.Errorf("%s: MinFutureCapOver(%d, %d, %d) = %v, want %v", tc.name, tc.from, tc.to, tc.horizon, got, tc.want)
		}
	}
}

func TestOpenEndedCap(t *testing.T) {
	b := NewBook(testTopo)
	if _, err := b.AddPowerCap(100, Horizon, power.CapWatts(700)); err != nil {
		t.Fatal(err)
	}
	if got := b.CapAt(1 << 50); got != power.CapWatts(700) {
		t.Errorf("open-ended cap at far future = %v", got)
	}
	if got := b.MinFutureCapOver(99, 100, 0); got.IsSet() {
		t.Errorf("span ending at start capped: %v", got)
	}
}

func TestSwitchOffValidationAndCopy(t *testing.T) {
	b := NewBook(testTopo)
	if _, err := b.AddSwitchOff(5, 5, []cluster.NodeID{1}); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := b.AddSwitchOff(0, 5, nil); err == nil {
		t.Error("empty node set accepted")
	}
	nodes := []cluster.NodeID{1, 2}
	if _, err := b.AddSwitchOff(0, 5, nodes); err != nil {
		t.Fatal(err)
	}
	nodes[0] = 99 // the book must hold a copy
	if held, _ := b.Held(); !held.Has(1) || held.Has(99) {
		t.Errorf("book aliases the caller's slice: held %v", held)
	}
}

// members lists the IDs of s inside testTopo.
func members(s cluster.NodeSet) []cluster.NodeID {
	var out []cluster.NodeID
	for id := cluster.NodeID(0); int(id) < testTopo.Nodes(); id++ {
		if s.Has(id) {
			out = append(out, id)
		}
	}
	return out
}

func TestHeldReleaseDraining(t *testing.T) {
	b := NewBook(testTopo)
	if held, g := b.Held(); len(members(held)) != 0 || g != (cluster.Groups{}) {
		t.Fatalf("empty book holds %v, %+v", members(held), g)
	}
	chassis1, n := testTopo.ChassisNodes(1)
	var group1 []cluster.NodeID
	for id := chassis1; id < chassis1+cluster.NodeID(n); id++ {
		group1 = append(group1, id)
	}
	first, err := b.AddSwitchOff(100, 200, group1) // one whole chassis
	if err != nil {
		t.Fatal(err)
	}
	second, err := b.AddSwitchOff(150, 300, []cluster.NodeID{3, 90})
	if err != nil {
		t.Fatal(err)
	}
	rack2, _ := testTopo.RackNodes(2)
	var group3 []cluster.NodeID
	for id := rack2; int(id) < testTopo.Nodes(); id++ {
		group3 = append(group3, id)
	}
	open, err := b.AddSwitchOff(250, Horizon, group3) // one whole rack, never closing
	if err != nil {
		t.Fatal(err)
	}

	held, g := b.Held()
	if want := len(group1) + 2 + len(group3); len(members(held)) != want {
		t.Fatalf("held %d nodes, want %d", len(members(held)), want)
	}
	if want := testTopo.Groups(held); g != want {
		t.Errorf("Held counts %+v, Topology.Groups %+v", g, want)
	}
	if want := (cluster.Groups{Nodes: 18 + 2 + 90, Chassis: 1 + 5, Racks: 1}); g != want {
		t.Errorf("Held counts %+v, want %+v", g, want)
	}

	drains := []struct {
		id   cluster.NodeID
		t    int64
		want bool
	}{
		{chassis1, 99, false},       // before its window
		{chassis1, 100, true},       // at the start
		{chassis1, 199, true},       // last instant
		{chassis1, 200, false},      // at the end, not yet released
		{3, 150, true},              // the second window, on its own nodes
		{3, 120, false},             // ... before it opens
		{4, 160, false},             // a node no window holds
		{rack2, 1 << 50, true},      // the open-ended window
		{rack2 - 1, 1 << 50, false}, // next to it
	}
	for _, d := range drains {
		if got := b.Draining(d.id, d.t); got != d.want {
			t.Errorf("Draining(%d, %d) = %v, want %v", d.id, d.t, got, d.want)
		}
	}

	gen := b.Generation()
	if got := b.Release(first); len(members(got)) != len(group1) || !got.Has(chassis1) {
		t.Fatalf("Release(%d) returned %v, want the chassis", first, members(got))
	}
	if b.Generation() == gen {
		t.Error("Release left the generation")
	}
	after, g := b.Held()
	if after.Has(chassis1) || !after.Has(3) || !after.Has(rack2) {
		t.Errorf("held after releasing the chassis: %v", members(after))
	}
	if want := testTopo.Groups(after); g != want || g.Chassis != 5 || g.Racks != 1 {
		t.Errorf("Held counts after release %+v, Topology.Groups %+v", g, want)
	}
	if !held.Has(chassis1) {
		t.Error("Release modified the set Held returned before it: the set must be replaced")
	}
	if b.Draining(chassis1, 150) {
		t.Error("a released window still drains its nodes")
	}

	gen = b.Generation()
	for _, id := range []int{first, 424242, second + open} { // released, unknown, unknown
		if got := b.Release(id); got != nil {
			t.Errorf("Release(%d) = %v, want nil", id, members(got))
		}
	}
	if b.Generation() != gen {
		t.Error("releasing nothing moved the generation")
	}
	b.Release(second)
	b.Release(open)
	if held, g := b.Held(); len(members(held)) != 0 || g != (cluster.Groups{}) {
		t.Errorf("every window released, still held %v, %+v", members(held), g)
	}
}

// nodeBlocked asks BlockedSet about one node.
func (b *Book) nodeBlocked(id cluster.NodeID, from, to int64, lead int64) bool {
	var scratch cluster.NodeSet
	return b.BlockedSet(from, to, lead, &scratch).Has(id)
}

func TestNodeBlockedDrainSemantics(t *testing.T) {
	b := NewBook(testTopo)
	if _, err := b.AddSwitchOff(100, 200, []cluster.NodeID{5, 6}); err != nil {
		t.Fatal(err)
	}
	// lead = 0: the reservation only refuses work once its window opens.
	if !b.nodeBlocked(5, 150, 160, 0) {
		t.Error("node inside window not blocked")
	}
	if b.nodeBlocked(5, 50, 101, 0) {
		t.Error("pre-window job blocked with zero lead (drain semantics)")
	}
	if b.nodeBlocked(5, 50, 100, 0) {
		t.Error("job ending exactly at window start blocked")
	}
	if b.nodeBlocked(5, 200, 300, 0) {
		t.Error("job starting at window end blocked")
	}
	if b.nodeBlocked(7, 150, 160, 0) {
		t.Error("unreserved node blocked")
	}
}

func TestNodeBlockedWithLead(t *testing.T) {
	b := NewBook(testTopo)
	if _, err := b.AddSwitchOff(100, 200, []cluster.NodeID{5}); err != nil {
		t.Fatal(err)
	}
	// lead = 30: allocations within 30 s of the window that overlap it
	// are refused; earlier ones are not.
	if !b.nodeBlocked(5, 80, 150, 30) {
		t.Error("overlapping job within the lead not blocked")
	}
	if b.nodeBlocked(5, 60, 150, 30) {
		t.Error("overlapping job before the lead blocked")
	}
	// Non-overlapping spans are never blocked regardless of lead.
	if b.nodeBlocked(5, 80, 100, 1<<40) {
		t.Error("non-overlapping job blocked by a huge lead")
	}
}

func TestUpdateCap(t *testing.T) {
	b := NewBook(testTopo)
	id := mustCap(t, b, 0, Horizon, 500)
	if err := b.UpdateCap(id, power.CapWatts(300)); err != nil {
		t.Fatal(err)
	}
	if got := b.CapAt(10).Watts(); got != 300 {
		t.Errorf("CapAt after update = %v, want 300", got)
	}
	// The window keeps its span: still open-ended.
	if got := b.CapAt(1 << 40).Watts(); got != 300 {
		t.Errorf("CapAt far future = %v, want 300", got)
	}
	if err := b.UpdateCap(id, power.NoCap); err == nil {
		t.Error("UpdateCap with unset cap: want error")
	}
	if err := b.UpdateCap(424242, power.CapWatts(100)); err == nil {
		t.Error("UpdateCap of unknown ID: want error")
	}
	// Switch-off IDs are not powercaps.
	offID, err := b.AddSwitchOff(0, 100, []cluster.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.UpdateCap(offID, power.CapWatts(100)); err == nil {
		t.Error("UpdateCap of a switch-off ID: want error")
	}
}

// booked is a switch-off as a test booked it: its span and its node list.
type booked struct {
	start, end int64
	group      []cluster.NodeID
}

// nodeBlockedRef decides whether a node is blocked from the booked node
// lists alone — the definition, independent of the book's membership
// sets.
func nodeBlockedRef(offs []booked, id cluster.NodeID, from, to, lead int64) bool {
	for _, o := range offs {
		if o.start >= to || o.end <= from || from < o.start-lead {
			continue
		}
		for _, n := range o.group {
			if n == id {
				return true
			}
		}
	}
	return false
}

func TestBlockedSetMatchesNodeBlocked(t *testing.T) {
	const nodes = 200 // four words; most groups are shorter
	rng := rand.New(rand.NewSource(3))
	var scratch cluster.NodeSet
	for round := 0; round < 60; round++ {
		b := NewBook(testTopo)
		var offs []booked
		for w := 0; w < 1+rng.Intn(5); w++ {
			start := int64(rng.Intn(1000))
			span := 1 + rng.Intn(nodes) // highest possible member: groups differ in length
			var group []cluster.NodeID
			for n := 0; n < 1+rng.Intn(40); n++ {
				group = append(group, cluster.NodeID(rng.Intn(span)))
			}
			end := start + 1 + int64(rng.Intn(500))
			if _, err := b.AddSwitchOff(start, end, group); err != nil {
				t.Fatal(err)
			}
			offs = append(offs, booked{start, end, group})
		}
		for probe := 0; probe < 40; probe++ {
			from := int64(rng.Intn(1600)) - 50
			to := from + 1 + int64(rng.Intn(800))
			for _, lead := range []int64{0, 30, 1 << 40} {
				set := b.BlockedSet(from, to, lead, &scratch)
				for id := cluster.NodeID(-1); id <= nodes; id++ {
					want := nodeBlockedRef(offs, id, from, to, lead)
					if got := set.Has(id); got != want {
						t.Fatalf("round %d: BlockedSet(%d, %d, %d).Has(%d) = %v, want %v", round, from, to, lead, id, got, want)
					}
				}
			}
		}
	}
}

// A union must be written into the scratch, never into a window's own
// membership set.
func TestBlockedSetLeavesWindowSetsIntact(t *testing.T) {
	b := NewBook(testTopo)
	if _, err := b.AddSwitchOff(100, 200, []cluster.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddSwitchOff(150, 250, []cluster.NodeID{70}); err != nil {
		t.Fatal(err)
	}
	var scratch cluster.NodeSet
	if u := b.BlockedSet(160, 170, 0, &scratch); !u.Has(1) || !u.Has(70) {
		t.Fatalf("union = %v", u)
	}
	if one := b.BlockedSet(110, 120, 0, &scratch); !one.Has(1) || one.Has(70) {
		t.Errorf("first window's set after a union = %v", one)
	}
	if b.BlockedSet(0, 50, 0, &scratch) != nil {
		t.Error("no window blocks [0,50), want a nil set")
	}
}

func TestPhaseStable(t *testing.T) {
	type window struct{ start, end int64 }
	cases := []struct {
		name     string
		caps     []window
		offs     []window
		lead     int64
		t0, t1   int64
		wantHold bool
	}{
		{name: "empty book", t0: 0, t1: 1 << 40, wantHold: true},

		// One switch-off window [1000, 2000) with a 300 s lead: phases are
		// before the lead-in, lead-in, active, after.
		{name: "before the lead-in", offs: []window{{1000, 2000}}, lead: 300, t0: 0, t1: 699, wantHold: true},
		{name: "into the lead-in", offs: []window{{1000, 2000}}, lead: 300, t0: 699, t1: 700},
		{name: "inside the lead-in, time moved", offs: []window{{1000, 2000}}, lead: 300, t0: 700, t1: 701},
		{name: "inside the lead-in, same instant", offs: []window{{1000, 2000}}, lead: 300, t0: 850, t1: 850, wantHold: true},
		{name: "lead-in to active", offs: []window{{1000, 2000}}, lead: 300, t0: 999, t1: 1000},
		{name: "active", offs: []window{{1000, 2000}}, lead: 300, t0: 1000, t1: 1999, wantHold: true},
		{name: "active to after", offs: []window{{1000, 2000}}, lead: 300, t0: 1999, t1: 2000},
		{name: "after", offs: []window{{1000, 2000}}, lead: 300, t0: 2000, t1: 1 << 40, wantHold: true},
		{name: "across the whole window", offs: []window{{1000, 2000}}, lead: 300, t0: 0, t1: 5000},

		// Without a lead the lead-in phase is empty.
		{name: "no lead, up to the start", offs: []window{{1000, 2000}}, t0: 0, t1: 999, wantHold: true},
		{name: "no lead, onto the start", offs: []window{{1000, 2000}}, t0: 999, t1: 1000},
		{name: "no lead, active", offs: []window{{1000, 2000}}, t0: 1000, t1: 1500, wantHold: true},

		// A second window in another phase: both must hold.
		{name: "two windows, one moves", offs: []window{{1000, 2000}, {1500, 3000}}, t0: 1200, t1: 1500},
		{name: "two windows, neither moves", offs: []window{{1000, 2000}, {1500, 3000}}, t0: 1500, t1: 1999, wantHold: true},

		// Powercap windows: no start and no end in (t0, t1].
		{name: "cap ahead", caps: []window{{1000, 2000}}, t0: 0, t1: 999, wantHold: true},
		{name: "cap starts at t1", caps: []window{{1000, 2000}}, t0: 0, t1: 1000},
		{name: "cap started at t0", caps: []window{{1000, 2000}}, t0: 1000, t1: 1999, wantHold: true},
		{name: "cap ends at t1", caps: []window{{1000, 2000}}, t0: 1000, t1: 2000},
		{name: "cap ended at t0", caps: []window{{1000, 2000}}, t0: 2000, t1: 9000, wantHold: true},
		{name: "cap wholly inside", caps: []window{{1000, 2000}}, t0: 500, t1: 2500},
		{name: "same instant on a cap start", caps: []window{{1000, 2000}}, t0: 1000, t1: 1000, wantHold: true},
		{name: "same instant on a cap end", caps: []window{{1000, 2000}}, t0: 2000, t1: 2000, wantHold: true},
		{name: "open-ended cap, active", caps: []window{{1000, Horizon}}, t0: 1000, t1: 1 << 50, wantHold: true},
		{name: "open-ended cap, starting", caps: []window{{1000, Horizon}}, t0: 999, t1: 1 << 50},
		{name: "second cap starts under the first", caps: []window{{1000, 5000}, {3000, 4000}}, t0: 2000, t1: 3000},
		{name: "second cap ends under the first", caps: []window{{1000, 5000}, {3000, 4000}}, t0: 3000, t1: 4000},
		{name: "between the inner boundaries", caps: []window{{1000, 5000}, {3000, 4000}}, t0: 3000, t1: 3999, wantHold: true},

		// The lead applies to switch-off windows only.
		{name: "cap ignores the lead", caps: []window{{1000, 2000}}, lead: 300, t0: 600, t1: 900, wantHold: true},
	}
	for _, tc := range cases {
		b := NewBook(testTopo)
		for _, w := range tc.caps {
			mustCap(t, b, w.start, w.end, 500)
		}
		for _, w := range tc.offs {
			if _, err := b.AddSwitchOff(w.start, w.end, []cluster.NodeID{1}); err != nil {
				t.Fatal(err)
			}
		}
		if got := b.PhaseStable(tc.t0, tc.t1, tc.lead); got != tc.wantHold {
			t.Errorf("%s: PhaseStable(%d, %d, lead %d) = %v, want %v", tc.name, tc.t0, tc.t1, tc.lead, got, tc.wantHold)
		}
	}
}

// What PhaseStable promises, checked against the queries themselves on
// random books: between two instants it calls stable the active cap is
// the same, every span length is blocked on the same nodes, and the
// tightest future cap over a span has not loosened.
func TestPhaseStableMeansSameAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stable := 0
	for trial := 0; trial < 300; trial++ {
		b := NewBook(testTopo)
		for n := rng.Intn(3); n > 0; n-- {
			start := int64(rng.Intn(2000))
			end := start + 1 + int64(rng.Intn(1500))
			if rng.Intn(4) == 0 {
				end = Horizon
			}
			mustCap(t, b, start, end, power.Watts(100+rng.Intn(900)))
		}
		for n := rng.Intn(3); n > 0; n-- {
			start := int64(rng.Intn(2000))
			if _, err := b.AddSwitchOff(start, start+1+int64(rng.Intn(1500)), []cluster.NodeID{cluster.NodeID(rng.Intn(64))}); err != nil {
				t.Fatal(err)
			}
		}
		lead := int64(rng.Intn(3) * 200)
		var s0, s1 cluster.NodeSet
		for pair := 0; pair < 60; pair++ {
			t0 := int64(rng.Intn(4000))
			t1 := t0 + int64(rng.Intn(3)*rng.Intn(600))
			if !b.PhaseStable(t0, t1, lead) {
				continue
			}
			stable++
			if b.CapAt(t0) != b.CapAt(t1) {
				t.Fatalf("trial %d: stable over [%d, %d] but CapAt moved %v -> %v", trial, t0, t1, b.CapAt(t0), b.CapAt(t1))
			}
			for _, span := range []int64{1, 50, 700, 5000} {
				blocked0 := append(cluster.NodeSet(nil), b.BlockedSet(t0, t0+span, lead, &s0)...)
				blocked1 := b.BlockedSet(t1, t1+span, lead, &s1)
				for id := cluster.NodeID(0); id < 64; id++ {
					if blocked0.Has(id) != blocked1.Has(id) {
						t.Fatalf("trial %d: stable over [%d, %d] but node %d blocked %v -> %v for span %d",
							trial, t0, t1, id, blocked0.Has(id), blocked1.Has(id), span)
					}
				}
				f0, f1 := b.MinFutureCapOver(t0, t0+span, 900), b.MinFutureCapOver(t1, t1+span, 900)
				if f0.IsSet() && (!f1.IsSet() || f1.Watts() > f0.Watts()) {
					t.Fatalf("trial %d: stable over [%d, %d] but the future cap over span %d loosened %v -> %v", trial, t0, t1, span, f0, f1)
				}
			}
		}
	}
	if stable < 1000 {
		t.Fatalf("only %d stable pairs drawn: the property was barely exercised", stable)
	}
}

func TestGenerationCountsEveryMutation(t *testing.T) {
	b := NewBook(testTopo)
	gen := b.Generation()
	moved := func(what string) {
		t.Helper()
		if b.Generation() == gen {
			t.Errorf("%s left the generation at %d", what, gen)
		}
		gen = b.Generation()
	}
	idCap := mustCap(t, b, 0, 100, 500)
	moved("AddPowerCap")
	idOff, err := b.AddSwitchOff(0, 100, []cluster.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	moved("AddSwitchOff")
	if err := b.UpdateCap(idCap, power.CapWatts(300)); err != nil {
		t.Fatal(err)
	}
	moved("UpdateCap")
	b.Release(idOff)
	moved("Release")

	_ = b.UpdateCap(424242, power.CapWatts(100))
	b.Release(idOff)
	b.CapAt(50)
	b.PhaseStable(0, 50, 10)
	b.Held()
	b.Draining(1, 50)
	if b.Generation() != gen {
		t.Errorf("no-op calls and queries moved the generation %d -> %d", gen, b.Generation())
	}
}
