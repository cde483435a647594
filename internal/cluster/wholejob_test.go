package cluster

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/power"
)

// simJob is one job a wholeJobs driver started: what it holds and its rung.
type simJob struct {
	allocs []Alloc
	f      dvfs.Freq
}

// wholeJobs drives a cluster the way a controller does: a start is one
// Occupy over several nodes at the job's rung, a re-clock one Reclock of
// the job from its rung to another, a finish one Vacate of what the job
// holds at its rung, and the node-level calls go in between. It keeps
// the jobs it started — each node's (cores, rung) entries — so a call
// names what a start took, and checkHeld holds the cluster to them.
type wholeJobs struct {
	c    *Cluster
	jobs []simJob
}

// step decodes one operation from four bytes and applies it, returning
// the error of a call that should have succeeded; a call built to fail
// (refused) must fail and leave the cluster as it was.
func (w *wholeJobs) step(t *testing.T, kind, node, cores, rung uint8) error {
	c := w.c
	id := NodeID(int(node) % c.Nodes())
	ladder := dvfs.CurieLadder()
	fr := ladder[int(rung)%len(ladder)]
	switch kind % 7 {
	case 0:
		if allocs := w.pick(id, cores, rung); len(allocs) > 0 {
			if err := c.Occupy(allocs, fr); err != nil {
				return err
			}
			w.jobs = append(w.jobs, simJob{allocs: allocs, f: fr})
		}
	case 1, 2:
		if len(w.jobs) == 0 {
			return nil
		}
		k := int(node) % len(w.jobs)
		j := &w.jobs[k]
		n, f := len(j.allocs), j.f
		whole := kind%7 == 1
		if !whole {
			n = (n + 1) / 2 // a prefix of the job's nodes, the last one maybe in part
		}
		out := slices.Clone(j.allocs[:n])
		if last := &out[n-1]; !whole && last.Cores > 1 && cores%2 == 0 {
			last.Cores = 1 + int(cores)%(last.Cores-1)
		}
		for i, a := range out {
			j.allocs[i].Cores -= a.Cores
		}
		j.allocs = slices.DeleteFunc(j.allocs, func(a Alloc) bool { return a.Cores == 0 })
		if len(j.allocs) == 0 {
			w.jobs = slices.Delete(w.jobs, k, k+1)
		}
		return c.Vacate(out, f)
	case 3:
		if c.State(id) == StateIdle {
			return c.PowerOff(id)
		}
	case 4:
		if c.State(id) == StateOff {
			return c.PowerOn(id)
		}
	case 5:
		if len(w.jobs) == 0 {
			return nil
		}
		j := &w.jobs[int(node)%len(w.jobs)]
		// ReclockDelta prices the move exactly and writes nothing.
		before, held := c.Power(), slices.Clone(c.held)
		d := c.ReclockDelta(j.allocs, j.f, fr)
		if !slices.Equal(held, c.held) {
			t.Errorf("ReclockDelta(%v, %v, %v) wrote the per-rung counts", j.allocs, j.f, fr)
		}
		if err := c.Reclock(j.allocs, j.f, fr); err != nil {
			return err
		}
		if got := c.Power() - before; got != d {
			t.Errorf("Reclock(%v, %v, %v) moved the draw by %v, ReclockDelta said %v", j.allocs, j.f, fr, got, d)
		}
		j.f = fr
	case 6:
		w.refused(t, id, cores, fr)
	}
	return nil
}

// pick chooses up to 1+cores%4 nodes for a start, walking from id with a
// stride drawn from rung: powered nodes with a free core, each taken
// whole or for part of what it has free, so a start mixes whole idle
// nodes, partly used ones and nodes shared with jobs at other rungs.
func (w *wholeJobs) pick(id NodeID, cores, rung uint8) []Alloc {
	c := w.c
	want, stride := 1+int(cores)%4, 1+int(rung)%3
	var allocs []Alloc
	for tries := 0; tries < c.Nodes() && len(allocs) < want; tries++ {
		id = (id + NodeID(stride)) % NodeID(c.Nodes())
		free := c.FreeCores(id)
		if free == 0 || slices.ContainsFunc(allocs, func(a Alloc) bool { return a.Node == id }) {
			continue
		}
		take := free
		if (int(cores)+tries)%3 == 0 {
			take = 1 + (int(cores)+tries)%free
		}
		allocs = append(allocs, Alloc{Node: id, Cores: take})
	}
	return allocs
}

// refused makes a multi-node Occupy, Vacate or Reclock whose last entry
// or frequency is bad — after good entries, so a call that changed nodes
// before checking them all would show — and requires an error and an
// unchanged cluster. A vacate or re-clock names one started job's nodes,
// and the frequency it holds them at unless that is what is bad.
func (w *wholeJobs) refused(t *testing.T, id NodeID, cores uint8, f dvfs.Freq) {
	t.Helper()
	c := w.c
	call := int(cores) % 3 // occupy, vacate, reclock
	good, held := w.pick(id, cores, 0), f
	var bad Alloc
	if call > 0 {
		if len(w.jobs) == 0 {
			return
		}
		j := w.jobs[int(id)%len(w.jobs)]
		good, held = slices.Clone(j.allocs), j.f
		bad = good[len(good)-1]
		good = good[:len(good)-1]
	}
	switch int(cores) / 3 % 7 {
	case 0:
		bad = Alloc{Node: NodeID(c.Nodes()) + NodeID(cores), Cores: 1}
	case 1:
		bad.Cores = -int(cores % 2)
	case 2:
		if call == 0 {
			bad = Alloc{Node: id, Cores: c.FreeCores(id)}
		}
		bad.Cores += c.Topology().CoresPerNode
	case 3:
		if len(good) == 0 {
			return
		}
		bad = good[0]
	case 4:
		bad = Alloc{Node: id, Cores: 1}
		if call > 0 && c.State(id) == StateBusy || call == 0 && c.State(id) != StateOff {
			return
		}
	case 5:
		if call == 0 {
			return
		}
		// A rung the node does not hold the entry's cores at.
		row := c.row(bad.Node)
		k := slices.IndexFunc(row, func(n uint8) bool { return int(n) < bad.Cores })
		if k < 0 {
			return
		}
		held = c.rungs[k]
	case 6:
		held = 1300 // between two rungs: Profile.Busy would interpolate it
	}
	before := snapshot(c)
	allocs := append(good, bad)
	var err error
	switch call {
	case 0:
		err = c.Occupy(allocs, held)
	case 1:
		err = c.Vacate(allocs, held)
	case 2:
		err = c.Reclock(allocs, held, f)
	}
	if err == nil {
		t.Fatalf("call %d of %v at %v accepted", call, allocs, held)
	}
	if after := snapshot(c); !after.equal(before) {
		t.Fatalf("call %d of %v at %v failed (%v) but changed the cluster:\n before %+v\n after  %+v", call, allocs, held, err, before, after)
	}
}

// checkHeld holds every node to the (cores, rung) entries of the jobs
// w started: its used cores are their sum, its per-rung counts
// their sums per rung, and a busy node is charged at the highest rung
// among them.
func (w *wholeJobs) checkHeld(t *testing.T) {
	t.Helper()
	c := w.c
	used, top := map[NodeID]int{}, map[NodeID]dvfs.Freq{}
	rows := make([]uint8, len(c.held))
	for _, j := range w.jobs {
		k, err := c.rungOf(j.f)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range j.allocs {
			used[a.Node] += a.Cores
			top[a.Node] = max(top[a.Node], j.f)
			rows[int(a.Node)*len(c.rungs)+k] += uint8(a.Cores)
		}
	}
	c.ForEach(func(n NodeInfo) bool {
		if n.UsedCores != used[n.ID] {
			t.Errorf("node %d holds %d cores, the started jobs %d", n.ID, n.UsedCores, used[n.ID])
		}
		if n.State == StateBusy && n.Freq != top[n.ID] {
			t.Errorf("node %d is charged at %v, the highest rung of its jobs is %v", n.ID, n.Freq, top[n.ID])
		}
		return true
	})
	if !slices.Equal(rows, c.held) {
		t.Errorf("per-rung core counts %v, the started jobs %v", c.held, rows)
	}
}

// clusterState is everything a caller can read off a cluster, and the
// per-rung core counts behind the nodes' frequencies.
type clusterState struct {
	power         power.Watts
	counts        [3]int
	busyCores     int
	byFreq        map[dvfs.Freq]int
	partial, idle NodeSet
	gen           uint64
	nodes         []NodeInfo
	held          []uint8
}

func snapshot(c *Cluster) clusterState {
	s := clusterState{
		power:     c.Power(),
		busyCores: c.BusyCores(),
		byFreq:    liveBars(c),
		partial:   slices.Clone(c.PartialBusySet()),
		idle:      slices.Clone(c.IdleSet()),
		gen:       c.Generation(),
		held:      slices.Clone(c.held),
	}
	for st := range s.counts {
		s.counts[st] = c.Count(NodeState(st))
	}
	c.ForEach(func(n NodeInfo) bool { s.nodes = append(s.nodes, n); return true })
	return s
}

func (s clusterState) equal(o clusterState) bool {
	return s.power == o.power && s.counts == o.counts && s.busyCores == o.busyCores &&
		maps.Equal(s.byFreq, o.byFreq) && s.partial.Equal(o.partial) && s.idle.Equal(o.idle) &&
		s.gen == o.gen && slices.Equal(s.nodes, o.nodes) && slices.Equal(s.held, o.held)
}

// wholeJobMachines are the machines FuzzClusterMatchesBrute draws: one
// word of nodes, two words, and Curie-sized nodes on an odd layout.
var wholeJobMachines = []Topology{
	{Racks: 2, ChassisPerRack: 2, NodesPerChassis: 3, CoresPerNode: 4},
	{Racks: 2, ChassisPerRack: 3, NodesPerChassis: 13, CoresPerNode: 4},
	{Racks: 3, ChassisPerRack: 3, NodesPerChassis: 7, CoresPerNode: 16},
}

// FuzzClusterMatchesBrute drives a cluster through up to 64 wholeJobs
// operations decoded four bytes at a time and recomputes every aggregate
// after each call (checkAggregatesBrute), plus each node's cores against
// the jobs started; the calls built to fail must leave the cluster
// untouched.
func FuzzClusterMatchesBrute(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 3, 7, 0, 5, 2, 1, 0, 9, 1, 4, 2, 0, 2, 0, 1, 0, 0, 0})
	f.Add(uint8(1), []byte{0, 10, 3, 0, 0, 40, 6, 5, 3, 7, 0, 0, 6, 3, 0, 0, 6, 2, 2, 2, 1, 1, 3, 3, 4, 7, 0, 0})
	f.Add(uint8(2), []byte{0, 1, 0, 2, 0, 2, 1, 6, 5, 2, 0, 3, 6, 1, 1, 0, 2, 0, 4, 1, 6, 4, 0, 0, 1, 0, 0, 0, 3, 8, 0, 0})
	f.Fuzz(func(t *testing.T, machine uint8, ops []byte) {
		c, err := New(wholeJobMachines[int(machine)%len(wholeJobMachines)], power.CurieProfile(), CurieOverhead())
		if err != nil {
			t.Fatal(err)
		}
		w := &wholeJobs{c: c}
		for i := 0; i+4 <= len(ops) && i < 4*64; i += 4 {
			if err := w.step(t, ops[i], ops[i+1], ops[i+2], ops[i+3]); err != nil {
				t.Fatalf("op %d %v: %v", i/4, ops[i:i+4], err)
			}
			checkAggregatesBrute(t, c)
			w.checkHeld(t)
			if t.Failed() {
				t.Fatalf("after op %d %v", i/4, ops[i:i+4])
			}
		}
	})
}

// Each way a whole-job call can be refused leaves everything a caller
// reads unchanged — the draw, the counts, the busy cores, the histogram,
// both candidate sets, the generation and every node — and the per-rung
// counts, even when the bad entry comes after good ones; and the nodes a
// refused call checked can be named by the next call.
func TestWholeJobCallsAreAtomic(t *testing.T) {
	c := small() // 12 nodes of 4 cores
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Node 0: 4 cores at 2.0 GHz; node 1: 2 at 2.0 and 1 at 2.7; node 2:
	// 3 at 2.7; node 5 off.
	must(c.Occupy([]Alloc{{Node: 0, Cores: 4}, {Node: 1, Cores: 2}}, dvfs.F2000))
	must(c.Occupy([]Alloc{{Node: 1, Cores: 1}, {Node: 2, Cores: 3}}, dvfs.F2700))
	must(c.PowerOff(5))
	const occupy, vacate, reclock = 0, 1, 2
	cases := []struct {
		name     string
		call     int
		allocs   []Alloc
		from, to dvfs.Freq // from is the frequency an occupy or vacate names
	}{
		{"occupy an off node", occupy, []Alloc{{Node: 3, Cores: 4}, {Node: 5, Cores: 1}}, dvfs.F2400, 0},
		{"occupy more cores than are free", occupy, []Alloc{{Node: 3, Cores: 4}, {Node: 1, Cores: 2}}, dvfs.F2400, 0},
		{"occupy an out-of-range node", occupy, []Alloc{{Node: 3, Cores: 4}, {Node: 12, Cores: 1}}, dvfs.F2400, 0},
		{"occupy a negative node", occupy, []Alloc{{Node: 3, Cores: 4}, {Node: -1, Cores: 1}}, dvfs.F2400, 0},
		{"occupy zero cores", occupy, []Alloc{{Node: 3, Cores: 4}, {Node: 4, Cores: 0}}, dvfs.F2400, 0},
		{"occupy negative cores", occupy, []Alloc{{Node: 3, Cores: 4}, {Node: 4, Cores: -2}}, dvfs.F2400, 0},
		{"occupy a node twice", occupy, []Alloc{{Node: 3, Cores: 2}, {Node: 4, Cores: 1}, {Node: 3, Cores: 2}}, dvfs.F2400, 0},
		{"occupy off the profile's rungs", occupy, []Alloc{{Node: 3, Cores: 4}}, 2500, 0},
		{"vacate more cores than held", vacate, []Alloc{{Node: 0, Cores: 4}, {Node: 1, Cores: 4}}, dvfs.F2000, 0},
		{"vacate more cores than held at the frequency", vacate, []Alloc{{Node: 0, Cores: 4}, {Node: 1, Cores: 3}}, dvfs.F2000, 0},
		{"vacate cores held at another frequency", vacate, []Alloc{{Node: 0, Cores: 4}, {Node: 2, Cores: 1}}, dvfs.F2000, 0},
		{"vacate an idle node", vacate, []Alloc{{Node: 0, Cores: 4}, {Node: 3, Cores: 1}}, dvfs.F2000, 0},
		{"vacate an off node", vacate, []Alloc{{Node: 0, Cores: 4}, {Node: 5, Cores: 1}}, dvfs.F2000, 0},
		{"vacate an out-of-range node", vacate, []Alloc{{Node: 0, Cores: 4}, {Node: 99, Cores: 1}}, dvfs.F2000, 0},
		{"vacate zero cores", vacate, []Alloc{{Node: 0, Cores: 4}, {Node: 1, Cores: 0}}, dvfs.F2000, 0},
		{"vacate a node twice", vacate, []Alloc{{Node: 1, Cores: 1}, {Node: 0, Cores: 4}, {Node: 1, Cores: 1}}, dvfs.F2000, 0},
		{"vacate off the profile's rungs", vacate, []Alloc{{Node: 0, Cores: 4}}, 2100, 0},
		{"re-clock cores held at another frequency", reclock, []Alloc{{Node: 0, Cores: 4}, {Node: 2, Cores: 3}}, dvfs.F2000, dvfs.F1200},
		{"re-clock more cores than held", reclock, []Alloc{{Node: 0, Cores: 4}, {Node: 1, Cores: 3}}, dvfs.F2000, dvfs.F1200},
		{"re-clock an idle node", reclock, []Alloc{{Node: 0, Cores: 4}, {Node: 3, Cores: 1}}, dvfs.F2000, dvfs.F1200},
		{"re-clock a node twice", reclock, []Alloc{{Node: 0, Cores: 2}, {Node: 1, Cores: 1}, {Node: 0, Cores: 2}}, dvfs.F2000, dvfs.F1200},
		{"re-clock from off the profile's rungs", reclock, []Alloc{{Node: 0, Cores: 4}}, 2100, dvfs.F1200},
		{"re-clock to off the profile's rungs", reclock, []Alloc{{Node: 0, Cores: 4}}, dvfs.F2000, 1300},
	}
	for _, tc := range cases {
		before := snapshot(c)
		var err error
		switch tc.call {
		case occupy:
			err = c.Occupy(tc.allocs, tc.from)
		case vacate:
			err = c.Vacate(tc.allocs, tc.from)
		case reclock:
			err = c.Reclock(tc.allocs, tc.from, tc.to)
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if after := snapshot(c); !after.equal(before) {
			t.Errorf("%s: refused (%v) but changed the cluster:\n before %+v\n after  %+v", tc.name, err, before, after)
		}
	}
	// Nothing a refused call checked stays marked, and a shared node
	// keeps the highest rung it still holds.
	must(c.Occupy([]Alloc{{Node: 3, Cores: 4}, {Node: 4, Cores: 1}}, dvfs.F2400))
	must(c.Vacate([]Alloc{{Node: 0, Cores: 4}, {Node: 1, Cores: 1}}, dvfs.F2000))
	if n := c.nodes[1]; n.freq != dvfs.F2700 || n.usedCores != 2 {
		t.Errorf("node 1 after a 2.0 GHz core left: %v with %d cores, want 2.7 GHz with 2", n.freq, n.usedCores)
	}
	must(c.Vacate([]Alloc{{Node: 1, Cores: 1}, {Node: 2, Cores: 3}}, dvfs.F2700))
	if n := c.nodes[1]; n.freq != dvfs.F2000 || n.usedCores != 1 {
		t.Errorf("node 1 after its 2.7 GHz core left: %v with %d cores, want 2.0 GHz with 1", n.freq, n.usedCores)
	}
	checkAggregatesBrute(t, c)
}
