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
// Occupy over several nodes at the job's rung, a finish one Vacate of
// what the start took, each node's remaining frequency the highest rung
// among the jobs left on it, and the node-level calls go in between. It
// keeps the jobs it started, so a finish names what a start took.
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
		n := len(j.allocs)
		whole := kind%7 == 1
		if !whole {
			n = (n + 1) / 2 // a prefix of the job's nodes, the last one maybe in part
		}
		out := slices.Clone(j.allocs[:n])
		if last := &out[n-1]; !whole && last.Cores > 1 && cores%2 == 0 {
			last.Cores = 1 + int(cores)%(last.Cores-1)
		}
		// Take the cores off the job before pricing what is left.
		for i, a := range out {
			j.allocs[i].Cores -= a.Cores
		}
		j.allocs = slices.DeleteFunc(j.allocs, func(a Alloc) bool { return a.Cores == 0 })
		if len(j.allocs) == 0 {
			w.jobs = slices.Delete(w.jobs, k, k+1)
		}
		rem := make([]dvfs.Freq, len(out))
		for i, a := range out {
			rem[i] = w.rung(a.Node)
		}
		return c.Vacate(out, rem)
	case 3:
		if c.State(id) == StateIdle {
			return c.PowerOff(id)
		}
	case 4:
		if c.State(id) == StateOff {
			return c.PowerOn(id)
		}
	case 5:
		if c.State(id) == StateBusy {
			return c.SetFreq(id, fr)
		}
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

// rung is the highest rung among the jobs holding cores on node id.
func (w *wholeJobs) rung(id NodeID) dvfs.Freq {
	f := dvfs.Freq(0)
	for _, j := range w.jobs {
		for _, a := range j.allocs {
			if a.Node == id {
				f = max(f, j.f)
			}
		}
	}
	return f
}

// refused makes a multi-node call whose last entry is bad — after good
// entries, so a call that changed nodes before checking them all would
// show — and requires an error and an unchanged cluster.
func (w *wholeJobs) refused(t *testing.T, id NodeID, cores uint8, f dvfs.Freq) {
	t.Helper()
	c := w.c
	good := w.pick(id, cores, 0)
	var bad Alloc
	vacate := cores%2 == 0 && len(w.jobs) > 0
	if vacate {
		good = slices.Clone(w.jobs[int(id)%len(w.jobs)].allocs)
		bad = good[len(good)-1]
		good = good[:len(good)-1]
	}
	switch cores % 5 {
	case 0:
		bad = Alloc{Node: NodeID(c.Nodes()) + NodeID(cores), Cores: 1}
	case 1:
		bad.Cores = -int(cores % 2)
	case 2:
		if !vacate {
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
		if vacate && c.State(id) == StateBusy || !vacate && c.State(id) != StateOff {
			return
		}
	}
	before := snapshot(c)
	allocs := append(good, bad)
	var err error
	if vacate {
		err = c.Vacate(allocs, make([]dvfs.Freq, len(allocs)))
	} else {
		err = c.Occupy(allocs, f)
	}
	if err == nil {
		t.Fatalf("vacate=%v of %v accepted", vacate, allocs)
	}
	if after := snapshot(c); !after.equal(before) {
		t.Fatalf("vacate=%v of %v failed (%v) but changed the cluster:\n before %+v\n after  %+v", vacate, allocs, err, before, after)
	}
}

// checkHeld holds every node's used cores to the sum over the jobs the
// driver started.
func (w *wholeJobs) checkHeld(t *testing.T) {
	t.Helper()
	used := map[NodeID]int{}
	for _, j := range w.jobs {
		for _, a := range j.allocs {
			used[a.Node] += a.Cores
		}
	}
	w.c.ForEach(func(n NodeInfo) bool {
		if n.UsedCores != used[n.ID] {
			t.Errorf("node %d holds %d cores, the started jobs %d", n.ID, n.UsedCores, used[n.ID])
		}
		return true
	})
}

// clusterState is everything a caller can read off a cluster.
type clusterState struct {
	power         power.Watts
	counts        [3]int
	busyCores     int
	byFreq        map[dvfs.Freq]int
	partial, idle NodeSet
	gen           uint64
	nodes         []NodeInfo
}

func snapshot(c *Cluster) clusterState {
	s := clusterState{
		power:     c.Power(),
		busyCores: c.BusyCores(),
		byFreq:    c.CoresByFreq(),
		partial:   slices.Clone(c.PartialBusySet()),
		idle:      slices.Clone(c.IdleSet()),
		gen:       c.Generation(),
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
		s.gen == o.gen && slices.Equal(s.nodes, o.nodes)
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
// both candidate sets, the generation and every node — even when the bad
// entry comes after good ones; and the nodes a refused call checked can
// be named by the next call.
func TestWholeJobCallsAreAtomic(t *testing.T) {
	c := small() // 12 nodes of 4 cores
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Occupy([]Alloc{{Node: 0, Cores: 4}, {Node: 1, Cores: 2}}, dvfs.F2000))
	must(c.Occupy([]Alloc{{Node: 1, Cores: 1}, {Node: 2, Cores: 3}}, dvfs.F2700))
	must(c.PowerOff(5))
	cases := []struct {
		name      string
		vacate    bool
		allocs    []Alloc
		remaining []dvfs.Freq
	}{
		{"occupy an off node", false, []Alloc{{Node: 3, Cores: 4}, {Node: 5, Cores: 1}}, nil},
		{"occupy more cores than are free", false, []Alloc{{Node: 3, Cores: 4}, {Node: 1, Cores: 2}}, nil},
		{"occupy an out-of-range node", false, []Alloc{{Node: 3, Cores: 4}, {Node: 12, Cores: 1}}, nil},
		{"occupy a negative node", false, []Alloc{{Node: 3, Cores: 4}, {Node: -1, Cores: 1}}, nil},
		{"occupy zero cores", false, []Alloc{{Node: 3, Cores: 4}, {Node: 4, Cores: 0}}, nil},
		{"occupy negative cores", false, []Alloc{{Node: 3, Cores: 4}, {Node: 4, Cores: -2}}, nil},
		{"occupy a node twice", false, []Alloc{{Node: 3, Cores: 2}, {Node: 4, Cores: 1}, {Node: 3, Cores: 2}}, nil},
		{"vacate more cores than held", true, []Alloc{{Node: 0, Cores: 4}, {Node: 1, Cores: 4}}, []dvfs.Freq{0, 0}},
		{"vacate an idle node", true, []Alloc{{Node: 0, Cores: 4}, {Node: 3, Cores: 1}}, []dvfs.Freq{0, 0}},
		{"vacate an off node", true, []Alloc{{Node: 0, Cores: 4}, {Node: 5, Cores: 1}}, []dvfs.Freq{0, 0}},
		{"vacate an out-of-range node", true, []Alloc{{Node: 0, Cores: 4}, {Node: 99, Cores: 1}}, []dvfs.Freq{0, 0}},
		{"vacate zero cores", true, []Alloc{{Node: 0, Cores: 4}, {Node: 2, Cores: 0}}, []dvfs.Freq{0, 0}},
		{"vacate a node twice", true, []Alloc{{Node: 1, Cores: 1}, {Node: 0, Cores: 4}, {Node: 1, Cores: 2}}, []dvfs.Freq{0, 0, 0}},
		{"vacate without a frequency per node", true, []Alloc{{Node: 0, Cores: 4}, {Node: 2, Cores: 3}}, []dvfs.Freq{0}},
	}
	for _, tc := range cases {
		before := snapshot(c)
		var err error
		if tc.vacate {
			err = c.Vacate(tc.allocs, tc.remaining)
		} else {
			err = c.Occupy(tc.allocs, dvfs.F2400)
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if after := snapshot(c); !after.equal(before) {
			t.Errorf("%s: refused (%v) but changed the cluster:\n before %+v\n after  %+v", tc.name, err, before, after)
		}
	}
	// Nothing a refused call checked stays marked.
	must(c.Occupy([]Alloc{{Node: 3, Cores: 4}, {Node: 4, Cores: 1}}, dvfs.F2400))
	must(c.Vacate([]Alloc{{Node: 0, Cores: 4}, {Node: 1, Cores: 3}, {Node: 3, Cores: 4}}, []dvfs.Freq{0, 0, 0}))
	checkAggregatesBrute(t, c)
}
