package sched

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/job"
	"repro/internal/power"
)

// checkFrontier holds fr.Fit and fr.Take to allocateRef, the per-node
// reference, under the same filters, for each request size: found alike,
// Take's allocation equal to the reference's node for node and core for
// core, Fit's partly used nodes the reference's in the same order and
// its idle count theirs, and a counted power delta equal — as floats, at
// every ladder rung — to the one summed over all the allocated nodes.
func checkFrontier(t *testing.T, c *cluster.Cluster, fr *Frontier, blocked, prefer cluster.NodeSet, sizes []int) {
	t.Helper()
	var eligibleFn, preferFn func(cluster.NodeID) bool
	if blocked != nil {
		eligibleFn = func(id cluster.NodeID) bool { return !blocked.Has(id) }
	}
	if prefer != nil {
		preferFn = prefer.Has
	}
	var (
		dst   []job.Alloc
		nodes []cluster.NodeID
	)
	for _, cores := range sizes {
		want, wantFound := allocateRef(c, cores, eligibleFn, preferFn)
		allocs, found := fr.Take(cores, dst)
		dst = allocs[:0]
		partial, idle, ok := fr.Fit(cores)
		if ok != wantFound || found != wantFound {
			t.Fatalf("cores %d: Fit found = %v, Take %v, reference %v", cores, ok, found, wantFound)
		}
		if !wantFound {
			continue
		}
		if !slices.Equal(allocs, want) {
			t.Fatalf("cores %d: Take allocates %v, reference %v", cores, allocs, want)
		}
		var wantPartial []cluster.NodeID
		wantIdle := 0
		nodes = nodes[:0]
		for _, a := range want {
			nodes = append(nodes, a.Node)
			if c.State(a.Node) == cluster.StateIdle {
				wantIdle++
			} else {
				wantPartial = append(wantPartial, a.Node)
			}
		}
		if idle != wantIdle || !slices.Equal(partial, wantPartial) {
			t.Fatalf("cores %d: Fit takes partly used %v + %d idle, the reference %v + %d idle",
				cores, partial, idle, wantPartial, wantIdle)
		}
		for _, f := range dvfs.CurieLadder() {
			if got, want := c.OccupyDelta(partial, f)+c.IdleOccupyDelta(idle, f), c.OccupyDelta(nodes, f); got != want {
				t.Fatalf("cores %d at %v: counted delta %v, per-node delta %v", cores, f, got, want)
			}
		}
	}
}

// mutate applies one random effective mutation: a cluster one, which
// the generation must count, or what a reservation book does when a hold
// changes — the preferred set replaced by a copy with one node flipped.
func mutate(t *testing.T, rng *rand.Rand, c *cluster.Cluster, prefer *cluster.NodeSet) {
	t.Helper()
	id := cluster.NodeID(rng.Intn(c.Nodes()))
	per := c.Topology().CoresPerNode
	var err error
	switch free := c.FreeCores(id); {
	case rng.Intn(4) == 0:
		next := append(cluster.NodeSet(nil), *prefer...)
		if next.Has(id) {
			next.Remove(id)
		} else {
			next.Add(id)
		}
		*prefer = next
	case c.State(id) == cluster.StateOff:
		err = c.PowerOn(id)
	case c.State(id) == cluster.StateIdle && rng.Intn(2) == 0:
		err = c.PowerOff(id)
	case free > 0 && (free == per || rng.Intn(2) == 0):
		err = c.Occupy([]cluster.Alloc{{Node: id, Cores: 1 + rng.Intn(free)}}, dvfs.F2000)
	default:
		// A core of those the node holds at the rung it is charged at.
		var f dvfs.Freq
		c.ForEach(func(n cluster.NodeInfo) bool { f = n.Freq; return n.ID < id })
		err = c.Vacate([]cluster.Alloc{{Node: id, Cores: 1}}, f)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzFrontierMatchesAllocate is the differential test of the counting
// probe (Fit) and the allocation it materialises (Take) against the
// per-node reference allocator, over random machine states
// and filters (randomCluster, randomFilter: absent, full-length, shorter
// than the cluster). Small machines are checked at every request size,
// Curie at the small sizes and a random sample. It then mutates the
// cluster or replaces the held set it prefers, and requires the
// generation to move or the set to be new, and a Frontiers slot to come
// back equal to a frontier built from scratch.
func FuzzFrontierMatchesAllocate(f *testing.F) {
	for topo := range diffTopologies {
		f.Add(int64(topo+1), uint8(topo))
	}
	f.Fuzz(func(t *testing.T, seed int64, machine uint8) {
		topo := diffTopologies[int(machine)%len(diffTopologies)]
		rng := rand.New(rand.NewSource(seed))
		c, held := randomCluster(t, rng, topo)
		blocked, prefer := randomFilter(rng, topo.Nodes()), randomFilter(rng, topo.Nodes())

		var sizes []int
		if most := topo.Cores() + 1; most <= 4096 { // one more than the machine holds
			for cores := 0; cores <= most; cores++ {
				sizes = append(sizes, cores)
			}
		} else {
			for cores := 0; cores <= 2*topo.CoresPerNode+1; cores++ {
				sizes = append(sizes, cores)
			}
			for i := 0; i < 48; i++ {
				sizes = append(sizes, 1+rng.Intn(most))
			}
		}

		var fr Frontier
		fr.build(c, blocked, prefer)
		checkFrontier(t, c, &fr, blocked, prefer, sizes)

		// The cache: same state and same members (in another backing
		// array) reuse the slot; any counted mutation retires it.
		var fs Frontiers
		first := fs.For(c, blocked, held)
		if again := fs.For(c, append(cluster.NodeSet(nil), blocked...), held); again != first || fs.Builds() != 1 {
			t.Fatalf("unchanged cluster: %d builds, want the one frontier reused", fs.Builds())
		}
		for step := 0; step < 4; step++ {
			gen, before := c.Generation(), held
			mutate(t, rng, c, &held)
			if c.Generation() == gen && same(held, before) {
				t.Fatalf("mutation %d left the generation at %d and the held set in place", step, gen)
			}
			reused := fs.For(c, blocked, held)
			var fresh Frontier
			fresh.build(c, blocked, held)
			if reused.split != fresh.split || reused.idle != fresh.idle ||
				!slices.Equal(reused.ids, fresh.ids) || !slices.Equal(reused.cum, fresh.cum) {
				t.Fatalf("mutation %d: cached frontier %+v, fresh %+v", step, reused, fresh)
			}
		}
		checkFrontier(t, c, fs.For(c, blocked, held), blocked, held, sizes)
	})
}

// A reservation book replaces its held set instead of modifying it, so
// For keys the preferred set by identity: a new set rebuilds the
// frontier while the cluster generation stands, and the same set — or a
// copy of the blocked set — reuses it.
func TestFrontiersRebuildWhenPreferIsReplaced(t *testing.T) {
	c, err := cluster.New(diffTopologies[0], power.CurieProfile(), cluster.CurieOverhead())
	if err != nil {
		t.Fatal(err)
	}
	per := c.Topology().CoresPerNode
	takes := func(fr *Frontier) cluster.NodeID {
		t.Helper()
		allocs, ok := fr.Take(per, nil)
		if !ok || len(allocs) != 1 {
			t.Fatalf("one node's cores: %v, %v", allocs, ok)
		}
		return allocs[0].Node
	}
	var fs Frontiers
	gen := c.Generation()
	prefer := cluster.NewNodeSet(c.Nodes())
	if got := takes(fs.For(c, nil, prefer)); got != 0 {
		t.Fatalf("nothing preferred: first fit takes node %d, want 0", got)
	}
	replaced := cluster.NewNodeSet(c.Nodes())
	replaced.Add(100)
	if got := takes(fs.For(c, nil, replaced)); got != 100 || fs.Builds() != 2 {
		t.Fatalf("replaced preferred set: takes node %d after %d builds, want node 100 after 2", got, fs.Builds())
	}
	if got := takes(fs.For(c, cluster.NodeSet{}, replaced)); got != 100 || fs.Builds() != 2 {
		t.Fatalf("same preferred set: takes node %d after %d builds, want node 100 reused", got, fs.Builds())
	}
	if c.Generation() != gen {
		t.Fatal("probing moved the cluster generation")
	}
}
