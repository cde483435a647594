package sched

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/job"
	"repro/internal/power"
)

func testCluster() *cluster.Cluster {
	topo := cluster.Topology{Racks: 1, ChassisPerRack: 2, NodesPerChassis: 3, CoresPerNode: 4}
	c, err := cluster.New(topo, power.CurieProfile(), cluster.CurieOverhead())
	if err != nil {
		panic(err)
	}
	return c
}

// allocate is first fit without a preference, taken off a fresh
// frontier into a fresh slice; nil when the request cannot be satisfied.
func allocate(c *cluster.Cluster, cores int, blocked cluster.NodeSet) []job.Alloc {
	var fr Frontier
	fr.build(c, blocked, nil)
	allocs, found := fr.Take(cores, nil)
	if !found {
		return nil
	}
	return allocs
}

func TestAllocateIdleNodes(t *testing.T) {
	c := testCluster()
	allocs := allocate(c, 6, nil)
	if allocs == nil {
		t.Fatal("allocation failed on an empty cluster")
	}
	total := 0
	for _, a := range allocs {
		total += a.Cores
	}
	if total != 6 {
		t.Errorf("allocated %d cores, want 6", total)
	}
	// Deterministic: lowest IDs first.
	if allocs[0].Node != 0 || allocs[0].Cores != 4 || allocs[1].Node != 1 || allocs[1].Cores != 2 {
		t.Errorf("allocation = %+v", allocs)
	}
}

func TestAllocatePrefersPartiallyUsed(t *testing.T) {
	c := testCluster()
	// Node 3 has 2 cores busy, 2 free.
	if err := c.Occupy([]cluster.Alloc{{Node: 3, Cores: 2}}, dvfs.F2700); err != nil {
		t.Fatal(err)
	}
	allocs := allocate(c, 2, nil)
	if len(allocs) != 1 || allocs[0].Node != 3 {
		t.Errorf("allocation should fill the busy node first: %+v", allocs)
	}
}

func TestAllocateSkipsIneligibleAndOff(t *testing.T) {
	c := testCluster()
	if err := c.PowerOff(0); err != nil {
		t.Fatal(err)
	}
	allocs := allocate(c, 4, cluster.NodeSetOf([]cluster.NodeID{1}))
	if allocs == nil {
		t.Fatal("allocation failed")
	}
	for _, a := range allocs {
		if a.Node == 0 || a.Node == 1 {
			t.Errorf("allocated forbidden node %d", a.Node)
		}
	}
}

func TestAllocateInsufficient(t *testing.T) {
	c := testCluster() // 24 cores total
	if got := allocate(c, 25, nil); got != nil {
		t.Errorf("oversized request satisfied: %+v", got)
	}
	if got := allocate(c, 0, nil); got != nil {
		t.Errorf("zero request returned %+v", got)
	}
}

func TestAllocateExactFit(t *testing.T) {
	c := testCluster()
	got := allocate(c, 24, nil)
	if got == nil {
		t.Fatal("whole-machine allocation failed")
	}
	if len(got) != 6 {
		t.Errorf("allocation spans %d nodes, want 6", len(got))
	}
}

// shadowTime is ShadowTimeSorted for a running view in any order: it
// sorts a copy, so the caller's slice is left alone.
func shadowTime(running []RunningJob, freeNow, need int, now int64) (int64, bool) {
	rs := append([]RunningJob(nil), running...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].ExpectedEnd < rs[j].ExpectedEnd })
	return ShadowTimeSorted(rs, freeNow, need, now)
}

func TestShadowTime(t *testing.T) {
	running := []RunningJob{
		{Cores: 10, ExpectedEnd: 300},
		{Cores: 5, ExpectedEnd: 100},
		{Cores: 5, ExpectedEnd: 200},
	}
	// Need 12, have 4 free: after t=100 we have 9, after t=200 we have 14.
	at, ok := shadowTime(running, 4, 12, 50)
	if !ok || at != 200 {
		t.Errorf("ShadowTime = %d,%v want 200,true", at, ok)
	}
	// Fits immediately.
	at, ok = shadowTime(running, 20, 12, 50)
	if !ok || at != 50 {
		t.Errorf("immediate ShadowTime = %d,%v", at, ok)
	}
	// Never fits.
	if _, ok := shadowTime(running, 4, 100, 50); ok {
		t.Error("impossible demand reported satisfiable")
	}
	// Expected end in the past clamps to now.
	at, ok = shadowTime([]RunningJob{{Cores: 10, ExpectedEnd: 10}}, 0, 5, 50)
	if !ok || at != 50 {
		t.Errorf("past-end ShadowTime = %d,%v want 50,true", at, ok)
	}
}

func TestFreeCoresAt(t *testing.T) {
	running := []RunningJob{
		{Cores: 10, ExpectedEnd: 300},
		{Cores: 5, ExpectedEnd: 100},
	}
	if got := FreeCoresAt(running, 2, 99); got != 2 {
		t.Errorf("FreeCoresAt(99) = %d", got)
	}
	if got := FreeCoresAt(running, 2, 100); got != 7 {
		t.Errorf("FreeCoresAt(100) = %d", got)
	}
	if got := FreeCoresAt(running, 2, 1000); got != 17 {
		t.Errorf("FreeCoresAt(1000) = %d", got)
	}
}

// Property: ShadowTime is the earliest feasible instant — one second
// earlier the cores are insufficient (when the shadow lies after now).
func TestShadowTimeEarliest(t *testing.T) {
	f := func(cores []uint8, ends []uint16, freeNow, need uint8) bool {
		n := len(cores)
		if len(ends) < n {
			n = len(ends)
		}
		running := make([]RunningJob, 0, n)
		for i := 0; i < n; i++ {
			running = append(running, RunningJob{
				Cores:       int(cores[i]%32) + 1,
				ExpectedEnd: int64(ends[i]),
			})
		}
		now := int64(10)
		at, ok := shadowTime(running, int(freeNow%16), int(need%64)+1, now)
		if !ok {
			// Verify it truly never fits.
			return FreeCoresAt(running, int(freeNow%16), math.MaxInt64/2) < int(need%64)+1
		}
		if at < now {
			return false
		}
		if FreeCoresAt(running, int(freeNow%16), at) < int(need%64)+1 {
			return false
		}
		if at > now {
			return FreeCoresAt(running, int(freeNow%16), at-1) < int(need%64)+1
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: allocations never exceed node capacity and sum exactly to the
// request.
func TestAllocateProperty(t *testing.T) {
	f := func(busy [6]uint8, req uint8) bool {
		c := testCluster()
		for i, b := range busy {
			n := int(b) % 5
			if n > 0 {
				if err := c.Occupy([]cluster.Alloc{{Node: cluster.NodeID(i), Cores: n}}, dvfs.F2700); err != nil {
					return false
				}
			}
		}
		need := int(req)%30 + 1
		allocs := allocate(c, need, nil)
		free := c.Cores() - c.BusyCores() // no node is off
		if allocs == nil {
			return need > free
		}
		sum := 0
		seen := map[cluster.NodeID]bool{}
		for _, a := range allocs {
			if a.Cores <= 0 || a.Cores > c.FreeCores(a.Node) || seen[a.Node] {
				return false
			}
			seen[a.Node] = true
			sum += a.Cores
		}
		return sum == need
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
