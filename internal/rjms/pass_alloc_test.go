package rjms

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/power"
	"repro/internal/reservation"
	"repro/internal/trace"
)

// A successful probe's allocation lives in the controller's probe
// scratch; commit must take its own copy, or the next probe of the same
// pass rewrites the started job's allocation.
func TestCommittedAllocsSurviveLaterProbes(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyNone))
	jobs := []*job.Job{
		{ID: 1, User: "a", Cores: 8, Submit: 0, Runtime: 90, Walltime: 100},  // head: starts on nodes 0,1
		{ID: 2, User: "b", Cores: 48, Submit: 0, Runtime: 50, Walltime: 50},  // blocked: shadow at t=100
		{ID: 3, User: "c", Cores: 4, Submit: 0, Runtime: 500, Walltime: 500}, // probe succeeds (node 2), shadow refuses
		{ID: 4, User: "d", Cores: 4, Submit: 0, Runtime: 20, Walltime: 50},   // backfills on node 2
		{ID: 5, User: "e", Cores: 12, Submit: 0, Runtime: 500, Walltime: 500},
	}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(1000); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(0); err != nil {
		t.Fatal(err)
	}
	if len(c.running) != 2 || c.running[1] == nil || c.running[4] == nil {
		t.Fatalf("running = %v, want jobs 1 and 4", c.running)
	}
	if got, want := c.running[1].Allocs, []job.Alloc{{Node: 0, Cores: 4}, {Node: 1, Cores: 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("job 1 allocs = %v after later probes, want %v", got, want)
	}
	if got, want := c.running[4].Allocs, []job.Alloc{{Node: 2, Cores: 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("job 4 allocs = %v, want %v", got, want)
	}
}

// backlogged builds a 180-node SHUT controller at t=10 whose pass probes
// a backlog of more than 150 jobs and starts none of them:
//
//   - an active cap (its group already off) tightened to 300 W of
//     headroom — one more node fits, two do not;
//   - two switch-off groups inside their lead-in (blocked for any job
//     reaching their windows; the probe sees their union) and one far
//     ahead (reserved, so preferred, but not blocking);
//   - one long job running on all but five of the nodes it may use;
//   - pending: a head wanting every powered core (sets the shadow at the
//     running job's end), a job the free-core bound admits but the
//     unblocked nodes cannot hold, a two-node job the cap refuses, and
//     150 one-node jobs whose probes succeed and then lose to the shadow.
func backlogged(t *testing.T) (c *Controller, capID int, wide, hot, narrow *job.Job) {
	t.Helper()
	c = mustNew(t, Config{
		Topology: cluster.Topology{Racks: 2, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16},
		Policy:   core.PolicyShut,
		Options:  Options{BackfillDepth: 256, ReservationLeadSec: 100},
	})
	max := c.clus.MaxPower()
	capID, _, err := c.ReservePowerCapID(0, reservation.Horizon, power.CapFraction(0.9, max))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ start, end int64 }{{50, 5000}, {60, 7000}, {3000, 6000}} {
		if _, err := c.ReservePowerCap(w.start, w.end, power.CapFraction(0.85, max)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Start(100000); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(0); err != nil { // the active window's group powers off
		t.Fatal(err)
	}
	const longWall = 20000
	usable := 0
	c.clus.ForEach(func(n cluster.NodeInfo) bool {
		if n.State == cluster.StateIdle && !c.book.NodeBlocked(n.ID, 1, 1+longWall, c.cfg.ReservationLeadSec) {
			usable++
		}
		return true
	})
	per := c.cfg.Topology.CoresPerNode
	if err := c.LoadWorkload([]*job.Job{{ID: 1, User: "r", Cores: (usable - 5) * per, Submit: 1, Runtime: longWall, Walltime: longWall}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(2); err != nil {
		t.Fatal(err)
	}
	if err := c.AdjustPowerCap(capID, power.CapWatts(c.clus.Power()+300)); err != nil {
		t.Fatal(err)
	}
	powered := c.clus.Cores() - c.clus.Count(cluster.StateOff)*per
	backlog := []*job.Job{
		{ID: 2, User: "h", Cores: powered, Submit: 3, Runtime: 10, Walltime: 10},
		{ID: 3, User: "w", Cores: 6 * per, Submit: 3, Runtime: longWall, Walltime: 2 * longWall},
		{ID: 4, User: "p", Cores: 2 * per, Submit: 3, Runtime: longWall, Walltime: 2 * longWall},
	}
	for i := 0; i < 150; i++ {
		backlog = append(backlog, &job.Job{ID: job.ID(10 + i), User: "s", Cores: per, Submit: 3, Runtime: longWall, Walltime: 2 * longWall})
	}
	if err := c.LoadWorkload(backlog); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(10); err != nil {
		t.Fatal(err)
	}
	if len(c.running) != 1 || len(c.pending) != len(backlog) {
		t.Fatalf("%d running, %d pending; want 1 and %d", len(c.running), len(c.pending), len(backlog))
	}
	return c, capID, c.pending[1], c.pending[2], c.pending[3]
}

func TestRefusedProbesAllocateNothing(t *testing.T) {
	c, _, wide, hot, narrow := backlogged(t)
	const now = 10

	// The backlog really holds one refusal of each kind.
	if _, ok, allocFail := c.plan(wide, now); ok || !allocFail || wide.Cores > c.freeCoresUpperBound() {
		t.Fatalf("wide job: ok=%v allocFail=%v, want an allocation failure past the free-core bound", ok, allocFail)
	}
	if _, ok, allocFail := c.plan(hot, now); ok || allocFail {
		t.Fatalf("two-node job: ok=%v allocFail=%v, want a power refusal", ok, allocFail)
	}
	if _, ok, _ := c.plan(narrow, now); !ok {
		t.Fatal("one-node job: probe failed, want a success the shadow check then refuses")
	}
	var scratch cluster.NodeSet
	if c.book.BlockedSet(now, now+narrow.Walltime, c.cfg.ReservationLeadSec, &scratch); scratch == nil {
		t.Fatal("probe eligibility is a single window's set, want a union of two")
	}
	if c.clus.ReservedCount() <= c.clus.Count(cluster.StateOff) {
		t.Fatal("no reserved node is still powered: the preference set is idle")
	}

	passes, pending := c.statPasses, len(c.pending)
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() {
		c.invalidatePassMemo() // otherwise only the first pass runs its body
		c.pass(now)
	})
	if c.statPasses != passes+runs+1 {
		t.Fatalf("%d pass bodies ran, want %d", c.statPasses-passes, runs+1)
	}
	if len(c.running) != 1 || len(c.pending) != pending {
		t.Fatalf("the pass started something: %d running, %d pending", len(c.running), len(c.pending))
	}
	if allocs != 0 {
		t.Errorf("a pass of %d refused probes allocates %v times, want 0", pending, allocs)
	}
}

func TestPassAllocationsScaleWithStartsNotProbes(t *testing.T) {
	c, capID, _, _, _ := backlogged(t)
	const now = 10
	if err := c.AdjustPowerCap(capID, power.CapWatts(c.clus.MaxPower())); err != nil { // room for the starts
		t.Fatal(err)
	}
	// Each run queues k short jobs behind the backlog. They end before
	// the lead-in windows open, so the blocked idle groups take them.
	const k, runs = 4, 5
	per := c.cfg.Topology.CoresPerNode
	fresh := make([]*job.Job, 0, k*(runs+1))
	for i := 0; i < cap(fresh); i++ {
		fresh = append(fresh, &job.Job{ID: job.ID(1000 + i), User: "k", Cores: per, Submit: now, Runtime: 20, Walltime: 30})
	}
	probes, running := len(c.pending), len(c.running)
	allocs := testing.AllocsPerRun(runs, func() {
		for _, j := range fresh[:k] {
			c.submit(j, now)
		}
		fresh = fresh[k:]
		c.pass(now)
	})
	if got := len(c.running) - running; got != k*(runs+1) {
		t.Fatalf("%d jobs started, want %d", got, k*(runs+1))
	}
	if len(c.pending) != probes {
		t.Fatalf("backlog moved: %d pending, want %d", len(c.pending), probes)
	}
	// A start copies its allocation, binds an end event and enters a few
	// tables — a small constant (3.5 objects measured). Paying per probe
	// would cost at least one object for each of the refused ones.
	if limit := float64(6 * k); allocs > limit || limit >= float64(probes) {
		t.Errorf("a pass starting %d jobs over %d probes allocates %v times, want at most %v", k, probes, allocs, limit)
	}
}

// TestSchedulePassAllocCeiling bounds what one whole capped replay
// allocates — root BenchmarkSchedulePass's scenario (5 h medianjob,
// seed 3, 4 racks, SHUT at a 50 % cap over the middle hour), workload
// generation included as there. 105 547 objects before the probes
// stopped copying, 21 478 after, 17 572 once submissions were always
// streamed; the ceiling keeps the diet from regressing silently.
func TestSchedulePassAllocCeiling(t *testing.T) {
	const ceiling = 19000
	topo := cluster.CurieTopology()
	topo.Racks = 4
	wl := trace.Config{Kind: trace.MedianJob, Seed: 3, Cores: topo.Cores()}
	dur := wl.Kind.Duration()
	allocs := testing.AllocsPerRun(1, func() {
		jobs, err := trace.Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		c := mustNew(t, Config{Topology: topo, Policy: core.PolicyShut})
		if err := c.LoadWorkload(jobs); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReservePowerCap((dur-3600)/2, (dur+3600)/2, power.CapFraction(0.5, c.clus.MaxPower())); err != nil {
			t.Fatal(err)
		}
		sum, err := c.Run(dur)
		if err != nil || sum.JobsCompleted == 0 {
			t.Fatalf("replay completed %d jobs, err %v", sum.JobsCompleted, err)
		}
	})
	t.Logf("one capped replay allocates %.0f objects (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("one capped replay allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}
