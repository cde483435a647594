package rjms

import (
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/job"
	"repro/internal/power"
	"repro/internal/reservation"
	"repro/internal/trace"
)

// Probes build no allocation; commit builds the one the probe counted,
// straight into a slice the started job's run keeps until it finishes — sized to
// the power-of-two class of its node count, out of reach of every later
// probe, and untouched when another job's finish hands its own slice to a
// later start.
func TestCommittedAllocsSurviveLaterProbes(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyNone))
	jobs := []*job.Job{
		{ID: 1, User: "a", Cores: 12, Submit: 0, Runtime: 90, Walltime: 100}, // head: starts on nodes 0,1,2
		{ID: 2, User: "b", Cores: 48, Submit: 0, Runtime: 50, Walltime: 50},  // blocked: shadow at t=100
		{ID: 3, User: "c", Cores: 4, Submit: 0, Runtime: 500, Walltime: 500}, // probe succeeds (node 3), shadow refuses
		{ID: 4, User: "d", Cores: 4, Submit: 0, Runtime: 20, Walltime: 50},   // backfills on node 3
		{ID: 5, User: "e", Cores: 12, Submit: 0, Runtime: 500, Walltime: 500},
		{ID: 6, User: "f", Cores: 4, Submit: 30, Runtime: 20, Walltime: 50}, // backfills on node 3 once job 4 is gone
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
	if len(c.running) != 2 || c.runOf(1) == nil || c.runOf(4) == nil {
		t.Fatalf("running = %v, want jobs 1 and 4", c.running)
	}
	check := func(when string, want map[job.ID][]job.Alloc) {
		t.Helper()
		for id, allocs := range want {
			got := c.runOf(id).allocs
			if !reflect.DeepEqual(got, allocs) {
				t.Errorf("%s: job %d allocs = %v, want %v", when, id, got, allocs)
			}
			if class := 1 << bits.Len(uint(len(got)-1)); cap(got) != class {
				t.Errorf("%s: job %d allocs have len %d in cap %d, want the class capacity %d", when, id, len(got), cap(got), class)
			}
		}
	}
	head := []job.Alloc{{Node: 0, Cores: 4}, {Node: 1, Cores: 4}, {Node: 2, Cores: 4}}
	started := map[job.ID][]job.Alloc{1: head, 4: {{Node: 3, Cores: 4}}}
	check("after the pass", started)
	for _, j := range c.pending {
		c.plan(j, 0)
	}
	c.memo = passMemo{}
	c.pass(0)
	check("after later probes", started)
	if a, b := c.runOf(1).allocs, c.runOf(4).allocs; &a[0] == &b[0] {
		t.Error("two started jobs share one allocation array")
	}

	// Job 4 ends at t=20; job 6 arrives at t=30 and takes over its node —
	// and its slice.
	freed := &c.runOf(4).allocs[0]
	if err := c.Advance(30); err != nil {
		t.Fatal(err)
	}
	if len(c.running) != 2 || c.runOf(6) == nil {
		t.Fatalf("running = %v, want jobs 1 and 6", c.running)
	}
	check("after a finish and a later start", map[job.ID][]job.Alloc{1: head, 6: {{Node: 3, Cores: 4}}})
	if &c.runOf(6).allocs[0] != freed {
		t.Error("the later start did not reuse the slice the finished job gave back")
	}
}

// freeAllocs lists the backing arrays on the controller's free list.
func freeAllocs(c *Controller) []*job.Alloc {
	var out []*job.Alloc
	for _, bucket := range c.allocFree {
		for _, s := range bucket {
			out = append(out, &s[:1][0])
		}
	}
	return out
}

// A job's allocation is valid while it runs and recycled when it ends:
// once the free list is warm no start allocates a slice, the slot of a
// finished or killed job's run keeps none, and no two running jobs ever
// share one.
func TestStartFinishRecyclesAllocs(t *testing.T) {
	t.Run("steady stream", func(t *testing.T) {
		c := mustNew(t, tinyConfig(core.PolicyNone))
		if err := c.Start(1 << 20); err != nil {
			t.Fatal(err)
		}
		// Each cycle runs three 3-node jobs side by side and drains them;
		// once warm is set, every start must come off the free list.
		var warm map[*job.Alloc]bool
		var last []*job.Job
		nextID := job.ID(1)
		cycle := func() {
			now := c.eng.Now()
			last = last[:0]
			for i := 0; i < 3; i++ {
				j := &job.Job{ID: nextID, User: "u", Cores: 12, Submit: now, Runtime: 10, Walltime: 10}
				nextID++
				last = append(last, j)
				c.submit(j, now)
			}
			c.pass(now)
			for _, j := range last {
				if r := c.runOf(j.ID); r == nil || len(r.allocs) != 3 {
					t.Fatalf("job %d is not running on 3 nodes", j.ID)
				} else if warm != nil && !warm[&r.allocs[0]] {
					t.Fatalf("job %d did not start on a recycled slice", j.ID)
				}
			}
			if err := c.Advance(now + 10); err != nil {
				t.Fatal(err)
			}
			if len(c.running) != 0 {
				t.Fatalf("%d jobs still running after their end", len(c.running))
			}
			noFreeSlotAllocs(t, c)
		}
		cycle() // three class-4 slices end up on the free list
		warm = map[*job.Alloc]bool{}
		for _, p := range freeAllocs(c) {
			warm[p] = true
		}
		if len(warm) != 3 {
			t.Fatalf("%d slices on the free list after the warm-up, want 3", len(warm))
		}
		const runs = 20
		perCycle := testing.AllocsPerRun(runs, cycle)
		after := freeAllocs(c)
		if len(after) != len(warm) {
			t.Errorf("%d slices on the free list after %d cycles, want the %d of the warm-up", len(after), runs+1, len(warm))
		}
		for _, p := range after {
			if !warm[p] {
				t.Error("a slice allocated after the warm-up is on the free list")
			}
		}
		// What a start/finish still allocates is the job record this test
		// builds; a slice per start would make it three objects a job.
		t.Logf("a cycle of 3 jobs allocates %v objects", perCycle)
		if perCycle >= 3*3 {
			t.Errorf("a cycle of 3 jobs allocates %v objects, want fewer than %d", perCycle, 3*3)
		}
	})

	t.Run("capped replay", func(t *testing.T) {
		topo := cluster.CurieTopology()
		topo.Racks = 4
		wl := trace.Config{Kind: trace.MedianJob, Seed: 3, Cores: topo.Cores()}
		dur := wl.Kind.Duration()
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
		owner := map[*job.Alloc]job.ID{} // last job seen on each backing array
		samples, reused, most := 0, 0, 0
		c.AddObserver(func(now int64) {
			samples++
			if len(c.running) > most {
				most = len(c.running)
			}
			seen := map[*job.Alloc]job.ID{}
			perNode := make([]int, topo.Nodes())
			for id, k := range c.running {
				r := c.slot(k)
				p := &r.allocs[0]
				if other, dup := seen[p]; dup {
					t.Errorf("t=%d: running jobs %d and %d share one allocation array", now, id, other)
				}
				seen[p] = id
				if prev, ok := owner[p]; ok && prev != id {
					reused++
				}
				owner[p] = id
				for _, a := range r.allocs {
					perNode[a.Node] += a.Cores
				}
			}
			c.clus.ForEach(func(n cluster.NodeInfo) bool {
				if perNode[n.ID] != n.UsedCores {
					t.Errorf("t=%d: node %d books %d cores, running jobs hold %d", now, n.ID, n.UsedCores, perNode[n.ID])
				}
				return !t.Failed()
			})
		})
		sum, err := runTo(c, dur)
		if err != nil || sum.JobsCompleted == 0 {
			t.Fatalf("replay completed %d jobs, err %v", sum.JobsCompleted, err)
		}
		t.Logf("%d samples, at most %d jobs running, %d sightings of a slice under a new job, %d slices retained",
			samples, most, reused, len(freeAllocs(c))+len(c.running))
		if samples < 100 || most < 2 || reused == 0 {
			t.Errorf("%d samples, at most %d running, %d reuses: the replay does not exercise recycling", samples, most, reused)
		}
	})

	t.Run("failed node", func(t *testing.T) {
		c := mustNew(t, tinyConfig(core.PolicyNone))
		if err := c.Start(1000); err != nil {
			t.Fatal(err)
		}
		victims := []*job.Job{
			{ID: 1, User: "a", Cores: 2, Submit: 0, Runtime: 500, Walltime: 500}, // node 0
			{ID: 2, User: "b", Cores: 6, Submit: 0, Runtime: 500, Walltime: 500}, // nodes 0, 1
		}
		bystander := &job.Job{ID: 3, User: "c", Cores: 8, Submit: 0, Runtime: 500, Walltime: 500} // nodes 1..3
		for _, j := range append(victims, bystander) {
			c.submit(j, 0)
		}
		c.pass(0)
		if len(c.running) != 3 || len(freeAllocs(c)) != 0 {
			t.Fatalf("%d running, %d free slices; want 3 and 0", len(c.running), len(freeAllocs(c)))
		}
		held := map[*job.Alloc]bool{&c.runOf(1).allocs[0]: true, &c.runOf(2).allocs[0]: true}
		kept := append([]job.Alloc(nil), c.runOf(3).allocs...)
		if err := c.FailNode(0); err != nil {
			t.Fatal(err)
		}
		for _, j := range victims {
			if c.runOf(j.ID) != nil {
				t.Errorf("victim %d still runs", j.ID)
			}
		}
		noFreeSlotAllocs(t, c)
		free := freeAllocs(c)
		if len(free) != len(victims) {
			t.Errorf("%d slices on the free list, want one per victim (%d)", len(free), len(victims))
		}
		for _, p := range free {
			if !held[p] {
				t.Error("a slice on the free list is no victim's, or one victim's is there twice")
			}
			delete(held, p)
		}
		if len(c.pending) != len(victims) {
			t.Fatalf("%d jobs requeued, want %d", len(c.pending), len(victims))
		}
		for i, j := range c.pending {
			v := victims[i]
			want := job.Job{ID: job.ID(requeueIDBase + int64(i) + 1), User: v.User, Cores: v.Cores, Submit: 0, Runtime: v.Runtime, Walltime: v.Walltime}
			if *j != want {
				t.Errorf("requeued request %+v, want %+v", *j, want)
			}
		}
		if r := c.runOf(3); r == nil || !reflect.DeepEqual(r.allocs, kept) {
			t.Errorf("bystander is not running on %v", kept)
		}
	})
}

// noFreeSlotAllocs fails when a free slot of the running table still
// holds a job or an allocation.
func noFreeSlotAllocs(t *testing.T, c *Controller) {
	t.Helper()
	busy := map[int]bool{}
	for _, k := range c.running {
		busy[k] = true
	}
	for k := 0; k < c.nRuns; k++ {
		if r := c.slot(k); !busy[k] && (r.j != nil || r.allocs != nil) {
			t.Fatalf("free slot %d holds job %v and allocation %v", k, r.j, r.allocs)
		}
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
//     running job's end); behind it, all crossing the shadow, a job the
//     free-core bound admits but the unblocked nodes cannot hold, a
//     two-node job the cap refuses, and 150 one-node jobs whose probes
//     succeed; last, a short job one core narrower than the head. The
//     shadow refuses the 152 long ones unprobed, but not the last: the
//     pass plans the 152 before it, then prunes it.
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
	var scratch cluster.NodeSet
	blocked := c.book.BlockedSet(1, 1+longWall, c.cfg.ReservationLeadSec, &scratch)
	c.clus.ForEach(func(n cluster.NodeInfo) bool {
		if n.State == cluster.StateIdle && !blocked.Has(n.ID) {
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
	backlog = append(backlog, &job.Job{ID: 200, User: "t", Cores: powered - 1, Submit: 3, Runtime: 10, Walltime: 10})
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
	fits := func(j *job.Job) bool {
		held, _ := c.book.Held()
		_, _, found := c.frontiers.For(c.clus, c.blockedFor(j, now), held).Fit(j.Cores)
		return found
	}
	if _, ok := c.plan(wide, now); ok || fits(wide) || wide.Cores > c.freeCoresUpperBound() {
		t.Fatalf("wide job: ok=%v fits=%v, want an allocation failure past the free-core bound", ok, fits(wide))
	}
	if _, ok := c.plan(hot, now); ok || !fits(hot) {
		t.Fatalf("two-node job: ok=%v fits=%v, want a power refusal", ok, fits(hot))
	}
	if _, ok := c.plan(narrow, now); !ok {
		t.Fatal("one-node job: probe failed, want a success (the shadow refuses it; the pass plans it only for pruning)")
	}
	var scratch cluster.NodeSet
	if c.book.BlockedSet(now, now+narrow.Walltime, c.cfg.ReservationLeadSec, &scratch); scratch == nil {
		t.Fatal("probe eligibility is a single window's set, want a union of two")
	}
	if _, held := c.book.Held(); held.Nodes <= c.clus.Count(cluster.StateOff) {
		t.Fatal("no held node is still powered: the preference set is idle")
	}

	passes, probes, pending := c.statPasses, c.statProbes, len(c.pending)
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() {
		c.memo = passMemo{} // otherwise only the first pass runs its body
		c.pass(now)
	})
	if c.statPasses != passes+runs+1 {
		t.Fatalf("%d pass bodies ran, want %d", c.statPasses-passes, runs+1)
	}
	perPass := (c.statProbes - probes) / (runs + 1)
	if len(c.running) != 1 || len(c.pending) != pending || perPass < 150 {
		t.Fatalf("the pass started %d jobs and probed %d, want none over at least 150", len(c.running)-1, perPass)
	}
	if allocs != 0 {
		t.Errorf("a pass of %d refused probes allocates %v times, want 0", perPass, allocs)
	}
}

// TestSampleAllocatesNothing pins that recording one metrics sample — a
// point of the Figure 6/7 series — allocates nothing once the series is
// reserved: the cores-by-frequency value is copied out of the cluster's
// live bars, not built as a map.
func TestSampleAllocatesNothing(t *testing.T) {
	c, _, _, _, _ := backlogged(t)
	const now, runs = 10, 50
	if c.clus.CurieCores() == (dvfs.CurieCores{}) || !c.book.CapAt(now).IsSet() {
		t.Fatal("setup: want busy cores and an active cap to sample")
	}
	c.rec.Reserve(len(c.Samples()) + runs + 1)
	if allocs := testing.AllocsPerRun(runs, func() { c.addSample(now) }); allocs != 0 {
		t.Errorf("recording a sample allocates %v times, want 0", allocs)
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
	// A start takes its allocation slice and enters a few tables — a small
	// constant (2.25 objects measured; 3.25 while its end event was a
	// closure). Paying per probe would cost at least one object for each
	// of the refused ones.
	t.Logf("a pass starting %d jobs allocates %v objects", k, allocs)
	if limit := float64(3 * k); allocs > limit || limit >= float64(probes) {
		t.Errorf("a pass starting %d jobs over %d probes allocates %v times, want at most %v", k, probes, allocs, limit)
	}
}

// Frontier rebuilds follow cluster changes, not probes: a pass that
// refuses every probe builds one frontier per distinct blocked set it
// met (and none at all when the previous pass's still stand); a pass
// that starts k jobs builds at most k+1 per set — one before the first
// start and one after each.
func TestFrontierBuildsScaleWithStartsNotProbes(t *testing.T) {
	c, capID, _, _, _ := backlogged(t)
	const now = 10
	distinctBlocked := func() int {
		var sets []cluster.NodeSet
	next:
		for _, j := range c.pending {
			if j.Cores > c.freeCoresUpperBound() {
				continue // refused before any node is looked at
			}
			b := c.blockedFor(j, now)
			for _, s := range sets {
				if s.Equal(b) {
					continue next
				}
			}
			sets = append(sets, append(cluster.NodeSet(nil), b...))
		}
		return len(sets)
	}
	pass := func() (probes, starts, builds uint64) {
		before := c.SchedCounters()
		c.memo = passMemo{}
		c.pass(now)
		after := c.SchedCounters()
		return after.Probes - before.Probes, after.Starts - before.Starts, after.FrontierBuilds - before.FrontierBuilds
	}

	// Every job but the last is probed: the head, then the 152 the
	// shadow refused, planned when the last comes up; it is then pruned.
	probed := uint64(len(c.pending) - 1)
	if probes, starts, builds := pass(); probes != probed || starts != 0 || builds != 0 {
		t.Errorf("unchanged cluster: %d probes, %d starts, %d frontier builds; want %d, 0, 0", probes, starts, builds, probed)
	}
	// Retire every frontier without changing what a probe decides: power
	// an idle node off and back on.
	idle := cluster.NodeID(0)
	for c.clus.State(idle) != cluster.StateIdle {
		idle++
	}
	if err := c.clus.PowerOff(idle); err != nil {
		t.Fatal(err)
	}
	if err := c.clus.PowerOn(idle); err != nil {
		t.Fatal(err)
	}
	// Shadow-refused candidates cost no probe and no frontier build: a
	// pass that stops before the last job probes the head alone, which
	// the free-core bound refuses before any frontier is read.
	depth := c.cfg.BackfillDepth
	c.cfg.BackfillDepth = len(c.pending) - 1
	if probes, starts, builds := pass(); probes != 1 || starts != 0 || builds != 0 {
		t.Errorf("pass stopping before the last job: %d probes, %d starts, %d frontier builds; want 1, 0, 0", probes, starts, builds)
	}
	c.cfg.BackfillDepth = depth
	sets := distinctBlocked()
	if probes, starts, builds := pass(); probes < 150 || starts != 0 || builds != uint64(sets) {
		t.Errorf("all-refusing pass: %d probes, %d starts, %d frontier builds; want one build for each of %d blocked sets", probes, starts, builds, sets)
	}

	// k short jobs behind the backlog, startable once the cap has room
	// (TestPassAllocationsScaleWithStartsNotProbes' scenario): they see a
	// second blocked set, and every start retires the frontiers.
	if err := c.AdjustPowerCap(capID, power.CapWatts(c.clus.MaxPower())); err != nil {
		t.Fatal(err)
	}
	const k = 4
	for i := 0; i < k; i++ {
		c.submit(&job.Job{ID: job.ID(1000 + i), User: "k", Cores: c.cfg.Topology.CoresPerNode, Submit: now, Runtime: 20, Walltime: 30}, now)
	}
	sets = distinctBlocked()
	probes, starts, builds := pass()
	if starts != k || sets < 2 {
		t.Fatalf("%d jobs started over %d blocked sets, want %d over at least 2", starts, sets, k)
	}
	t.Logf("a pass starting %d jobs: %d probes, %d blocked sets, %d frontier builds", k, probes, sets, builds)
	if limit := uint64((k + 1) * sets); builds > limit || limit >= probes {
		t.Errorf("a pass starting %d jobs over %d probes builds %d frontiers, want at most %d", k, probes, builds, limit)
	}
}

// TestSchedulePassAllocCeiling bounds what one whole capped replay
// allocates — root BenchmarkSchedulePass's scenario (5 h medianjob,
// seed 3, 4 racks, SHUT at a 50 % cap over the middle hour), workload
// generation included as there. 105 547 objects before the probes
// stopped copying, 21 478 after, 17 572 once submissions were always
// streamed, 15.7 k once a start took its allocation off the free list,
// 4 560 once the clones were one slab and no event was a closure, 4 588
// once no job was copied at all and its run state had a slot of the
// running table (the table's own growth), 3 937 once the controller
// kept no per-node job lists, 3 421 now that a metrics sample builds no
// map and the running table grows in blocks; the ceiling keeps the diet
// from regressing silently.
func TestSchedulePassAllocCeiling(t *testing.T) {
	const ceiling = 3700
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
		sum, err := runTo(c, dur)
		if err != nil || sum.JobsCompleted == 0 {
			t.Fatalf("replay completed %d jobs, err %v", sum.JobsCompleted, err)
		}
	})
	t.Logf("one capped replay allocates %.0f objects (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("one capped replay allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}

// TestReplayAllocatesPerCellNotPerJob pins what a simulated job costs the
// heap: nothing of its own. One 2-rack MIX cell under a cap runs through
// LoadWorkload + Run on the first n and then the first 2n jobs of the
// same workload over the same horizon. The n added jobs are not copied,
// their end events and submissions carry them as an argument instead of
// a closure, and the queue reuses its array; what
// is left of the difference follows the load, not the job count — a few
// more recycled allocation slices, event slots and running-table blocks
// at a higher peak — so n is large enough for both runs to keep the
// machine busy for hours. Each added job cost 2.33 objects here while
// its clone, its end event and its submission time were allocations of
// their own. A cell of n jobs allocated 837 objects while every metrics
// sample built a map of its cores by frequency and the running table
// grew by copying, 532 now.
func TestReplayAllocatesPerCellNotPerJob(t *testing.T) {
	topo := cluster.CurieTopology()
	topo.Racks = 2
	wl := trace.Config{Kind: trace.SmallJob, Seed: 1002, Cores: topo.Cores()}
	jobs, err := trace.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	if len(jobs) < 2*n {
		t.Fatalf("workload has %d jobs, want at least %d", len(jobs), 2*n)
	}
	dur := wl.Kind.Duration()
	cell := func(jobs []*job.Job) float64 {
		return testing.AllocsPerRun(1, func() {
			c := mustNew(t, Config{Topology: topo, Policy: core.PolicyMix})
			if err := c.LoadWorkload(jobs); err != nil {
				t.Fatal(err)
			}
			if _, err := c.ReservePowerCap(dur/4, 3*dur/4, power.CapFraction(0.6, c.clus.MaxPower())); err != nil {
				t.Fatal(err)
			}
			sum, err := runTo(c, dur)
			if err != nil || sum.JobsCompleted < len(jobs)/2 {
				t.Fatalf("replay of %d jobs completed %d, err %v", len(jobs), sum.JobsCompleted, err)
			}
		})
	}
	small, large := cell(jobs[:n]), cell(jobs[:2*n])
	perJob := (large - small) / n
	t.Logf("a cell allocates %.0f objects on %d jobs, %.0f on %d: %.3f per added job", small, n, large, 2*n, perJob)
	if perJob >= 0.1 {
		t.Errorf("each added job costs %.3f objects, want fewer than 0.1", perJob)
	}
}
