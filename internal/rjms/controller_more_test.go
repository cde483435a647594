package rjms

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/job"
	"repro/internal/power"
	"repro/internal/reservation"
	"repro/internal/sched"
)

// The controller has one queue order: arrival. Equal-submit jobs keep
// their list order (not their ID order), a failed node's victims requeue
// at the back, the head of the queue gets the EASY reservation, later
// jobs backfill only where they do not delay it, and a pass that
// committed nothing is not re-run for a submission as wide as what it
// refused.
func TestPendingWalkedInArrivalOrder(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyNone)) // 12 nodes x 4 cores
	jobs := []*job.Job{
		{ID: 1, User: "a", Cores: 36, Submit: 0, Runtime: 1000, Walltime: 1200},
		// A tie on submit time, listed against ID order: 3 is the head.
		{ID: 3, User: "b", Cores: 44, Submit: 10, Runtime: 100, Walltime: 200},
		{ID: 2, User: "c", Cores: 44, Submit: 10, Runtime: 100, Walltime: 200},
		// As wide as what the last pass refused: the memo answers.
		{ID: 4, User: "d", Cores: 44, Submit: 20, Runtime: 100, Walltime: 200},
		// Narrower and over before the head's reservation (t=1200).
		{ID: 5, User: "e", Cores: 4, Submit: 30, Runtime: 50, Walltime: 100},
		// Outlasts the reservation but takes the 4 cores it leaves spare.
		{ID: 6, User: "f", Cores: 4, Submit: 40, Runtime: 3000, Walltime: 5000},
		// Fits by cores (node 11 is idle), would delay the head: held.
		{ID: 7, User: "g", Cores: 4, Submit: 50, Runtime: 3000, Walltime: 5000},
	}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	requeued := job.ID(requeueIDBase + 1)
	expect := func(pending, running []job.ID) {
		t.Helper()
		var gotP, gotR []job.ID
		for _, j := range c.pending {
			gotP = append(gotP, j.ID)
		}
		for id := range c.running {
			gotR = append(gotR, id)
		}
		sort.Slice(gotR, func(i, k int) bool { return gotR[i] < gotR[k] })
		if !reflect.DeepEqual(gotP, pending) || !reflect.DeepEqual(gotR, running) {
			t.Fatalf("t=%d: pending %v running %v, want %v and %v", c.eng.Now(), gotP, gotR, pending, running)
		}
	}
	check := func(until int64, pending, running []job.ID) {
		t.Helper()
		if _, err := runTo(c, until); err != nil {
			t.Fatal(err)
		}
		expect(pending, running)
	}
	check(15, []job.ID{3, 2}, []job.ID{1})
	skipped := c.SchedCounters().PassesSkipped
	check(25, []job.ID{3, 2, 4}, []job.ID{1})
	if got := c.SchedCounters().PassesSkipped; got <= skipped {
		t.Errorf("passes skipped %d -> %d: a submission as wide as the refused head re-ran the pass", skipped, got)
	}
	check(55, []job.ID{3, 2, 4, 7}, []job.ID{1, 5, 6})

	check(100, []job.ID{3, 2, 4, 7}, []job.ID{1, 6})
	if err := c.FailNode(0); err != nil { // job 1 runs there
		t.Fatal(err)
	}
	expect([]job.ID{3, 2, 4, 7, requeued}, []job.ID{6})
	// The victim's requeued request backfills from the back (it ends before job 6
	// frees the head's cores at t=5040); 7 is still held behind the head.
	check(101, []job.ID{3, 2, 4, 7}, []job.ID{6, requeued})

	// Job 6 ends at t=3040; the 44 cores left go to the queue in order.
	check(3050, []job.ID{2, 4, 7}, []job.ID{3})
	check(3150, []job.ID{4, 7}, []job.ID{2})
	check(3250, []job.ID{7}, []job.ID{4})
	check(3350, nil, []job.ID{7})
}

// compactedInPlace fails the test unless dropping the starts in
// backing[first:last+1] left the longer side where it was — only the
// shorter one may move — and unless no slot of backing outside the
// queue q now views still holds a job.
func compactedInPlace(t *testing.T, backing []*job.Job, first, last int, q []*job.Job) {
	t.Helper()
	switch n := len(backing); {
	case first < n-1-last && &q[len(q)-1] != &backing[n-1]:
		t.Fatalf("starts in [%d, %d] of %d: the longer suffix moved", first, last, n)
	case first >= n-1-last && first > 0 && &q[0] != &backing[0]:
		t.Fatalf("starts in [%d, %d] of %d: the longer prefix moved", first, last, n)
	}
	backing = backing[:cap(backing)]
	off := 0
	if len(q) > 0 {
		for off < len(backing) && &backing[off] != &q[0] {
			off++
		}
		if off == len(backing) {
			t.Fatal("the queue left the array it was compacted in")
		}
	}
	for k, j := range backing {
		if (k < off || k >= off+len(q)) && j != nil {
			t.Fatalf("slot %d, outside the queue [%d, %d), still holds job %d", k, off, off+len(q), j.ID)
		}
	}
}

// A pass removes its starts from a long backlog wherever they sit — at
// the front, at the back, in the middle, at both ends, nearer one end or
// the other — and leaves the rest in arrival order, moving only the
// shorter side and leaving no slot of the array outside the queue
// pointing at a job.
func TestPassDropsStartsAnywhereInBacklog(t *testing.T) {
	const backlog = 200
	topo := cluster.Topology{Racks: 2, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16}
	per, free := topo.CoresPerNode, 8 // nodes left to the narrow jobs
	for name, starts := range map[string][]int{
		"front":            {0, 1, 2},
		"back":             {backlog - 3, backlog - 2, backlog - 1},
		"middle":           {99, 100, 102},
		"both ends":        {0, backlog - 1},
		"both ends and in": {0, 3, 120, backlog - 1},
		"nearer the front": {10, 40, 150},
		"nearer the back":  {50, 160, 190},
		"one":              {7},
	} {
		t.Run(name, func(t *testing.T) {
			c := mustNew(t, Config{Topology: topo, Policy: core.PolicyNone, Options: Options{BackfillDepth: 256}})
			if err := c.Start(100000); err != nil {
				t.Fatal(err)
			}
			// Everything but `free` nodes runs one long job, so a wide job
			// waits for it while a narrow, short one backfills.
			c.submit(&job.Job{ID: 1, User: "r", Cores: (topo.Nodes() - free) * per, Runtime: 1000, Walltime: 1000}, 0)
			c.pass(0)
			narrow := map[int]bool{}
			for _, i := range starts {
				narrow[i] = true
			}
			var want []job.ID
			for i := 0; i < backlog; i++ {
				j := &job.Job{ID: job.ID(100 + i), User: "q", Cores: (free + 1) * per, Runtime: 10, Walltime: 10}
				if narrow[i] {
					j.Cores = per
				} else {
					want = append(want, j.ID)
				}
				c.submit(j, 0)
			}
			backing := c.pending
			c.pass(0)
			var got []job.ID
			for _, j := range c.pending {
				got = append(got, j.ID)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pending after starts at %v:\n got  %v\n want %v", starts, got, want)
			}
			if len(c.running) != 1+len(starts) {
				t.Fatalf("%d jobs running, want the long one and %d narrow", len(c.running), len(starts))
			}
			compactedInPlace(t, backing, starts[0], starts[len(starts)-1], c.pending)
		})
	}
}

// dropStarted against an order-preserving filter, for every set of
// started positions in a short queue.
func TestDropStartedMatchesFilter(t *testing.T) {
	const n = 10
	for mask := 1; mask < 1<<n; mask++ {
		q := make([]*job.Job, n, n+2)
		var want []*job.Job
		var started []int
		for i := range q {
			q[i] = &job.Job{ID: job.ID(i)}
			if mask&(1<<i) != 0 {
				started = append(started, i)
			} else {
				want = append(want, q[i])
			}
		}
		got := dropStarted(q, started)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("starts %0*b: kept %v, want %v", n, mask, got, want)
		}
		compactedInPlace(t, q, started[0], started[len(started)-1], got)
	}
}

// enqueue moves a full queue back over the front slack dropStarted left
// once that slack is a quarter of the array — same array, arrival order
// kept, no job left in a slot outside the queue — and grows the array
// when the slack is smaller.
func TestEnqueueReusesFrontSlack(t *testing.T) {
	c := &Controller{}
	var all []*job.Job
	push := func(n int) {
		for ; n > 0; n-- {
			j := &job.Job{ID: job.ID(len(all))}
			all = append(all, j)
			c.enqueue(j)
		}
	}
	// start runs the first n queued jobs and removes them as a pass does.
	start := func(n int) {
		started := make([]int, n)
		for i := range started {
			started[i] = i
		}
		c.pending = dropStarted(c.pending, started)
	}
	check := func(what string, first int) {
		t.Helper()
		if !reflect.DeepEqual(c.pending, all[first:]) {
			t.Fatalf("%s: queue holds %d jobs out of arrival order", what, len(c.pending))
		}
		off := cap(c.queueBuf) - cap(c.pending)
		for k, j := range c.queueBuf {
			if (k < off || k >= off+len(c.pending)) && j != nil {
				t.Fatalf("%s: slot %d, outside the queue, still holds job %d", what, k, j.ID)
			}
		}
	}
	push(64)
	for len(c.pending) < cap(c.pending) {
		push(1)
	}
	array, size := &c.queueBuf[0], cap(c.queueBuf)

	quarter := size / 4
	start(quarter)
	push(1)
	if &c.queueBuf[0] != array || cap(c.queueBuf) != size || &c.pending[0] != array {
		t.Fatalf("a full queue with a quarter of its %d slots free at the front did not move back over them", size)
	}
	check("after the move", quarter)

	push(quarter - 1)
	start(1)
	push(1)
	if cap(c.queueBuf) <= size || &c.pending[0] != &c.queueBuf[0] {
		t.Fatalf("a full queue with 1 of its %d slots free at the front did not grow", size)
	}
	check("after the growth", quarter+1)
}

func TestNodeSharingAcrossJobs(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyNone))
	// Two 2-core jobs share one 4-core node.
	jobs := []*job.Job{
		{ID: 1, User: "a", Cores: 2, Submit: 0, Runtime: 500, Walltime: 600},
		{ID: 2, User: "b", Cores: 2, Submit: 1, Runtime: 100, Walltime: 200},
	}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 50); err != nil {
		t.Fatal(err)
	}
	if got := c.Cluster().Count(cluster.StateBusy); got != 1 {
		t.Fatalf("busy nodes = %d, want 1 (packing)", got)
	}
	// Job 2 ends at ~101; node must stay busy with job 1's cores.
	if _, err := runTo(c, 200); err != nil {
		t.Fatal(err)
	}
	var info cluster.NodeInfo
	c.Cluster().ForEach(func(n cluster.NodeInfo) bool { info = n; return false })
	if info.State != cluster.StateBusy || info.UsedCores != 2 {
		t.Errorf("node 0 after partial vacate: %+v", info)
	}
	if _, err := runTo(c, 600); err != nil {
		t.Fatal(err)
	}
	if got := c.Cluster().Count(cluster.StateBusy); got != 0 {
		t.Errorf("busy nodes at end = %d", got)
	}
}

func TestBackfillDepthLimitsThroughput(t *testing.T) {
	run := func(depth int) int {
		cfg := tinyConfig(core.PolicyNone)
		cfg.BackfillDepth = depth
		c := mustNew(t, cfg)
		var jobs []*job.Job
		// A wide job leaves a 4-core hole; the next wide job blocks as
		// the EASY head; many tiny jobs could backfill into the hole.
		jobs = append(jobs, &job.Job{ID: 1, User: "w", Cores: 44, Submit: 0, Runtime: 400, Walltime: 500})
		jobs = append(jobs, &job.Job{ID: 2, User: "w", Cores: 48, Submit: 1, Runtime: 400, Walltime: 500})
		for i := 0; i < 40; i++ {
			jobs = append(jobs, &job.Job{
				ID: job.ID(i + 3), User: "s", Cores: 1,
				Submit: 2, Runtime: 50, Walltime: 60,
			})
		}
		if err := c.LoadWorkload(jobs); err != nil {
			t.Fatal(err)
		}
		sum, err := runTo(c, 300)
		if err != nil {
			t.Fatal(err)
		}
		return sum.JobsLaunched
	}
	deep := run(100)
	shallow := run(3)
	if shallow >= deep {
		t.Errorf("depth 3 launched %d, depth 100 launched %d — depth has no effect", shallow, deep)
	}
}

func TestRunRejectsBadHorizon(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyNone))
	if _, err := runTo(c, 0); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := runTo(c, -5); err == nil {
		t.Error("negative horizon accepted")
	}
}

func TestReservePowerCapValidation(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyShut))
	if _, err := c.ReservePowerCap(100, 100, power.CapWatts(1000)); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := c.ReservePowerCap(0, 100, power.NoCap); err == nil {
		t.Error("unset budget accepted")
	}
}

func TestSecondReservationAvoidsReservedNodes(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyShut))
	maxP := c.Cluster().MaxPower()
	p1, err := c.ReservePowerCap(100, 200, power.CapFraction(0.7, maxP))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.ReservePowerCap(300, 400, power.CapFraction(0.7, maxP))
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.OffNodes) == 0 || len(p2.OffNodes) == 0 {
		t.Fatal("plans empty")
	}
	seen := map[cluster.NodeID]bool{}
	for _, id := range p1.OffNodes {
		seen[id] = true
	}
	for _, id := range p2.OffNodes {
		if seen[id] {
			t.Fatalf("node %d reserved by both plans", id)
		}
	}
}

func TestLaunchedByFreqAccounting(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyDvfs))
	budget := power.CapWatts(c.Cluster().IdlePower() + 2*(193-117))
	if _, err := c.ReservePowerCap(0, 100000, budget); err != nil {
		t.Fatal(err)
	}
	jobs := []*job.Job{
		{ID: 1, User: "a", Cores: 8, Submit: 0, Runtime: 100, Walltime: 150},
	}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	sum, err := runTo(c, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if sum.LaunchedByFreq[dvfs.F1200] != 1 {
		t.Errorf("launch histogram = %v, want one 1.2 GHz launch", sum.LaunchedByFreq)
	}
	if sum.JobsCompleted != 1 {
		t.Errorf("completed = %d", sum.JobsCompleted)
	}
}

func TestCompactPlacementReducesChassisSpan(t *testing.T) {
	span := func(compact bool) int {
		cfg := Config{
			Topology: cluster.Topology{Racks: 1, ChassisPerRack: 4, NodesPerChassis: 4, CoresPerNode: 4},
			Policy:   core.PolicyNone,
			Options:  Options{Compact: compact},
		}
		c := mustNew(t, cfg)
		// Fragment: a 2-core job per chassis, then a 12-core job.
		var jobs []*job.Job
		for i := 0; i < 4; i++ {
			first, _ := c.Cluster().Topology().ChassisNodes(i)
			_ = first
			jobs = append(jobs, &job.Job{
				ID: job.ID(i + 1), User: "f", Cores: 2,
				Submit: 0, Runtime: 10000, Walltime: 20000,
			})
		}
		jobs = append(jobs, &job.Job{
			ID: 99, User: "w", Cores: 12,
			Submit: 10, Runtime: 10000, Walltime: 20000,
		})
		if err := c.LoadWorkload(jobs); err != nil {
			t.Fatal(err)
		}
		if _, err := runTo(c, 100); err != nil {
			t.Fatal(err)
		}
		wide := c.runOf(99)
		if wide == nil {
			t.Fatal("wide job not running")
		}
		return sched.ChassisSpan(c.Cluster().Topology(), wide.allocs)
	}
	// Note: the fragmenting jobs land per first-fit/compact order too;
	// the wide job's span must not be worse under compact placement.
	if c, f := span(true), span(false); c > f {
		t.Errorf("compact span %d > first-fit span %d", c, f)
	}
}

// fitsFutureCap against the paper's wording: walk the ladder down to the
// window's optimal frequency — the highest rung whose all-survivors-busy
// projection fits, or the minimum when none does — and admit f up to it.
func TestFitsFutureCapIsTheOptimalFrequencyRule(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, policy := range []core.Policy{core.PolicyDvfs, core.PolicyMix, core.PolicyShut} {
		c, err := New(Config{Topology: cluster.Topology{Racks: 2, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16}, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		var offs []int // the switch-offs booked and not yet released
		for trial := 0; trial < 200; trial++ {
			for flips := rng.Intn(40); flips > 0; flips-- {
				if k := rng.Intn(len(offs) + 1); k < len(offs) && rng.Intn(2) == 0 {
					c.book.Release(offs[k])
					offs = append(offs[:k], offs[k+1:]...)
					continue
				}
				id, err := c.book.AddSwitchOff(0, reservation.Horizon, []cluster.NodeID{cluster.NodeID(rng.Intn(c.clus.Nodes()))})
				if err != nil {
					t.Fatal(err)
				}
				offs = append(offs, id)
			}
			_, held := c.book.Held()
			budget := power.CapFraction(0.05+rng.Float64(), c.clus.MaxPower())
			optimal := c.pm.Ladder.Min()
			for i := len(c.pm.Ladder) - 1; i >= 0; i-- {
				if f := c.pm.Ladder[i]; budget.Allows(c.clus.SurvivorDraw(held, c.clus.Profile().Busy(f))) {
					optimal = f
					break
				}
			}
			for _, f := range c.pm.Ladder {
				if got, want := c.fitsFutureCap(f, budget), f <= optimal; got != want {
					t.Fatalf("%s, %d nodes held, budget %v: fitsFutureCap(%v) = %v with the optimal frequency at %v",
						policy, held.Nodes, budget, f, got, optimal)
				}
			}
		}
	}
}

// The running table keys runs by job ID, and a trace may repeat one. Two
// jobs with one ID that would run at once stop the run with an error
// naming the ID, and the machine is left as the jobs that did start
// hold it; the same ID on jobs that never overlap is no error.
func TestRepeatedRunningIDIsAnError(t *testing.T) {
	cfg := Config{Topology: cluster.Topology{Racks: 1, ChassisPerRack: 1, NodesPerChassis: 3, CoresPerNode: 16}, Policy: core.PolicyNone}
	twin := func(secondAt int64) []*job.Job {
		return []*job.Job{
			{ID: 7, Cores: 8, Submit: 0, Runtime: 100, Walltime: 200},
			{ID: 7, Cores: 8, Submit: secondAt, Runtime: 100, Walltime: 200},
		}
	}
	c := mustNew(t, cfg)
	if err := c.LoadWorkload(twin(0)); err != nil {
		t.Fatal(err)
	}
	_, err := runTo(c, 1000)
	if err == nil || !strings.Contains(err.Error(), "job 7 ") {
		t.Fatalf("Run with job 7 started twice at once = %v, want an error naming job 7", err)
	}
	if busy, running := c.Cluster().BusyCores(), c.RunningCount(); busy != 0 || running != 0 {
		t.Errorf("after the run: %d cores busy, %d jobs running; want 0 and 0", busy, running)
	}

	c = mustNew(t, cfg)
	if err := c.LoadWorkload(twin(500)); err != nil {
		t.Fatal(err)
	}
	if sum, err := runTo(c, 1000); err != nil || sum.JobsCompleted != 2 {
		t.Fatalf("job 7 run twice in turn: %d completed, error %v; want 2 and none", sum.JobsCompleted, err)
	}
}
