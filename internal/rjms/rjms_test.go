package rjms

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/reservation"
	"repro/internal/trace"
)

// tiny returns a 2x2x3 = 12-node machine (4 cores per node, 48 cores)
// with Curie power constants.
func tinyConfig(policy core.Policy) Config {
	return Config{
		Topology: cluster.Topology{Racks: 2, ChassisPerRack: 2, NodesPerChassis: 3, CoresPerNode: 4},
		Policy:   policy,
	}
}

// runTo drives c to the horizon in one step: Start, one Advance, Finish.
func runTo(c *Controller, until int64) (metrics.Summary, error) {
	if err := c.Start(until); err != nil {
		return metrics.Summary{}, err
	}
	if err := c.Advance(until); err != nil {
		return metrics.Summary{}, err
	}
	return c.Finish(), nil
}

func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Options: Options{BackfillDepth: -1}}); err == nil {
		t.Error("negative depth accepted")
	}
	if _, err := New(Config{Options: Options{SampleEverySec: -1}}); err == nil {
		t.Error("negative sample interval accepted")
	}
	if _, err := New(Config{}); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestSingleJobLifecycle(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyNone))
	jobs := []*job.Job{{ID: 1, User: "u", Cores: 8, Submit: 10, Runtime: 100, Walltime: 200}}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	sum, err := runTo(c, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if sum.JobsSubmitted != 1 || sum.JobsLaunched != 1 || sum.JobsCompleted != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.JobsKilled != 0 {
		t.Errorf("killed = %d", sum.JobsKilled)
	}
	// Work = 8 cores x 100 s.
	if sum.WorkCoreSec != 800 {
		t.Errorf("work = %v, want 800", sum.WorkCoreSec)
	}
	// Energy: baseline idle (12x117 + 4x248 + 2x900 = 4196 W) for 1000 s
	// plus 2 nodes uplifted to 358 W for 100 s.
	wantJ := 4196.0*1000 + 2*(358-117)*100
	if got := float64(sum.EnergyJ); got != wantJ {
		t.Errorf("energy = %v J, want %v", got, wantJ)
	}
	if len(c.pending) != 0 || c.RunningCount() != 0 {
		t.Errorf("queues not drained: %d pending, %d running", len(c.pending), c.RunningCount())
	}
}

func TestWorkloadRejectsOversizedJob(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyNone))
	err := c.LoadWorkload([]*job.Job{{ID: 1, Cores: 49, Submit: 0, Runtime: 10, Walltime: 10}})
	if err == nil {
		t.Error("oversized job accepted")
	}
	if err := c.LoadWorkload([]*job.Job{{ID: 2, Cores: 0, Submit: 0, Runtime: 10, Walltime: 10}}); err == nil {
		t.Error("invalid job accepted")
	}
}

func TestFCFSAndBackfill(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyNone))
	// Job 1 takes the whole machine for 100 s. Job 2 (whole machine)
	// must wait. Job 3 is small and short: EASY backfills it only if it
	// fits before job 1's expected end... but job 1 holds all cores, so
	// there is no room; after job 1 ends, job 2 runs, then job 3 cannot
	// start until job 2 finishes.
	jobs := []*job.Job{
		{ID: 1, User: "a", Cores: 48, Submit: 0, Runtime: 100, Walltime: 120},
		{ID: 2, User: "b", Cores: 48, Submit: 1, Runtime: 100, Walltime: 120},
		{ID: 3, User: "c", Cores: 4, Submit: 2, Runtime: 10, Walltime: 20},
	}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 1000); err != nil {
		t.Fatal(err)
	}
	sum, err := runTo(c, 1001)
	if err != nil {
		t.Fatal(err)
	}
	if sum.JobsCompleted != 3 {
		t.Fatalf("completed = %d, want 3", sum.JobsCompleted)
	}
}

func TestBackfillFillsHoles(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyNone))
	// Job 1 takes half the machine for a long time. Job 2 wants the
	// whole machine: blocked, shadow at job 1's expected end (1000).
	// Job 3 (8 cores, ends at 0+50*? walltime 50 < 1000) backfills.
	jobs := []*job.Job{
		{ID: 1, User: "a", Cores: 24, Submit: 0, Runtime: 900, Walltime: 1000},
		{ID: 2, User: "b", Cores: 48, Submit: 1, Runtime: 100, Walltime: 100},
		{ID: 3, User: "c", Cores: 8, Submit: 2, Runtime: 40, Walltime: 50},
	}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 50); err != nil {
		t.Fatal(err)
	}
	// At t=50 job 3 must already be done (backfilled at t=2, ran 40 s).
	if got := c.RunningCount(); got != 1 {
		t.Errorf("running at t=50 = %d, want only job 1", got)
	}
	sum, err := runTo(c, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if sum.JobsCompleted != 3 {
		t.Errorf("completed = %d, want 3", sum.JobsCompleted)
	}
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyNone))
	// Job 1: 24 cores until ~1000. Job 2 (head): 48 cores, shadow 1000.
	// Job 3: 24 cores, walltime 5000 — starting it would hold cores past
	// the shadow and delay job 2; it must NOT backfill.
	jobs := []*job.Job{
		{ID: 1, User: "a", Cores: 24, Submit: 0, Runtime: 900, Walltime: 1000},
		{ID: 2, User: "b", Cores: 48, Submit: 1, Runtime: 100, Walltime: 100},
		{ID: 3, User: "c", Cores: 24, Submit: 2, Runtime: 4000, Walltime: 5000},
	}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 500); err != nil {
		t.Fatal(err)
	}
	if got := c.RunningCount(); got != 1 {
		t.Errorf("running at t=500 = %d, want 1 (job 3 must not delay job 2)", got)
	}
}

// A backfill candidate the EASY shadow refuses is not probed where it
// stands, yet its failure must prune what follows as if it had been: a
// pass refuses job 4 exactly when a pass planning every candidate in
// turn does. Job 3 crosses the head's reservation, and its span reaches
// a switch-off window in its lead-in, whose group it may not use — the
// nodes outside the group cannot hold it. Job 4 asks as many cores,
// ends before the window opens and would fit on the group's idle nodes;
// job 3's failed plan prunes it.
func TestShadowRefusedFailureStillPrunes(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyShut))
	// The window opens at 1500: its lead-in (1 800 s by default) has begun.
	if _, err := c.ReservePowerCap(1500, 8000, power.CapFraction(0.6, c.clus.MaxPower())); err != nil {
		t.Fatal(err)
	}
	if _, held := c.book.Held(); held.Nodes != 6 {
		t.Fatalf("the window holds %d nodes, want 6 (nodes outside it: 24 cores)", held.Nodes)
	}
	jobs := []*job.Job{
		{ID: 1, User: "a", Cores: 8, Submit: 0, Runtime: 900, Walltime: 1000},    // on two held nodes; the shadow is its end
		{ID: 2, User: "b", Cores: 44, Submit: 0, Runtime: 100, Walltime: 100},    // head: 40 cores free
		{ID: 3, User: "c", Cores: 28, Submit: 0, Runtime: 9000, Walltime: 10000}, // crosses the shadow, reaches the window
		{ID: 4, User: "d", Cores: 28, Submit: 0, Runtime: 400, Walltime: 500},    // ends before the shadow and the window
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
	if len(c.running) != 1 || c.runOf(1) == nil {
		t.Fatalf("running = %v, want job 1 alone", c.running)
	}
	if got := c.SchedCounters().Probes; got != 3 {
		t.Errorf("%d probes, want 3: job 1, the head, and job 3 planned before job 4 is", got)
	}
	wide, short := c.pending[1], c.pending[2]
	if _, ok := c.plan(wide, 0); ok {
		t.Error("job 3 plans: the scenario does not refuse it")
	}
	if _, ok := c.plan(short, 0); !ok {
		t.Error("job 4 does not plan: the scenario refuses it without the pruning")
	}
}

func TestPowercapShutPlansAndPowersOff(t *testing.T) {
	cfg := tinyConfig(core.PolicyShut)
	c := mustNew(t, cfg)
	maxP := c.Cluster().MaxPower()
	budget := power.CapFraction(0.6, maxP)
	plan, err := c.ReservePowerCap(100, 200, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.OffNodes) == 0 {
		t.Fatal("offline plan reserved no nodes at a 60% cap")
	}
	if _, err := runTo(c, 150); err != nil {
		t.Fatal(err)
	}
	if got := c.Cluster().Count(cluster.StateOff); got != len(plan.OffNodes) {
		t.Errorf("off nodes during window = %d, want %d", got, len(plan.OffNodes))
	}
	if got := c.Cluster().Power(); !budget.Allows(got) {
		t.Errorf("draw %v exceeds cap %v during window", got, budget)
	}
	if _, err := runTo(c, 250); err != nil {
		t.Fatal(err)
	}
	if got := c.Cluster().Count(cluster.StateOff); got != 0 {
		t.Errorf("off nodes after window = %d, want 0", got)
	}
	if _, g := c.book.Held(); g.Nodes != 0 {
		t.Errorf("%d nodes still held after window", g.Nodes)
	}
}

func TestPowercapShutKeepsJobsAtNominal(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyShut))
	if _, err := c.ReservePowerCap(0, reservation.Horizon, power.CapFraction(0.6, c.Cluster().MaxPower())); err != nil {
		t.Fatal(err)
	}
	jobs := []*job.Job{
		{ID: 1, User: "a", Cores: 8, Submit: 10, Runtime: 50, Walltime: 100},
	}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	sum, err := runTo(c, 500)
	if err != nil {
		t.Fatal(err)
	}
	if sum.JobsLaunched != 1 {
		t.Fatalf("launched = %d", sum.JobsLaunched)
	}
	if n := sum.LaunchedByFreq[dvfs.F2700]; n != 1 {
		t.Errorf("SHUT launched at non-nominal frequency: %v", sum.LaunchedByFreq)
	}
}

func TestPowercapDvfsDownclocksUnderTightCap(t *testing.T) {
	cfg := tinyConfig(core.PolicyDvfs)
	c := mustNew(t, cfg)
	clus := c.Cluster()
	// Budget: all-idle draw plus headroom for 12 nodes at 1.8 GHz, not
	// more. Idle = 4196 W; 12 nodes idle->1.8 uplift = 12*(248-117).
	budget := power.CapWatts(clus.IdlePower() + 12*(248-117))
	if _, err := c.ReservePowerCap(0, reservation.Horizon, budget); err != nil {
		t.Fatal(err)
	}
	// One whole-machine job: at nominal it would need 12*241 W uplift —
	// too much; at 1.8 GHz it fits exactly.
	jobs := []*job.Job{{ID: 1, User: "a", Cores: 48, Submit: 0, Runtime: 100, Walltime: 100}}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	sum, err := runTo(c, 400)
	if err != nil {
		t.Fatal(err)
	}
	if sum.JobsLaunched != 1 {
		t.Fatalf("launched = %d, want 1 (via DVFS)", sum.JobsLaunched)
	}
	if n := sum.LaunchedByFreq[dvfs.F1800]; n != 1 {
		t.Errorf("launch frequencies = %v, want 1.8 GHz", sum.LaunchedByFreq)
	}
	// The runtime is stretched by the degradation at 1.8 GHz.
	if sum.JobsCompleted != 1 {
		t.Errorf("job did not complete by t=400 (stretched runtime too long?)")
	}
}

func TestPowercapMixCombinedRegime(t *testing.T) {
	// A Curie-granularity machine (2 racks x 5 chassis x 18 nodes) so
	// the chassis-level trimming of the offline plan leaves headroom
	// fine enough that the online part must down-clock as it fills.
	cfg := Config{
		Topology: cluster.Topology{Racks: 2, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16},
		Policy:   core.PolicyMix,
	}
	c := mustNew(t, cfg)
	// 60% cap is below the all-at-floor draw: the offline part combines
	// shutdown with DVFS (Section VI-B: "both mechanisms should be used
	// together when the powercap is inferior to 75%").
	budget := power.CapFraction(0.6, c.Cluster().MaxPower())
	plan, err := c.ReservePowerCap(0, reservation.Horizon, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.CombineBoth {
		t.Fatalf("60%% MIX plan did not combine mechanisms: %+v", plan)
	}
	if len(plan.OffNodes) == 0 {
		t.Fatal("combined plan reserved no nodes")
	}
	var jobs []*job.Job
	for i := 0; i < 80; i++ {
		jobs = append(jobs, &job.Job{
			ID: job.ID(i + 1), User: "a", Cores: 32,
			Submit: int64(i), Runtime: 500, Walltime: 600,
		})
	}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	sum, err := runTo(c, 400)
	if err != nil {
		t.Fatal(err)
	}
	if sum.JobsLaunched < 10 {
		t.Fatalf("launched = %d, want many under the combined regime", sum.JobsLaunched)
	}
	for f, n := range sum.LaunchedByFreq {
		if n > 0 && f < dvfs.F2000 {
			t.Errorf("MIX launched below its 2.0 GHz floor: %v", f)
		}
	}
	if got := c.Cluster().Count(cluster.StateOff); got != len(plan.OffNodes) {
		t.Errorf("off nodes = %d, want the planned %d", got, len(plan.OffNodes))
	}
	if got := c.Cluster().Power(); !budget.Allows(got) {
		t.Errorf("draw %v exceeds the cap %v", got, budget)
	}
	// Not every pending job may launch: the cap must bite.
	if sum.JobsLaunched == sum.JobsSubmitted {
		t.Errorf("all %d jobs launched despite the 60%% cap", sum.JobsSubmitted)
	}
}

func TestPowercapIdlePolicyLeavesNodesOn(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyIdle))
	plan, err := c.ReservePowerCap(0, reservation.Horizon, power.CapFraction(0.6, c.Cluster().MaxPower()))
	if err != nil {
		t.Fatal(err)
	}
	if plan.OffNodes != nil {
		t.Errorf("IDLE policy planned a shutdown")
	}
	if _, err := runTo(c, 100); err != nil {
		t.Fatal(err)
	}
	if got := c.Cluster().Count(cluster.StateOff); got != 0 {
		t.Errorf("IDLE powered off %d nodes", got)
	}
}

func TestJobsPendUnderCapAndResumeAfter(t *testing.T) {
	// IDLE policy: no shutdown, no DVFS — under a cap just above the
	// all-idle draw nothing can launch until the window passes.
	c := mustNew(t, tinyConfig(core.PolicyIdle))
	clus := c.Cluster()
	budget := power.CapWatts(clus.IdlePower() + 10)
	if _, err := c.ReservePowerCap(0, 500, budget); err != nil {
		t.Fatal(err)
	}
	jobs := []*job.Job{{ID: 1, User: "a", Cores: 4, Submit: 10, Runtime: 50, Walltime: 100}}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 499); err != nil {
		t.Fatal(err)
	}
	if len(c.pending) != 1 {
		t.Fatalf("job ran under an impossible cap (pending=%d)", len(c.pending))
	}
	sum, err := runTo(c, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if sum.JobsCompleted != 1 {
		t.Errorf("job did not resume after the window: %+v", sum)
	}
}

func TestDrainToOffDuringWindow(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyShut))
	// Occupy the whole machine before the window with a job ending
	// inside it: reserved busy nodes must drain to off at job end.
	jobs := []*job.Job{{ID: 1, User: "a", Cores: 48, Submit: 0, Runtime: 150, Walltime: 160}}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	// Start the job first, then reserve: the node group is busy when the
	// window opens (a reservation created earlier would have blocked the
	// overlapping job from those nodes in the first place).
	if _, err := runTo(c, 50); err != nil {
		t.Fatal(err)
	}
	if got := c.RunningCount(); got != 1 {
		t.Fatalf("setup: job not running at t=50")
	}
	budget := power.CapFraction(0.6, c.Cluster().MaxPower())
	if _, err := c.ReservePowerCap(100, 400, budget); err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 120); err != nil {
		t.Fatal(err)
	}
	if got := c.Cluster().Count(cluster.StateOff); got != 0 {
		t.Errorf("busy reserved nodes powered off early: %d", got)
	}
	if _, err := runTo(c, 200); err != nil {
		t.Fatal(err)
	}
	if got := c.Cluster().Count(cluster.StateOff); got == 0 {
		t.Error("reserved nodes did not drain to off after their job ended")
	}

	// The window's boundaries. A long job on nodes 0–5 runs to the
	// window's end, a short one on nodes 6–11 ends before it opens; the
	// window [100, 400) at a 40 % cap holds nodes 0–2 and 6–11.
	boundaries := func() (*Controller, []cluster.NodeID) {
		c := mustNew(t, tinyConfig(core.PolicyShut))
		jobs := []*job.Job{
			{ID: 1, User: "long", Cores: 24, Submit: 0, Runtime: 400, Walltime: 500},
			{ID: 2, User: "short", Cores: 24, Submit: 0, Runtime: 80, Walltime: 90},
		}
		if err := c.LoadWorkload(jobs); err != nil {
			t.Fatal(err)
		}
		if _, err := runTo(c, 50); err != nil {
			t.Fatal(err)
		}
		plan, err := c.ReservePowerCap(100, 400, power.CapFraction(0.4, c.Cluster().MaxPower()))
		if err != nil {
			t.Fatal(err)
		}
		held, _ := c.book.Held()
		if long := c.runOf(1); len(plan.OffNodes) != 9 || !held.Has(0) || held.Has(3) || long.allocs[0].Node != 0 {
			t.Fatalf("setup: window holds %v, long job on %v", plan.OffNodes, long.allocs)
		}
		return c, plan.OffNodes
	}
	c, group := boundaries()
	if _, err := runTo(c, 90); err != nil {
		t.Fatal(err)
	}
	if got := c.Cluster().Count(cluster.StateOff); got != 0 {
		t.Errorf("held nodes freed before the window opened powered off early: %d off", got)
	}
	if _, err := runTo(c, 100); err != nil {
		t.Fatal(err)
	}
	if got := c.Cluster().Count(cluster.StateOff); got != 6 {
		t.Errorf("window open: %d nodes off, want the 6 idle held ones", got)
	}
	if _, err := runTo(c, 400); err != nil {
		t.Fatal(err)
	}
	for _, id := range group {
		if st := c.Cluster().State(id); st != cluster.StateIdle {
			t.Errorf("node %d freed at the window's end is %v, want idle", id, st)
		}
	}

	// A held node that fails and is repaired inside the window stays off
	// until the window closes.
	c, _ = boundaries()
	if _, err := runTo(c, 200); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RepairNode(0); err != nil {
		t.Fatal(err)
	}
	if st := c.Cluster().State(0); st != cluster.StateOff {
		t.Errorf("held node repaired inside its window is %v, want off", st)
	}
	if _, err := runTo(c, 400); err != nil {
		t.Fatal(err)
	}
	if st := c.Cluster().State(0); st == cluster.StateOff {
		t.Error("window closed: the repaired held node stays off")
	}
}

func TestKillOnOverrun(t *testing.T) {
	cfg := tinyConfig(core.PolicyShut)
	cfg.KillOnOverrun = true
	c := mustNew(t, cfg)
	jobs := []*job.Job{{ID: 1, User: "a", Cores: 48, Submit: 0, Runtime: 1000, Walltime: 1200}}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	// Let the job start, then spring a cap below the running draw: the
	// job is killed ("extreme actions", Section IV-B).
	if _, err := runTo(c, 50); err != nil {
		t.Fatal(err)
	}
	budget := power.CapWatts(c.Cluster().IdlePower() + 100)
	if _, err := c.ReservePowerCap(100, 500, budget); err != nil {
		t.Fatal(err)
	}
	sum, err := runTo(c, 600)
	if err != nil {
		t.Fatal(err)
	}
	if sum.JobsKilled != 1 {
		t.Fatalf("killed = %d, want 1", sum.JobsKilled)
	}
	if !budget.Allows(c.Cluster().Power()) {
		// after the window this is fine; check at t inside instead
		t.Log("draw after window:", c.Cluster().Power())
	}
}

func TestNoKillWithoutFlag(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyShut))
	jobs := []*job.Job{{ID: 1, User: "a", Cores: 48, Submit: 0, Runtime: 1000, Walltime: 1200}}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 50); err != nil {
		t.Fatal(err)
	}
	budget := power.CapWatts(c.Cluster().IdlePower() + 100)
	if _, err := c.ReservePowerCap(100, 500, budget); err != nil {
		t.Fatal(err)
	}
	sum, err := runTo(c, 600)
	if err != nil {
		t.Fatal(err)
	}
	if sum.JobsKilled != 0 {
		t.Errorf("killed = %d without KillOnOverrun", sum.JobsKilled)
	}
	if sum.JobsCompleted != 0 {
		t.Errorf("the 1000 s job cannot have completed by t=600")
	}
}

func TestSamplesRecorded(t *testing.T) {
	cfg := tinyConfig(core.PolicyNone)
	cfg.SampleEverySec = 50
	c := mustNew(t, cfg)
	if _, err := runTo(c, 200); err != nil {
		t.Fatal(err)
	}
	got := len(c.Samples())
	if got != 5 { // t = 0, 50, 100, 150, 200
		t.Errorf("samples = %d, want 5", got)
	}
	for _, s := range c.Samples() {
		if s.Power <= 0 {
			t.Errorf("sample at t=%d has power %v", s.T, s.Power)
		}
		if s.IdleNodes != 12 {
			t.Errorf("sample at t=%d idle=%d, want 12", s.T, s.IdleNodes)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	type digest struct {
		E, W float64
		L    int
	}
	run := func() digest {
		c := mustNew(t, tinyConfig(core.PolicyMix))
		if _, err := c.ReservePowerCap(100, 400, power.CapFraction(0.6, c.Cluster().MaxPower())); err != nil {
			t.Fatal(err)
		}
		jobs := []*job.Job{
			{ID: 1, User: "a", Cores: 20, Submit: 0, Runtime: 300, Walltime: 400},
			{ID: 2, User: "b", Cores: 20, Submit: 5, Runtime: 200, Walltime: 300},
			{ID: 3, User: "c", Cores: 48, Submit: 10, Runtime: 100, Walltime: 150},
			{ID: 4, User: "d", Cores: 4, Submit: 15, Runtime: 50, Walltime: 60},
		}
		if err := c.LoadWorkload(jobs); err != nil {
			t.Fatal(err)
		}
		sum, err := runTo(c, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return digest{E: float64(sum.EnergyJ), W: sum.WorkCoreSec, L: sum.JobsLaunched}
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("replay not deterministic: %+v vs %+v", a, b)
	}
}

// TestReservedAheadOpensAtCap pins a known breach of the guarantee that
// power stays at or under the cap inside a reservation window: a window
// booked two hours ahead opens well over its cap under every policy, on
// 2 racks and on 8. Bursty seed 1006, one 50 % window (34 360 W on 2
// racks, 137 440 W on 8) over [7 200, 10 800) reserved at t = 0,
// default options, a sample every 120 s. Per machine and policy the test
// reads, off the samples, the draw at the first in-window sample, when
// the first in-window sample at or under the cap comes (seconds into the
// window, -1 for never) and how many of the 30 in-window samples are
// over the cap.
//
// The cause is the ahead check (admitAhead, fitsFutureCap): it admits
// any launch at the ladder's minimum rung and never projects the
// aggregate draw at the window's start, so jobs launched after the
// window was booked fill the survivors. ROADMAP item 14 makes that
// check a projection; when it lands, these rows must move to the first
// in-window sample at or under the cap, and this test with them.
func TestReservedAheadOpensAtCap(t *testing.T) {
	type row struct {
		firstW    power.Watts
		underAt   int64
		overCount int
	}
	for _, m := range []struct {
		racks int
		capW  power.Watts
		want  map[core.Policy]row
	}{
		{2, 34360, map[core.Policy]row{
			core.PolicyShut: {49800, 2040, 17},
			core.PolicyMix:  {48735, 3120, 26},
			core.PolicyDvfs: {47600, -1, 30},
			core.PolicyIdle: {68720, -1, 30},
		}},
		{8, 137440, map[core.Policy]row{
			core.PolicyShut: {170656, 840, 7},
			core.PolicyMix:  {169520, 1320, 11},
			core.PolicyDvfs: {156004, 720, 6},
			core.PolicyIdle: {274639, 2040, 17},
		}},
	} {
		topo := cluster.CurieTopology()
		topo.Racks = m.racks
		wl := trace.Config{Kind: trace.Bursty, Seed: 1006, Cores: topo.Cores()}
		jobs, err := trace.Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		dur := wl.Kind.Duration()
		const start, end = 7200, 10800
		for _, p := range []core.Policy{core.PolicyShut, core.PolicyMix, core.PolicyDvfs, core.PolicyIdle} {
			c := mustNew(t, Config{Topology: topo, Policy: p})
			if err := c.LoadWorkload(jobs); err != nil {
				t.Fatal(err)
			}
			budget := power.CapFraction(0.5, c.clus.MaxPower())
			if budget.Watts() != m.capW {
				t.Fatalf("50 %% of the %d-rack machine is %v, want %v", m.racks, budget.Watts(), m.capW)
			}
			if _, err := c.ReservePowerCap(start, end, budget); err != nil {
				t.Fatal(err)
			}
			if _, err := runTo(c, dur); err != nil {
				t.Fatal(err)
			}
			got := row{underAt: -1}
			var inWindow int
			for _, s := range c.Samples() {
				if s.T < start || s.T >= end {
					continue
				}
				if inWindow++; inWindow == 1 {
					got.firstW = s.Power
				}
				if s.Cap != budget.Watts() {
					t.Fatalf("%d racks, %v: sample at t=%d reads cap %v, want %v", m.racks, p, s.T, s.Cap, budget.Watts())
				}
				if s.Power > s.Cap {
					got.overCount++
				} else if got.underAt < 0 {
					got.underAt = s.T - start
				}
			}
			if inWindow != 30 {
				t.Fatalf("%d racks, %v: %d in-window samples, want 30", m.racks, p, inWindow)
			}
			if want := m.want[p]; got != want {
				t.Errorf("%d racks, %v: first in-window draw %v, first at or under the cap %d s in, %d/30 over; want %v, %d s, %d/30",
					m.racks, p, got.firstW, got.underAt, got.overCount, want.firstW, want.underAt, want.overCount)
			}
		}
	}
}
