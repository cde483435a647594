package rjms

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/job"
	"repro/internal/power"
	"repro/internal/sched"
)

func TestMultifactorFairsharePrioritizesLightUser(t *testing.T) {
	cfg := tinyConfig(core.PolicyNone)
	cfg.Priority = sched.Multifactor
	c := mustNew(t, cfg)
	// "heavy" burns the machine first; then one job from each user is
	// queued while the machine is full. When it frees, the light user's
	// job should start first despite the later submit time.
	jobs := []*job.Job{
		{ID: 1, User: "heavy", Cores: 48, Submit: 0, Runtime: 1000, Walltime: 1200},
		{ID: 2, User: "heavy", Cores: 48, Submit: 10, Runtime: 100, Walltime: 200},
		{ID: 3, User: "light", Cores: 48, Submit: 20, Runtime: 100, Walltime: 200},
	}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(1050); err != nil {
		t.Fatal(err)
	}
	if c.RunningCount() != 1 {
		t.Fatalf("running = %d, want 1", c.RunningCount())
	}
	for _, j := range c.running {
		if j.User != "light" {
			t.Errorf("running job belongs to %q, want the light user first", j.User)
		}
	}
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
	if _, err := c.Run(50); err != nil {
		t.Fatal(err)
	}
	if got := c.Cluster().Count(cluster.StateBusy); got != 1 {
		t.Fatalf("busy nodes = %d, want 1 (packing)", got)
	}
	// Job 2 ends at ~101; node must stay busy with job 1's cores.
	if _, err := c.Run(200); err != nil {
		t.Fatal(err)
	}
	info, err := c.Cluster().Info(0)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != cluster.StateBusy || info.UsedCores != 2 {
		t.Errorf("node 0 after partial vacate: %+v", info)
	}
	if _, err := c.Run(600); err != nil {
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
		sum, err := c.Run(300)
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
	if _, err := c.Run(0); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := c.Run(-5); err == nil {
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
	sum, err := c.Run(1000)
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
		if _, err := c.Run(100); err != nil {
			t.Fatal(err)
		}
		wide := c.running[99]
		if wide == nil || wide.State != job.StateRunning {
			t.Fatal("wide job not running")
		}
		return sched.ChassisSpan(c.Cluster().Topology(), wide.Allocs)
	}
	// Note: the fragmenting jobs land per first-fit/compact order too;
	// the wide job's span must not be worse under compact placement.
	if c, f := span(true), span(false); c > f {
		t.Errorf("compact span %d > first-fit span %d", c, f)
	}
}
