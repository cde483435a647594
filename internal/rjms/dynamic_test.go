package rjms

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/job"
	"repro/internal/power"
)

// startLongJob builds a controller with one whole-machine job running
// from t=0, advanced to t=50.
func startLongJob(t *testing.T, cfg Config, runtime int64) *Controller {
	t.Helper()
	c := mustNew(t, cfg)
	jobs := []*job.Job{{ID: 1, User: "a", Cores: 48, Submit: 0, Runtime: runtime, Walltime: runtime * 2}}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 50); err != nil {
		t.Fatal(err)
	}
	if c.RunningCount() != 1 {
		t.Fatal("setup: job not running")
	}
	return c
}

func runningFreq(t *testing.T, c *Controller) dvfs.Freq {
	t.Helper()
	for _, k := range c.running {
		return c.slot(k).freq
	}
	t.Fatal("no running job")
	return 0
}

func TestDynamicThrottleMeetsCap(t *testing.T) {
	cfg := tinyConfig(core.PolicyDvfs)
	cfg.DynamicDVFS = true
	c := startLongJob(t, cfg, 5000)
	clus := c.Cluster()
	// Budget that admits the whole machine at 1.8 GHz but not above:
	// 12 nodes busy, idle floor 4196 W.
	budget := power.CapWatts(clus.IdlePower() + 12*(248-117))
	if _, err := c.ReservePowerCap(100, 2000, budget); err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 150); err != nil {
		t.Fatal(err)
	}
	if got := clus.Power(); !budget.Allows(got) {
		t.Errorf("draw %v above cap %v after dynamic throttle", got, budget)
	}
	if f := runningFreq(t, c); f != dvfs.F1800 {
		t.Errorf("running job at %v, want 1.8 GHz", f)
	}
	sum, err := runTo(c, 151)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rescales == 0 {
		t.Error("no rescales recorded")
	}
	if sum.JobsKilled != 0 {
		t.Error("dynamic throttle killed a job")
	}
}

func TestDynamicBoostAfterWindow(t *testing.T) {
	cfg := tinyConfig(core.PolicyDvfs)
	cfg.DynamicDVFS = true
	runtime := int64(5000)
	c := startLongJob(t, cfg, runtime)
	clus := c.Cluster()
	budget := power.CapWatts(clus.IdlePower() + 12*(248-117))
	if _, err := c.ReservePowerCap(100, 2000, budget); err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 2100); err != nil {
		t.Fatal(err)
	}
	if f := runningFreq(t, c); f != dvfs.F2700 {
		t.Errorf("job not boosted back to nominal after the window: %v", f)
	}

	// Exact completion-time accounting: nominal work 5000 s; [0,100) at
	// 2.7 GHz does 100; [100,2000) at 1.8 GHz (factor 1.378) does
	// 1900/1.378; the rest finishes at nominal.
	factor := 1 + (dvfs.DegMinCommon-1)*float64(dvfs.F2700-dvfs.F1800)/float64(dvfs.F2700-dvfs.F1200)
	doneByWindowEnd := 100 + 1900/factor
	wantEnd := 2000 + (float64(runtime) - doneByWindowEnd)
	sum, err := runTo(c, int64(wantEnd)+10)
	if err != nil {
		t.Fatal(err)
	}
	if sum.JobsCompleted != 1 {
		t.Fatalf("job not completed by t=%0.f: %+v", wantEnd+10, sum)
	}
}

func TestDynamicCompletionAccountingExact(t *testing.T) {
	cfg := tinyConfig(core.PolicyDvfs)
	cfg.DynamicDVFS = true
	runtime := int64(1000)
	c := startLongJob(t, cfg, runtime)
	budget := power.CapWatts(c.Cluster().IdlePower() + 12*(193-117)) // forces 1.2 GHz
	if _, err := c.ReservePowerCap(100, 100000, budget); err != nil {
		t.Fatal(err)
	}
	// Job: 100 s at nominal (100 work), then 1.2 GHz until done:
	// remaining 900 work x 1.63 = 1467 s; ends at 100 + 1467 = 1567.
	sum, err := runTo(c, 1568)
	if err != nil {
		t.Fatal(err)
	}
	if sum.JobsCompleted != 1 {
		t.Fatalf("not completed by 1568: running=%d", c.RunningCount())
	}
	// And not earlier than the exact time.
	c2 := startLongJob(t, Config{
		Topology: cfg.Topology, Policy: core.PolicyDvfs, Options: Options{DynamicDVFS: true},
	}, runtime)
	if _, err := c2.ReservePowerCap(100, 100000, budget); err != nil {
		t.Fatal(err)
	}
	sum2, err := runTo(c2, 1565)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.JobsCompleted != 0 {
		t.Error("job completed before its stretched runtime elapsed")
	}
}

func TestDynamicDisabledForShut(t *testing.T) {
	cfg := tinyConfig(core.PolicyShut)
	cfg.DynamicDVFS = true
	c := startLongJob(t, cfg, 3000)
	budget := power.CapWatts(c.Cluster().IdlePower() + 100)
	if _, err := c.ReservePowerCap(100, 500, budget); err != nil {
		t.Fatal(err)
	}
	sum, err := runTo(c, 600)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rescales != 0 {
		t.Errorf("SHUT policy rescaled jobs: %d", sum.Rescales)
	}
	if f := runningFreq(t, c); f != dvfs.F2700 {
		t.Errorf("SHUT job moved off nominal: %v", f)
	}
}

func TestDynamicThrottleSpreadsFairly(t *testing.T) {
	cfg := tinyConfig(core.PolicyDvfs)
	cfg.DynamicDVFS = true
	c := mustNew(t, cfg)
	// Two 6-node jobs fill the machine.
	jobs := []*job.Job{
		{ID: 1, User: "a", Cores: 24, Submit: 0, Runtime: 5000, Walltime: 9000},
		{ID: 2, User: "b", Cores: 24, Submit: 0, Runtime: 5000, Walltime: 9000},
	}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 50); err != nil {
		t.Fatal(err)
	}
	// Budget one rung down for everyone: 2.4 GHz.
	budget := power.CapWatts(c.Cluster().IdlePower() + 12*(317-117))
	if _, err := c.ReservePowerCap(100, 2000, budget); err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 150); err != nil {
		t.Fatal(err)
	}
	for _, k := range c.running {
		if r := c.slot(k); r.freq != dvfs.F2400 {
			t.Errorf("job %d at %v, want both at 2.4 GHz (fair spread)", r.j.ID, r.freq)
		}
	}
}

func TestDynamicNoCapNoAction(t *testing.T) {
	cfg := tinyConfig(core.PolicyMix)
	cfg.DynamicDVFS = true
	c := startLongJob(t, cfg, 500)
	sum, err := runTo(c, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rescales != 0 {
		t.Errorf("rescales without any cap: %d", sum.Rescales)
	}
	if sum.JobsCompleted != 1 {
		t.Errorf("job did not complete normally")
	}
}

func TestDynamicMixRespectsFloor(t *testing.T) {
	cfg := tinyConfig(core.PolicyMix)
	cfg.DynamicDVFS = true
	c := startLongJob(t, cfg, 5000)
	// Impossible budget: even the MIX floor cannot satisfy it; the
	// throttle must stop at 2.0 GHz, never below.
	budget := power.CapWatts(1)
	if _, err := c.ReservePowerCap(100, 2000, budget); err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 150); err != nil {
		t.Fatal(err)
	}
	if f := runningFreq(t, c); f != dvfs.F2000 {
		t.Errorf("MIX dynamic throttle went to %v, want the 2.0 GHz floor", f)
	}
}
