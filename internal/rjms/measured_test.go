package rjms

import (
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/power"
)

func TestMeasuredModeValidation(t *testing.T) {
	cfg := tinyConfig(core.PolicyShut)
	cfg.MeasuredNoise = -0.1
	if _, err := New(cfg); err == nil {
		t.Error("negative noise accepted")
	}
}

func TestMeasuredModeDeterministic(t *testing.T) {
	run := func() float64 {
		cfg := tinyConfig(core.PolicyDvfs)
		cfg.MeasuredNoise = 0.03
		c := mustNew(t, cfg)
		if _, err := c.ReservePowerCap(0, 100000, power.CapFraction(0.7, c.Cluster().MaxPower())); err != nil {
			t.Fatal(err)
		}
		var jobs []*job.Job
		for i := 0; i < 30; i++ {
			jobs = append(jobs, &job.Job{
				ID: job.ID(i + 1), User: "u", Cores: 8,
				Submit: int64(i * 10), Runtime: 300, Walltime: 600,
			})
		}
		if err := c.LoadWorkload(jobs); err != nil {
			t.Fatal(err)
		}
		sum, err := c.Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		return float64(sum.EnergyJ)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("measured mode not deterministic: %v vs %v", a, b)
	}
}

// With a guarded estimator, measurement-based capping admits less load
// than exact bookkeeping near the cap (the guard band is conservative)
// but the true draw stays within the budget.
func TestMeasuredModeConservative(t *testing.T) {
	mk := func(noise float64) (*Controller, power.Cap) {
		cfg := tinyConfig(core.PolicyShut)
		cfg.MeasuredNoise = noise
		c := mustNew(t, cfg)
		budget := power.CapWatts(c.Cluster().IdlePower() + 3*241 + 10)
		if _, err := c.ReservePowerCap(0, 100000, budget); err != nil {
			t.Fatal(err)
		}
		var jobs []*job.Job
		for i := 0; i < 12; i++ {
			jobs = append(jobs, &job.Job{
				ID: job.ID(i + 1), User: "u", Cores: 4, // one node each
				Submit: int64(i * 20), Runtime: 100000, Walltime: 200000,
			})
		}
		if err := c.LoadWorkload(jobs); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(5000); err != nil {
			t.Fatal(err)
		}
		return c, budget
	}
	exact, budget := mk(0)
	if got := exact.Cluster().Power(); !budget.Allows(got) {
		t.Fatalf("exact mode exceeded the cap: %v > %v", got, budget)
	}
	exactRunning := exact.RunningCount()
	if exactRunning == 0 {
		t.Fatal("exact mode admitted nothing")
	}
	measured, budget2 := mk(0.05)
	if got := measured.Cluster().Power(); !budget2.Allows(got) {
		t.Errorf("measured mode let the true draw exceed the cap: %v > %v", got, budget2)
	}
	if measured.RunningCount() > exactRunning {
		t.Errorf("measured mode admitted more (%d) than exact (%d) despite the guard band",
			measured.RunningCount(), exactRunning)
	}
}
