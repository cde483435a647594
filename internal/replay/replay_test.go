package replay

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/trace"
)

// Scale-2 machine (180 nodes, 2880 cores): Curie shape, fast runs.
const testRacks = 2

func shortWorkload(kind trace.Kind, seed int64) trace.Config {
	return trace.Config{Kind: kind, Seed: seed, DurationSec: 2 * 3600}
}

// run replays one scenario to completion, uncancellable.
func run(s Scenario) Result { return RunContextWith(context.Background(), s, nil) }

// runEach replays scenarios one after another (the parallel pool lives
// in internal/experiment, which this package cannot import).
func runEach(scens []Scenario) []Result {
	rs := make([]Result, len(scens))
	for i, s := range scens {
		rs[i] = run(s)
	}
	return rs
}

func TestScenarioHelpers(t *testing.T) {
	s := Scenario{Workload: trace.Config{Kind: trace.Day24h}, CapFraction: 0.4, Policy: core.PolicyMix}
	if s.Duration() != 24*3600 {
		t.Errorf("Duration = %d", s.Duration())
	}
	start, end := s.Window()
	if start != (24*3600-3600)/2 || end != start+3600 {
		t.Errorf("Window = [%d,%d)", start, end)
	}
	if !s.Capped() {
		t.Error("Capped = false")
	}
	if s.Label() != "40%/MIX" {
		t.Errorf("Label = %q", s.Label())
	}
	if (Scenario{}).Capped() {
		t.Error("zero scenario capped")
	}
	if (Scenario{CapFraction: 1}).Capped() {
		t.Error("cap=1 scenario capped")
	}
	if got := (Scenario{}).Label(); got != "100%/None" {
		t.Errorf("uncapped label = %q", got)
	}
	open := Scenario{Workload: shortWorkload(trace.MedianJob, 1), CapFraction: 0.5, Cap: CapWindow{StartSec: 100, OpenEnded: true}}
	if _, end := open.Window(); end <= open.Duration() {
		t.Error("open-ended window should extend past the interval")
	}
	full := Scenario{}
	if full.Machine().Racks != 56 {
		t.Errorf("default machine racks = %d", full.Machine().Racks)
	}
	if (Scenario{ScaleRacks: 3}).Machine().Racks != 3 {
		t.Error("ScaleRacks ignored")
	}
}

func TestRunBaselineUtilization(t *testing.T) {
	r := run(Scenario{
		Name:     "baseline",
		Workload: shortWorkload(trace.MedianJob, 11),
		Policy:   core.PolicyNone, ScaleRacks: testRacks,
	})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Summary.NormWork < 0.75 {
		t.Errorf("uncapped utilization = %.3f, want high (overloaded queue)", r.Summary.NormWork)
	}
	if r.Summary.JobsLaunched == 0 || len(r.Samples) == 0 {
		t.Errorf("no activity recorded: %+v", r.Summary)
	}
	if r.Plan.OffNodes != nil {
		t.Error("uncapped run produced an offline plan")
	}
}

func TestRunCappedShutHoldsBudgetAfterDrain(t *testing.T) {
	s := Scenario{
		Name:     "shut60",
		Workload: shortWorkload(trace.MedianJob, 11),
		Policy:   core.PolicyShut, CapFraction: 0.6, ScaleRacks: testRacks,
	}
	r := run(s)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(r.Plan.OffNodes) == 0 {
		t.Fatal("no switch-off plan at a 60% cap")
	}
	start, end := s.Window()
	capW := 0.6 * float64(r.MaxPower)
	// Allow the documented drain transient; after a third of the window
	// the draw must be within the budget (short-job-dominated trace).
	var worst float64
	sawOff := false
	for _, sm := range r.Samples {
		if sm.T >= start+(end-start)/3 && sm.T < end {
			if float64(sm.Power) > worst {
				worst = float64(sm.Power)
			}
			if sm.OffNodes > 0 {
				sawOff = true
			}
		}
	}
	if !sawOff {
		t.Error("no nodes were off during the window")
	}
	if worst > capW*1.10 {
		t.Errorf("late-window draw %.0f exceeds cap %.0f by more than 10%%", worst, capW)
	}
	// Work under a cap must not exceed the uncapped baseline by much
	// (SHUT runs at nominal frequency, so no slowdown inflation).
	base := run(Scenario{Workload: shortWorkload(trace.MedianJob, 11), Policy: core.PolicyNone, ScaleRacks: testRacks})
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	if r.Summary.WorkCoreSec > base.Summary.WorkCoreSec*1.02 {
		t.Errorf("capped SHUT work %.3g above baseline %.3g",
			r.Summary.WorkCoreSec, base.Summary.WorkCoreSec)
	}
	if r.Summary.EnergyJ >= base.Summary.EnergyJ {
		t.Errorf("capped energy %v not below baseline %v", r.Summary.EnergyJ, base.Summary.EnergyJ)
	}
}

func TestRunDvfsLaunchesBelowNominal(t *testing.T) {
	s := Scenario{
		Name:     "dvfs40",
		Workload: shortWorkload(trace.SmallJob, 12),
		Policy:   core.PolicyDvfs, CapFraction: 0.4, ScaleRacks: testRacks,
	}
	r := run(s)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	below := 0
	for f, n := range r.Summary.LaunchedByFreq {
		if int(f) < 2700 {
			below += n
		}
	}
	if below == 0 {
		t.Errorf("DVFS at a 40%% cap launched nothing below nominal: %v", r.Summary.LaunchedByFreq)
	}
	if r.Plan.OffNodes != nil {
		t.Error("DVFS planned a shutdown")
	}
}

func TestRunDeterministic(t *testing.T) {
	s := Scenario{
		Workload: shortWorkload(trace.BigJob, 13),
		Policy:   core.PolicyMix, CapFraction: 0.6, ScaleRacks: testRacks,
	}
	a, b := run(s), run(s)
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if a.Summary.EnergyJ != b.Summary.EnergyJ || a.Summary.WorkCoreSec != b.Summary.WorkCoreSec ||
		a.Summary.JobsLaunched != b.Summary.JobsLaunched {
		t.Errorf("replay not deterministic:\n  %v\n  %v", a.Summary, b.Summary)
	}
}

func TestRunExplicitJobs(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: "u", Cores: 64, Submit: 0, Runtime: 600, Walltime: 1200},
		{ID: 2, User: "u", Cores: 64, Submit: 10, Runtime: 600, Walltime: 1200},
	}
	r := run(Scenario{
		Name:     "explicit",
		Workload: trace.Config{Kind: trace.MedianJob, DurationSec: 3600},
		Policy:   core.PolicyNone, ScaleRacks: testRacks,
		Jobs: jobs,
	})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Summary.JobsSubmitted != 2 || r.Summary.JobsCompleted != 2 {
		t.Errorf("explicit workload not replayed: %+v", r.Summary)
	}
	// BSLD recorded for completed jobs.
	if r.Summary.MeanBSLD < 1 {
		t.Errorf("MeanBSLD = %v, want >= 1", r.Summary.MeanBSLD)
	}
}

func TestRunPropagatesWorkloadError(t *testing.T) {
	r := run(Scenario{Workload: trace.Config{Kind: trace.MedianJob, DurationSec: -1}})
	if r.Err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestFig8ScenarioGrid(t *testing.T) {
	scens := Fig8Scenarios(testRacks)
	// 3 workloads x (1 baseline + 2@80% + 3@60% + 3@40%) = 27.
	if len(scens) != 27 {
		t.Fatalf("grid size = %d, want 27", len(scens))
	}
	perKind := map[string]int{}
	mixAt80 := false
	for _, s := range scens {
		perKind[s.Workload.Kind.String()]++
		if s.CapFraction == 0.8 && s.Policy == core.PolicyMix {
			mixAt80 = true
		}
		if s.ScaleRacks != testRacks {
			t.Errorf("%s: scale not forwarded", s.Name)
		}
	}
	if mixAt80 {
		t.Error("MIX appears at 80% (the paper introduces it below its 75% threshold)")
	}
	for k, n := range perKind {
		if n != 9 {
			t.Errorf("workload %s has %d scenarios, want 9", k, n)
		}
	}
}

func TestNamedScenarios(t *testing.T) {
	if s := Fig6Scenario(0); s.Policy != core.PolicyMix || s.CapFraction != 0.4 ||
		s.Workload.Kind != trace.Day24h {
		t.Errorf("Fig6 scenario wrong: %+v", s)
	}
	if s := Fig7aScenario(0); s.Policy != core.PolicyShut || s.CapFraction != 0.6 ||
		s.Workload.Kind != trace.BigJob {
		t.Errorf("Fig7a scenario wrong: %+v", s)
	}
	if s := Fig7bScenario(0); s.Policy != core.PolicyDvfs || s.CapFraction != 0.4 ||
		s.Workload.Kind != trace.SmallJob {
		t.Errorf("Fig7b scenario wrong: %+v", s)
	}
	claims := Claims24hScenarios(0)
	if len(claims) != 5 {
		t.Fatalf("claims scenarios = %d, want 5", len(claims))
	}
	seen := map[core.Policy]bool{}
	for _, s := range claims {
		seen[s.Policy] = true
	}
	for _, p := range []core.Policy{core.PolicyNone, core.PolicyShut, core.PolicyDvfs, core.PolicyMix, core.PolicyIdle} {
		if !seen[p] {
			t.Errorf("claims missing policy %v", p)
		}
	}
	ab := AblationGroupingScenarios(0)
	if len(ab) != 2 || ab[0].Scattered || !ab[1].Scattered {
		t.Errorf("grouping ablation wrong: %+v", ab)
	}
	mf := AblationMixFloorScenarios(0)
	if len(mf) != 2 || mf[0].Policy != core.PolicyMix || mf[1].Policy != core.PolicyDvfs {
		t.Errorf("mix-floor ablation wrong: %+v", mf)
	}
	for _, s := range append(append(claims, ab...), mf...) {
		if !strings.Contains(s.Name, "/") {
			t.Errorf("scenario name %q not structured", s.Name)
		}
	}
}

// TestPolicyShapeMedianjob checks the headline Figure 8 shape on a fast
// reduced-scale medianjob interval: work and energy fall as the cap
// tightens, and the capped runs consume less energy than the baseline.
func TestPolicyShapeMedianjob(t *testing.T) {
	wl := shortWorkload(trace.MedianJob, 21)
	mk := func(p core.Policy, frac float64) Scenario {
		return Scenario{Workload: wl, Policy: p, CapFraction: frac, ScaleRacks: testRacks}
	}
	scens := []Scenario{
		mk(core.PolicyNone, 0),
		mk(core.PolicyShut, 0.6),
		mk(core.PolicyShut, 0.4),
		mk(core.PolicyMix, 0.4),
	}
	rs := runEach(scens)
	for _, r := range rs {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	base, shut60, shut40, mix40 := rs[0], rs[1], rs[2], rs[3]
	if shut40.Summary.EnergyJ >= shut60.Summary.EnergyJ {
		t.Errorf("energy did not fall with the cap: 40%%=%v >= 60%%=%v",
			shut40.Summary.EnergyJ, shut60.Summary.EnergyJ)
	}
	if shut60.Summary.EnergyJ >= base.Summary.EnergyJ {
		t.Errorf("capped energy above baseline: %v >= %v",
			shut60.Summary.EnergyJ, base.Summary.EnergyJ)
	}
	if mix40.Summary.EnergyJ >= base.Summary.EnergyJ {
		t.Errorf("MIX energy above baseline")
	}
	// MIX's shutdown group must be sized for the 2.0 GHz floor, i.e. no
	// bigger than SHUT's at the same cap.
	if len(mix40.Plan.OffNodes) > len(shut40.Plan.OffNodes) {
		t.Errorf("MIX plans more shutdowns (%d) than SHUT (%d) at the same cap",
			len(mix40.Plan.OffNodes), len(shut40.Plan.OffNodes))
	}
}
