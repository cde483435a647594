package replay

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rjms"
	"repro/internal/trace"
)

// TestClaims24hShape is the Section VII-C integration test at reduced
// scale (8 racks, 720 nodes): the 24-hour workload under a one-hour 40%
// reservation across all policies. Asserts the shape relations the paper
// reports; `expfig -fig claims` (README, "Reproducing a figure end to
// end") prints the full-scale comparison.
func TestClaims24hShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute integration sweep")
	}
	const racks = 8
	wl := trace.Config{Kind: trace.Day24h, Seed: 1004}
	mk := func(p core.Policy, frac float64) Scenario {
		return Scenario{
			Name: fmt.Sprintf("it/%v/%.0f%%", p, frac*100), Workload: wl,
			Policy: p, CapFraction: frac, ScaleRacks: racks,
		}
	}
	scens := []Scenario{
		mk(core.PolicyNone, 0),
		mk(core.PolicyShut, 0.4),
		mk(core.PolicyDvfs, 0.4),
		mk(core.PolicyMix, 0.4),
		mk(core.PolicyIdle, 0.4),
	}
	rs := runEach(scens)
	for _, r := range rs {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	base, shut, dvfsR, mix, idle := rs[0], rs[1], rs[2], rs[3], rs[4]

	// Work: high utilization everywhere (the window is 1 h of 24 h);
	// every capped policy below the baseline.
	if base.Summary.NormWork < 0.9 {
		t.Errorf("baseline work %.3f too low", base.Summary.NormWork)
	}
	for _, r := range []Result{shut, dvfsR, mix, idle} {
		if r.Summary.NormWork >= base.Summary.NormWork {
			t.Errorf("%s work %.3f >= baseline %.3f", r.Scenario.Name,
				r.Summary.NormWork, base.Summary.NormWork)
		}
		if r.Summary.JobsKilled != 0 {
			t.Errorf("%s killed jobs without KillOnOverrun", r.Scenario.Name)
		}
	}
	// Energy: every capped policy saves energy; MIX at or below SHUT
	// (the paper's "lowest energy in MIX mode" claim, which we verify as
	// MIX <= SHUT since DVFS's deep 1.2 GHz preparation varies by trace).
	for _, r := range []Result{shut, dvfsR, mix} {
		if r.Summary.EnergyJ >= base.Summary.EnergyJ {
			t.Errorf("%s energy %v >= baseline %v", r.Scenario.Name,
				r.Summary.EnergyJ, base.Summary.EnergyJ)
		}
	}
	// At reduced scale the MIX/SHUT energy gap sits inside trace noise;
	// allow half a percent (at full scale, `expfig -fig claims`, MIX is
	// strictly lowest).
	if float64(mix.Summary.EnergyJ) > float64(shut.Summary.EnergyJ)*1.005 {
		t.Errorf("MIX energy %v above SHUT %v", mix.Summary.EnergyJ, shut.Summary.EnergyJ)
	}
	// Shutdown actually happened for SHUT and MIX, never for DVFS/IDLE.
	if len(shut.Plan.OffNodes) == 0 || len(mix.Plan.OffNodes) == 0 {
		t.Error("SHUT/MIX planned no shutdown at 40%")
	}
	if len(dvfsR.Plan.OffNodes) != 0 || len(idle.Plan.OffNodes) != 0 {
		t.Error("DVFS/IDLE planned a shutdown")
	}
	// In-window behaviour for SHUT: the draw falls substantially toward
	// the cap as the group drains (long jobs crossing the window may
	// hold a transient above it — the paper's documented default), and
	// the late-window mean improves on the early-window mean.
	start, end := shut.Scenario.Window()
	capW := 0.4 * float64(shut.MaxPower)
	meanOver := func(from, to int64) float64 {
		var sum float64
		var n int
		for _, s := range shut.Samples {
			if s.T >= from && s.T < to {
				sum += float64(s.Power)
				n++
			}
		}
		if n == 0 {
			t.Fatal("no samples in the window")
		}
		return sum / float64(n)
	}
	early := meanOver(start, (start+end)/2)
	late := meanOver((start+end)/2, end)
	if late >= early {
		t.Errorf("SHUT window draw not draining: late mean %.0f >= early %.0f", late, early)
	}
	if late > capW*1.3 {
		t.Errorf("SHUT late-window mean draw %.0f exceeds cap %.0f by >30%%", late, capW)
	}
	preWindow := meanOver(start-3600, start-1800)
	if late >= preWindow {
		t.Errorf("window draw %.0f not below pre-window draw %.0f", late, preWindow)
	}
	// MIX prepared with 2.0 GHz launches.
	found := false
	for f, cnt := range mix.Summary.LaunchedByFreq {
		if int(f) == 2000 && cnt > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("MIX launched nothing at the 2.0 GHz floor: %v", mix.Summary.LaunchedByFreq)
	}
}

// TestDynamicDVFSImprovesCompliance: with the Section VIII extension the
// DVFS policy meets the cap faster when the window opens (running jobs
// are re-clocked instead of waiting for drain).
func TestDynamicDVFSImprovesCompliance(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	wl := trace.Config{Kind: trace.MedianJob, Seed: 1001, DurationSec: 3 * 3600}
	mk := func(dynamic bool) Scenario {
		return Scenario{
			Name: fmt.Sprintf("dyn=%v", dynamic), Workload: wl,
			Policy: core.PolicyDvfs, CapFraction: 0.6, ScaleRacks: 4,
			Options: rjms.Options{DynamicDVFS: dynamic},
		}
	}
	rs := runEach([]Scenario{mk(false), mk(true)})
	for _, r := range rs {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	static, dynamic := rs[0], rs[1]
	if dynamic.Summary.Rescales == 0 {
		t.Fatal("dynamic run performed no rescales")
	}
	if static.Summary.Rescales != 0 {
		t.Fatal("static run rescaled jobs")
	}
	// Energy right after the window opens: the dynamic run must draw no
	// more than the static one (it sheds power immediately).
	start, _ := static.Scenario.Window()
	earlyMean := func(r Result) float64 {
		var sum float64
		var n int
		for _, s := range r.Samples {
			if s.T >= start && s.T < start+600 {
				sum += float64(s.Power)
				n++
			}
		}
		if n == 0 {
			t.Fatal("no early-window samples")
		}
		return sum / float64(n)
	}
	if ds, ss := earlyMean(dynamic), earlyMean(static); ds > ss {
		t.Errorf("dynamic early-window draw %.0f above static %.0f", ds, ss)
	}
}
