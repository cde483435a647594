package sim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/trace"
)

func TestFig2ReproducesPaperTable(t *testing.T) {
	out := fig2()
	// The published Figure 2 values must appear verbatim.
	for _, want := range []string{"14 W", "358 W", "248 W", "500 W", "6692 W", "900 W", "3400 W", "34360 W", "6880 W"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig2 missing %q:\n%s", want, out)
		}
	}
}

func TestFig3ContainsAllAppsAndFreqs(t *testing.T) {
	out := fig3()
	for _, app := range []string{"linpack", "STREAM", "IMB", "GROMACS"} {
		if !strings.Contains(out, app) {
			t.Errorf("Fig3 missing app %s", app)
		}
	}
	for _, f := range []string{"1.2 GHz", "2.7 GHz"} {
		if !strings.Contains(out, f) {
			t.Errorf("Fig3 missing frequency %s", f)
		}
	}
}

func TestFig4ReproducesPaperTable(t *testing.T) {
	out := fig4()
	rows := []string{
		"Switch-off       14 W",
		"Idle             117 W",
		"DVFS 1.2 GHz     193 W",
		"DVFS 1.4 GHz     213 W",
		"DVFS 1.6 GHz     234 W",
		"DVFS 1.8 GHz     248 W",
		"DVFS 2 GHz       269 W",
		"DVFS 2.2 GHz     289 W",
		"DVFS 2.4 GHz     317 W",
		"DVFS 2.7 GHz     358 W",
	}
	for _, want := range rows {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 missing row %q:\n%s", want, out)
		}
	}
}

func TestFig5VerdictsAllShutdown(t *testing.T) {
	out := fig5()
	if strings.Count(out, "Switch-off") != 8 {
		t.Errorf("Fig5 should mark all 8 benchmarks switch-off:\n%s", out)
	}
	for _, frag := range []string{"linpack", "2.14", "-0.028", "GROMACS", "1.16", "-0.423"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Fig5 missing %q", frag)
		}
	}
}

func smallRun(t *testing.T, policy core.Policy, frac float64) replay.Result {
	t.Helper()
	r := replay.RunContextWith(context.Background(), replay.Scenario{
		Name:     "test/" + policy.String(),
		Workload: trace.Config{Kind: trace.MedianJob, Seed: 3, DurationSec: 3600},
		Policy:   policy, CapFraction: frac, ScaleRacks: 1,
		Cap: replay.CapWindow{StartSec: 1200, DurationSec: 900},
	}, nil)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	return r
}

func TestTimeSeriesRenders(t *testing.T) {
	r := smallRun(t, core.PolicyShut, 0.6)
	out := timeSeries(r, 60, 10)
	for _, frag := range []string{"cores by CPU frequency", "cluster power draw", "powercap", "2.7 GHz"} {
		if !strings.Contains(out, frag) {
			t.Errorf("TimeSeries missing %q:\n%s", frag, out)
		}
	}
	if !strings.Contains(out, "x=switched-off") {
		t.Errorf("TimeSeries missing the switched-off band legend")
	}
	empty := timeSeries(replay.Result{}, 60, 10)
	if !strings.Contains(empty, "no samples") {
		t.Errorf("empty result rendered %q", empty)
	}
}

func TestFig8AndSummaryTable(t *testing.T) {
	results := []replay.Result{
		smallRun(t, core.PolicyNone, 0),
		smallRun(t, core.PolicyShut, 0.6),
	}
	out := fig8(results)
	for _, frag := range []string{"Energy (normalized)", "Jobs launched", "Work", "100%/None", "60%/SHUT", "workload medianjob"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Fig8 missing %q", frag)
		}
	}
	tbl := summaryTable(results)
	if !strings.Contains(tbl, "scenario") || !strings.Contains(tbl, "test/NONE") {
		t.Errorf("SummaryTable malformed:\n%s", tbl)
	}
	withErr := append(results, replay.Result{
		Scenario: replay.Scenario{Name: "boom"},
		Err:      errFake,
	})
	if !strings.Contains(summaryTable(withErr), "ERROR") {
		t.Error("SummaryTable hides errors")
	}
}

type fakeErr struct{}

func (fakeErr) Error() string { return "fake" }

var errFake = fakeErr{}
