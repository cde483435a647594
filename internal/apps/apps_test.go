package apps

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/power"
)

// TestFigure5Reproduction checks every published rho value and mechanism
// verdict of the Figure 5 table.
func TestFigure5Reproduction(t *testing.T) {
	prof := power.CurieProfile()
	want := map[string]float64{
		"NA": 0.0, "linpack": -0.027, "IMB": -0.029,
		"SPEC Float": -0.088, "SPEC Integer": -0.134,
		"Common value": -0.174, "NAS suite": -0.225,
		"STREAM": -0.350, "GROMACS": -0.422,
	}
	rows := Figure5Rows()
	if len(rows) != len(want) {
		t.Fatalf("Figure5Rows has %d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		wantRho, ok := want[r.Name]
		if !ok {
			t.Errorf("unexpected row %q", r.Name)
			continue
		}
		got := r.Rho(prof)
		if math.Abs(got-wantRho) > 0.006 {
			t.Errorf("%s: rho = %.4f, want %.3f", r.Name, got, wantRho)
		}
		// Every row at or below the 2.27 break-even picks switch-off.
		if r.Name != "NA" && r.BestMechanism(prof) != dvfs.MechanismShutdown {
			t.Errorf("%s: mechanism = %v, want switch-off", r.Name, r.BestMechanism(prof))
		}
	}
}

func TestMeasuredApps(t *testing.T) {
	apps := Measured()
	if len(apps) != 4 {
		t.Fatalf("Measured returned %d apps", len(apps))
	}
	var linpack *Profile
	for i := range apps {
		if apps[i].Name == "linpack" {
			linpack = &apps[i]
		}
	}
	if linpack == nil || linpack.PowerAlpha != 1 {
		t.Fatal("linpack must stress the full table power (alpha 1)")
	}
}

// byName finds a profile among the Figure 5 rows.
func byName(name string) (Profile, error) {
	for _, p := range Figure5Rows() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("apps: unknown application %q", name)
}

func TestMaxPowerEndpoints(t *testing.T) {
	prof := power.CurieProfile()
	lp, err := byName("linpack")
	if err != nil {
		t.Fatal(err)
	}
	// Linpack at nominal hits the table maximum (358 W) and at 1.2 GHz
	// the table value 193 W.
	if got := lp.MaxPowerAt(prof, dvfs.F2700); got != 358 {
		t.Errorf("linpack at 2.7 GHz = %v, want 358", got)
	}
	if got := lp.MaxPowerAt(prof, dvfs.F1200); got != 193 {
		t.Errorf("linpack at 1.2 GHz = %v, want 193", got)
	}
	// Lower-alpha codes draw strictly less at every frequency.
	st, err := byName("STREAM")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range prof.Frequencies() {
		if st.MaxPowerAt(prof, f) >= lp.MaxPowerAt(prof, f) {
			t.Errorf("STREAM draw at %v not below linpack", f)
		}
	}
}

func TestNormTimeEndpointsAndMonotonicity(t *testing.T) {
	prof := power.CurieProfile()
	for _, app := range Measured() {
		if got := app.NormTimeAt(prof, dvfs.F2700); got != 1 {
			t.Errorf("%s: NormTime(2.7) = %v, want 1", app.Name, got)
		}
		if got := app.NormTimeAt(prof, dvfs.F1200); math.Abs(got-app.DegMin) > 1e-9 {
			t.Errorf("%s: NormTime(1.2) = %v, want %v", app.Name, got, app.DegMin)
		}
		prev := math.Inf(1)
		for _, f := range prof.Frequencies() {
			v := app.NormTimeAt(prof, f)
			if v > prev {
				t.Errorf("%s: NormTime not decreasing with frequency at %v", app.Name, f)
			}
			prev = v
		}
	}
}

func TestNormTimeClamps(t *testing.T) {
	prof := power.CurieProfile()
	lp, _ := byName("linpack")
	if got := lp.NormTimeAt(prof, 0); got != 1 {
		t.Errorf("NormTime(0=nominal) = %v", got)
	}
	if got := lp.NormTimeAt(prof, 500); math.Abs(got-lp.DegMin) > 1e-9 {
		t.Errorf("NormTime below range = %v, want clamp to DegMin", got)
	}
	if got := lp.NormTimeAt(prof, 9000); got != 1 {
		t.Errorf("NormTime above range = %v, want clamp to 1", got)
	}
}

func TestFigure3Points(t *testing.T) {
	prof := power.CurieProfile()
	pts := Figure3Points(prof)
	if len(pts) != 4*8 {
		t.Fatalf("points = %d, want 32 (4 apps x 8 freqs)", len(pts))
	}
	// The 1/f interpolation bows below the straight line in f: mid-range
	// frequencies cost less slowdown than a linear model would claim,
	// with the penalty accelerating toward the ladder bottom.
	lp, _ := byName("linpack")
	mid := lp.NormTimeAt(prof, dvfs.F1800)
	linear := 1 + (lp.DegMin-1)*float64(dvfs.F2700-dvfs.F1800)/float64(dvfs.F2700-dvfs.F1200)
	if mid >= linear {
		t.Errorf("1/f model midpoint %v not below linear-in-f %v", mid, linear)
	}
	// All points within the physical envelope.
	for _, p := range pts {
		if p.Watts < prof.Idle() || p.Watts > prof.Max() {
			t.Errorf("%s@%v draw %v outside [idle,max]", p.App, p.Freq, p.Watts)
		}
		if p.NormTime < 1 || p.NormTime > 2.27 {
			t.Errorf("%s@%v time %v outside [1, 2.27]", p.App, p.Freq, p.NormTime)
		}
	}
}
