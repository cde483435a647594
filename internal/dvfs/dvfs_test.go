package dvfs

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCurieLadder(t *testing.T) {
	l := CurieLadder()
	if err := l.Validate(); err != nil {
		t.Fatalf("CurieLadder invalid: %v", err)
	}
	if got, want := len(l), 8; got != want {
		t.Fatalf("ladder size = %d, want %d", got, want)
	}
	if l.Min() != F1200 || l.Max() != F2700 {
		t.Errorf("ladder range = [%v, %v], want [1.2 GHz, 2.7 GHz]", l.Min(), l.Max())
	}
}

func TestMixLadder(t *testing.T) {
	l := MixLadder()
	if err := l.Validate(); err != nil {
		t.Fatalf("MixLadder invalid: %v", err)
	}
	if l.Min() != F2000 {
		t.Errorf("MIX floor = %v, want 2.0 GHz (Section VI-B)", l.Min())
	}
	if l.Max() != F2700 {
		t.Errorf("MIX ceiling = %v, want 2.7 GHz", l.Max())
	}
}

func TestLadderValidate(t *testing.T) {
	cases := []struct {
		name string
		l    Ladder
		ok   bool
	}{
		{"empty", Ladder{}, false},
		{"single", Ladder{F2000}, true},
		{"descending", Ladder{F2000, F1200}, false},
		{"duplicate", Ladder{F1200, F1200}, false},
		{"negative", Ladder{-5, F1200}, false},
		{"curie", CurieLadder(), true},
	}
	for _, tc := range cases {
		if err := tc.l.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestLadderBelowAbove(t *testing.T) {
	l := CurieLadder()
	if f, ok := l.Below(F2700); !ok || f != F2400 {
		t.Errorf("Below(2.7) = %v,%v want 2.4,true", f, ok)
	}
	if _, ok := l.Below(F1200); ok {
		t.Errorf("Below(1.2) should fail at ladder bottom")
	}
	// Below on a non-member frequency snaps to the next lower member.
	if f, ok := l.Below(2500); !ok || f != F2400 {
		t.Errorf("Below(2500) = %v,%v want 2.4,true", f, ok)
	}
}

func TestFreqString(t *testing.T) {
	if s := F2700.String(); s != "2.7 GHz" {
		t.Errorf("F2700.String() = %q", s)
	}
	if s := Freq(0).String(); s != "nominal" {
		t.Errorf("Freq(0).String() = %q", s)
	}
}

func TestDegradationEndpoints(t *testing.T) {
	d := CurieDegradation()
	if got := d.Factor(F2700); got != 1 {
		t.Errorf("Factor(nominal) = %v, want 1", got)
	}
	if got := d.Factor(F1200); got != DegMinCommon {
		t.Errorf("Factor(min) = %v, want %v", got, DegMinCommon)
	}
	if got := d.Factor(0); got != 1 {
		t.Errorf("Factor(0 means nominal) = %v, want 1", got)
	}
}

func TestDegradationInterpolation(t *testing.T) {
	d := CurieDegradation()
	// Midpoint of the 1.2-2.7 range is 1.95 GHz: factor = 1 + 0.63/2.
	mid := Freq(1950)
	want := 1 + (DegMinCommon-1)/2
	if got := d.Factor(mid); math.Abs(got-want) > 1e-9 {
		t.Errorf("Factor(1.95 GHz) = %v, want %v", got, want)
	}
	// Monotonically non-increasing with frequency.
	prev := math.Inf(1)
	for _, f := range CurieLadder() {
		fac := d.Factor(f)
		if fac > prev {
			t.Errorf("Factor not monotone: Factor(%v)=%v > previous %v", f, fac, prev)
		}
		prev = fac
	}
}

func TestMixDegradation(t *testing.T) {
	d := MixDegradation()
	if got := d.Factor(F2000); math.Abs(got-DegMinMix) > 1e-9 {
		t.Errorf("MIX Factor(2.0 GHz) = %v, want %v", got, DegMinMix)
	}
	if got := d.Factor(F2700); got != 1 {
		t.Errorf("MIX Factor(2.7 GHz) = %v, want 1", got)
	}
}

func TestNewDegradationRejects(t *testing.T) {
	if _, err := NewDegradation(Ladder{}, 1.5); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := NewDegradation(CurieLadder(), 0.9); err == nil {
		t.Error("degMin < 1 accepted")
	}
}

func TestScaleDuration(t *testing.T) {
	d := CurieDegradation()
	if got := d.ScaleDuration(100, F2700); got != 100 {
		t.Errorf("ScaleDuration nominal = %d, want 100", got)
	}
	if got := d.ScaleDuration(100, F1200); got != 163 {
		t.Errorf("ScaleDuration min = %d, want 163", got)
	}
	if got := d.ScaleDuration(0, F1200); got != 0 {
		t.Errorf("ScaleDuration(0) = %d, want 0", got)
	}
	if got := d.ScaleDuration(-7, F1200); got != -7 {
		t.Errorf("ScaleDuration(-7) = %d, want passthrough -7", got)
	}
}

func TestScaleDurationNeverShrinks(t *testing.T) {
	d := CurieDegradation()
	f := func(nominal int64, rung uint8) bool {
		if nominal < 0 {
			nominal = -nominal
		}
		nominal %= 1 << 40 // keep the float math exact enough
		l := CurieLadder()
		fr := l[int(rung)%len(l)]
		return d.ScaleDuration(nominal, fr) >= nominal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRhoFigure5 checks rho against every row of Figure 5 of the paper
// (Curie constants: Pmax=358, Pdvfs=193, Poff=14).
func TestRhoFigure5(t *testing.T) {
	rows := []struct {
		name    string
		degmin  float64
		wantRho float64
	}{
		{"NA", 2.27, 0.0},
		{"linpack", 2.14, -0.027},
		{"IMB", 2.13, -0.029},
		{"SPEC Float", 1.89, -0.088},
		{"SPEC Integer", 1.74, -0.134},
		{"Common value", 1.63, -0.174},
		{"NAS suite", 1.5, -0.225},
		{"STREAM", 1.26, -0.350},
		{"GROMACS", 1.16, -0.422},
	}
	for _, r := range rows {
		got := Rho(r.degmin, 358, 193, 14)
		if math.Abs(got-r.wantRho) > 0.006 {
			t.Errorf("%s: rho = %.4f, want %.3f (Figure 5)", r.name, got, r.wantRho)
		}
	}
}

func TestRhoBreakEvenDegmin(t *testing.T) {
	// rho == 0 at degmin = 1/(1-Pmin/(Pmax-Poff)); for the Curie
	// constants that is about 2.27-2.28 (the "NA" row of Figure 5).
	breakEven := 1 / (1 - 193.0/(358.0-14))
	if math.Abs(breakEven-2.27) > 0.02 {
		t.Fatalf("Curie break-even degmin = %v, want about 2.27", breakEven)
	}
	if rho := Rho(breakEven, 358, 193, 14); math.Abs(rho) > 1e-9 {
		t.Errorf("rho at break-even = %v, want 0", rho)
	}
}

func TestChooseMechanism(t *testing.T) {
	for _, tc := range []struct {
		rho  float64
		want Mechanism
	}{
		{0.1, MechanismDVFS},
		{-0.1, MechanismShutdown},
		{0, MechanismShutdown}, // Algorithm 1: "if rho <= 0 then switch-off"
		{math.SmallestNonzeroFloat64, MechanismDVFS},
	} {
		if got := ChooseMechanism(tc.rho); got != tc.want {
			t.Errorf("ChooseMechanism(%v) = %v, want %v", tc.rho, got, tc.want)
		}
	}
}

func TestMechanismString(t *testing.T) {
	for m, want := range map[Mechanism]string{
		MechanismShutdown: "Switch-off",
		MechanismDVFS:     "DVFS",
		MechanismEither:   "Either",
		Mechanism(42):     "Mechanism(42)",
	} {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

// With real shutdown available, every Figure 5 benchmark row yields a
// negative rho on the Curie constants, i.e. switch-off wins — the paper's
// Section VI-B conclusion "shutdown is the best mechanism to use".
func TestRhoAllBenchmarksChooseShutdown(t *testing.T) {
	for _, degmin := range []float64{1.16, 1.26, 1.5, 1.63, 1.74, 1.89, 2.13, 2.14} {
		if rho := Rho(degmin, 358, 193, 14); rho >= 0 {
			t.Errorf("rho(degmin=%v) = %v, want < 0 (switch-off)", degmin, rho)
		}
	}
}

func TestGHz(t *testing.T) {
	if got := F2700.GHz(); got != 2.7 {
		t.Errorf("GHz = %v", got)
	}
}

func TestLadderCloneIndependent(t *testing.T) {
	l := CurieLadder()
	cl := l.Clone()
	cl[0] = 1
	if l[0] == 1 {
		t.Error("Clone aliases the original")
	}
}
