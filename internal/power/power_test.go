package power

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dvfs"
)

// TestCurieProfileFigure4 checks every row of the Figure 4 table.
func TestCurieProfileFigure4(t *testing.T) {
	p := CurieProfile()
	if p.Down() != 14 {
		t.Errorf("Down = %v, want 14 W", p.Down())
	}
	if p.Idle() != 117 {
		t.Errorf("Idle = %v, want 117 W", p.Idle())
	}
	rows := map[dvfs.Freq]Watts{
		dvfs.F1200: 193, dvfs.F1400: 213, dvfs.F1600: 234, dvfs.F1800: 248,
		dvfs.F2000: 269, dvfs.F2200: 289, dvfs.F2400: 317, dvfs.F2700: 358,
	}
	for f, w := range rows {
		if got := p.Busy(f); got != w {
			t.Errorf("Busy(%v) = %v, want %v", f, got, w)
		}
	}
	if p.Max() != 358 {
		t.Errorf("Max = %v, want 358", p.Max())
	}
	if got := p.Busy(p.MinFreq()); got != 193 {
		t.Errorf("Busy(MinFreq) = %v, want 193", got)
	}
	if p.Nominal() != dvfs.F2700 || p.MinFreq() != dvfs.F1200 {
		t.Errorf("freq range = [%v,%v]", p.MinFreq(), p.Nominal())
	}
}

// The scheduler prices a probed launch as a sum over the partly used
// nodes it would take plus (idle nodes taken) x (Busy(f) - Idle)
// (cluster.IdleOccupyDelta), and the goldens were captured adding the
// same terms node by node in allocation order. The two agree bit for bit
// only because every draw the sum can contain is a whole number of
// watts: partial sums are then integers far below 2^53, which float64
// adds exactly in any order. A fractional draw at any ladder rung would
// make the result depend on the order.
func TestCurieProfileIntegralWatts(t *testing.T) {
	p := CurieProfile()
	draws := map[string]Watts{"down": p.Down(), "idle": p.Idle()}
	for _, ladder := range []dvfs.Ladder{dvfs.CurieLadder(), dvfs.MixLadder()} {
		for _, f := range ladder {
			draws[f.String()] = p.Busy(f)
		}
	}
	for name, w := range draws {
		if w != Watts(math.Trunc(float64(w))) || w < 0 || w > 1e6 {
			t.Errorf("%s draw %v is not a whole number of watts", name, float64(w))
		}
	}
}

// busyMapRef is Busy as it was while the profile kept a frequency→watts
// map: a lookup of the rung, nominal for 0. Kept as the oracle for the
// slice scan that replaced it.
func busyMapRef(freqW map[dvfs.Freq]Watts, f dvfs.Freq) Watts {
	if f == 0 {
		var top dvfs.Freq
		for k := range freqW {
			top = max(top, k)
		}
		return freqW[top]
	}
	return freqW[f]
}

func TestProfileBusyMatchesMapLookup(t *testing.T) {
	for name, freqW := range map[string]map[dvfs.Freq]Watts{
		"curie": {
			dvfs.F1200: 193, dvfs.F1400: 213, dvfs.F1600: 234, dvfs.F1800: 248,
			dvfs.F2000: 269, dvfs.F2200: 289, dvfs.F2400: 317, dvfs.F2700: 358,
		},
		"one rung": {dvfs.F2000: 250},
		"uneven":   {1300: 150.5, 1750: 201.25, 2900: 333.125},
	} {
		p, err := NewProfile(10, 100, freqW)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		probes := []dvfs.Freq{0}
		for f := range freqW {
			probes = append(probes, f)
		}
		for _, f := range probes {
			if got, want := p.Busy(f), busyMapRef(freqW, f); got != want {
				t.Errorf("%s: Busy(%d) = %v, map lookup gives %v", name, int(f), float64(got), float64(want))
			}
		}
	}
}

// TestProfileBusyMonotone walks the rungs: a faster rung never draws
// less, and the slowest draws no less than an idle node.
func TestProfileBusyMonotone(t *testing.T) {
	p := CurieProfile()
	prev := p.Idle()
	for _, f := range p.Frequencies() {
		if w := p.Busy(f); w < prev {
			t.Errorf("Busy(%v) = %v, below the rung under it (%v)", f, w, prev)
		} else {
			prev = w
		}
	}
}

func TestNewProfileRejects(t *testing.T) {
	freqs := map[dvfs.Freq]Watts{dvfs.F2700: 358}
	if _, err := NewProfile(14, 117, nil); err == nil {
		t.Error("empty freq table accepted")
	}
	if _, err := NewProfile(-1, 117, freqs); err == nil {
		t.Error("negative down accepted")
	}
	if _, err := NewProfile(200, 117, freqs); err == nil {
		t.Error("idle < down accepted")
	}
	if _, err := NewProfile(14, 117, map[dvfs.Freq]Watts{dvfs.F1200: 300, dvfs.F2700: 200}); err == nil {
		t.Error("non-monotone draw accepted")
	}
	if _, err := NewProfile(14, 117, map[dvfs.Freq]Watts{-1: 300}); err == nil {
		t.Error("negative frequency accepted")
	}
	if _, err := NewProfile(14, 117, map[dvfs.Freq]Watts{dvfs.F1200: 50}); err == nil {
		t.Error("busy draw below idle accepted")
	}
}

func TestProfileRhoMatchesPaper(t *testing.T) {
	p := CurieProfile()
	got := p.Rho(1.63, dvfs.F1200)
	if math.Abs(got-(-0.174)) > 0.006 {
		t.Errorf("Rho(1.63) = %v, want about -0.174 (Figure 5 common value)", got)
	}
}

func TestCapBasics(t *testing.T) {
	if NoCap.IsSet() {
		t.Error("NoCap reports set")
	}
	if !NoCap.Allows(1e12) {
		t.Error("NoCap should allow everything")
	}
	c := CapWatts(1000)
	if !c.IsSet() || c.Watts() != 1000 {
		t.Fatalf("CapWatts broken: %+v", c)
	}
	if !c.Allows(1000) || c.Allows(1000.5) {
		t.Error("Allows boundary wrong")
	}
	if CapWatts(-5).Watts() != 0 {
		t.Error("negative cap should clamp to 0")
	}
}

func TestCapFraction(t *testing.T) {
	c := CapFraction(0.4, 1000)
	if c.Watts() != 400 {
		t.Errorf("CapFraction(0.4, 1000) = %v, want 400", c.Watts())
	}
	if CapFraction(-1, 1000).Watts() != 0 {
		t.Error("negative lambda should clamp to 0")
	}
}

func TestCapString(t *testing.T) {
	if got := NoCap.String(); got != "uncapped" {
		t.Errorf("NoCap.String() = %q", got)
	}
	if got := CapWatts(1.8e6).String(); !strings.Contains(got, "MW") {
		t.Errorf("1.8 MW cap renders as %q", got)
	}
}

func TestWattsString(t *testing.T) {
	cases := map[Watts]string{
		14:      "14.0 W",
		1500:    "1.50 kW",
		1804320: "1.804 MW",
	}
	for w, want := range cases {
		if got := w.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", float64(w), got, want)
		}
	}
}

func TestJoulesString(t *testing.T) {
	for j, frag := range map[Joules]string{
		500:    "J",
		5e3:    "kJ",
		5e6:    "MJ",
		5.5e9:  "GJ",
		-5.5e9: "GJ",
	} {
		if got := j.String(); !strings.Contains(got, frag) {
			t.Errorf("%v.String() = %q, want unit %q", float64(j), got, frag)
		}
	}
}

func TestJoulesKWh(t *testing.T) {
	if got := Joules(3.6e6).KWh(); math.Abs(got-1) > 1e-12 {
		t.Errorf("3.6 MJ = %v kWh, want 1", got)
	}
}

func TestEnergy(t *testing.T) {
	if got := Energy(100, 3600); got != 360000 {
		t.Errorf("Energy(100 W, 1 h) = %v, want 360000 J", got)
	}
}

// newMeter starts a meter the way metrics.Recorder does: the zero value
// and a first Set.
func newMeter(at int64, w Watts) *Meter {
	var m Meter
	if err := m.Set(at, w); err != nil {
		panic(err)
	}
	return &m
}

func TestMeterIntegration(t *testing.T) {
	m := newMeter(0, 100)
	if err := m.Set(10, 200); err != nil {
		t.Fatal(err)
	}
	if err := m.Set(20, 50); err != nil {
		t.Fatal(err)
	}
	// 100 W x 10 s + 200 W x 10 s = 3000 J; then 50 W x 10 s more.
	if got := m.EnergyAt(20); got != 3000 {
		t.Errorf("EnergyAt(20) = %v, want 3000", got)
	}
	if got := m.EnergyAt(30); got != 3500 {
		t.Errorf("EnergyAt(30) = %v, want 3500", got)
	}
	if m.Peak() != 200 {
		t.Errorf("Peak = %v, want 200", m.Peak())
	}
	if m.last != 50 {
		t.Errorf("open segment = %v, want 50", m.last)
	}
}

func TestMeterRejectsTimeTravel(t *testing.T) {
	m := newMeter(100, 10)
	if err := m.Set(50, 20); err == nil {
		t.Error("out-of-order update accepted")
	}
}

func TestMeterZeroDurationUpdates(t *testing.T) {
	m := newMeter(5, 10)
	if err := m.Set(5, 99); err != nil {
		t.Fatal(err)
	}
	if got := m.EnergyAt(5); got != 0 {
		t.Errorf("zero-span energy = %v, want 0", got)
	}
	if m.last != 99 {
		t.Errorf("open segment = %v, want most recent value", m.last)
	}
}

func TestMeterMean(t *testing.T) {
	m := newMeter(0, 100)
	if err := m.Set(10, 300); err != nil {
		t.Fatal(err)
	}
	// (100x10 + 300x10)/20 = 200.
	if got := m.MeanAt(20); got != 200 {
		t.Errorf("MeanAt(20) = %v, want 200", got)
	}
	if got := m.MeanAt(0); got != 300 {
		t.Errorf("MeanAt at start = %v, want current draw", got)
	}
}

func TestMeterEnergyBeforeLastUpdate(t *testing.T) {
	m := newMeter(0, 100)
	if err := m.Set(10, 200); err != nil {
		t.Fatal(err)
	}
	// Querying before the last update clamps to the update instant.
	if got := m.EnergyAt(5); got != 1000 {
		t.Errorf("EnergyAt(5) = %v, want clamp to 1000", got)
	}
}

func TestMeterZeroValueSet(t *testing.T) {
	var m Meter
	if err := m.Set(7, 42); err != nil {
		t.Fatal(err)
	}
	if got := m.EnergyAt(17); got != 420 {
		t.Errorf("zero-value meter energy = %v, want 420", got)
	}
}

// Property: meter total equals the hand-computed piecewise sum for random
// monotone schedules.
func TestMeterPiecewiseProperty(t *testing.T) {
	f := func(steps []uint8, watts []uint16) bool {
		m := newMeter(0, 0)
		at := int64(0)
		last := Watts(0)
		var want Joules
		n := len(steps)
		if len(watts) < n {
			n = len(watts)
		}
		for i := 0; i < n; i++ {
			dt := int64(steps[i])
			w := Watts(watts[i])
			want += Energy(last, dt)
			at += dt
			if err := m.Set(at, w); err != nil {
				return false
			}
			last = w
		}
		return math.Abs(float64(m.EnergyAt(at)-want)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
