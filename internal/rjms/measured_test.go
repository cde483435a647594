package rjms

import (
	"math"
	"testing"
	"testing/quick"

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
		sum, err := runTo(c, 2000)
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
		if _, err := runTo(c, 5000); err != nil {
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

// lastReading is the reading m's latest push put in the window.
func lastReading(m *measuredPower) power.Watts {
	return m.ring[(m.next+len(m.ring)-1)%len(m.ring)]
}

func TestMeasuredPowerDeterministic(t *testing.T) {
	a, b := newMeasuredPower(0.02), newMeasuredPower(0.02)
	for i := 0; i < 100; i++ {
		a.push(1000)
		b.push(1000)
		if lastReading(a) != lastReading(b) || a.estimate() != b.estimate() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestMeasuredPowerNoiseStatistics(t *testing.T) {
	m := newMeasuredPower(0.02)
	const truth = 1000.0
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		m.push(truth)
		r := float64(lastReading(m))
		sum += r
		sumSq += r * r
	}
	mean := sum / n
	stddev := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-truth) > 2 {
		t.Errorf("mean = %.2f, want about %.0f", mean, truth)
	}
	if math.Abs(stddev-20) > 2 {
		t.Errorf("stddev = %.2f, want about 20 (2%% of 1000)", stddev)
	}
}

func TestMeasuredPowerClampsAtZero(t *testing.T) {
	m := newMeasuredPower(5) // unclamped, about two readings in five would be negative
	for i := 0; i < 1000; i++ {
		m.push(1000)
		if r := lastReading(m); r < 0 {
			t.Fatalf("reading %v below zero", r)
		}
	}
}

func TestMeasuredPowerWindowMeanAndEviction(t *testing.T) {
	m := newMeasuredPower(0) // noiseless: readings are the truth, the estimate the mean
	if m.estimate() != 0 {
		t.Error("empty window not zero")
	}
	m.push(10)
	m.push(20)
	if got := m.estimate(); got != 15 {
		t.Errorf("mean = %v", got)
	}
	for v := 30; v <= 100; v += 10 {
		m.push(power.Watts(v))
	}
	if m.n != measuredPowerWindow || m.estimate() != 55 {
		t.Fatalf("full window holds %d readings, mean %v; want %d and 55", m.n, m.estimate(), measuredPowerWindow)
	}
	m.push(110) // evicts 10
	if got := m.estimate(); got != 65 {
		t.Errorf("mean after eviction = %v, want 65", got)
	}
}

// Property: the noiseless estimate always equals the mean of the last
// measuredPowerWindow pushes.
func TestMeasuredPowerWindowMeanProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		m := newMeasuredPower(0)
		for _, v := range vals {
			m.push(power.Watts(v))
		}
		if len(vals) == 0 {
			return m.estimate() == 0
		}
		lo := max(len(vals)-measuredPowerWindow, 0)
		var sum float64
		for _, v := range vals[lo:] {
			sum += float64(v)
		}
		want := sum / float64(len(vals)-lo)
		return math.Abs(float64(m.estimate())-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeasuredPowerGuardBand(t *testing.T) {
	m := newMeasuredPower(0.05)
	for i := 0; i < measuredPowerWindow; i++ {
		m.push(1000)
	}
	est := float64(m.estimate())
	mean := m.sum / float64(m.n)
	if est <= mean {
		t.Errorf("estimate %v not above window mean %v (guard band missing)", est, mean)
	}
	// Guard = 3 x 0.05 x mean / sqrt(10), about 4.7 % of the mean.
	wantGuard := measuredPowerGuard * 0.05 * mean / math.Sqrt(measuredPowerWindow)
	if math.Abs((est-mean)-wantGuard) > 1e-9 {
		t.Errorf("guard = %v, want %v", est-mean, wantGuard)
	}
}

// Monte-Carlo: admitting load only while the guarded estimate fits the
// cap admits a true draw under the cap, and almost never one above it.
func TestMeasuredPowerGuardKeepsTruthUnderCap(t *testing.T) {
	budget := power.CapWatts(10000)
	admitted := func(truth power.Watts) int {
		m := newMeasuredPower(0.03)
		n := 0
		for i := 0; i < 5000; i++ {
			m.push(truth)
			if m.n == measuredPowerWindow && budget.Allows(m.estimate()) {
				n++
			}
		}
		return n
	}
	if admitted(9500) == 0 {
		t.Error("estimator never admitted a compliant draw")
	}
	if n := admitted(10100); n != 0 {
		t.Errorf("true draw above the cap admitted %d times", n)
	}
}

func TestMeasuredPowerPushAllocFree(t *testing.T) {
	m := newMeasuredPower(0.02)
	if allocs := testing.AllocsPerRun(1000, func() { m.push(1000) }); allocs != 0 {
		t.Errorf("push allocates %v times per call, want 0", allocs)
	}
}
