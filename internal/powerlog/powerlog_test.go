package powerlog

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/power"
)

func TestSensorDeterministic(t *testing.T) {
	a, err := NewSensor(42, 0.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSensor(42, 0.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a.Read(1000) != b.Read(1000) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSensorStatistics(t *testing.T) {
	s, err := NewSensor(7, 0.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	const truth = 1000.0
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		r := float64(s.Read(truth))
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

func TestSensorOffsetAndClamp(t *testing.T) {
	s, err := NewSensor(1, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Read(1000); got != 1050 {
		t.Errorf("offset reading = %v, want 1050", got)
	}
	neg, err := NewSensor(1, 0, -2000)
	if err != nil {
		t.Fatal(err)
	}
	if got := neg.Read(1000); got != 0 {
		t.Errorf("reading clamped to %v, want 0", got)
	}
	if _, err := NewSensor(1, -0.1, 0); err == nil {
		t.Error("negative noise accepted")
	}
}

func TestWindowMeanAndEviction(t *testing.T) {
	w, err := NewWindow(3)
	if err != nil {
		t.Fatal(err)
	}
	if w.Mean() != 0 || w.Len() != 0 {
		t.Error("empty window not zero")
	}
	w.Push(10)
	w.Push(20)
	if got := w.Mean(); got != 15 {
		t.Errorf("mean = %v", got)
	}
	w.Push(30)
	w.Push(40) // evicts 10
	if got := w.Mean(); got != 30 {
		t.Errorf("mean after eviction = %v, want 30", got)
	}
	if w.Len() != 3 {
		t.Errorf("len = %d", w.Len())
	}
	if _, err := NewWindow(0); err == nil {
		t.Error("zero-size window accepted")
	}
}

// Property: window mean always equals the mean of the last `size` pushes.
func TestWindowMeanProperty(t *testing.T) {
	f := func(vals []uint16, size8 uint8) bool {
		size := int(size8%16) + 1
		w, err := NewWindow(size)
		if err != nil {
			return false
		}
		for _, v := range vals {
			w.Push(power.Watts(v))
		}
		lo := len(vals) - size
		if lo < 0 {
			lo = 0
		}
		if len(vals) == 0 {
			return w.Mean() == 0
		}
		var sum float64
		for _, v := range vals[lo:] {
			sum += float64(v)
		}
		want := sum / float64(len(vals)-lo)
		return math.Abs(float64(w.Mean())-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEstimatorGuardBand(t *testing.T) {
	s, err := NewSensor(3, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEstimator(s, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.Estimate() != 0 {
		t.Error("empty estimator not zero")
	}
	for i := 0; i < 10; i++ {
		e.Sample(1000)
	}
	est := float64(e.Estimate())
	mean := float64(e.window.Mean())
	if est <= mean {
		t.Errorf("estimate %v not above window mean %v (guard band missing)", est, mean)
	}
	// Guard = 3 x 0.05 x mean / sqrt(10) ~ 4.7% of mean.
	wantGuard := 3 * 0.05 * mean / math.Sqrt(10)
	if math.Abs((est-mean)-wantGuard) > 1e-9 {
		t.Errorf("guard = %v, want %v", est-mean, wantGuard)
	}
}

func TestEstimatorGuardKeepsTruthUnderCap(t *testing.T) {
	// Monte-Carlo: if the controller admits load only while the guarded
	// estimate fits the cap, the true draw rarely exceeds it.
	s, err := NewSensor(11, 0.03, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEstimator(s, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	budget := power.CapWatts(10000)
	truth := power.Watts(9500) // close to the cap
	violations := 0
	admitted := 0
	for i := 0; i < 5000; i++ {
		e.Sample(truth)
		if e.window.Len() < 20 {
			continue
		}
		if budget.Allows(e.Estimate()) {
			admitted++
			if truth > budget.Watts() {
				violations++
			}
		}
	}
	if admitted == 0 {
		t.Fatal("estimator never admitted a compliant draw")
	}
	if violations != 0 {
		t.Errorf("true draw above cap admitted %d times", violations)
	}
}

func TestEstimatorValidation(t *testing.T) {
	s, _ := NewSensor(1, 0.01, 0)
	if _, err := NewEstimator(nil, 5, 2); err == nil {
		t.Error("nil sensor accepted")
	}
	if _, err := NewEstimator(s, 0, 2); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewEstimator(s, 5, -1); err == nil {
		t.Error("negative guard accepted")
	}
}
