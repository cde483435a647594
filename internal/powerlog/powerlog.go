// Package powerlog models the power measurement path the paper's final
// future-work item asks for: "adapt the powercapping algorithm in order
// to consider the real-time power consumption measures of the nodes,
// instead of considering the static values defined during the
// initialization phase". SLURM gained per-node IPMI power sampling in the
// authors' earlier work [26]; this package provides the simulated
// equivalent — a deterministic noisy sensor over the true cluster draw, a
// sliding-window smoother, and a guard-band estimator that turns noisy
// readings into a conservative draw estimate the online algorithm can
// compare against the cap.
package powerlog

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/power"
)

// Sensor produces noisy readings of a true wattage, deterministically:
// the same seed and sequence of calls yields the same readings. Noise is
// Gaussian with a relative standard deviation plus a constant offset
// (miscalibration), clamped at zero.
type Sensor struct {
	rng       *rand.Rand
	relStddev float64
	offset    power.Watts
}

// NewSensor builds a sensor. relStddev is the noise magnitude relative
// to the reading (e.g. 0.02 for IPMI-grade 2%); offset models a constant
// calibration error.
func NewSensor(seed int64, relStddev float64, offset power.Watts) (*Sensor, error) {
	if relStddev < 0 {
		return nil, fmt.Errorf("powerlog: negative noise %v", relStddev)
	}
	return &Sensor{rng: rand.New(rand.NewSource(seed)), relStddev: relStddev, offset: offset}, nil
}

// Read samples the sensor against the true draw.
func (s *Sensor) Read(truth power.Watts) power.Watts {
	noisy := float64(truth) * (1 + s.rng.NormFloat64()*s.relStddev)
	noisy += float64(s.offset)
	if noisy < 0 {
		noisy = 0
	}
	return power.Watts(noisy)
}

// Window is a fixed-size sliding window of readings with O(1) mean —
// the smoothing the controller applies before acting on measurements.
// The ring buffer is pre-sized at construction and Push never
// allocates: in measured mode the controller feeds the window on every
// cluster-state mutation, which makes this one of the replay hot paths.
type Window struct {
	buf  []power.Watts
	next int
	n    int
	sum  float64
}

// NewWindow returns a window holding up to size readings, with the ring
// storage allocated up front.
func NewWindow(size int) (*Window, error) {
	if size <= 0 {
		return nil, fmt.Errorf("powerlog: window size %d", size)
	}
	return &Window{buf: make([]power.Watts, size)}, nil
}

// Push adds a reading, evicting the oldest when full.
func (w *Window) Push(v power.Watts) {
	if w.n == len(w.buf) {
		w.sum -= float64(w.buf[w.next])
	} else {
		w.n++
	}
	w.buf[w.next] = v
	w.sum += float64(v)
	if w.next++; w.next == len(w.buf) {
		w.next = 0
	}
}

// Mean returns the window average (0 when empty).
func (w *Window) Mean() power.Watts {
	if w.n == 0 {
		return 0
	}
	return power.Watts(w.sum / float64(w.n))
}

// Len returns the number of readings held.
func (w *Window) Len() int { return w.n }

// Estimator turns sensor readings into the conservative draw estimate a
// measurement-based powercap check needs: the smoothed mean inflated by
// a guard band proportional to the sensor's noise, so that staying under
// the cap with the estimate keeps the true draw under the cap with high
// probability.
type Estimator struct {
	sensor *Sensor
	window *Window
	// GuardSigmas is how many noise standard deviations of margin the
	// estimate carries (2-3 typical).
	guardSigmas float64
}

// NewEstimator assembles the measurement path.
func NewEstimator(sensor *Sensor, windowSize int, guardSigmas float64) (*Estimator, error) {
	if sensor == nil {
		return nil, fmt.Errorf("powerlog: nil sensor")
	}
	if guardSigmas < 0 {
		return nil, fmt.Errorf("powerlog: negative guard %v", guardSigmas)
	}
	w, err := NewWindow(windowSize)
	if err != nil {
		return nil, err
	}
	return &Estimator{sensor: sensor, window: w, guardSigmas: guardSigmas}, nil
}

// Sample reads the sensor against the true draw and folds the reading
// into the window; it returns the raw reading.
func (e *Estimator) Sample(truth power.Watts) power.Watts {
	r := e.sensor.Read(truth)
	e.window.Push(r)
	return r
}

// Estimate returns the guarded draw estimate: mean + guardSigmas x
// (relStddev x mean) / sqrt(window length). Empty windows estimate 0
// (nothing measured yet).
func (e *Estimator) Estimate() power.Watts {
	n := e.window.Len()
	if n == 0 {
		return 0
	}
	mean := float64(e.window.Mean())
	guard := e.guardSigmas * e.sensor.relStddev * mean / math.Sqrt(float64(n))
	return power.Watts(mean + guard)
}
