// Package power provides the power and energy accounting substrate of the
// powercapping RJMS: per-node power profiles (the Figure 4 table of the
// paper), cluster-level power bookkeeping, power caps expressed in watts or
// as a fraction of the cluster maximum, and exact piecewise-constant energy
// integration used by the experiment harness.
package power

import (
	"fmt"
	"math"
)

// Watts is an instantaneous power draw.
type Watts float64

// String renders the value with an adaptive unit (W, kW, MW).
func (w Watts) String() string {
	a := math.Abs(float64(w))
	switch {
	case a >= 1e6:
		return fmt.Sprintf("%.3f MW", float64(w)/1e6)
	case a >= 1e3:
		return fmt.Sprintf("%.2f kW", float64(w)/1e3)
	default:
		return fmt.Sprintf("%.1f W", float64(w))
	}
}

// Joules is an amount of energy.
type Joules float64

// KWh converts the energy to kilowatt-hours.
func (j Joules) KWh() float64 { return float64(j) / 3.6e6 }

// String renders the value with an adaptive unit (J, kJ, MJ, GJ).
func (j Joules) String() string {
	a := math.Abs(float64(j))
	switch {
	case a >= 1e9:
		return fmt.Sprintf("%.3f GJ", float64(j)/1e9)
	case a >= 1e6:
		return fmt.Sprintf("%.3f MJ", float64(j)/1e6)
	case a >= 1e3:
		return fmt.Sprintf("%.2f kJ", float64(j)/1e3)
	default:
		return fmt.Sprintf("%.1f J", float64(j))
	}
}

// Energy accumulated by drawing w watts for seconds s.
func Energy(w Watts, seconds int64) Joules {
	return Joules(float64(w) * float64(seconds))
}

// Cap is a power budget. The zero value means "no cap".
type Cap struct {
	watts Watts
	set   bool
}

// NoCap is the absent power budget.
var NoCap = Cap{}

// CapWatts builds a cap from an absolute wattage. Non-positive wattages
// yield a cap of zero watts, which forbids any consumption.
func CapWatts(w Watts) Cap {
	if w < 0 {
		w = 0
	}
	return Cap{watts: w, set: true}
}

// CapFraction builds a cap as a fraction lambda (0..1] of a maximum power.
// This mirrors the paper's normalized powercap P = lambda * N * Pmax.
func CapFraction(lambda float64, max Watts) Cap {
	if lambda < 0 {
		lambda = 0
	}
	return CapWatts(Watts(lambda * float64(max)))
}

// IsSet reports whether a budget is active.
func (c Cap) IsSet() bool { return c.set }

// Watts returns the budget. Only meaningful when IsSet.
func (c Cap) Watts() Watts { return c.watts }

// Allows reports whether drawing w watts stays within the budget.
// An unset cap allows everything.
func (c Cap) Allows(w Watts) bool { return !c.set || w <= c.watts }

// String implements fmt.Stringer.
func (c Cap) String() string {
	if !c.set {
		return "uncapped"
	}
	return c.watts.String()
}
