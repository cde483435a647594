package power

import "fmt"

// Meter integrates a piecewise-constant power draw over (virtual) time,
// exactly: every time the draw changes, the caller reports the new value and
// the instant of the change, and the meter accumulates watts x elapsed
// seconds. This is the energy-accounting backbone of the replay harness.
type Meter struct {
	last    Watts
	lastAt  int64
	total   Joules
	peak    Watts
	started bool
	startAt int64
}

// Set records that the draw changed to w at time 'at'. Calls must have
// non-decreasing times; out-of-order calls are rejected with an error so
// simulator bugs surface instead of silently corrupting energy totals.
func (m *Meter) Set(at int64, w Watts) error {
	if !m.started {
		m.last, m.lastAt, m.peak = w, at, w
		m.started, m.startAt = true, at
		return nil
	}
	if at < m.lastAt {
		return fmt.Errorf("power: meter update at t=%d before previous t=%d", at, m.lastAt)
	}
	m.total += Energy(m.last, at-m.lastAt)
	m.last, m.lastAt = w, at
	if w > m.peak {
		m.peak = w
	}
	return nil
}

// Peak returns the highest draw ever recorded.
func (m *Meter) Peak() Watts { return m.peak }

// EnergyAt returns the energy accumulated from the start through time 'at',
// including the still-open last segment. 'at' must not precede the last
// update.
func (m *Meter) EnergyAt(at int64) Joules {
	if at < m.lastAt {
		at = m.lastAt
	}
	return m.total + Energy(m.last, at-m.lastAt)
}

// MeanAt returns the time-averaged draw between the meter start and 'at'.
func (m *Meter) MeanAt(at int64) Watts {
	if !m.started || at <= m.startAt {
		return m.last
	}
	return Watts(float64(m.EnergyAt(at)) / float64(at-m.startAt))
}
