package federation

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/reservation"
	"repro/internal/rjms"
	"repro/internal/signal"
)

// Member is one cluster of a Fleet. The exported fields are fixed once
// the member is assembled; its budget belongs to the Fleet, which alone
// re-budgets the member's reservation.
type Member struct {
	Name     string
	Ctl      *rjms.Controller
	MaxPower power.Watts

	cleanup func()
	capID   int
	capW    power.Watts
}

// CapW is the member's current budget.
func (m *Member) CapW() power.Watts { return m.capW }

// Fleet is the lockstep bookkeeping of a set of member controllers
// under one site budget — what the batch broker (RunContext) and the
// live twin both drive: members built with their workloads loaded, one
// open-ended powercap reservation each, advanced to every boundary in
// member order and re-budgeted there by Divide. All of it runs on the
// caller's goroutine, so every member engine keeps its
// single-goroutine contract and a fleet's history is a deterministic
// function of the calls made on it.
type Fleet struct {
	members  []*Member
	fraction float64
	division replay.Division
	sig      signal.Source
	horizon  int64
	observe  Observer
	// states is Rebudget's scratch input to Divide, reused across
	// boundaries; the record keeps only the shares and pending cores.
	states []MemberState
}

// NewFleet assembles the members of fs, reserves every member's
// pro-rata share of the t=0 budget (with no demand observed yet there
// is nothing to reallocate; a member's offline plan — switch-offs under
// SHUT/MIX — runs against this initial share), shows each to observe
// and starts its clock toward fs.Duration(). The caller owns Close.
func NewFleet(fs replay.FederationScenario, observe Observer) (*Fleet, error) {
	sig, err := signal.Build(fs.BudgetSignal)
	if err != nil {
		return nil, fmt.Errorf("budget signal: %w", err)
	}
	f := &Fleet{fraction: fs.GlobalCapFraction, division: fs.Division, sig: sig, horizon: fs.Duration(), observe: observe}
	for i, sc := range fs.Members {
		m, err := build(sc, slotName(sc, i))
		if err != nil {
			f.Close()
			return nil, err
		}
		f.members = append(f.members, m)
	}
	for i, m := range f.members {
		if err := f.enroll(i, m, 0); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// slotName names the member in fleet slot i: its scenario's name, or
// member<i>.
func slotName(sc replay.Scenario, i int) string {
	if sc.Name != "" {
		return sc.Name
	}
	return fmt.Sprintf("member%d", i)
}

// build assembles one member controller with its workload loaded.
func build(sc replay.Scenario, name string) (*Member, error) {
	ctl, cleanup, err := replay.Build(sc)
	if err != nil {
		return nil, fmt.Errorf("member %s: %w", name, err)
	}
	return &Member{Name: name, Ctl: ctl, MaxPower: ctl.Cluster().MaxPower(), cleanup: cleanup}, nil
}

// enroll puts a built member (already counted in the fleet) under the
// broker: reserve its pro-rata share of the budget at t, observe, start
// the clock and — for a member joining a running fleet — fast-forward
// to t, replaying its workload's backlog deterministically.
func (f *Fleet) enroll(i int, m *Member, t int64) error {
	budget, _ := f.BudgetAt(t)
	m.capW = proRataShare(budget, m.MaxPower, f.sumMax())
	id, _, err := m.Ctl.ReservePowerCapID(0, reservation.Horizon, power.CapWatts(m.capW))
	if err != nil {
		return fmt.Errorf("member %s: %w", m.Name, err)
	}
	m.capID = id
	if f.observe != nil {
		f.observe(i, m.Name, m.Ctl)
	}
	if err := m.Ctl.Start(f.horizon); err != nil {
		return fmt.Errorf("member %s: %w", m.Name, err)
	}
	if t > 0 {
		if err := m.Ctl.Advance(t); err != nil {
			return fmt.Errorf("member %s catch-up: %w", m.Name, err)
		}
	}
	return nil
}

// Close releases every member's resources.
func (f *Fleet) Close() {
	for _, m := range f.members {
		m.cleanup()
	}
	f.members = nil
}

// Members returns the live members in fleet order; the slice is the
// fleet's own and must not be modified.
func (f *Fleet) Members() []*Member { return f.members }

// Member returns the named member, or nil.
func (f *Fleet) Member(name string) *Member {
	for _, m := range f.members {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Join adds a member at boundary t: it reserves its pro-rata share of
// the current budget over the fleet including itself (the boundary's
// Rebudget refines it immediately) and catches up from virtual zero.
func (f *Fleet) Join(sc replay.Scenario, t int64) error {
	name := slotName(sc, len(f.members))
	if f.Member(name) != nil {
		return fmt.Errorf("member %q already exists", name)
	}
	m, err := build(sc, name)
	if err != nil {
		return err
	}
	f.members = append(f.members, m)
	if err := f.enroll(len(f.members)-1, m, t); err != nil {
		m.cleanup()
		f.members = f.members[:len(f.members)-1]
		return err
	}
	return nil
}

// Remove retires the named member. A fleet never runs empty.
func (f *Fleet) Remove(name string) error {
	if len(f.members) == 1 {
		return fmt.Errorf("cannot remove the last member %q", name)
	}
	for i, m := range f.members {
		if m.Name == name {
			m.cleanup()
			f.members = append(f.members[:i], f.members[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("unknown member %q", name)
}

// Fraction is the active global cap fraction.
func (f *Fleet) Fraction() float64 { return f.fraction }

// SetFraction overrides the global cap fraction from the next
// BudgetAt on.
func (f *Fleet) SetFraction(fraction float64) { f.fraction = fraction }

// sumMax is the summed member maximum draw, in member order (the float
// sum must not depend on the fleet's join/remove history).
func (f *Fleet) sumMax() power.Watts {
	var sum power.Watts
	for _, m := range f.members {
		sum += m.MaxPower
	}
	return sum
}

// BudgetAt is the effective site budget at virtual time t — the cap
// fraction of the summed member maxima scaled by the budget signal,
// clamped into [0, summed maxima] — plus the raw signal value. Without
// a signal the budget is constant.
func (f *Fleet) BudgetAt(t int64) (budget power.Watts, signalValue float64) {
	sumMax := f.sumMax()
	signalValue = f.sig.At(t)
	budget = power.Watts(f.fraction * float64(sumMax) * signalValue)
	if budget < 0 {
		budget = 0
	}
	if budget > sumMax {
		budget = sumMax
	}
	return budget, signalValue
}

// AdvanceAll brings every member to virtual time t, in member order.
func (f *Fleet) AdvanceAll(t int64) error {
	for _, m := range f.members {
		if err := m.Ctl.Advance(t); err != nil {
			return fmt.Errorf("member %s at t=%d: %w", m.Name, t, err)
		}
	}
	return nil
}

// Rebudget divides the budget at boundary t across the fleet and
// re-budgets every member whose share moved. It returns the division
// record; the first failing member aborts the redistribution.
func (f *Fleet) Rebudget(t int64) (EpochShares, error) {
	f.states = f.states[:0]
	pending := make([]int, len(f.members))
	for i, m := range f.members {
		pending[i] = m.Ctl.PendingCores()
		f.states = append(f.states, MemberState{MaxPower: m.MaxPower, Draw: m.Ctl.Cluster().Power(), PendingCores: pending[i]})
	}
	budget, _ := f.BudgetAt(t)
	rec := EpochShares{T: t, BudgetW: budget, CapW: Divide(f.division, budget, f.states), PendingCores: pending}
	for i, m := range f.members {
		if rec.CapW[i] != m.capW {
			m.capW = rec.CapW[i]
			if err := m.Ctl.AdjustPowerCap(m.capID, power.CapWatts(m.capW)); err != nil {
				return rec, fmt.Errorf("member %s at t=%d: %w", m.Name, t, err)
			}
		}
	}
	return rec, nil
}
