package rjms

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/reservation"
)

// ReservePowerCap registers a powercap reservation over [start, end)
// (reservation.Horizon for open-ended) with the given budget, runs the
// offline planning of Algorithm 1, and schedules the window's switch-off
// and wake-up actions. It returns the offline plan for inspection.
func (c *Controller) ReservePowerCap(start, end int64, budget power.Cap) (core.OfflinePlan, error) {
	_, plan, err := c.ReservePowerCapID(start, end, budget)
	return plan, err
}

// ReservePowerCapID is ReservePowerCap returning also the reservation's
// ID, the handle AdjustPowerCap needs to re-budget the window later —
// the federation broker reserves one open-ended cap per member cluster
// and moves watts between them at redistribution boundaries.
func (c *Controller) ReservePowerCapID(start, end int64, budget power.Cap) (int, core.OfflinePlan, error) {
	resID, err := c.book.AddPowerCap(start, end, budget)
	if err != nil {
		return 0, core.OfflinePlan{}, err
	}
	held, _ := c.book.Held()
	eligible := func(id cluster.NodeID) bool { return !held.Has(id) }
	plan := core.PlanOffline(c.clus, c.pm, budget, !c.cfg.Scattered, eligible)
	if c.cfg.Policy == core.PolicyIdle {
		// IDLE keeps nodes powered; no switch-off reservation.
		plan.OffNodes = nil
	}
	if len(plan.OffNodes) > 0 {
		offID, err := c.book.AddSwitchOff(start, end, plan.OffNodes)
		if err != nil {
			return resID, plan, err
		}
		if _, err := c.eng.At(start, c.windowOpenFn, nil); err != nil {
			return resID, plan, err
		}
		if end != reservation.Horizon {
			if _, err := c.eng.At(end, c.windowCloseFn, offID); err != nil {
				return resID, plan, err
			}
		}
	}
	// Wake the scheduler at the cap boundaries even without shutdowns:
	// budgets change what may launch.
	if _, err := c.eng.At(start, c.capBoundaryFn, nil); err != nil {
		return resID, plan, err
	}
	if end != reservation.Horizon {
		if _, err := c.eng.At(end, c.capEndFn, nil); err != nil {
			return resID, plan, err
		}
	}
	return resID, plan, nil
}

// AdjustPowerCap re-budgets an existing powercap reservation in place.
// It is the federation hook: called between Advance calls (never from
// inside an event handler), it changes the cap value at the current
// virtual time and immediately runs the cap-boundary reactions — the
// dynamic-DVFS throttle, the kill-to-fit extreme action when enabled,
// and a scheduling pass — exactly as if a window with the new budget
// had just opened. The offline switch-off plan of the original
// reservation is kept: redistribution moves launch headroom, it does
// not re-plan shutdowns mid-window.
func (c *Controller) AdjustPowerCap(id int, budget power.Cap) error {
	if err := c.book.UpdateCap(id, budget); err != nil {
		return err
	}
	c.capBoundary(c.eng.Now())
	return nil
}

// ActiveCap returns the tightest powercap budget active at the current
// virtual time (power.NoCap when none).
func (c *Controller) ActiveCap() power.Cap { return c.book.CapAt(c.eng.Now()) }

func (c *Controller) capBoundary(now int64) {
	if c.cfg.DynamicDVFS && c.cfg.Policy.CanScale() {
		c.throttleRunning(now)
	}
	if c.cfg.KillOnOverrun {
		c.killToFit(now)
	}
	c.requestPass(now)
}

// capEnded fires when a powercap window closes.
func (c *Controller) capEnded(now int64) {
	if c.cfg.DynamicDVFS && c.cfg.Policy.CanScale() {
		c.boostRunning(now)
	}
	c.requestPass(now)
}

// windowOpen powers down the idle nodes a window open at now holds;
// busy ones drain to off as their jobs end (finish).
func (c *Controller) windowOpen(now int64) {
	for id := cluster.NodeID(0); int(id) < c.clus.Nodes(); id++ {
		if c.clus.State(id) == cluster.StateIdle && c.book.Draining(id, now) {
			_ = c.clus.PowerOff(id)
		}
	}
	c.noteState(now)
	c.requestPass(now)
}

// windowClose releases switch-off id and powers its group back on.
func (c *Controller) windowClose(id int, now int64) {
	group := c.book.Release(id)
	for n := cluster.NodeID(0); int(n) < c.clus.Nodes(); n++ {
		// A failed node stays off past its window; RepairNode brings
		// it back.
		if group.Has(n) && !c.failed.Has(n) {
			_ = c.clus.PowerOn(n)
		}
	}
	c.noteState(now)
	c.requestPass(now)
}

// killToFit implements the "extreme actions" option: terminate running
// jobs, newest first, until the draw respects the active cap.
func (c *Controller) killToFit(now int64) {
	budget := c.book.CapAt(now)
	if !budget.IsSet() || budget.Allows(c.observedPower()) {
		return
	}
	victims := c.sortedRunning(func(a, b *run) bool {
		if a.start != b.start {
			return a.start > b.start
		}
		return a.j.ID > b.j.ID
	})
	for _, v := range victims {
		if budget.Allows(c.observedPower()) {
			return
		}
		c.finish(v.j, now, true)
	}
}
