package rjms

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/reservation"
)

// ReservePowerCap registers a powercap reservation over [start, end)
// (reservation.Horizon for open-ended) with the given budget, runs the
// offline planning of Algorithm 1 over the nodes the book's Holes leave
// it, and schedules the window's switch-off and wake-up actions. It
// returns the offline plan for inspection.
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
	holes := c.book.Holes(start, end)
	plan := core.PlanOffline(c.clus, c.pm, budget, !c.cfg.Scattered, func(id cluster.NodeID) bool { return !holes.Has(id) })
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

// settle applies the power rule: a node that has not failed is off
// exactly while a switch-off window that holds it is open. An idle node
// goes off at once and an off one comes back on; a busy node a window
// holds drains to off as its jobs end (finish). A window's open and its
// close (after Release) and RepairNode call it.
func (c *Controller) settle(now int64) {
	for id := cluster.NodeID(0); int(id) < c.clus.Nodes(); id++ {
		switch held, state := c.book.Draining(id, now), c.clus.State(id); {
		case c.failed.Has(id): // off until RepairNode
		case held && state == cluster.StateIdle:
			_ = c.clus.PowerOff(id)
		case !held && state == cluster.StateOff:
			_ = c.clus.PowerOn(id)
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
