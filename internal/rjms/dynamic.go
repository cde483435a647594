package rjms

import (
	"fmt"
	"sort"

	"repro/internal/dvfs"
	"repro/internal/power"
)

// Dynamic DVFS of running jobs — the paper's first future-work item
// (Section VIII): "dynamically change the CPU frequencies while the jobs
// are running; this will allow nodes to adjust the power consumption
// instantly whenever it is needed. This will eventually result into
// faster power decrease when a powercap period is approaching and lower
// jobs' turnaround time after a powercap period is over."
//
// When Config.DynamicDVFS is set (DVFS and MIX policies), the controller
// re-clocks running jobs at cap boundaries: down, largest consumers
// first, until the active budget is met; and back up, oldest jobs first,
// once the window closes. Progress is accounted exactly: a job's
// remaining nominal work shrinks with elapsed time divided by the
// degradation factor of the frequency it ran at, and its completion
// event is rescheduled accordingly.

// reclock moves a running job to frequency f at time now, updating the
// job's nodes, its remaining-work accounting and its completion event.
func (c *Controller) reclock(r *run, now int64, f dvfs.Freq) {
	if f == r.freq {
		return
	}
	// Consume the progress made at the old frequency.
	elapsed := now - r.freqSince
	if elapsed > 0 {
		r.remainingNominal -= float64(elapsed) / c.pm.Deg.Factor(r.freq)
		if r.remainingNominal < 0 {
			r.remainingNominal = 0
		}
	}
	r.freqSince = now
	// The job's cores move to the new rung; the cluster re-charges each
	// node at the highest rung it holds.
	j := r.j
	if err := c.clus.Reclock(r.allocs, r.freq, f); err != nil {
		panic(fmt.Sprintf("rjms: reclock job %d: %v", j.ID, err))
	}
	// The backfill view keys on the walltime scaled by the job's current
	// frequency — move the entry to its new position.
	c.viewRemove(c.viewKey(r))
	r.freq = f
	c.viewInsert(c.viewKey(r))

	// Reschedule completion: remaining work stretched by the new factor,
	// rounded up so the job never finishes with work outstanding.
	c.eng.Cancel(r.endEv)
	left := int64(r.remainingNominal*c.pm.Deg.Factor(f) + 0.999999)
	ev, err := c.eng.At(now+left, c.endFn, j)
	if err != nil {
		panic(fmt.Sprintf("rjms: reclock end scheduling for job %d: %v", j.ID, err))
	}
	r.endEv = ev
	c.rec.NoteRescale()
	c.noteState(now)
}

// sortedRunning returns the running jobs' records in a deterministic
// order chosen by less.
func (c *Controller) sortedRunning(less func(a, b *run) bool) []*run {
	out := make([]*run, 0, len(c.running))
	for k := 0; k < c.nRuns; k++ {
		if r := c.slot(k); r.j != nil {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, k int) bool { return less(out[i], out[k]) })
	return out
}

// throttleRunning lowers running jobs' frequencies, one ladder rung at a
// time — highest frequency first, then youngest — until the active cap
// admits the cluster draw or everything sits at the policy floor.
func (c *Controller) throttleRunning(now int64) {
	budget := c.book.CapAt(now)
	if !budget.IsSet() || budget.Allows(c.observedPower()) {
		return
	}
	runs := c.sortedRunning(func(a, b *run) bool {
		if a.freq != b.freq {
			return a.freq > b.freq
		}
		if a.start != b.start {
			return a.start > b.start
		}
		return a.j.ID > b.j.ID
	})
	floor := c.pm.Ladder.Min()
	// Round-robin rung-by-rung so the slowdown spreads fairly instead of
	// pinning a few victims to the floor.
	for rung := 0; rung < len(c.pm.Ladder); rung++ {
		changed := false
		for _, r := range runs {
			if budget.Allows(c.observedPower()) {
				return
			}
			if r.freq <= floor {
				continue
			}
			below, ok := c.pm.Ladder.Below(r.freq)
			if !ok {
				continue
			}
			c.reclock(r, now, below)
			changed = true
		}
		if !changed {
			return
		}
	}
}

// boostRunning raises running jobs back toward nominal frequency, oldest
// first, while any still-active budget admits the uplift. With no active
// cap every job returns to nominal — the paper's "lower jobs' turnaround
// time after a powercap period is over".
func (c *Controller) boostRunning(now int64) {
	budget := c.book.CapAt(now)
	runs := c.sortedRunning(func(a, b *run) bool {
		if a.start != b.start {
			return a.start < b.start
		}
		return a.j.ID < b.j.ID
	})
	nominal := c.pm.Ladder.Max()
	for _, r := range runs {
		if r.freq >= nominal {
			continue
		}
		target := nominal
		for target > r.freq {
			if !budget.IsSet() || budget.Allows(c.observedPower()+c.upliftDelta(r, target)) {
				break
			}
			below, ok := c.pm.Ladder.Below(target)
			if !ok || below <= r.freq {
				target = r.freq
				break
			}
			target = below
		}
		if target > r.freq {
			c.reclock(r, now, target)
		}
	}
}

// upliftDelta computes the extra draw of raising one running job to
// frequency f, given the other jobs sharing its nodes.
func (c *Controller) upliftDelta(r *run, f dvfs.Freq) power.Watts {
	return c.clus.ReclockDelta(r.allocs, r.freq, f)
}
