package rjms

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/power"
	"repro/internal/trace"
)

// TestCapKnownBreaches pins the cap breaches that the power rule
// (settle) and the planning rule (reservation.Book.Holes) leave open, as
// drawn scenarios of FuzzControllerAgainstReference. Each row asserts
// that its breach is still there, to the watt. When a change mends one,
// its row fails; move its seed into the plain corpus (testdata/fuzz) and
// delete the row.
//
// Both rows are one class: a window closes inside another, and the
// nodes its close wakes push the draw over the outer window's cap while
// the outer window's own group still drains. The planning rule lets the
// outer window take an inner group that closes inside it, but here the
// outer window was booked first, so it planned around nothing the inner
// one holds. The follow-up is a re-plan at close that keeps off the
// nodes already off, in place of nodes still draining (ROADMAP items 1
// and 5).
func TestCapKnownBreaches(t *testing.T) {
	for _, b := range []struct {
		seed              int64
		machine           uint8
		at                int64       // the sample the draw rises at
		before, after, cp power.Watts // the draw before and at it, and the cap it breaks
	}{
		// SHUT. [614, 5 312) at 65 % is booked at 300, [733, 1 701) at
		// 50.6 % at 600; the inner close wakes 68 nodes.
		{seed: 1250, machine: 1, at: 1800, before: 37459, after: 45963, cp: 44913},
		// MIX, every window re-budgeted on the way. [3 069, 6 178) closes
		// inside the open-ended [4 912, ∞) and wakes 10 idle nodes while
		// 16 of the outer window's 21 still run jobs.
		{seed: 107, machine: 3, at: 6180, before: 21062, after: 22993, cp: 22172},
	} {
		sc, err := drawMemoScenario(b.seed, b.machine)
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := New(sc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.LoadWorkloadStream(trace.FromSlice(sc.jobs)); err != nil {
			t.Fatal(err)
		}
		draining := -1 // busy nodes an open window holds, at the breach
		ctl.AddObserver(func(now int64) {
			if now == b.at {
				draining = 0
				for id := cluster.NodeID(0); int(id) < ctl.clus.Nodes(); id++ {
					if ctl.clus.State(id) == cluster.StateBusy && ctl.book.Draining(id, now) {
						draining++
					}
				}
			}
		})
		if _, err := sc.drive(scenarioCalls{
			maxPower: ctl.Cluster().MaxPower(),
			reserve: func(start, end int64, budget power.Cap) (int, error) {
				id, _, err := ctl.ReservePowerCapID(start, end, budget)
				return id, err
			},
			adjust: ctl.AdjustPowerCap, fail: ctl.FailNode, repair: ctl.RepairNode, start: ctl.Start, advance: ctl.Advance,
		}); err != nil {
			t.Fatal(err)
		}
		samples := ctl.Samples()
		k := 1
		for k < len(samples) && samples[k].T != b.at {
			k++
		}
		if k == len(samples) {
			t.Fatalf("seed %d machine %d: no sample at t=%d", b.seed, b.machine, b.at)
		}
		prev, s := samples[k-1], samples[k]
		got := [3]float64{math.Round(float64(prev.Power)), math.Round(float64(s.Power)), math.Round(float64(s.Cap))}
		if got != [3]float64{float64(b.before), float64(b.after), float64(b.cp)} || prev.Cap > s.Cap {
			t.Errorf("seed %d machine %d: at t=%d the draw goes %v -> %v against %v (the cap before: %v); the known breach is %v -> %v against %v. "+
				"If a change mended it, move the seed to the plain corpus and delete its row",
				b.seed, b.machine, b.at, prev.Power, s.Power, s.Cap, prev.Cap, b.before, b.after, b.cp)
		}
		if closed := sc.windowsClosingIn(prev.T, s.T); closed == 0 || draining <= 0 {
			t.Errorf("seed %d machine %d: %d windows close in (%d, %d] and %d held nodes still run jobs at %d; the class is a close over a draining group",
				b.seed, b.machine, closed, prev.T, s.T, draining, s.T)
		}
	}
}

// windowsClosingIn counts the scenario's windows, booked before the
// clock starts or mid-run, whose end lies in (from, to].
func (sc memoScenario) windowsClosingIn(from, to int64) (n int) {
	ws := append([]memoWindow{}, sc.windows...)
	for _, a := range sc.actions {
		if a.op == 3 {
			ws = append(ws, a.add)
		}
	}
	for _, w := range ws {
		if from < w.end && w.end <= to {
			n++
		}
	}
	return n
}
