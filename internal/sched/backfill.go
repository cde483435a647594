// Package sched provides the generic scheduling building blocks of the
// RJMS the powercapping algorithm plugs into (Section IV-A): core-level
// node allocation that prefers filling partially used nodes, the
// first-fit frontier that prices a launch by counting, and the
// shadow-time computation of EASY backfilling. The queue order is not
// here: the controller walks its pending queue in arrival order.
//
// The package holds no state of its own — everything operates on the
// caller's cluster and job slices — so it is safe for the parallel
// sweeps of internal/experiment, where each worker drives its own
// controller. The scratch-reusing forms (Frontiers, Frontier.Take,
// ShadowTimeSorted) exist for the controller's hot scheduling pass: they
// let one event loop reuse its buffers instead of allocating per probe.
package sched

// RunningJob is the view of a dispatched job the backfill logic needs:
// its core count and the time the scheduler must assume it ends (start +
// scaled walltime — the user estimate, not the actual runtime; the
// paper's Section VII-B stresses how badly those estimates are off and
// how that cripples backfilling).
type RunningJob struct {
	Cores       int
	ExpectedEnd int64
}

// ShadowTimeSorted computes the EASY-backfill reservation point for the
// head blocked job: the earliest instant at which at least `need` cores
// are free, assuming running jobs release their cores at their expected
// ends. freeNow is the currently free core count; running is sorted by
// ascending ExpectedEnd. Returns ok=false when even with everything
// released the job does not fit (it then waits for state changes such as
// nodes powering back on).
//
// It allocates nothing — the scheduling pass calls it once per blocked
// head with a reused, pre-sorted view. The result only depends on the
// (end, cores) multiset, so any tie order among equal ends yields the
// same reservation point.
func ShadowTimeSorted(running []RunningJob, freeNow, need int, now int64) (int64, bool) {
	if need <= freeNow {
		return now, true
	}
	free := freeNow
	for _, r := range running {
		free += r.Cores
		if free >= need {
			end := r.ExpectedEnd
			if end < now {
				end = now
			}
			return end, true
		}
	}
	return 0, false
}

// FreeCoresAt projects how many cores are free at a future instant t,
// given the current free count and the running set.
func FreeCoresAt(running []RunningJob, freeNow int, t int64) int {
	free := freeNow
	for _, r := range running {
		if r.ExpectedEnd <= t {
			free += r.Cores
		}
	}
	return free
}
