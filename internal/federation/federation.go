// Package federation runs fleets of independent powercap-aware RJMS
// controllers under one shared site power budget — the multi-cluster
// extension of the paper's single-cluster controller. A Fleet owns N
// member clusters (one rjms.Controller per member, each on its own
// simengine.Engine, preserving the single-goroutine contract), steps
// them in lockstep over virtual time, and redistributes the global
// budget across members at every epoch boundary through per-member
// open-ended powercap reservations. RunContext is the batch broker over
// a Fleet; internal/twin is the live one.
//
// Everything is deterministic: members are built, advanced, inspected
// and re-budgeted in member-index order by one goroutine, so a
// federation cell replays bit-identically — the property the
// experiment-sweep fingerprints rely on. Parallelism lives one layer
// up, in the sweep engine, which runs many independent federations at
// once.
//
// Two division policies are provided (replay.Division): static
// pro-rata by member maximum draw, and demand-driven reallocation that
// moves the launch headroom of idle members to backlogged ones at
// every epoch, never cutting a member below its current draw. As long
// as the fleet's summed draw fits the budget the shares sum to at most
// the global budget; when even the irreducible draws exceed it, every
// share pins at its member's draw (the single-cluster over-budget
// regime, shared with DVFS members under very low caps).
package federation

import (
	"context"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/rjms"
)

// MemberResult is the per-cluster outcome of a federation run.
type MemberResult struct {
	Name     string
	Summary  metrics.Summary
	Samples  []metrics.Sample
	MaxPower power.Watts
	Cores    int
	// FinalCapW is the member's budget at the end of the run (equals
	// the pro-rata share under DivideProRata).
	FinalCapW power.Watts
}

// EpochShares records the division chosen at one epoch boundary.
type EpochShares struct {
	T int64
	// BudgetW is the effective global budget divided at this boundary —
	// constant without a budget signal, the signal-scaled value with
	// one.
	BudgetW power.Watts
	// CapW is each member's budget after the redistribution, in member
	// order.
	CapW []power.Watts
	// PendingCores is each member's queued demand at the boundary — the
	// signal the demand-driven division acted on.
	PendingCores []int
}

// GlobalSample is one point of the site-level time series: the summed
// member draws against the global budget. Member sample series align
// exactly (same interval, same horizon), so the sum is well-defined.
type GlobalSample struct {
	T     int64
	Power power.Watts
	// Cap is the effective global budget at T: constant without a
	// budget signal, the epoch-held signal value with one.
	Cap power.Watts
}

// Result is the outcome of one federation run.
type Result struct {
	Scenario      replay.FederationScenario
	GlobalBudgetW power.Watts
	Members       []MemberResult
	Epochs        []EpochShares
	Global        []GlobalSample

	// Aggregates across members.
	EnergyJ       power.Joules
	WorkCoreSec   float64
	JobsSubmitted int
	JobsLaunched  int
	JobsCompleted int
	JobsKilled    int
	// MeanBSLD is the completed-job-weighted mean bounded slowdown
	// across members — the aggregate stretch the division policies are
	// compared on.
	MeanBSLD    float64
	MaxBSLD     float64
	MeanWaitSec float64 // launched-job-weighted
	// PeakGlobalW is the peak of the summed member draws.
	PeakGlobalW power.Watts

	Err error
}

// Observer sees every member's controller as a Fleet enrolls it: after
// its workload is loaded and its reservation placed, before any of its
// virtual time passes — where invariant checkers and telemetry
// collectors attach.
type Observer func(i int, name string, ctl *rjms.Controller)

// RunWith executes one federation scenario, invoking observe on each
// member as it is assembled.
func RunWith(fs replay.FederationScenario, observe Observer) Result {
	return RunContext(context.Background(), fs, observe)
}

// RunContext is RunWith with cancellation: ctx is checked at every
// epoch boundary (the broker's natural control points), so a cancelled
// federation returns within one epoch of member lockstep work, carrying
// ctx.Err() and whatever epochs completed. Uncancelled runs are
// identical to RunWith's.
func RunContext(ctx context.Context, fs replay.FederationScenario, observe Observer) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	res := Result{Scenario: fs}
	if err := fs.Validate(); err != nil {
		res.Err = err
		return res
	}

	duration, epoch := fs.Duration(), fs.Epoch()
	if epoch <= 0 {
		// Epoch() defaults a zero EpochSec and Validate rejects negative
		// ones, so this only trips on a future change — but a
		// non-positive epoch would loop forever below, so fail loudly.
		res.Err = fmt.Errorf("federation: epoch must be a positive duration, got %d", epoch)
		return res
	}
	fleet, err := NewFleet(fs, observe)
	if err != nil {
		res.Err = fmt.Errorf("federation: %w", err)
		return res
	}
	defer fleet.Close()
	res.GlobalBudgetW, _ = fleet.BudgetAt(0)
	// A division is recorded at every boundary strictly inside the
	// horizon: epoch, 2*epoch, ... below duration.
	if k := (duration - 1) / epoch; k > 0 {
		res.Epochs = make([]EpochShares, 0, k)
	}

	// Lockstep epochs: advance every member to the boundary, then
	// redistribute; the last stretch runs to the horizon undivided.
	for t := epoch; ; t += epoch {
		if t > duration {
			t = duration
		}
		if err := ctx.Err(); err != nil {
			res.Err = err
			return res
		}
		if err := fleet.AdvanceAll(t); err != nil {
			res.Err = fmt.Errorf("federation: %w", err)
			return res
		}
		if t == duration {
			break
		}
		rec, err := fleet.Rebudget(t)
		if err != nil {
			res.Err = fmt.Errorf("federation: %w", err)
			return res
		}
		res.Epochs = append(res.Epochs, rec)
	}

	// Close out and aggregate.
	res.Members = make([]MemberResult, len(fleet.Members()))
	for i, m := range fleet.Members() {
		sum := m.Ctl.Finish()
		res.Members[i] = MemberResult{
			Name:      m.Name,
			Summary:   sum,
			Samples:   m.Ctl.Samples(),
			MaxPower:  m.MaxPower,
			Cores:     m.Ctl.Cluster().Cores(),
			FinalCapW: m.capW,
		}
	}
	aggregate(&res)
	return res
}

// proRataShare is the static division: global scaled by the member's
// fraction of the summed maximum draw.
func proRataShare(global, maxPower, sumMax power.Watts) power.Watts {
	return power.Watts(float64(global) * float64(maxPower) / float64(sumMax))
}

// DemandReserveFraction is the fraction of its pro-rata share an idle
// member keeps under the demand-driven division: enough headroom to
// start launching the moment work arrives mid-epoch (the next boundary
// then reclassifies it as backlogged and refills it), small enough
// that most of an idle fleet's budget still moves to the backlogged
// members.
const DemandReserveFraction = 0.5

// MemberState is the per-member input of Divide: everything a division
// policy reads about one cluster at an epoch boundary.
type MemberState struct {
	// MaxPower is the member's maximum draw (its waterfill weight and
	// share ceiling).
	MaxPower power.Watts
	// Draw is the member's observed draw at the boundary (its share
	// floor — a cap below the draw would be unenforceable).
	Draw power.Watts
	// PendingCores is the member's queued demand.
	PendingCores int
}

// Divide computes every member's budget for the next epoch. It returns
// shares in member order; their sum never exceeds the global budget
// (up to float rounding).
func Divide(div replay.Division, global power.Watts, states []MemberState) []power.Watts {
	shares := make([]power.Watts, len(states))
	var sumMax power.Watts
	for _, s := range states {
		sumMax += s.MaxPower
	}
	if div == replay.DivideProRata {
		for i, s := range states {
			shares[i] = proRataShare(global, s.MaxPower, sumMax)
		}
		return shares
	}

	// Demand-driven: floor every member at its current draw (a cap
	// below the draw would be unenforceable — the controller only
	// gates launches, it does not evict) or at a reserve fraction of
	// its pro-rata share, whichever is higher — the reserve keeps an
	// idle member able to launch work that arrives mid-epoch instead
	// of stalling a full epoch at zero headroom. The remaining slack
	// water-fills over the backlogged members, weighted by machine
	// size and capped at each machine's maximum draw. Any slack left
	// once every backlogged member is saturated (or when nobody
	// queues) spreads pro-rata over the whole fleet, so the shares
	// always sum to the global budget.
	reserve := make([]power.Watts, len(states))
	maxima := make([]power.Watts, len(states))
	backlogged := make([]bool, len(states))
	var floorSum power.Watts
	anyBacklog := false
	for i, s := range states {
		reserve[i] = power.Watts(DemandReserveFraction * float64(proRataShare(global, s.MaxPower, sumMax)))
		if reserve[i] < s.Draw {
			reserve[i] = s.Draw
		}
		maxima[i] = s.MaxPower
		shares[i] = s.Draw
		floorSum += s.Draw
		if s.PendingCores > 0 {
			backlogged[i] = true
			anyBacklog = true
		}
	}
	slack := global - floorSum
	if slack <= 0 {
		// The fleet already draws the whole budget (or draws exceed it
		// — possible when members cannot shut nodes down); everyone is
		// pinned at their draw.
		return shares
	}
	// Stage 1: lift everyone toward the reserve floor, so idle members
	// keep launch headroom for work arriving mid-epoch.
	slack = waterfill(shares, slack, reserve, func(i int) bool { return true }, states)
	// Stage 2: the backlogged members split the real surplus.
	if anyBacklog && slack > 0 {
		slack = waterfill(shares, slack, maxima, func(i int) bool { return backlogged[i] }, states)
	}
	// Stage 3: residue spreads by machine size over everyone, capped at
	// the machine maximum; anything still left (whole fleet saturated)
	// is surplus the site simply does not spend.
	if slack > 0 {
		slack = waterfill(shares, slack, maxima, func(i int) bool { return true }, states)
	}
	return shares
}

// waterfill distributes amount over the eligible members proportionally
// to their maximum draw, capping each at its ceiling and re-spreading
// the overflow until nothing moves. It mutates shares and returns the
// undistributed remainder. Iteration is in member order throughout, so
// the float arithmetic is reproducible.
func waterfill(shares []power.Watts, amount power.Watts, ceiling []power.Watts, eligible func(int) bool, states []MemberState) power.Watts {
	active := make([]bool, len(states))
	for i := range states {
		active[i] = eligible(i) && shares[i] < ceiling[i]
	}
	for amount > 1e-9 {
		var weight power.Watts
		for i, s := range states {
			if active[i] {
				weight += s.MaxPower
			}
		}
		if weight == 0 {
			break
		}
		moved := false
		remaining := amount
		for i, s := range states {
			if !active[i] {
				continue
			}
			give := power.Watts(float64(remaining) * float64(s.MaxPower) / float64(weight))
			if room := ceiling[i] - shares[i]; give >= room {
				give = room
				active[i] = false
			}
			if give > 0 {
				shares[i] += give
				amount -= give
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return amount
}

// aggregate folds the member results into the site totals.
func aggregate(res *Result) {
	var bsldW float64 // completed-weighted BSLD accumulator
	var waitW float64 // launched-weighted wait accumulator
	for _, m := range res.Members {
		s := m.Summary
		res.EnergyJ += s.EnergyJ
		res.WorkCoreSec += s.WorkCoreSec
		res.JobsSubmitted += s.JobsSubmitted
		res.JobsLaunched += s.JobsLaunched
		res.JobsCompleted += s.JobsCompleted
		res.JobsKilled += s.JobsKilled
		bsldW += s.MeanBSLD * float64(s.JobsCompleted)
		waitW += s.MeanWaitSec * float64(s.JobsLaunched)
		if s.MaxBSLD > res.MaxBSLD {
			res.MaxBSLD = s.MaxBSLD
		}
	}
	if res.JobsCompleted > 0 {
		res.MeanBSLD = bsldW / float64(res.JobsCompleted)
	}
	if res.JobsLaunched > 0 {
		res.MeanWaitSec = waitW / float64(res.JobsLaunched)
	}

	// The site-level draw series: member sample series align (same
	// interval, same horizon), so sum pointwise. Guard against ragged
	// series anyway — a member with sampling disabled contributes none.
	n := 0
	for _, m := range res.Members {
		if len(m.Samples) > n {
			n = len(m.Samples)
		}
	}
	// The effective budget holds from one epoch boundary to the next:
	// GlobalBudgetW until the first recorded boundary, then each
	// boundary's BudgetW. Samples arrive in time order, so one cursor
	// over the epoch records prices every sample.
	if n > 0 {
		res.Global = make([]GlobalSample, 0, n)
	}
	ep := 0
	capAt := func(t int64) power.Watts {
		for ep < len(res.Epochs) && res.Epochs[ep].T <= t {
			ep++
		}
		if ep == 0 {
			return res.GlobalBudgetW
		}
		return res.Epochs[ep-1].BudgetW
	}
	for k := 0; k < n; k++ {
		var g GlobalSample
		ok := false
		for _, m := range res.Members {
			if k < len(m.Samples) {
				g.T = m.Samples[k].T
				g.Power += m.Samples[k].Power
				ok = true
			}
		}
		if ok {
			g.Cap = capAt(g.T)
			res.Global = append(res.Global, g)
			if g.Power > res.PeakGlobalW {
				res.PeakGlobalW = g.Power
			}
		}
	}
}
