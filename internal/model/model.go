// Package model implements the energy and power analysis of Section III of
// the paper: given a cluster of N identical nodes, per-node draws at
// nominal frequency (Pmax), at the minimum DVFS frequency (Pmin) and
// switched off (Poff), a walltime degradation degMin at the minimum
// frequency, and a power cap P, it determines how many nodes to switch off
// (Noff) and how many to slow down (Ndvfs) so the computable work
//
//	W = T * ((N - Noff - Ndvfs)/1 + Ndvfs/degMin)        (C1)
//
// is maximized subject to
//
//	Ndvfs + Noff <= N                                     (C2)
//	Noff*Poff + Ndvfs*Pmin + (N-Noff-Ndvfs)*Pmax <= P     (C3)
//
// with T normalized to 1. The paper distinguishes four cases; Solve
// reproduces them, reports the closed-form Noff/Ndvfs of Section III-A, and
// selects the winning mechanism both by direct work comparison and by the
// published rho criterion (Figure 5; see dvfs.Rho for the discrepancy
// between the two).
package model

import (
	"fmt"
	"math"

	"repro/internal/dvfs"
)

// Params are the cluster-and-application constants of the model.
type Params struct {
	N      int     // number of nodes
	PMax   float64 // per-node draw, busy at nominal frequency (W)
	PMin   float64 // per-node draw, busy at minimum DVFS frequency (W)
	POff   float64 // per-node draw, switched off (W)
	DegMin float64 // walltime degradation factor at the minimum frequency
}

// CurieParams returns the Figure 4/5 constants with the common degradation.
func CurieParams(n int) Params {
	return Params{N: n, PMax: 358, PMin: 193, POff: 14, DegMin: dvfs.DegMinCommon}
}

// Validate checks physical sanity: 0 <= POff < PMin < PMax, DegMin >= 1,
// N > 0.
func (p Params) Validate() error {
	switch {
	case p.N <= 0:
		return fmt.Errorf("model: N = %d, want > 0", p.N)
	case p.POff < 0:
		return fmt.Errorf("model: POff = %v, want >= 0", p.POff)
	case p.PMin <= p.POff:
		return fmt.Errorf("model: PMin %v <= POff %v", p.PMin, p.POff)
	case p.PMax <= p.PMin:
		return fmt.Errorf("model: PMax %v <= PMin %v", p.PMax, p.PMin)
	case p.DegMin < 1:
		return fmt.Errorf("model: DegMin = %v, want >= 1", p.DegMin)
	}
	return nil
}

// MaxPower returns N*PMax, the reference for normalized caps.
func (p Params) MaxPower() float64 { return float64(p.N) * p.PMax }

// LambdaMin returns PMin/PMax, the lowest normalized cap reachable with
// DVFS alone (Section III-A: "the powercap can not be less than Pmin/Pmax
// if DVFS is the only mechanism used").
func (p Params) LambdaMin() float64 { return p.PMin / p.PMax }

// Rho evaluates the published Figure 5 criterion for these parameters.
func (p Params) Rho() float64 {
	return dvfs.Rho(p.DegMin, p.PMax, p.PMin, p.POff)
}

// Case classifies which of the four Section III-A regimes a solve landed
// in.
type Case int

const (
	// CaseUncapped means the cap exceeds N*PMax: no action needed.
	CaseUncapped Case = iota
	// CaseShutdownOnly means switching nodes off alone is optimal.
	CaseShutdownOnly
	// CaseDVFSOnly means slowing nodes down alone is optimal.
	CaseDVFSOnly
	// CaseEither means both pure mechanisms extract the same work.
	CaseEither
	// CaseBoth means the cap is below N*PMin so the two mechanisms must
	// be combined (every node is either off or at minimum frequency).
	CaseBoth
)

// String implements fmt.Stringer.
func (c Case) String() string {
	switch c {
	case CaseUncapped:
		return "uncapped"
	case CaseShutdownOnly:
		return "shutdown-only"
	case CaseDVFSOnly:
		return "dvfs-only"
	case CaseEither:
		return "either"
	case CaseBoth:
		return "both-mechanisms"
	default:
		return fmt.Sprintf("Case(%d)", int(c))
	}
}

// Plan is the model's output: a continuous relaxation (the paper's plane
// geometry) plus integral node counts that respect the cap after rounding.
type Plan struct {
	Case  Case
	NOff  float64 // optimal switched-off node count (continuous)
	NDvfs float64 // optimal minimum-frequency node count (continuous)
	Work  float64 // W of C1 with T=1, in node-units of work

	IntNOff  int // ceil-rounded counts that still satisfy the cap
	IntNDvfs int

	Rho           float64        // published Figure 5 criterion
	PaperChoice   dvfs.Mechanism // mechanism per the paper's rho rule
	DerivedChoice dvfs.Mechanism // mechanism by direct work comparison
	WorkOff       float64        // W when only switching off (NaN if infeasible)
	WorkDvfs      float64        // W when only using DVFS (NaN if infeasible)
}

// ErrInfeasible is returned when the cap is below N*POff: even the fully
// switched-off cluster draws more than the budget.
var ErrInfeasible = fmt.Errorf("model: powercap below the fully switched-off cluster draw")

// Solve maximizes W for the given cap in watts.
func Solve(p Params, capW float64) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	n := float64(p.N)
	if capW < n*p.POff {
		return Plan{}, fmt.Errorf("%w: cap %.1f W < N*POff %.1f W", ErrInfeasible, capW, n*p.POff)
	}

	pl := Plan{Rho: p.Rho()}
	pl.PaperChoice = dvfs.ChooseMechanism(pl.Rho)

	if capW >= n*p.PMax {
		pl.Case = CaseUncapped
		pl.Work = n
		pl.WorkOff, pl.WorkDvfs = n, n
		pl.DerivedChoice = dvfs.MechanismEither
		return pl, nil
	}

	deficit := n*p.PMax - capW

	// Pure shutdown: Noff = (P - N*Pmax)/(Poff - Pmax), always feasible
	// here because capW >= N*POff.
	nOffOnly := deficit / (p.PMax - p.POff)
	pl.WorkOff = n - nOffOnly

	// Pure DVFS: Ndvfs = (P - N*Pmax)/(Pmin - Pmax), feasible only while
	// capW >= N*PMin.
	dvfsFeasible := capW >= n*p.PMin
	if dvfsFeasible {
		nDvfsOnly := deficit / (p.PMax - p.PMin)
		pl.WorkDvfs = n - nDvfsOnly*(1-1/p.DegMin)
	} else {
		pl.WorkDvfs = math.NaN()
	}

	if !dvfsFeasible {
		// Case 4: combine. Ndvfs = (P - N*Poff)/(Pmin - Poff),
		// Noff = N - Ndvfs; every powered node runs at fmin.
		pl.Case = CaseBoth
		pl.NDvfs = (capW - n*p.POff) / (p.PMin - p.POff)
		pl.NOff = n - pl.NDvfs
		pl.Work = pl.NDvfs / p.DegMin
		pl.DerivedChoice = dvfs.MechanismEither // both are mandatory
		pl.round(p, capW)
		return pl, nil
	}

	const eps = 1e-9
	switch {
	case pl.WorkOff > pl.WorkDvfs+eps:
		pl.Case = CaseShutdownOnly
		pl.NOff = nOffOnly
		pl.Work = pl.WorkOff
		pl.DerivedChoice = dvfs.MechanismShutdown
	case pl.WorkDvfs > pl.WorkOff+eps:
		pl.Case = CaseDVFSOnly
		pl.NDvfs = deficit / (p.PMax - p.PMin)
		pl.Work = pl.WorkDvfs
		pl.DerivedChoice = dvfs.MechanismDVFS
	default:
		pl.Case = CaseEither
		pl.NOff = nOffOnly
		pl.Work = pl.WorkOff
		pl.DerivedChoice = dvfs.MechanismEither
	}
	pl.round(p, capW)
	return pl, nil
}

// SolveFraction maximizes W for a cap expressed as a fraction lambda of
// N*PMax (the paper's normalized powercap).
func SolveFraction(p Params, lambda float64) (Plan, error) {
	return Solve(p, lambda*p.MaxPower())
}

// round derives integral node counts that still respect the cap: the
// continuous counts are rounded up (switching off or slowing down slightly
// more nodes than the relaxation requires never violates C3).
func (pl *Plan) round(p Params, capW float64) {
	pl.IntNOff = clampInt(int(math.Ceil(pl.NOff-1e-9)), 0, p.N)
	pl.IntNDvfs = clampInt(int(math.Ceil(pl.NDvfs-1e-9)), 0, p.N-pl.IntNOff)
	// Rounding NDvfs up can strand the pair just above the cap when both
	// mechanisms are active; push nodes from dvfs to off until it fits.
	for pl.power(p) > capW+1e-6 && pl.IntNOff < p.N {
		pl.IntNOff++
		if pl.IntNDvfs > p.N-pl.IntNOff {
			pl.IntNDvfs = p.N - pl.IntNOff
		}
	}
}

// power returns the draw of the integral plan with all remaining nodes
// busy at nominal frequency.
func (pl *Plan) power(p Params) float64 {
	rest := p.N - pl.IntNOff - pl.IntNDvfs
	return float64(pl.IntNOff)*p.POff + float64(pl.IntNDvfs)*p.PMin + float64(rest)*p.PMax
}

// PowerOfCounts returns the cluster draw when nOff nodes are off, nDvfs
// run busy at the minimum frequency and the rest run busy at nominal
// frequency — the left side of C3.
func PowerOfCounts(p Params, nOff, nDvfs int) float64 {
	rest := p.N - nOff - nDvfs
	return float64(nOff)*p.POff + float64(nDvfs)*p.PMin + float64(rest)*p.PMax
}

// WorkOfCounts returns W of C1 for integral counts.
func WorkOfCounts(p Params, nOff, nDvfs int) float64 {
	rest := p.N - nOff - nDvfs
	return float64(rest) + float64(nDvfs)/p.DegMin
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
