package replay

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/rjms"
	"repro/internal/signal"
	"repro/internal/trace"
)

// SweepScenarios expands a sweep grid: the cross product of workloads x
// cap fractions x policies, one Scenario per cell. base supplies the
// machine scale and every ablation/option field; Name, Workload, Policy
// and CapFraction are filled in per cell. Cap fractions outside (0, 1)
// denote the uncapped baseline and collapse to a single PolicyNone cell
// per workload (policy choice is irrelevant without a cap). When the
// same workload kind appears more than once (seed or duration
// replicates), cell names carry the seed ("smalljob#2/...") so rows
// stay tellable apart. The cell order is deterministic — workloads
// outermost, then caps, then policies — so a sweep's result table is
// comparable across runs and worker counts. internal/experiment builds
// its grids through this function.
func SweepScenarios(base Scenario, workloads []trace.Config, fracs []float64, policies []core.Policy) []Scenario {
	kindCount := map[trace.Kind]int{}
	for _, wl := range workloads {
		kindCount[wl.Kind]++
	}
	var out []Scenario
	for _, wl := range workloads {
		label := wl.Kind.String()
		if kindCount[wl.Kind] > 1 {
			label = fmt.Sprintf("%s#%d", wl.Kind, wl.Seed)
		}
		baselineDone := false
		for _, frac := range fracs {
			if frac <= 0 || frac >= 1 {
				if baselineDone {
					continue
				}
				baselineDone = true
				s := base
				s.Workload = wl
				s.Policy = core.PolicyNone
				s.CapFraction = 0
				s.Name = fmt.Sprintf("%s/100%%/None", label)
				out = append(out, s)
				continue
			}
			for _, p := range policies {
				s := base
				s.Workload = wl
				s.Policy = p
				s.CapFraction = frac
				s.Name = fmt.Sprintf("%s/%d%%/%s", label, int(frac*100+0.5), p)
				out = append(out, s)
			}
		}
	}
	return out
}

// LibraryScenarios sweeps the extended workload library — the paper's
// four intervals plus the diurnal, bursty and heavy-tailed patterns —
// across the uncapped baseline and the {60%, 40%} x {SHUT, DVFS, MIX}
// grid, the scenario-diversity counterpart of the Figure 8 sweep.
func LibraryScenarios(scaleRacks int) []Scenario {
	return SweepScenarios(
		Scenario{ScaleRacks: scaleRacks},
		trace.LibraryWorkloads(),
		[]float64{0, 0.6, 0.4},
		[]core.Policy{core.PolicyShut, core.PolicyDvfs, core.PolicyMix},
	)
}

// Division selects how the federation broker splits the global site
// budget across member clusters at redistribution boundaries.
type Division int

const (
	// DivideProRata splits the global budget statically, in proportion
	// to each member's maximum draw — the budget a member would get if
	// it were the whole site scaled down.
	DivideProRata Division = iota
	// DivideDemand starts from the pro-rata split and, at every epoch
	// boundary, moves the launch headroom of idle members (no queued
	// jobs) to backlogged ones, never cutting a member below its
	// current draw. While the fleet's summed draw fits the budget the
	// member caps sum to at most the global budget (exactly, unless
	// every machine saturates); when even the irreducible draws exceed
	// it, shares pin at the draws.
	DivideDemand
)

// String implements fmt.Stringer ("prorata" / "demand").
func (d Division) String() string {
	switch d {
	case DivideProRata:
		return "prorata"
	case DivideDemand:
		return "demand"
	default:
		return fmt.Sprintf("Division(%d)", int(d))
	}
}

// Divisions is the budget-division registry. The two broker policies
// self-register below; flag help and the sim facade all
// read this, so a new division shows up everywhere at once.
var Divisions = registry.New[Division]("division policy")

func init() {
	Divisions.Register("prorata", DivideProRata, "static") // static split in proportion to member max draw
	Divisions.Register("demand", DivideDemand, "dynamic")  // move idle members' headroom to backlogged ones each epoch
}

// FederationScenario is one cell of a federated multi-cluster
// experiment: N member clusters, each with its own workload, policy and
// machine scale, run in lockstep under a shared site power budget that
// a broker redistributes at epoch boundaries. internal/federation
// executes it; this package only defines the vocabulary, mirroring the
// Scenario/sweep split of the single-cluster path.
type FederationScenario struct {
	Name string
	// Members are the per-cluster scenarios. Their CapFraction and
	// window fields must be zero: the broker owns every member's
	// powercap (one open-ended reservation per member, re-budgeted at
	// each epoch). Workloads may be synthetic kinds or SWF streams.
	Members []Scenario
	// GlobalCapFraction is the site budget as a fraction of the summed
	// member maximum draws; must be in (0, 1).
	GlobalCapFraction float64
	// Division picks the redistribution policy.
	Division Division
	// EpochSec is the redistribution period; 0 means 900 s.
	EpochSec int64
	// DurationSec bounds the replayed interval; 0 means the longest
	// member workload duration.
	DurationSec int64
	// BudgetSignal, when non-nil, scales the global budget over time: at
	// every epoch boundary the broker multiplies the cap-fraction base
	// by the signal's value at that instant (clamped into [0, summed
	// member maxima]). Nil means the constant budget.
	BudgetSignal *signal.Spec
}

// DefaultFederationEpoch is the redistribution period used when
// EpochSec is zero: 15 minutes, the cadence of site-level power
// coordination (short against the one-hour reservation windows of the
// paper, long against the scheduler's per-event reactions).
const DefaultFederationEpoch = int64(900)

// Epoch returns the redistribution period.
func (f FederationScenario) Epoch() int64 {
	if f.EpochSec > 0 {
		return f.EpochSec
	}
	return DefaultFederationEpoch
}

// Duration returns the replayed interval length: DurationSec, or the
// longest member duration.
func (f FederationScenario) Duration() int64 {
	if f.DurationSec > 0 {
		return f.DurationSec
	}
	var max int64
	for _, m := range f.Members {
		if d := m.Duration(); d > max {
			max = d
		}
	}
	return max
}

// Validate reports structural problems a broker run would trip over.
func (f FederationScenario) Validate() error {
	if len(f.Members) == 0 {
		return fmt.Errorf("replay: federation %q has no members", f.Name)
	}
	if f.GlobalCapFraction <= 0 || f.GlobalCapFraction >= 1 {
		return fmt.Errorf("replay: federation %q global cap fraction %v outside (0, 1)",
			f.Name, f.GlobalCapFraction)
	}
	for i, m := range f.Members {
		if m.CapFraction != 0 || m.Cap != (CapWindow{}) {
			return fmt.Errorf("replay: federation %q member %d sets its own powercap; the broker owns member caps", f.Name, i)
		}
	}
	if f.EpochSec < 0 {
		return fmt.Errorf("replay: federation %q negative epoch %d", f.Name, f.EpochSec)
	}
	if f.BudgetSignal != nil {
		if err := f.BudgetSignal.Validate(); err != nil {
			return fmt.Errorf("replay: federation %q budget signal: %w", f.Name, err)
		}
	}
	return nil
}

// FederationMembers builds n member scenarios drawn from the workload
// scenario library: member 0 replays the bursty interval at eighty
// percent of its machine's capacity (heavily backlogged during each
// burst, drainable over the run), and the others cycle through lightly
// loaded median, small, heavy-tailed and big intervals — the
// asymmetric fleet (one busy cluster among quiet ones) that separates
// the division policies. Members run the DVFS policy so every node
// stays powered and a raised budget translates directly into launch
// headroom; seeds are fixed per slot so federations of the same size
// replay identically.
func FederationMembers(n, scaleRacks int) []Scenario {
	light := []trace.Kind{trace.MedianJob, trace.SmallJob, trace.HeavyTail, trace.BigJob}
	out := make([]Scenario, 0, n)
	for i := 0; i < n; i++ {
		wl := trace.Config{Kind: trace.Bursty, Seed: 2001, LoadFactor: 0.8}
		if i > 0 {
			wl = trace.Config{
				Kind: light[(i-1)%len(light)],
				Seed: 2001 + int64(i),
				// A quarter of the machine's capacity over the
				// interval: mostly idle, the donor side of the
				// demand-driven division.
				LoadFactor: 0.25,
			}
		}
		out = append(out, Scenario{
			Name:       fmt.Sprintf("member%d/%s", i, wl.Kind),
			Workload:   wl,
			Policy:     core.PolicyDvfs,
			ScaleRacks: scaleRacks,
		})
	}
	return out
}

// FederationLibraryScenario assembles the standard federated cell: n
// FederationMembers under a shared budget with the given division. The
// horizon is twice the member interval: submissions stop halfway and
// the backlog drains, so the bounded-slowdown comparison between
// division policies covers (nearly) every submitted job instead of
// censoring the stragglers a starved member never launched.
func FederationLibraryScenario(n, scaleRacks int, capFrac float64, div Division) FederationScenario {
	members := FederationMembers(n, scaleRacks)
	var horizon int64
	for _, m := range members {
		if d := m.Duration(); d*2 > horizon {
			horizon = d * 2
		}
	}
	return FederationScenario{
		Name:              fmt.Sprintf("fed%d/%d%%/%s", n, int(capFrac*100+0.5), div),
		Members:           members,
		GlobalCapFraction: capFrac,
		Division:          div,
		DurationSec:       horizon,
	}
}

// policies evaluated at each cap level in Figure 8. At 80% the paper only
// shows DVFS and SHUT; MIX joins at 60% and 40% (below its 75% combined
// threshold).
func policiesForCap(frac float64) []core.Policy {
	if frac >= 0.75 {
		return []core.Policy{core.PolicyDvfs, core.PolicyShut}
	}
	return []core.Policy{core.PolicyMix, core.PolicyDvfs, core.PolicyShut}
}

// Fig8Scenarios builds the full Figure 8 grid: for each 5-hour workload
// (bigjob, medianjob, smalljob) the uncapped baseline plus
// {80%, 60%, 40%} x policies. scaleRacks shrinks the machine for faster
// runs (0 = full Curie); seeds stay fixed so runs are reproducible.
func Fig8Scenarios(scaleRacks int) []Scenario {
	kinds := []trace.Config{
		{Kind: trace.BigJob, Seed: 1003},
		{Kind: trace.MedianJob, Seed: 1001},
		{Kind: trace.SmallJob, Seed: 1002},
	}
	var out []Scenario
	for _, wl := range kinds {
		out = append(out, Scenario{
			Name:       fmt.Sprintf("%s/100%%/None", wl.Kind),
			Workload:   wl,
			Policy:     core.PolicyNone,
			ScaleRacks: scaleRacks,
		})
		for _, frac := range []float64{0.8, 0.6, 0.4} {
			for _, p := range policiesForCap(frac) {
				out = append(out, Scenario{
					Name:        fmt.Sprintf("%s/%d%%/%s", wl.Kind, int(frac*100), p),
					Workload:    wl,
					Policy:      p,
					CapFraction: frac,
					ScaleRacks:  scaleRacks,
				})
			}
		}
	}
	return out
}

// Fig6Scenario is the 24-hour MIX run with a one-hour 40% reservation.
func Fig6Scenario(scaleRacks int) Scenario {
	return Scenario{
		Name:        "24h/40%/MIX",
		Workload:    trace.Config{Kind: trace.Day24h, Seed: 1004},
		Policy:      core.PolicyMix,
		CapFraction: 0.4,
		ScaleRacks:  scaleRacks,
	}
}

// Fig7aScenario is the 5-hour bigjob run under SHUT with a 60% cap.
func Fig7aScenario(scaleRacks int) Scenario {
	return Scenario{
		Name:        "bigjob/60%/SHUT",
		Workload:    trace.Config{Kind: trace.BigJob, Seed: 1003},
		Policy:      core.PolicyShut,
		CapFraction: 0.6,
		ScaleRacks:  scaleRacks,
	}
}

// Fig7bScenario is the 5-hour smalljob run under DVFS with a 40% cap.
func Fig7bScenario(scaleRacks int) Scenario {
	return Scenario{
		Name:        "smalljob/40%/DVFS",
		Workload:    trace.Config{Kind: trace.SmallJob, Seed: 1002},
		Policy:      core.PolicyDvfs,
		CapFraction: 0.4,
		ScaleRacks:  scaleRacks,
	}
}

// Claims24hScenarios reproduces the Section VII-C 24-hour comparison:
// SHUT vs DVFS vs MIX vs IDLE at a 40% cap, plus the uncapped baseline.
func Claims24hScenarios(scaleRacks int) []Scenario {
	wl := trace.Config{Kind: trace.Day24h, Seed: 1004}
	out := []Scenario{{
		Name:       "24h/100%/None",
		Workload:   wl,
		Policy:     core.PolicyNone,
		ScaleRacks: scaleRacks,
	}}
	for _, p := range []core.Policy{core.PolicyShut, core.PolicyDvfs, core.PolicyMix, core.PolicyIdle} {
		out = append(out, Scenario{
			Name:        fmt.Sprintf("24h/40%%/%s", p),
			Workload:    wl,
			Policy:      p,
			CapFraction: 0.4,
			ScaleRacks:  scaleRacks,
		})
	}
	return out
}

// AblationGroupingScenarios compares grouped (bonus-aware) against
// scattered shutdown planning under SHUT.
func AblationGroupingScenarios(scaleRacks int) []Scenario {
	wl := trace.Config{Kind: trace.MedianJob, Seed: 1001}
	return []Scenario{
		{
			Name: "medianjob/40%/SHUT/grouped", Workload: wl,
			Policy: core.PolicyShut, CapFraction: 0.4, ScaleRacks: scaleRacks,
		},
		{
			Name: "medianjob/40%/SHUT/scattered", Workload: wl,
			Policy: core.PolicyShut, CapFraction: 0.4, ScaleRacks: scaleRacks,
			Options: rjms.Options{Scattered: true},
		},
	}
}

// AblationDynamicDVFSScenarios compares the static launch-time-only DVFS
// of the paper against its Section VIII future-work extension that
// re-clocks running jobs at cap boundaries.
func AblationDynamicDVFSScenarios(scaleRacks int) []Scenario {
	wl := trace.Config{Kind: trace.MedianJob, Seed: 1001}
	return []Scenario{
		{
			Name: "medianjob/40%/DVFS/static", Workload: wl,
			Policy: core.PolicyDvfs, CapFraction: 0.4, ScaleRacks: scaleRacks,
		},
		{
			Name: "medianjob/40%/DVFS/dynamic", Workload: wl,
			Policy: core.PolicyDvfs, CapFraction: 0.4, ScaleRacks: scaleRacks,
			Options: rjms.Options{DynamicDVFS: true},
		},
	}
}

// AblationMixFloorScenarios compares the 2.0 GHz MIX floor against a
// full-range (1.2 GHz) mixed policy, which is DVFS-with-shutdown; the
// paper motivates the floor by the non-monotonic energy/performance
// trade-off.
func AblationMixFloorScenarios(scaleRacks int) []Scenario {
	wl := trace.Config{Kind: trace.MedianJob, Seed: 1001}
	return []Scenario{
		{
			Name: "medianjob/40%/MIX-floor2.0", Workload: wl,
			Policy: core.PolicyMix, CapFraction: 0.4, ScaleRacks: scaleRacks,
		},
		{
			Name: "medianjob/40%/DVFS-full", Workload: wl,
			Policy: core.PolicyDvfs, CapFraction: 0.4, ScaleRacks: scaleRacks,
		},
	}
}
