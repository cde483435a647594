package core

import (
	"fmt"

	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/registry"
)

// Policy is the powercap scheduling mode (the SchedulerParameters option
// of Section V).
type Policy int

const (
	// PolicyNone disables powercap handling entirely (the 100%/None
	// baseline of Figure 8).
	PolicyNone Policy = iota
	// PolicyShut may switch nodes off (grouped, planned offline) and
	// keeps jobs at nominal frequency.
	PolicyShut
	// PolicyDvfs never switches nodes off; it lowers job CPU
	// frequencies down to the ladder minimum (1.2 GHz on Curie).
	PolicyDvfs
	// PolicyMix combines both, with the DVFS floor lifted to 2.0 GHz
	// because the energy/performance trade-off is non-monotonic
	// (Section VI-B).
	PolicyMix
	// PolicyIdle can neither switch off nor slow down: nodes are left
	// idle and jobs wait. The paper measures it about 40% worse in
	// work than the real policies.
	PolicyIdle
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "NONE"
	case PolicyShut:
		return "SHUT"
	case PolicyDvfs:
		return "DVFS"
	case PolicyMix:
		return "MIX"
	case PolicyIdle:
		return "IDLE"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Policies is the powercap-policy registry. The five paper policies
// self-register below; flag help and the sim facade all
// read this, so an added policy shows up everywhere at once.
var Policies = registry.New[Policy]("policy")

func init() {
	Policies.Register("NONE", PolicyNone, "off")      // no powercap handling (the 100% baseline)
	Policies.Register("SHUT", PolicyShut, "shutdown") // switch nodes off, jobs stay at nominal frequency
	Policies.Register("DVFS", PolicyDvfs)             // slow jobs down to the ladder minimum, no switch-off
	Policies.Register("MIX", PolicyMix, "mixed")      // switch-off plus DVFS with the 2.0 GHz floor
	Policies.Register("IDLE", PolicyIdle)             // neither mechanism: leave nodes idle, jobs wait
}

// CanScale reports whether the policy may lower job frequencies.
func (p Policy) CanScale() bool { return p == PolicyDvfs || p == PolicyMix }

// DefaultMixFloor is the lowest frequency the MIX policy uses
// (Section VI-B: "the minimum DVFS frequency is 2.0 GHz instead of
// 1.2 GHz").
const DefaultMixFloor = dvfs.F2000

// PolicyModel binds a policy to the frequency ladder it may choose from
// and the walltime degradation model used to stretch runtimes and
// walltimes of down-clocked jobs.
type PolicyModel struct {
	Policy Policy
	Ladder dvfs.Ladder       // frequencies the online algorithm probes, ascending
	Deg    *dvfs.Degradation // degradation across the policy's ladder
}

// NewPolicyModel derives the ladder and degradation from the node power
// profile: the full profile ladder with degMinFull (1.63 on Curie) for
// DVFS, the ladder restricted to >= mixFloor with degMinMix (1.29) for
// MIX, and the nominal frequency only for the other policies. mixFloor 0
// means DefaultMixFloor.
func NewPolicyModel(p Policy, prof *power.Profile, degMinFull, degMinMix float64, mixFloor dvfs.Freq) (PolicyModel, error) {
	if prof == nil {
		return PolicyModel{}, fmt.Errorf("core: nil power profile")
	}
	if mixFloor == 0 {
		mixFloor = DefaultMixFloor
	}
	full := prof.Ladder()
	var ladder dvfs.Ladder
	var degMin float64
	switch p {
	case PolicyDvfs:
		ladder, degMin = full, degMinFull
	case PolicyMix:
		for _, f := range full {
			if f >= mixFloor {
				ladder = append(ladder, f)
			}
		}
		degMin = degMinMix
	case PolicyNone, PolicyShut, PolicyIdle:
		ladder, degMin = dvfs.Ladder{full.Max()}, 1
	default:
		return PolicyModel{}, fmt.Errorf("core: unknown policy %v", p)
	}
	if len(ladder) == 0 {
		return PolicyModel{}, fmt.Errorf("core: MIX floor %v excludes every profile frequency", mixFloor)
	}
	deg, err := dvfs.NewDegradation(ladder, degMin)
	if err != nil {
		return PolicyModel{}, err
	}
	return PolicyModel{Policy: p, Ladder: ladder, Deg: deg}, nil
}

// CuriePolicyModel builds the model with the paper's Curie constants.
func CuriePolicyModel(p Policy) PolicyModel {
	pm, err := NewPolicyModel(p, power.CurieProfile(), dvfs.DegMinCommon, dvfs.DegMinMix, DefaultMixFloor)
	if err != nil {
		panic(err) // constants are known-valid
	}
	return pm
}
