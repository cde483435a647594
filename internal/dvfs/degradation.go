package dvfs

import "fmt"

// Degradation models the completion-time penalty of running a job below the
// nominal frequency. Following Section V of the paper, the penalty is
// degMin at the minimum frequency of the ladder, 1.0 at the nominal
// frequency, and linearly interpolated (in frequency) in between:
//
//	factor(f) = 1 + (degMin-1) * (fmax-f)/(fmax-fmin)
//
// The paper uses degMin = 1.63 for the full 1.2-2.7 GHz range (the "common
// value" of Etinski et al.) and degMin = 1.29 for the MIX policy whose
// minimum frequency is 2.0 GHz.
type Degradation struct {
	ladder Ladder
	degMin float64
}

// Canonical degradation constants from Section VI-B / VII-B of the paper.
const (
	// DegMinCommon is the walltime degradation factor at 1.2 GHz assumed
	// for replayed jobs ("a degradation of 163% is assumed to be a good
	// approximation").
	DegMinCommon = 1.63
	// DegMinMix is the degradation at the 2.0 GHz floor of the MIX policy.
	DegMinMix = 1.29
)

// NewDegradation builds a degradation model over the given ladder.
// degMin must be >= 1 (1.0 means frequency has no impact at all).
func NewDegradation(l Ladder, degMin float64) (*Degradation, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if degMin < 1 {
		return nil, fmt.Errorf("dvfs: degradation factor %.3f < 1", degMin)
	}
	return &Degradation{ladder: l.Clone(), degMin: degMin}, nil
}

// MustDegradation is NewDegradation that panics on invalid input; intended
// for package-level defaults built from known-good constants.
func MustDegradation(l Ladder, degMin float64) *Degradation {
	d, err := NewDegradation(l, degMin)
	if err != nil {
		panic(err)
	}
	return d
}

// CurieDegradation returns the default replay model: full Curie ladder with
// the common 1.63 degradation at 1.2 GHz.
func CurieDegradation() *Degradation {
	return MustDegradation(CurieLadder(), DegMinCommon)
}

// MixDegradation returns the MIX-policy model: 2.0-2.7 GHz ladder with 1.29
// degradation at the 2.0 GHz floor.
func MixDegradation() *Degradation {
	return MustDegradation(MixLadder(), DegMinMix)
}

// DegMin returns the degradation factor at the ladder's minimum frequency.
func (d *Degradation) DegMin() float64 { return d.degMin }

// Factor returns the multiplicative completion-time penalty at frequency f.
// Frequencies are clamped to the ladder's range; f == 0 means nominal.
func (d *Degradation) Factor(f Freq) float64 {
	fmax, fmin := d.ladder.Max(), d.ladder.Min()
	if f == 0 || f >= fmax {
		return 1
	}
	if f <= fmin {
		return d.degMin
	}
	span := float64(fmax - fmin)
	return 1 + (d.degMin-1)*float64(fmax-f)/span
}

// ScaleDuration stretches a nominal-duration (expressed in any integer time
// unit) by the degradation factor at frequency f, rounding half up. The
// result is never shorter than the input for f below nominal.
func (d *Degradation) ScaleDuration(nominal int64, f Freq) int64 {
	if nominal <= 0 {
		return nominal
	}
	scaled := float64(nominal)*d.Factor(f) + 0.5
	out := int64(scaled)
	if out < nominal {
		out = nominal
	}
	return out
}

// Rho computes the Section III-A criterion deciding between DVFS and
// shutdown, exactly as tabulated in Figure 5 of the paper:
//
//	rho = 1 - 1/degMin - pMin/(pMax-pOff)
//
// where pMax, pMin and pOff are the per-node draws at nominal frequency, at
// the minimum DVFS frequency, and switched off. The paper prints the last
// term as (Pmax-Pdvfs)/(Pmax-Poff); its published table values only
// reproduce when "Pdvfs" is read as the power reduction achieved by DVFS
// (Pmax-Pmin), so that Pmax-Pdvfs = Pmin. We follow the published table:
// every Figure 5 row and its break-even degradation of ~2.27 come out
// exactly. Per the paper's rule, DVFS is selected when rho > 0 and
// switch-off when rho <= 0.
//
// Note: a from-first-principles comparison of extractable work (see
// internal/model, which maximizes W under constraints C1-C3 directly)
// yields the threshold (pMax-pMin)/(pMax-pOff) instead, with a Curie
// break-even near degMin = 1.92. The scheduler follows the published
// criterion so that policy decisions match the paper's system.
func Rho(degMin, pMax, pMin, pOff float64) float64 {
	return 1 - 1/degMin - pMin/(pMax-pOff)
}

// Mechanism is the power-reduction mechanism selected by the model.
type Mechanism int

const (
	// MechanismShutdown switches whole nodes off.
	MechanismShutdown Mechanism = iota
	// MechanismDVFS lowers CPU frequencies of running nodes.
	MechanismDVFS
	// MechanismEither marks the cases the rho criterion does not decide:
	// no cap to meet, a policy with one mechanism or none, or both
	// mechanisms needed at once.
	MechanismEither
)

// String implements fmt.Stringer.
func (m Mechanism) String() string {
	switch m {
	case MechanismShutdown:
		return "Switch-off"
	case MechanismDVFS:
		return "DVFS"
	case MechanismEither:
		return "Either"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// ChooseMechanism is the one spelling of Figure 5's rule, as Algorithm 1
// states it: "if rho <= 0 then switch-off", DVFS otherwise. On the
// break-even itself the paper switches off.
func ChooseMechanism(rho float64) Mechanism {
	if rho > 0 {
		return MechanismDVFS
	}
	return MechanismShutdown
}
