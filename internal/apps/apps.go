// Package apps encodes the application power/performance profiles the
// paper measured on Curie hardware (Section VI-B): the power versus
// normalized-execution-time trade-off curves of Figure 3 for Linpack,
// STREAM, IMB and GROMACS across the eight CPU frequencies, and the
// degradation/rho table of Figure 5 that decides the best power-reduction
// mechanism per application class.
package apps

import (
	"sort"

	"repro/internal/dvfs"
	"repro/internal/power"
)

// Profile describes one application's response to frequency scaling.
type Profile struct {
	// Name as printed in the paper's tables.
	Name string
	// DegMin is the completion-time degradation at 1.2 GHz relative to
	// 2.7 GHz (Figure 5).
	DegMin float64
	// PowerAlpha positions the application's node power draw between
	// the idle floor and the all-out table maximum at each frequency:
	// draw(f) = idle + alpha*(table(f)-idle). Linpack, which stresses
	// every resource, has alpha 1; memory- and network-bound codes sit
	// lower (Figure 3 shows their curves below Linpack's).
	PowerAlpha float64
	// Source marks rows quoted from related work rather than measured
	// (SPEC and NAS come from Freeh et al., the common value from
	// Etinski et al.).
	Source string
}

// Measured returns the four applications run on Curie for Figure 3.
func Measured() []Profile {
	return []Profile{
		{Name: "linpack", DegMin: 2.14, PowerAlpha: 1.00},
		{Name: "IMB", DegMin: 2.13, PowerAlpha: 0.62},
		{Name: "STREAM", DegMin: 1.26, PowerAlpha: 0.80},
		{Name: "GROMACS", DegMin: 1.16, PowerAlpha: 0.72},
	}
}

// Figure5Rows returns every row of the Figure 5 table, in the paper's
// order: the break-even entry, the measured applications and the quoted
// literature values.
func Figure5Rows() []Profile {
	return []Profile{
		{Name: "NA", DegMin: 2.27},
		{Name: "linpack", DegMin: 2.14, PowerAlpha: 1.00},
		{Name: "IMB", DegMin: 2.13, PowerAlpha: 0.62},
		{Name: "SPEC Float", DegMin: 1.89, Source: "Freeh et al. [9]"},
		{Name: "SPEC Integer", DegMin: 1.74, Source: "Freeh et al. [9]"},
		{Name: "Common value", DegMin: 1.63, Source: "Etinski et al. [20]"},
		{Name: "NAS suite", DegMin: 1.5, Source: "Freeh et al. [9]"},
		{Name: "STREAM", DegMin: 1.26, PowerAlpha: 0.80},
		{Name: "GROMACS", DegMin: 1.16, PowerAlpha: 0.72},
	}
}

// Rho evaluates the published Figure 5 criterion for the application on
// the given node profile at its minimum frequency.
func (p Profile) Rho(prof *power.Profile) float64 {
	return prof.Rho(p.DegMin, prof.MinFreq())
}

// BestMechanism applies the paper's rule (rho <= 0 selects switch-off).
func (p Profile) BestMechanism(prof *power.Profile) dvfs.Mechanism {
	return dvfs.ChooseMechanism(p.Rho(prof))
}

// MaxPowerAt returns the application's maximum per-node draw at
// frequency f on the given node profile (the y axis of Figure 3).
func (p Profile) MaxPowerAt(prof *power.Profile, f dvfs.Freq) power.Watts {
	idle := prof.Idle()
	return idle + power.Watts(p.PowerAlpha*float64(prof.Busy(f)-idle))
}

// NormTimeAt returns the normalized execution time at frequency f (the x
// axis of Figure 3): 1 at nominal, DegMin at the ladder minimum. CPU-bound
// time scales roughly with 1/f, so the interpolation is linear in 1/f
// rather than in f, which bows the curves the way Figure 3 shows.
func (p Profile) NormTimeAt(prof *power.Profile, f dvfs.Freq) float64 {
	fmax, fmin := prof.Nominal(), prof.MinFreq()
	cf := f
	if cf == 0 || cf > fmax {
		cf = fmax
	}
	if cf < fmin {
		cf = fmin
	}
	invSpan := 1.0/float64(fmin) - 1.0/float64(fmax)
	t := (1.0/float64(cf) - 1.0/float64(fmax)) / invSpan
	return 1 + (p.DegMin-1)*t
}

// Point is one marker of Figure 3.
type Point struct {
	App      string
	Freq     dvfs.Freq
	Watts    power.Watts
	NormTime float64
}

// Figure3Points generates every (application, frequency) marker of
// Figure 3 on the given node profile, ordered by application then
// ascending frequency.
func Figure3Points(prof *power.Profile) []Point {
	var out []Point
	for _, app := range Measured() {
		freqs := prof.Frequencies()
		sort.Slice(freqs, func(i, j int) bool { return freqs[i] < freqs[j] })
		for _, f := range freqs {
			out = append(out, Point{
				App:      app.Name,
				Freq:     f,
				Watts:    app.MaxPowerAt(prof, f),
				NormTime: app.NormTimeAt(prof, f),
			})
		}
	}
	return out
}
