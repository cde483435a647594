package power

import (
	"fmt"
	"sort"

	"repro/internal/dvfs"
)

// Profile holds the per-node power draws the controller is configured with:
// the SLURM parameters DownWatts, IdleWatts, MaxWatts and CpuFreqXWatts of
// Section V of the paper. A busy draw is priced at the configured rungs
// only: a frequency between or beyond them has no draw, and Busy panics on
// it. The rungs are two short parallel slices, not a map: Busy runs for
// every node a job start, finish or power check touches.
type Profile struct {
	down  Watts       // node switched off (BMC still powered)
	idle  Watts       // node powered on, no job
	order []dvfs.Freq // configured frequencies, ascending
	watts []Watts     // watts[i] is the busy draw at order[i]
}

// NewProfile builds a profile. freqW must contain at least one frequency;
// its maximum frequency entry is the MaxWatts value. Requirements:
// 0 <= down <= idle <= min over freqW, and draws must not decrease with
// frequency.
func NewProfile(down, idle Watts, freqW map[dvfs.Freq]Watts) (*Profile, error) {
	if len(freqW) == 0 {
		return nil, fmt.Errorf("power: profile needs at least one frequency entry")
	}
	if down < 0 {
		return nil, fmt.Errorf("power: negative DownWatts %v", down)
	}
	if idle < down {
		return nil, fmt.Errorf("power: IdleWatts %v below DownWatts %v", idle, down)
	}
	order := make([]dvfs.Freq, 0, len(freqW))
	for f := range freqW {
		if f <= 0 {
			return nil, fmt.Errorf("power: non-positive frequency %d in profile", f)
		}
		order = append(order, f)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	watts := make([]Watts, len(order))
	prev := idle
	for i, f := range order {
		w := freqW[f]
		if w < prev {
			return nil, fmt.Errorf("power: draw %v at %v below previous %v (non-monotonic)", w, f, prev)
		}
		watts[i], prev = w, w
	}
	return &Profile{down: down, idle: idle, order: order, watts: watts}, nil
}

// CurieProfile returns the measured Curie node profile of Figure 4:
//
//	Switch-off 14 W, Idle 117 W, and 193..358 W across 1.2-2.7 GHz.
func CurieProfile() *Profile {
	p, err := NewProfile(14, 117, map[dvfs.Freq]Watts{
		dvfs.F1200: 193,
		dvfs.F1400: 213,
		dvfs.F1600: 234,
		dvfs.F1800: 248,
		dvfs.F2000: 269,
		dvfs.F2200: 289,
		dvfs.F2400: 317,
		dvfs.F2700: 358,
	})
	if err != nil {
		panic(err) // constants above are known-valid
	}
	return p
}

// Down returns the draw of a switched-off node (its BMC stays powered so a
// remote power-on is possible; 14 W on Curie).
func (p *Profile) Down() Watts { return p.down }

// Idle returns the draw of a powered-on node with no job.
func (p *Profile) Idle() Watts { return p.idle }

// Max returns the draw of a fully busy node at nominal frequency
// (the MaxWatts controller parameter).
func (p *Profile) Max() Watts { return p.watts[len(p.watts)-1] }

// Nominal returns the highest configured frequency.
func (p *Profile) Nominal() dvfs.Freq { return p.order[len(p.order)-1] }

// MinFreq returns the lowest configured frequency.
func (p *Profile) MinFreq() dvfs.Freq { return p.order[0] }

// Frequencies returns the configured frequencies, ascending.
func (p *Profile) Frequencies() []dvfs.Freq {
	out := make([]dvfs.Freq, len(p.order))
	copy(out, p.order)
	return out
}

// Busy returns the draw of a node running at frequency f, which must be
// one of the profile's rungs; f == 0 means nominal frequency. Any other
// frequency panics, naming f and the rungs: nothing prices a frequency
// that Cluster.Occupy would refuse to commit.
func (p *Profile) Busy(f dvfs.Freq) Watts {
	if f == 0 {
		return p.Max()
	}
	// Scan from the top: nominal is the common case and there are at most
	// a handful of rungs.
	for i := len(p.order) - 1; i >= 0; i-- {
		if p.order[i] == f {
			return p.watts[i]
		}
	}
	panic(fmt.Sprintf("power: %v is not a rung of the profile %v", f, p.order))
}

// Ladder returns the profile's frequencies as a dvfs.Ladder.
func (p *Profile) Ladder() dvfs.Ladder {
	return dvfs.Ladder(p.Frequencies())
}

// Rho evaluates the DVFS-vs-shutdown criterion of Section III-A (as
// published in Figure 5; see dvfs.Rho) for this profile and a degradation
// factor degMin at frequency fmin.
func (p *Profile) Rho(degMin float64, fmin dvfs.Freq) float64 {
	return dvfs.Rho(degMin, float64(p.Max()), float64(p.Busy(fmin)), float64(p.Down()))
}
