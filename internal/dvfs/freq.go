// Package dvfs models Dynamic Voltage and Frequency Scaling as used by the
// powercapping scheduler of Georgiou, Glesser and Trystram (IPDPSW 2015).
//
// The package provides the CPU frequency ladder of the Curie supercomputer's
// Bullx B510 nodes (Intel Sandy Bridge, 1.2 GHz to 2.7 GHz), the walltime
// degradation model used when jobs are forced to run below the nominal
// frequency (Section V of the paper), and the rho criterion that decides
// whether DVFS or node shutdown yields more computational work under a power
// cap (Section III-A).
package dvfs

import (
	"fmt"
	"sort"
	"strconv"
)

// Freq is a CPU frequency in megahertz. The zero value means "unspecified";
// schedulers should treat it as the nominal (maximum) frequency.
type Freq int

// The Curie frequency ladder (Figure 4 of the paper).
const (
	F1200 Freq = 1200
	F1400 Freq = 1400
	F1600 Freq = 1600
	F1800 Freq = 1800
	F2000 Freq = 2000
	F2200 Freq = 2200
	F2400 Freq = 2400
	F2700 Freq = 2700
)

// GHz reports the frequency in gigahertz.
func (f Freq) GHz() float64 { return float64(f) / 1000 }

// String renders the frequency as e.g. "2.7 GHz".
func (f Freq) String() string {
	if f == 0 {
		return "nominal"
	}
	s := strconv.FormatFloat(f.GHz(), 'f', -1, 64)
	return s + " GHz"
}

// Ladder is an ordered set of available frequencies, ascending.
type Ladder []Freq

// curieRungs is the Curie ladder as an array: the slot order of
// CurieCores.
var curieRungs = [...]Freq{F1200, F1400, F1600, F1800, F2000, F2200, F2400, F2700}

// CurieLadder returns the eight P-states of a Curie compute node,
// ascending from 1.2 GHz to the nominal 2.7 GHz.
func CurieLadder() Ladder {
	return Ladder(curieRungs[:]).Clone()
}

// CurieCores counts cores at each rung of the Curie ladder, slot i
// holding the cores at CurieLadder()[i]: the Figure 6/7 cores-by-
// frequency value of one metrics sample. It is a fixed-size array, so a
// sample carries it by value and recording one allocates nothing. It
// has slots for the Curie rungs only, which holds because the Curie
// profile is the only one a controller builds (rjms.New).
type CurieCores [len(curieRungs)]int32

// CurieSlot returns f's slot in a CurieCores, and false for a frequency
// off the Curie ladder.
func CurieSlot(f Freq) (int, bool) {
	for i, r := range curieRungs {
		if r == f {
			return i, true
		}
	}
	return 0, false
}

// At returns the cores counted at f; 0 for a frequency off the ladder.
func (c CurieCores) At(f Freq) int {
	if i, ok := CurieSlot(f); ok {
		return int(c[i])
	}
	return 0
}

// MixLadder returns the restricted ladder used by the MIX policy
// (Section VI-B): only the high frequencies 2.0-2.7 GHz, because the
// energy/performance trade-off is non-monotonic and its optimum lies
// between 2.0 and 2.7 GHz on Curie.
func MixLadder() Ladder {
	return Ladder{F2000, F2200, F2400, F2700}
}

// Validate checks that the ladder is non-empty, strictly ascending and
// contains only positive frequencies.
func (l Ladder) Validate() error {
	if len(l) == 0 {
		return fmt.Errorf("dvfs: empty frequency ladder")
	}
	for i, f := range l {
		if f <= 0 {
			return fmt.Errorf("dvfs: non-positive frequency %d at index %d", f, i)
		}
		if i > 0 && l[i-1] >= f {
			return fmt.Errorf("dvfs: ladder not strictly ascending at index %d (%v >= %v)", i, l[i-1], f)
		}
	}
	return nil
}

// Min returns the lowest frequency of the ladder.
func (l Ladder) Min() Freq { return l[0] }

// Max returns the highest (nominal) frequency of the ladder.
func (l Ladder) Max() Freq { return l[len(l)-1] }

// Below returns the next frequency strictly below f, or 0 and false when f
// already is the lowest rung. It is the "a slower value" step of the online
// Algorithm 2.
func (l Ladder) Below(f Freq) (Freq, bool) {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= f })
	if i == 0 {
		return 0, false
	}
	return l[i-1], true
}

// Clone returns an independent copy of the ladder.
func (l Ladder) Clone() Ladder {
	out := make(Ladder, len(l))
	copy(out, l)
	return out
}
