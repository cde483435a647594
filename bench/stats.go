package main

import (
	"math"
	"sort"
)

// minTailSamples is the choosing-metrics rule for a reported percentile:
// at least this many samples must lie beyond it, or the number is a few
// outliers and not a percentile.
const minTailSamples = 10

// percentile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between order statistics; xs need not be sorted and is
// not modified. An empty sample has no percentile: the result is NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// tailOK reports whether the q-quantile of n samples has at least
// minTailSamples samples beyond it (p90 needs n >= 100).
func tailOK(n int, q float64) bool {
	beyondPerMille := 1000 - int(math.Round(q*1000)) // exact, where 1-q is not
	return n*beyondPerMille/1000 >= minTailSamples
}

// quartiles returns the first quartile, the median and the third
// quartile the way Python's statistics.quantiles(xs, n=4) does (the
// exclusive method), which is what the acceptance procedure uses for
// the run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(2), at(3)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
