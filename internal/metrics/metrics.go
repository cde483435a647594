// Package metrics collects what the paper's evaluation reports: time
// series of core usage by CPU frequency and of power drawn by category
// (the Figure 6/7 plots), and the per-run totals of Figure 8 — consumed
// energy, launched jobs and accumulated work (core-seconds) — with the
// normalizations used there.
package metrics

import (
	"fmt"

	"repro/internal/dvfs"
	"repro/internal/power"
)

// Sample is one point of the Figure 6/7 time series.
type Sample struct {
	T           int64           // virtual time (s)
	CoresByFreq dvfs.CurieCores // busy cores by the rung their node is charged at
	BusyNodes   int
	IdleNodes   int
	OffNodes    int
	OffCores    int         // cores belonging to switched-off nodes
	Power       power.Watts // instantaneous cluster draw
	Cap         power.Watts // active cap (0 = uncapped)
	Bonus       power.Watts // harvested group-shutdown bonus
}

// Recorder accumulates samples, counters and the exact energy/work
// integrals of one run.
type Recorder struct {
	samples []Sample

	energy power.Meter // integrates cluster watts -> joules
	work   power.Meter // integrates busy cores -> core-seconds

	submitted int
	launched  int
	completed int
	killed    int

	launchedByFreq map[dvfs.Freq]int
	waitSecSum     int64 // accumulated queue wait of launched jobs
	rescales       int   // dynamic-DVFS re-clocks of running jobs

	bsldSum float64 // bounded slowdown accumulators (completed jobs)
	bsldMax float64
	bsldN   int
}

// NewRecorder starts a recorder at time start with the given initial
// cluster draw and busy-core count.
func NewRecorder(start int64, draw power.Watts, busyCores int) *Recorder {
	r := &Recorder{launchedByFreq: map[dvfs.Freq]int{}}
	// Meters accept the first Set as initialization.
	_ = r.energy.Set(start, draw)
	_ = r.work.Set(start, power.Watts(busyCores))
	return r
}

// NotePower records a change of the cluster draw at time t.
func (r *Recorder) NotePower(t int64, w power.Watts) error { return r.energy.Set(t, w) }

// NoteCores records a change of the busy-core count at time t.
func (r *Recorder) NoteCores(t int64, busy int) error { return r.work.Set(t, power.Watts(busy)) }

// NoteSubmit counts a submitted job.
func (r *Recorder) NoteSubmit() { r.submitted++ }

// NoteLaunch counts a launched job at frequency f that waited waitSec in
// the queue.
func (r *Recorder) NoteLaunch(f dvfs.Freq, waitSec int64) {
	r.launched++
	r.launchedByFreq[f]++
	if waitSec > 0 {
		r.waitSecSum += waitSec
	}
}

// BSLDThreshold is the short-job floor of the bounded slowdown metric
// (10 s, the convention of Etinski et al.'s power-budget scheduling
// papers the paper builds on).
const BSLDThreshold = 10

// NoteJobDone records a finished job's bounded slowdown:
// BSLD = max(1, (wait + run) / max(run, threshold)).
func (r *Recorder) NoteJobDone(waitSec, runSec int64) {
	den := float64(runSec)
	if den < BSLDThreshold {
		den = BSLDThreshold
	}
	b := (float64(waitSec) + float64(runSec)) / den
	if b < 1 {
		b = 1
	}
	r.bsldSum += b
	r.bsldN++
	if b > r.bsldMax {
		r.bsldMax = b
	}
}

// NoteRescale counts a dynamic-DVFS re-clock of a running job.
func (r *Recorder) NoteRescale() { r.rescales++ }

// NoteCompletion counts a finished job; killed marks controller kills.
func (r *Recorder) NoteCompletion(killed bool) {
	if killed {
		r.killed++
	} else {
		r.completed++
	}
}

// AddSample appends one time-series point.
func (r *Recorder) AddSample(s Sample) { r.samples = append(r.samples, s) }

// Reserve pre-sizes the sample series for n points. Callers that know
// the sampling schedule (horizon / interval) avoid the append-regrowth
// copies of long replays; a smaller or non-positive n is a no-op.
func (r *Recorder) Reserve(n int) {
	if n <= cap(r.samples) {
		return
	}
	grown := make([]Sample, len(r.samples), n)
	copy(grown, r.samples)
	r.samples = grown
}

// Samples returns the recorded series in order.
func (r *Recorder) Samples() []Sample { return r.samples }

// Summary is the per-run result row of Figure 8 plus context.
type Summary struct {
	Start, End int64

	EnergyJ     power.Joules
	WorkCoreSec float64
	PeakPower   power.Watts
	MeanPower   power.Watts

	JobsSubmitted int
	JobsLaunched  int
	JobsCompleted int
	JobsKilled    int
	Rescales      int // dynamic-DVFS re-clocks of running jobs
	MeanWaitSec   float64
	// MeanBSLD/MaxBSLD are the bounded slowdown statistics of completed
	// jobs — the job-performance metric of the power-budget scheduling
	// literature the paper compares against (Etinski et al.).
	MeanBSLD float64
	MaxBSLD  float64

	LaunchedByFreq map[dvfs.Freq]int

	// Normalizations of Figure 8: "all measures are normalized to the
	// maximal possible value".
	NormEnergy   float64 // energy / (maxPower * duration)
	NormWork     float64 // work / (totalCores * duration)
	NormLaunched float64 // launched / submitted
}

// Finalize closes the integrals at time end and normalizes against the
// machine capacity (maxPower watts, totalCores cores).
func (r *Recorder) Finalize(start, end int64, maxPower power.Watts, totalCores int) Summary {
	s := Summary{
		Start:          start,
		End:            end,
		EnergyJ:        r.energy.EnergyAt(end),
		WorkCoreSec:    float64(r.work.EnergyAt(end)),
		PeakPower:      r.energy.Peak(),
		MeanPower:      r.energy.MeanAt(end),
		JobsSubmitted:  r.submitted,
		JobsLaunched:   r.launched,
		JobsCompleted:  r.completed,
		JobsKilled:     r.killed,
		Rescales:       r.rescales,
		LaunchedByFreq: map[dvfs.Freq]int{},
	}
	for f, n := range r.launchedByFreq {
		s.LaunchedByFreq[f] = n
	}
	if r.launched > 0 {
		s.MeanWaitSec = float64(r.waitSecSum) / float64(r.launched)
	}
	if r.bsldN > 0 {
		s.MeanBSLD = r.bsldSum / float64(r.bsldN)
		s.MaxBSLD = r.bsldMax
	}
	dur := float64(end - start)
	if dur > 0 {
		if maxPower > 0 {
			s.NormEnergy = float64(s.EnergyJ) / (float64(maxPower) * dur)
		}
		if totalCores > 0 {
			s.NormWork = s.WorkCoreSec / (float64(totalCores) * dur)
		}
	}
	if r.submitted > 0 {
		s.NormLaunched = float64(r.launched) / float64(r.submitted)
	}
	return s
}

// FreqsUsed returns the frequencies appearing in the series, ascending —
// the legend of the Figure 6/7 plots.
func FreqsUsed(samples []Sample) []dvfs.Freq {
	var used [len(dvfs.CurieCores{})]bool
	for _, s := range samples {
		for i, n := range s.CoresByFreq {
			if n > 0 {
				used[i] = true
			}
		}
	}
	var out []dvfs.Freq
	for i, f := range dvfs.CurieLadder() {
		if used[i] {
			out = append(out, f)
		}
	}
	return out
}

// String renders a one-line digest, handy for examples and logs.
func (s Summary) String() string {
	return fmt.Sprintf("energy=%v work=%.3g core-s launched=%d/%d completed=%d killed=%d peak=%v",
		s.EnergyJ, s.WorkCoreSec, s.JobsLaunched, s.JobsSubmitted, s.JobsCompleted, s.JobsKilled, s.PeakPower)
}
