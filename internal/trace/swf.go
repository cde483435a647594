// Package trace reads and writes workloads in the Standard Workload Format
// (SWF) of the Parallel Workloads Archive — the format the Curie trace the
// paper replays is published in — and synthesizes Curie-like workload
// intervals with the statistical features Section VII-B reports: an
// overloaded submission queue, a large majority of small short jobs, a tiny
// fraction of huge jobs, and walltime requests that overestimate runtimes
// by four orders of magnitude.
//
// The package has two layers. The streaming layer — Scanner, Writer, and
// the Stream transforms (Window, ScaleTime, ScaleCores, Limit) —
// reads, reshapes and writes arbitrarily large archive traces in bounded
// memory; SWFSource bundles a file plus a transform chain into a workload
// source replay scenarios can run directly. The slice layer (WriteSWF,
// Generate, Summarize) is the materialized convenience API built on top
// of it.
package trace

import (
	"cmp"
	"io"
	"sort"

	"repro/internal/job"
)

// swf field indices (0-based) of the 18-column Standard Workload Format.
const (
	swfJobID = iota
	swfSubmit
	swfWait
	swfRunTime
	swfAllocProcs
	swfAvgCPU
	swfUsedMem
	swfReqProcs
	swfReqTime
	swfReqMem
	swfStatus
	swfUserID
	swfGroupID
	swfExecutable
	swfQueue
	swfPartition
	swfPreceding
	swfThinkTime
	swfFields
)

// bySubmit compares jobs by (submit time, job ID) — the canonical replay
// order the generator guarantees.
func bySubmit(a, b *job.Job) int {
	if c := cmp.Compare(a.Submit, b.Submit); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// WriteSWF serializes jobs as SWF with a minimal header. Unknown fields
// are written as -1 per the SWF convention.
func WriteSWF(w io.Writer, jobs []*job.Job, comment string) error {
	sw := NewWriter(w, comment)
	for _, j := range jobs {
		if err := sw.Write(j); err != nil {
			return err
		}
	}
	return sw.Flush()
}

// Stats summarizes a workload the way Section VII-B characterizes the
// Curie trace.
type Stats struct {
	Jobs            int
	TotalCoreSec    int64   // sum cores*runtime
	SmallShort      float64 // fraction with <512 cores and <2 min runtime
	Huge            float64 // fraction with cores*runtime > 80640*3600
	MedianOverEst   float64 // median walltime/runtime (runtime > 0 only)
	MeanOverEst     float64 // mean walltime/runtime
	MaxCores        int
	HorizonSec      int64 // last submit time
	BacklogAtuZero  int   // jobs submitted at t=0 (initial queue)
	DistinctUsers   int
	ZeroRuntimeJobs int
}

// Summarizer accumulates workload statistics one job at a time, so the
// streaming path can characterize a trace while scanning it. It retains
// one float64 per finite-runtime job (for the exact median
// overestimation) and the distinct-user set — not the jobs themselves.
type Summarizer struct {
	hugeCoreSec int64
	s           Stats
	users       map[string]bool
	ratios      []float64
	sumRatio    float64
	smallShort  int
	huge        int
}

// NewSummarizer returns a Summarizer with the given "huge job"
// core-seconds threshold (the paper: more than the whole cluster for one
// hour, i.e. 80640*3600 for Curie).
func NewSummarizer(hugeCoreSec int64) *Summarizer {
	return &Summarizer{hugeCoreSec: hugeCoreSec, users: map[string]bool{}}
}

// Add accumulates one job.
func (a *Summarizer) Add(j *job.Job) {
	a.s.Jobs++
	cs := int64(j.Cores) * j.Runtime
	a.s.TotalCoreSec += cs
	if j.Cores < 512 && j.Runtime < 120 {
		a.smallShort++
	}
	if cs > a.hugeCoreSec {
		a.huge++
	}
	if j.Runtime > 0 {
		r := float64(j.Walltime) / float64(j.Runtime)
		a.ratios = append(a.ratios, r)
		a.sumRatio += r
	} else {
		a.s.ZeroRuntimeJobs++
	}
	if j.Cores > a.s.MaxCores {
		a.s.MaxCores = j.Cores
	}
	if j.Submit > a.s.HorizonSec {
		a.s.HorizonSec = j.Submit
	}
	if j.Submit == 0 {
		a.s.BacklogAtuZero++
	}
	a.users[j.User] = true
}

// Stats finalizes and returns the accumulated statistics. The Summarizer
// stays usable; further Adds refine the same summary.
func (a *Summarizer) Stats() Stats {
	s := a.s
	if s.Jobs > 0 {
		s.SmallShort = float64(a.smallShort) / float64(s.Jobs)
		s.Huge = float64(a.huge) / float64(s.Jobs)
	}
	if len(a.ratios) > 0 {
		ratios := append([]float64(nil), a.ratios...)
		sort.Float64s(ratios)
		s.MedianOverEst = ratios[len(ratios)/2]
		s.MeanOverEst = a.sumRatio / float64(len(ratios))
	}
	s.DistinctUsers = len(a.users)
	return s
}

// Summarize computes workload statistics over a materialized job list.
func Summarize(jobs []*job.Job, hugeCoreSec int64) Stats {
	a := NewSummarizer(hugeCoreSec)
	for _, j := range jobs {
		a.Add(j)
	}
	return a.Stats()
}

// SummarizeStream drains a stream into a summary without materializing
// the jobs.
func SummarizeStream(src Stream, hugeCoreSec int64) (Stats, error) {
	a := NewSummarizer(hugeCoreSec)
	for {
		j, err := src.Next()
		if err != nil {
			return Stats{}, err
		}
		if j == nil {
			return a.Stats(), nil
		}
		a.Add(j)
	}
}
