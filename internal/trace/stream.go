package trace

import (
	"fmt"

	"repro/internal/job"
)

// Stream is the pull-iterator contract of the streaming trace pipeline:
// Next returns the next job, or (nil, nil) at end of stream. Once a
// Stream has returned an error or ended it must keep doing so. Streams
// read and transform arbitrarily large traces in bounded memory — no
// stage holds more than the record in flight — so a million-job archive
// trace costs the same to window or rescale as a thousand-job one.
//
// The pipeline convention (shared with the SWF archive format itself) is
// that jobs arrive in nondecreasing Submit order; Window exploits it to
// stop reading early, and rjms.Controller.LoadWorkloadStream requires it
// to schedule submissions lazily.
//
// A Stream hands over ownership of every job it yields: transforms
// rewrite fields in place, so a job a transform reads must not be
// aliased by anything upstream (Scanner builds fresh jobs). A controller
// only reads what it pulls.
type Stream interface {
	Next() (*job.Job, error)
}

// streamFunc adapts a closure to the Stream interface.
type streamFunc func() (*job.Job, error)

func (f streamFunc) Next() (*job.Job, error) { return f() }

// FromSlice streams jobs in slice order — the bridge into the pipeline
// for a materialized list. A transform over it rewrites the jobs, so
// they must then be owned (fresh from Generate, or copied); a controller
// reads them and writes nothing, and needs them in nondecreasing Submit
// order.
func FromSlice(jobs []*job.Job) Stream {
	return streamFunc(func() (*job.Job, error) {
		if len(jobs) == 0 {
			return nil, nil
		}
		j := jobs[0]
		jobs = jobs[1:]
		return j, nil
	})
}

// Window keeps the jobs submitted in [start, end) and re-bases their
// submit times to the window start, turning any slice of an archive
// trace into a replayable interval. The input must be submit-sorted (the
// SWF archive convention, and what Scanner yields for such traces):
// Window stops pulling from src at the first job at or beyond end, so
// windowing the first hour of a million-job trace reads only the first
// hour's lines.
func Window(src Stream, start, end int64) Stream {
	done := false
	var err error
	if end <= start {
		err = fmt.Errorf("trace: window [%d, %d) is empty", start, end)
	}
	return streamFunc(func() (*job.Job, error) {
		if err != nil {
			return nil, err
		}
		for !done {
			j, e := src.Next()
			if e != nil || j == nil {
				done = true
				err = e // keep a source error sticky across calls
				return nil, e
			}
			if j.Submit >= end {
				done = true
				return nil, nil
			}
			if j.Submit < start {
				continue
			}
			j.Submit -= start
			return j, nil
		}
		return nil, nil
	})
}

// ScaleTime multiplies submit times by factor, rescaling the arrival
// rate: factor 0.5 compresses the trace to twice the submission
// pressure, factor 2 relaxes it to half. Runtimes and walltimes are
// untouched — only the arrival process changes.
func ScaleTime(src Stream, factor float64) Stream {
	var err error
	if factor <= 0 {
		err = fmt.Errorf("trace: non-positive time scale %v", factor)
	}
	return streamFunc(func() (*job.Job, error) {
		if err != nil {
			return nil, err
		}
		j, e := src.Next()
		if e != nil || j == nil {
			return nil, e
		}
		j.Submit = int64(float64(j.Submit)*factor + 0.5)
		return j, nil
	})
}

// ScaleCores rescales job widths from a machine of `from` cores onto a
// machine of `to` cores, preserving each job's fraction of the machine
// (at least one core, never wider than the target machine) — the same
// shape-preserving reduction the synthetic generator applies for
// reduced-scale replays.
func ScaleCores(src Stream, from, to int) Stream {
	var err error
	if from <= 0 || to <= 0 {
		err = fmt.Errorf("trace: core rescale %d -> %d, want positive sizes", from, to)
	}
	return streamFunc(func() (*job.Job, error) {
		if err != nil {
			return nil, err
		}
		j, e := src.Next()
		if e != nil || j == nil {
			return nil, e
		}
		c := j.Cores * to / from
		if c < 1 {
			c = 1
		}
		if c > to {
			c = to
		}
		j.Cores = c
		return j, nil
	})
}

// Limit passes through at most n jobs.
func Limit(src Stream, n int) Stream {
	seen := 0
	return streamFunc(func() (*job.Job, error) {
		if seen >= n {
			return nil, nil
		}
		j, err := src.Next()
		if err != nil || j == nil {
			return nil, err
		}
		seen++
		return j, nil
	})
}
