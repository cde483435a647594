package rjms

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/job"
	"repro/internal/trace"
)

// LoadWorkload loads a caller-owned workload: every job is checked up
// front (a bad one anywhere in the list is this call's error, not a
// mid-Run one) and cloned, the clones are put in submit order — stably,
// so equal-time jobs keep their list order — and handed to
// LoadWorkloadStream, the one ingestion mechanism. A list the caller
// gives up and that is already in submit order (trace.Generate's) goes
// to LoadWorkloadStream directly, through trace.FromSlice.
func (c *Controller) LoadWorkload(jobs []*job.Job) error {
	owned := make([]*job.Job, len(jobs))
	for i, j := range jobs {
		if err := c.checkJob(j); err != nil {
			return err
		}
		owned[i] = j.Clone()
	}
	slices.SortStableFunc(owned, func(a, b *job.Job) int { return cmp.Compare(a.Submit, b.Submit) })
	return c.LoadWorkloadStream(trace.FromSlice(owned))
}

// checkJob rejects jobs the machine cannot run.
func (c *Controller) checkJob(j *job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.Cores > c.clus.Cores() {
		return fmt.Errorf("rjms: job %d wants %d cores, machine has %d", j.ID, j.Cores, c.clus.Cores())
	}
	return nil
}

// JobSource is the pull contract of streaming workload ingestion: Next
// returns the next job in nondecreasing submit order, or (nil, nil) at
// end of stream. trace.Stream (e.g. a Scanner over an SWF archive trace,
// wrapped in window/rescale transforms) satisfies it.
type JobSource interface {
	Next() (*job.Job, error)
}

// LoadWorkloadStream schedules submissions lazily from src: only the
// next future submission event exists at any moment, and each fired
// submission pulls the records sharing its timestamp plus the one after
// (all equal-time submissions enter the queue before the scheduling
// pass they trigger). Memory stays bounded by the jobs pending or
// running in the simulated machine, not by the trace length.
// The source must yield jobs in nondecreasing submit order and hands
// over ownership of each job. Errors found mid-replay stop ingestion and
// surface from Run.
func (c *Controller) LoadWorkloadStream(src JobSource) error {
	j, err := c.pullStream(src)
	if err != nil || j == nil {
		return err
	}
	return c.scheduleStream(src, j)
}

// pullStream fetches and validates the next streamed job.
func (c *Controller) pullStream(src JobSource) (*job.Job, error) {
	j, err := src.Next()
	if err != nil || j == nil {
		return nil, err
	}
	if err := c.checkJob(j); err != nil {
		return nil, err
	}
	return j, nil
}

// scheduleStream schedules j's submission; the event submits every
// following job with the same timestamp too, then schedules the next
// strictly-later one.
func (c *Controller) scheduleStream(src JobSource, j *job.Job) error {
	_, err := c.eng.At(j.Submit, func(now int64) {
		c.submit(j, now)
		for c.loadErr == nil {
			next, err := c.pullStream(src)
			if err != nil {
				c.loadErr = err
				return
			}
			if next == nil {
				return
			}
			if next.Submit < now {
				c.loadErr = fmt.Errorf("rjms: stream out of order: job %d submits at %d, clock at %d",
					next.ID, next.Submit, now)
				return
			}
			if next.Submit == now {
				c.submit(next, now)
				continue
			}
			if err := c.scheduleStream(src, next); err != nil {
				c.loadErr = err
			}
			return
		}
	})
	return err
}

func (c *Controller) submit(j *job.Job, now int64) {
	j.State = job.StatePending
	c.pending = append(c.pending, j)
	c.rec.NoteSubmit()
	c.requestPass(now)
}
