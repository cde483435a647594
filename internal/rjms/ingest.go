package rjms

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/job"
	"repro/internal/trace"
)

// LoadWorkload loads a workload list: every job is checked up front (a
// bad one anywhere in the list is this call's error, not a mid-replay one)
// and the list is streamed as it is through LoadWorkloadStream, the one
// ingestion mechanism. The controller reads the jobs and never writes
// them, so the list stays the caller's and may back several controllers
// at once — a sweep's cells share one generated workload — as long as
// nobody writes it while they run. A list out of submit order is
// streamed from a sorted copy of its pointers: stably, so equal-time
// jobs keep their list order.
func (c *Controller) LoadWorkload(jobs []*job.Job) error {
	sorted := true
	for i, j := range jobs {
		if err := c.checkJob(j); err != nil {
			return err
		}
		sorted = sorted && (i == 0 || jobs[i-1].Submit <= j.Submit)
	}
	if !sorted {
		jobs = slices.Clone(jobs)
		slices.SortStableFunc(jobs, func(a, b *job.Job) int { return cmp.Compare(a.Submit, b.Submit) })
	}
	return c.LoadWorkloadStream(trace.FromSlice(jobs))
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
// The source must yield jobs in nondecreasing submit order; the
// controller reads each job and never writes it. Errors found mid-replay
// stop ingestion and surface from Advance.
func (c *Controller) LoadWorkloadStream(src JobSource) error {
	j, err := c.pullStream(src)
	if err != nil || j == nil {
		return err
	}
	_, err = c.eng.At(j.Submit, c.submitFn, &stream{src: src, next: j})
	return err
}

// stream is the cursor of one LoadWorkloadStream call, the argument of
// each of its submission events: the source and the job it pulled last,
// which the pending event submits first.
type stream struct {
	src  JobSource
	next *job.Job
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

// submitStream is a submission event: it submits st.next and every
// following job with the same timestamp, then schedules the stream's
// next event at the first strictly later one.
func (c *Controller) submitStream(st *stream, now int64) {
	c.submit(st.next, now)
	for c.runErr == nil {
		next, err := c.pullStream(st.src)
		if err != nil {
			c.runErr = err
			return
		}
		if next == nil {
			return
		}
		if next.Submit < now {
			c.runErr = fmt.Errorf("rjms: stream out of order: job %d submits at %d, clock at %d",
				next.ID, next.Submit, now)
			return
		}
		if next.Submit == now {
			c.submit(next, now)
			continue
		}
		st.next = next
		if _, err := c.eng.At(next.Submit, c.submitFn, st); err != nil {
			c.runErr = err
		}
		return
	}
}

func (c *Controller) submit(j *job.Job, now int64) {
	c.enqueue(j)
	c.rec.NoteSubmit()
	c.requestPass(now)
}

// enqueue appends j to the pending queue. A full queue whose backing
// array has front slack — the slots dropStarted re-slices away — of at
// least a quarter of the array moves back over it instead of growing:
// each such move frees at least that many slots, so it costs a constant
// per submission, and a queue that stays the same length keeps one array.
func (c *Controller) enqueue(j *job.Job) {
	q := c.pending
	if len(q) == cap(q) {
		if slack := cap(c.queueBuf) - cap(q); slack > 0 && 4*slack >= cap(c.queueBuf) {
			q = c.queueBuf[:copy(c.queueBuf, q)]
			clear(c.queueBuf[len(q):])
		} else {
			q = slices.Grow(q, 1)
			c.queueBuf = q[:cap(q)]
		}
	}
	c.pending = append(q, j)
}
