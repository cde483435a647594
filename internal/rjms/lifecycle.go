package rjms

import (
	"fmt"
	"math/bits"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/job"
	"repro/internal/simengine"
)

// takeAllocs returns an empty slice with room for n entries, off the
// free list when a finished job left one of that class.
func (c *Controller) takeAllocs(n int) []job.Alloc {
	k := bits.Len(uint(n - 1))
	if free := c.allocFree[k]; len(free) > 0 {
		s := free[len(free)-1]
		c.allocFree[k] = free[:len(free)-1]
		return s
	}
	return make([]job.Alloc, 0, 1<<k)
}

// recycleAllocs takes back a finished job's allocation: the slice goes
// to the free list, filed under the largest class it can serve (the
// compact allocator's slices have any capacity).
func (c *Controller) recycleAllocs(allocs []job.Alloc) {
	k := bits.Len(uint(cap(allocs))) - 1
	c.allocFree[k] = append(c.allocFree[k], allocs[:0])
}

// run is one running job as the controller keeps it, in its running
// table and only while the job runs: the request, the frequency it runs
// at, when it launched, its allocation, its completion event and its
// progress for re-clocking.
type run struct {
	j                *job.Job
	freq             dvfs.Freq
	start            int64
	allocs           []job.Alloc // built at commit in a slice recycleAllocs takes back at finish
	endEv            simengine.EventID
	remainingNominal float64 // nominal-frequency seconds of work left at freqSince
	freqSince        int64   // when the current frequency took effect
}

// runBlock is how many records one block of the running table holds.
const runBlock = 64

// slot returns the record in slot k of the running table, k < nRuns.
func (c *Controller) slot(k int) *run { return &c.runs[k/runBlock][k%runBlock] }

// runOf returns the record of job id's run, or nil when the job is not
// running.
func (c *Controller) runOf(id job.ID) *run {
	if k, ok := c.running[id]; ok {
		return c.slot(k)
	}
	return nil
}

// commit starts j as planned. The placement is the probe's: a first-fit
// allocation is taken off the frontier the probe read, straight into a
// slice the run keeps until it finishes, and a compact one is kept as the
// probe built it. It must span the nodes the probe counted and occupy
// cleanly — anything else is a bug. The run goes into a free slot of the
// running table, so a replay's records are as many as ran at once.
//
// The table keys runs by job ID, so a job whose ID a running job holds —
// a trace may repeat one — is refused: commit reports false, and the run
// fails with an error naming the ID, which Advance returns.
func (c *Controller) commit(j *job.Job, pl planned, now int64) bool {
	if _, dup := c.running[j.ID]; dup {
		c.runErr = fmt.Errorf("rjms: job %d starts while another job with its ID runs", j.ID)
		return false
	}
	c.statStarts++
	allocs := pl.compact
	if pl.frontier != nil {
		allocs, _ = pl.frontier.Take(j.Cores, c.takeAllocs(pl.nodes))
	}
	if len(allocs) != pl.nodes {
		panic(fmt.Sprintf("rjms: job %d probed onto %d nodes, allocated on %d", j.ID, pl.nodes, len(allocs)))
	}
	if err := c.clus.Occupy(allocs, pl.freq); err != nil {
		panic(fmt.Sprintf("rjms: occupy inconsistency for job %d: %v", j.ID, err))
	}
	r := run{j: j, freq: pl.freq, start: now, allocs: allocs, remainingNominal: float64(j.Runtime), freqSince: now}
	c.viewInsert(c.viewKey(&r))
	c.rec.NoteLaunch(pl.freq, now-j.Submit)

	runFor := j.ScaledRuntime(c.pm.Deg, pl.freq)
	ev, err := c.eng.At(now+runFor, c.endFn, j)
	if err != nil {
		panic(fmt.Sprintf("rjms: end scheduling for job %d: %v", j.ID, err))
	}
	r.endEv = ev
	k := c.nRuns
	if n := len(c.runFree); n > 0 {
		k = c.runFree[n-1]
		c.runFree = c.runFree[:n-1]
	} else {
		if k%runBlock == 0 {
			c.runs = append(c.runs, new([runBlock]run))
		}
		c.nRuns++
	}
	*c.slot(k) = r
	c.running[j.ID] = k
	c.noteState(now)
	return true
}

// finish ends j's run, if it is running. Its slot in the running table
// is freed: the record lets go of the job and the allocation, and keeps
// its other fields until a commit reuses it.
func (c *Controller) finish(j *job.Job, now int64, killed bool) {
	k, ok := c.running[j.ID]
	if !ok {
		return
	}
	r := c.slot(k)
	c.viewRemove(c.viewKey(r))
	if err := c.clus.Vacate(r.allocs, r.freq); err != nil {
		panic(fmt.Sprintf("rjms: vacate inconsistency for job %d: %v", j.ID, err))
	}
	// Drain-to-off: a node freed inside a window that holds it (settle).
	for _, a := range r.allocs {
		if c.clus.State(a.Node) == cluster.StateIdle && c.book.Draining(a.Node, now) {
			_ = c.clus.PowerOff(a.Node)
		}
	}
	c.recycleAllocs(r.allocs)
	c.eng.Cancel(r.endEv)
	r.j, r.allocs = nil, nil
	delete(c.running, j.ID)
	c.runFree = append(c.runFree, k)
	c.rec.NoteCompletion(killed)
	if !killed {
		c.rec.NoteJobDone(r.start-j.Submit, now-r.start)
	}
	c.noteState(now)
	c.requestPass(now)
}
