package rjms

import (
	"fmt"
	"math/bits"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/job"
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

// recycleAllocs ends a running job's allocation: the slice goes back to
// the free list, filed under the largest class it can serve (the compact
// allocator's slices have any capacity), and the job forgets it.
func (c *Controller) recycleAllocs(j *job.Job) {
	k := bits.Len(uint(cap(j.Allocs))) - 1
	c.allocFree[k] = append(c.allocFree[k], j.Allocs[:0])
	j.Allocs = nil
}

// commit starts j as planned. The placement is the probe's: a first-fit
// allocation is taken off the frontier the probe read, straight into a
// slice the job owns until it finishes, and a compact one is kept as the
// probe built it. It must span the nodes the probe counted and occupy
// cleanly — anything else is a bug.
func (c *Controller) commit(j *job.Job, pl planned, now int64) {
	c.statStarts++
	j.Allocs = pl.compact
	if pl.frontier != nil {
		j.Allocs, _ = pl.frontier.Take(j.Cores, c.takeAllocs(pl.nodes))
	}
	if len(j.Allocs) != pl.nodes {
		panic(fmt.Sprintf("rjms: job %d probed onto %d nodes, allocated on %d", j.ID, pl.nodes, len(j.Allocs)))
	}
	if err := c.clus.Occupy(j.Allocs, pl.freq); err != nil {
		panic(fmt.Sprintf("rjms: occupy inconsistency for job %d: %v", j.ID, err))
	}
	per := c.clus.Topology().CoresPerNode
	for _, a := range j.Allocs {
		if a.Cores < per {
			c.nodeJobs[a.Node] = append(c.nodeJobs[a.Node], nodeJobEntry{id: j.ID, f: pl.freq})
		}
	}
	j.State = job.StateRunning
	j.Freq = pl.freq
	j.StartTime = now
	c.viewInsert(c.viewKey(j))
	c.rec.NoteLaunch(pl.freq, now-j.Submit)

	runFor := j.ScaledRuntime(c.pm.Deg, pl.freq)
	ev, err := c.eng.At(now+runFor, c.endFn, j)
	if err != nil {
		panic(fmt.Sprintf("rjms: end scheduling for job %d: %v", j.ID, err))
	}
	c.running[j.ID] = runState{j: j, endEv: ev, remainingNominal: float64(j.Runtime), freqSince: now}
	c.noteState(now)
}

func (c *Controller) finish(j *job.Job, now int64, killed bool) {
	if j.State != job.StateRunning {
		return
	}
	c.viewRemove(c.viewKey(j))
	// The frequency each node keeps is the highest among the jobs left on
	// it; a whole node hosted j alone and is in no list.
	rem, per := c.remBuf[:0], c.clus.Topology().CoresPerNode
	for _, a := range j.Allocs {
		if a.Cores == per {
			rem = append(rem, 0)
			continue
		}
		nj, left := c.nodeJobs[a.Node], dvfs.Freq(0)
		for k := 0; k < len(nj); {
			if nj[k].id == j.ID {
				last := len(nj) - 1
				nj[k] = nj[last]
				nj = nj[:last]
				continue
			}
			left = max(left, nj[k].f)
			k++
		}
		c.nodeJobs[a.Node] = nj
		rem = append(rem, left)
	}
	c.remBuf = rem
	if err := c.clus.Vacate(j.Allocs, rem); err != nil {
		panic(fmt.Sprintf("rjms: vacate inconsistency for job %d: %v", j.ID, err))
	}
	// Drain-to-off: a held node freed inside its window.
	held, _ := c.book.Held()
	for _, a := range j.Allocs {
		if held.Has(a.Node) && c.clus.State(a.Node) == cluster.StateIdle && c.book.Draining(a.Node, now) {
			_ = c.clus.PowerOff(a.Node)
		}
	}
	c.recycleAllocs(j)
	if killed {
		j.State = job.StateKilled
	} else {
		j.State = job.StateCompleted
	}
	j.EndTime = now
	if rs, ok := c.running[j.ID]; ok {
		c.eng.Cancel(rs.endEv)
		delete(c.running, j.ID)
	}
	c.rec.NoteCompletion(killed)
	if !killed {
		c.rec.NoteJobDone(j.StartTime-j.Submit, now-j.StartTime)
	}
	c.noteState(now)
	c.requestPass(now)
}
