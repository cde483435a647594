package rjms

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/job"
)

// requeueIDBase offsets the IDs of requeued failure victims into a
// range no workload generator occupies, so a requeued request can never
// collide with a yet-unsubmitted trace job.
const requeueIDBase = int64(1) << 40

// FailNode injects a node failure at the current virtual time: every
// job with an allocation on the node is killed and requeued as a fresh
// request (the victim's, with a new deterministic ID and Submit = now;
// the victim itself is left as it was), and the node
// powers off and stays off — excluded from scheduling and from
// reservation window reopenings — until RepairNode. Like
// AdjustPowerCap it is a between-Advance hook (the twin's mutation
// queue), never called from inside an event handler.
func (c *Controller) FailNode(id cluster.NodeID) error {
	if int(id) < 0 || int(id) >= c.clus.Nodes() {
		return fmt.Errorf("rjms: fail node %d: no such node", id)
	}
	if c.failed.Has(id) {
		return fmt.Errorf("rjms: fail node %d: already failed", id)
	}
	now := c.eng.Now()
	// The victims are the running jobs whose allocation names the node,
	// collected before finish() frees their slots and sorted by job ID so
	// requeue IDs assign reproducibly whatever slots they ran in.
	var victims []*job.Job
	for k := 0; k < c.nRuns; k++ {
		if r := c.slot(k); r.j != nil && slices.ContainsFunc(r.allocs, func(a job.Alloc) bool { return a.Node == id }) {
			victims = append(victims, r.j)
		}
	}
	sort.Slice(victims, func(i, k int) bool { return victims[i].ID < victims[k].ID })
	for _, j := range victims {
		c.finish(j, now, true)
	}
	for _, j := range victims {
		c.requeueSeq++
		c.submit(&job.Job{ID: job.ID(requeueIDBase + c.requeueSeq), User: j.User, Cores: j.Cores,
			Submit: now, Runtime: j.Runtime, Walltime: j.Walltime}, now)
	}
	if err := c.clus.PowerOff(id); err != nil {
		return fmt.Errorf("rjms: fail node %d: %w", id, err)
	}
	c.failed.Add(id)
	c.noteState(now)
	c.requestPass(now)
	return nil
}

// RepairNode returns a failed node to service at the current virtual
// time: it powers back on, unless a window open now holds it (settle),
// and rejoins the schedulable pool.
func (c *Controller) RepairNode(id cluster.NodeID) error {
	if int(id) < 0 || int(id) >= c.clus.Nodes() {
		return fmt.Errorf("rjms: repair node %d: no such node", id)
	}
	if !c.failed.Has(id) {
		return fmt.Errorf("rjms: repair node %d: not failed", id)
	}
	c.failed.Remove(id)
	c.settle(c.eng.Now())
	return nil
}

// FailedNodes returns the failure-injected nodes, sorted.
func (c *Controller) FailedNodes() []cluster.NodeID {
	out := []cluster.NodeID{}
	for id := cluster.NodeID(0); int(id) < c.clus.Nodes(); id++ {
		if c.failed.Has(id) {
			out = append(out, id)
		}
	}
	return out
}
