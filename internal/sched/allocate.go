package sched

import (
	"math/bits"

	"repro/internal/cluster"
	"repro/internal/job"
)

// AllocateInto finds cores for a job on the cluster, appending into
// dst[:0]. It packs partially used busy nodes first (cheapest under the
// powercap: the paper notes jobs "filling partially used nodes will
// always pass the powercapping criteria"), then idle nodes, in ascending
// ID order. Nodes in blocked are skipped (nil blocks none); off nodes are
// never used. Nodes in prefer are packed before the others (busy-partial
// first within each class); a nil prefer means no preference. The
// powercap controller prefers nodes earmarked for an upcoming switch-off
// — work placed there drains away before the window while the surviving
// nodes' power budget is saved for jobs that outlast it.
//
// Both node filters are sets, so the walk intersects the cluster's
// candidate sets with them 64 nodes at a time and only ever visits nodes
// it takes. The controller calls this once per started job, into a
// buffer sized by the probe that preceded it (a probe only counts: see
// Frontier). The returned slice always carries the (possibly grown)
// buffer, so a caller that does not keep the allocation can reuse it;
// found reports whether it holds a complete allocation. The slice
// aliases dst's backing array.
func AllocateInto(dst []job.Alloc, c *cluster.Cluster, cores int, blocked, prefer cluster.NodeSet) (allocs []job.Alloc, found bool) {
	allocs = dst[:0]
	if cores <= 0 {
		return allocs, false
	}
	f := fit{c: c, blocked: blocked, prefer: prefer, allocs: allocs, need: cores}
	busy, idle, perNode := c.PartialBusySet(), c.IdleSet(), c.Topology().CoresPerNode
	if prefer != nil {
		f.take(busy, true, 0)
		f.take(idle, true, perNode)
	}
	f.take(busy, false, 0)
	f.take(idle, false, perNode)
	return f.allocs, f.need == 0
}

// fit is one first-fit probe in progress: the allocation so far and the
// cores still missing.
type fit struct {
	c               *cluster.Cluster
	blocked, prefer cluster.NodeSet
	allocs          []job.Alloc
	need            int
}

// take grabs free cores, in ascending node order, from the members of
// cand outside blocked that are inside prefer (preferred) or outside it
// (!preferred), until need reaches zero. free is the free-core count
// every member of cand shares (idle nodes), or 0 to ask the cluster node
// by node (partly used ones).
func (f *fit) take(cand cluster.NodeSet, preferred bool, free int) {
	if f.need == 0 {
		return
	}
	for w, word := range cand {
		if word == 0 {
			continue
		}
		mask := f.prefer.Word(w)
		if !preferred {
			mask = ^mask
		}
		word &= mask &^ f.blocked.Word(w)
		for word != 0 {
			id := cluster.NodeID(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			grab := free
			if grab == 0 {
				grab = f.c.FreeCores(id)
			}
			if grab > f.need {
				grab = f.need
			}
			f.allocs = append(f.allocs, job.Alloc{Node: id, Cores: grab})
			if f.need -= grab; f.need == 0 {
				return
			}
		}
	}
}
