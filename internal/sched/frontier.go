package sched

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/job"
)

// Frontier is everything first fit can take from one cluster state under
// one blocked set, summarised so that a probe is answered by counting:
// the eligible partly used nodes with their free cores, and the eligible
// idle nodes as a count, once for the preferred class and once for the
// rest. A scheduling pass probes many jobs against one state and starts
// few; only a start needs the allocation itself (Take). Frontiers are
// obtained from Frontiers.For.
//
// First fit packs partly used nodes before idle ones (the paper: jobs
// "filling partially used nodes will always pass the powercapping
// criteria"), ascending ID, never off nodes; the preferred set — the
// nodes switch-off reservations hold — goes first, so work placed there
// drains before the window and the survivors' budget is kept for jobs
// that outlast it.
type Frontier struct {
	// Validity key; blocked is an owned copy. prefer is the set build
	// was given, matched by identity (see Frontiers) and read only while
	// the frontier stands.
	clus            *cluster.Cluster
	gen             uint64
	blocked, prefer cluster.NodeSet

	// ids lists the eligible partly used nodes in the order first fit
	// takes them — preferred (ids[:split]) before the others, ascending
	// ID in each class — and cum[i] is the free-core total of ids[i]'s
	// class up to and including ids[i].
	ids   []cluster.NodeID
	cum   []int
	split int
	idle  [2]int // eligible idle nodes: preferred, other
}

// build summarises c under two node filters, reusing f's buffers: nodes
// in blocked are skipped and nodes in prefer packed first (nil blocks or
// prefers none). One pass over the words fills both classes. Idle nodes
// are the cluster's idle count less those the filters claim, so only a
// word that blocks or prefers a node is counted; partly used nodes fill
// ids and cum from the front when preferred and from the back otherwise,
// and the back run is then turned ascending and moved up behind the
// front one.
func (f *Frontier) build(c *cluster.Cluster, blocked, prefer cluster.NodeSet) {
	f.clus, f.gen, f.prefer = c, c.Generation(), prefer
	f.blocked = append(f.blocked[:0], blocked...)
	busy, idle := c.PartialBusySet(), c.IdleSet()
	ids, cum := f.ids[:cap(f.ids)], f.cum[:cap(f.ids)]
	front, back, free := 0, cap(f.ids), [2]int{}
	f.idle = [2]int{0, c.Count(cluster.StateIdle)}
	for w, word := range busy {
		p, b := prefer.Word(w), blocked.Word(w)
		if p|b != 0 {
			f.idle[0] += bits.OnesCount64(idle[w] & p &^ b)
			f.idle[1] -= bits.OnesCount64(idle[w] & (p | b))
		}
		if word &^= b; word == 0 {
			continue
		}
		if n := bits.OnesCount64(word); back-front < n {
			ids, cum, back = grow(ids, cum, front, back, n)
		}
		for pw := word & p; pw != 0; pw &= pw - 1 {
			id := cluster.NodeID(w<<6 + bits.TrailingZeros64(pw))
			free[0] += c.FreeCores(id)
			ids[front], cum[front] = id, free[0]
			front++
		}
		for ow := word &^ p; ow != 0; ow &= ow - 1 {
			id := cluster.NodeID(w<<6 + bits.TrailingZeros64(ow))
			free[1] += c.FreeCores(id)
			back--
			ids[back], cum[back] = id, free[1]
		}
	}
	slices.Reverse(ids[back:])
	slices.Reverse(cum[back:])
	n := front + copy(ids[front:], ids[back:])
	copy(cum[front:], cum[back:])
	f.ids, f.cum, f.split = ids[:n], cum[:n], front
}

// grow doubles build's two-ended buffers and adds room for need more
// nodes, keeping the front run at the front and the back run at the end.
func grow(ids []cluster.NodeID, cum []int, front, back, need int) ([]cluster.NodeID, []int, int) {
	size, tail := 2*len(ids)+need, len(ids)-back
	nids, ncum := make([]cluster.NodeID, size), make([]int, size)
	copy(nids, ids[:front])
	copy(ncum, cum[:front])
	copy(nids[size-tail:], ids[back:])
	copy(ncum[size-tail:], cum[back:])
	return nids, ncum, size - tail
}

// Fit reports what first fit would allocate for a request of cores, at a
// cost independent of its size: the partly used nodes it would take (a
// view — do not modify, or keep past the frontier) and how many idle
// ones; ok is false when the request cannot be satisfied.
//
// The class order is preferred partly used, preferred idle, other partly
// used, other idle. The other partly used nodes are reached only once
// every preferred one is taken, so the answer is always a prefix of ids.
func (f *Frontier) Fit(cores int) (partial []cluster.NodeID, idle int, ok bool) {
	if cores <= 0 {
		return nil, 0, false
	}
	need, lo, perNode := cores, 0, f.clus.Topology().CoresPerNode
	for class, hi := range [2]int{f.split, len(f.ids)} {
		if cum := f.cum[lo:hi]; len(cum) > 0 {
			if cum[len(cum)-1] >= need {
				return f.ids[:lo+sort.SearchInts(cum, need)+1], idle, true
			}
			need -= cum[len(cum)-1]
		}
		if n := (need + perNode - 1) / perNode; n <= f.idle[class] {
			return f.ids[:hi], idle + n, true
		}
		idle += f.idle[class]
		need -= f.idle[class] * perNode
		lo = hi
	}
	return nil, 0, false
}

// Take materialises what Fit(cores) counts, appending into dst[:0] in
// the class order — each node gives all its free cores, the last one the
// remainder — and reports whether the request was satisfied. Idle nodes
// come off the cluster's idle set 64 nodes at a time, so Take visits
// only the nodes it takes. The result aliases dst's backing array (grown
// if it had too little room).
func (f *Frontier) Take(cores int, dst []job.Alloc) (allocs []job.Alloc, ok bool) {
	allocs = dst[:0]
	partial, idle, ok := f.Fit(cores)
	if !ok {
		return allocs, false
	}
	// The preferred idle nodes all come before any other partly used
	// one, and the other idle nodes after every partly used one.
	head := partial[:min(len(partial), f.split)]
	need, perNode, idleSet := cores, f.clus.Topology().CoresPerNode, f.clus.IdleSet()
	for class, run := range [2][]cluster.NodeID{head, partial[len(head):]} {
		for _, id := range run {
			allocs = append(allocs, job.Alloc{Node: id, Cores: min(f.clus.FreeCores(id), need)})
			need -= allocs[len(allocs)-1].Cores
		}
		n := min(idle, f.idle[0])
		if class == 1 {
			n = idle - n
		}
		for w := 0; n > 0 && w < len(idleSet); w++ {
			mask := f.prefer.Word(w)
			if class == 1 {
				mask = ^mask
			}
			for word := idleSet[w] & mask &^ f.blocked.Word(w); word != 0 && n > 0; word &= word - 1 {
				id := cluster.NodeID(w<<6 + bits.TrailingZeros64(word))
				allocs = append(allocs, job.Alloc{Node: id, Cores: min(perNode, need)})
				need -= allocs[len(allocs)-1].Cores
				n--
			}
		}
	}
	return allocs, true
}

// frontierSlots is how many blocked sets keep a frontier at once. A pass
// meets one set per combination of switch-off windows its jobs' spans
// reach (nil and one group in a single-window replay); one set too many
// costs rebuilds, nothing else.
const frontierSlots = 4

// Frontiers hands out the frontier of a cluster's current state under a
// blocked set and a preferred set. A slot answers while the cluster's
// generation stands, the blocked set has the same members (by content,
// so callers may pass a reused scratch set) and the preferred set is the
// same slice (by identity: its owner, reservation.Book.Held, replaces it
// whenever its members change). Otherwise a build overwrites a slot of a
// past state, or — all being current — the next in turn. The zero value
// is ready to use.
type Frontiers struct {
	slots  [frontierSlots]Frontier
	next   int
	builds uint64
}

// For returns the frontier of c under blocked, preferring the nodes in
// prefer, valid until c changes or prefer is replaced.
func (fs *Frontiers) For(c *cluster.Cluster, blocked, prefer cluster.NodeSet) *Frontier {
	gen, victim := c.Generation(), -1
	for i := range fs.slots {
		f := &fs.slots[i]
		if f.clus != c || f.gen != gen || !same(f.prefer, prefer) {
			if victim < 0 {
				victim = i
			}
		} else if f.blocked.Equal(blocked) {
			return f
		}
	}
	if victim < 0 {
		victim, fs.next = fs.next, (fs.next+1)%frontierSlots
	}
	f := &fs.slots[victim]
	fs.builds++
	f.build(c, blocked, prefer)
	return f
}

// same reports whether a and b are one slice. A slot keeps its set
// alive, so a replacement cannot reuse its address.
func same(a, b cluster.NodeSet) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Builds returns how many frontiers have been built so far.
func (fs *Frontiers) Builds() uint64 { return fs.builds }
