package cluster

import (
	"fmt"

	"repro/internal/dvfs"
	"repro/internal/power"
)

// Cluster tracks the power-relevant state of every node and derives the
// instantaneous cluster draw incrementally; reading the total power is
// O(1). A job starts and ends in one call each (Occupy, Vacate over its
// whole allocation), O(nodes spanned): each node record is written once,
// a whole node moves between the candidate sets by a bit, and the
// aggregates — counts, busy cores, histogram bars, node draw, generation
// — settle once per call. The node-level operations (PowerOff, PowerOn,
// SetFreq) are O(1). Per-node state is arrays and bitsets only, so
// nothing on those paths hashes: each node caches its own draw and the
// per-frequency core histogram is a handful of scanned entries. The
// struct is not safe for concurrent mutation; the RJMS controller
// serializes access (the experiment harness runs many independent
// Clusters in parallel instead).
type Cluster struct {
	topo     Topology
	profile  *power.Profile
	overhead Overhead

	nodes []node

	// Incrementally maintained aggregates.
	nodeWatts       float64 // sum of per-node draws, before group bonuses
	offPerChassis   []int   // nodes in StateOff per chassis
	fullOffChassis  []bool  // chassis entirely off (bonus active)
	offChassisCount []int   // fully-off chassis per rack
	fullOffRack     []bool  // rack entirely off (bonus active)
	nFullOffChassis int
	nFullOffRacks   int

	counts       [3]int      // nodes per NodeState
	busyCores    int         // cores currently allocated
	coresByFreq  []freqCores // allocated cores per node frequency; no zero entry
	maxPowerOnce power.Watts

	// Allocation candidate indexes, maintained by every mutation: busy
	// nodes with at least one free core, and idle nodes. Allocation probes
	// intersect these word by word instead of scanning every node.
	partialBusy NodeSet
	idleSet     NodeSet

	seen NodeSet // the nodes of the whole-job call being checked; empty between calls

	gen uint64 // see Generation
}

// New builds a cluster with every node powered on and idle.
func New(topo Topology, profile *power.Profile, overhead Overhead) (*Cluster, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if profile == nil {
		return nil, fmt.Errorf("cluster: nil power profile")
	}
	if overhead.ChassisWatts < 0 || overhead.RackWatts < 0 {
		return nil, fmt.Errorf("cluster: negative overhead %+v", overhead)
	}
	c := &Cluster{
		topo:            topo,
		profile:         profile,
		overhead:        overhead,
		nodes:           make([]node, topo.Nodes()),
		offPerChassis:   make([]int, topo.Chassis()),
		fullOffChassis:  make([]bool, topo.Chassis()),
		offChassisCount: make([]int, topo.Racks),
		fullOffRack:     make([]bool, topo.Racks),
		partialBusy:     NewNodeSet(topo.Nodes()),
		idleSet:         NewNodeSet(topo.Nodes()),
		seen:            NewNodeSet(topo.Nodes()),
	}
	for i := range c.nodes {
		c.nodes[i].state = StateIdle
		c.nodes[i].watts = float64(profile.Idle())
		c.idleSet.Add(NodeID(i))
	}
	c.counts[StateIdle] = topo.Nodes()
	c.nodeWatts = float64(profile.Idle()) * float64(topo.Nodes())
	c.maxPowerOnce = power.Watts(float64(profile.Max())*float64(topo.Nodes())) +
		power.Watts(overhead.ChassisWatts*float64(topo.Chassis())) +
		power.Watts(overhead.RackWatts*float64(topo.Racks))
	return c, nil
}

// NewCurie builds the full 5040-node Curie machine with the measured
// Figure 2/Figure 4 constants.
func NewCurie() *Cluster {
	c, err := New(CurieTopology(), power.CurieProfile(), CurieOverhead())
	if err != nil {
		panic(err) // constants are known-valid
	}
	return c
}

// Topology returns the hierarchy dimensions.
func (c *Cluster) Topology() Topology { return c.topo }

// Profile returns the per-node power profile.
func (c *Cluster) Profile() *power.Profile { return c.profile }

// Overhead returns the shared-equipment draws.
func (c *Cluster) Overhead() Overhead { return c.overhead }

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Cores returns the total core count.
func (c *Cluster) Cores() int { return c.topo.Cores() }

// checkID must stay inlinable — the per-node accessors run it for every
// node a probe or a commit touches — so the error is built out of line.
func (c *Cluster) checkID(id NodeID) error {
	if uint(id) >= uint(len(c.nodes)) {
		return c.errID(id)
	}
	return nil
}

//go:noinline
func (c *Cluster) errID(id NodeID) error {
	return fmt.Errorf("cluster: node %d out of range [0,%d)", id, len(c.nodes))
}

// stateDraw returns what a node in state st, charged at f while busy,
// contributes before group bonuses — the value node.watts caches.
func (c *Cluster) stateDraw(st NodeState, f dvfs.Freq) float64 {
	switch st {
	case StateOff:
		return float64(c.profile.Down())
	case StateIdle:
		return float64(c.profile.Idle())
	default:
		return float64(c.profile.Busy(f))
	}
}

// freqCores is one bar of the cores-by-frequency histogram.
type freqCores struct {
	freq  dvfs.Freq
	cores int
}

// addFreqCores moves the histogram bar of f by d cores. The live bars are
// the few frequencies jobs currently run at, so a scan beats hashing; a
// bar that reaches zero is dropped.
func (c *Cluster) addFreqCores(f dvfs.Freq, d int) {
	h := c.coresByFreq
	for i := range h {
		if h[i].freq != f {
			continue
		}
		if h[i].cores += d; h[i].cores == 0 {
			h[i] = h[len(h)-1]
			c.coresByFreq = h[:len(h)-1]
		}
		return
	}
	c.coresByFreq = append(h, freqCores{freq: f, cores: d})
}

// transition moves node id to a new (state, freq) pair and maintains all
// aggregates, including the chassis/rack full-off bonuses.
func (c *Cluster) transition(id NodeID, st NodeState, f dvfs.Freq, usedCores int) {
	n := &c.nodes[id]
	before := n.watts
	wasOff := n.state == StateOff
	wasIdle := n.state == StateIdle
	wasPartialBusy := n.state == StateBusy && n.usedCores < c.topo.CoresPerNode

	// Core accounting keyed by node frequency.
	if n.state == StateBusy {
		c.addFreqCores(n.freq, -n.usedCores)
		c.busyCores -= n.usedCores
	}
	c.counts[n.state]--
	if st != n.state || usedCores != n.usedCores {
		c.gen++
	}
	if st != n.state || f != n.freq {
		n.watts = c.stateDraw(st, f)
	}

	n.state, n.freq, n.usedCores = st, f, usedCores

	c.counts[st]++
	if st == StateBusy {
		c.addFreqCores(f, usedCores)
		c.busyCores += usedCores
	}
	if isIdle := st == StateIdle; isIdle != wasIdle {
		if isIdle {
			c.idleSet.Add(id)
		} else {
			c.idleSet.Remove(id)
		}
	}
	if isPartialBusy := st == StateBusy && usedCores < c.topo.CoresPerNode; isPartialBusy != wasPartialBusy {
		if isPartialBusy {
			c.partialBusy.Add(id)
		} else {
			c.partialBusy.Remove(id)
		}
	}
	c.nodeWatts += n.watts - before

	if isOff := st == StateOff; isOff != wasOff {
		ch := c.topo.ChassisOf(id)
		if isOff {
			c.offPerChassis[ch]++
		} else {
			c.offPerChassis[ch]--
		}
		full := c.offPerChassis[ch] == c.topo.NodesPerChassis
		if full != c.fullOffChassis[ch] {
			c.fullOffChassis[ch] = full
			r := c.topo.RackOf(id)
			if full {
				c.nFullOffChassis++
				c.offChassisCount[r]++
			} else {
				c.nFullOffChassis--
				c.offChassisCount[r]--
			}
			rackFull := c.offChassisCount[r] == c.topo.ChassisPerRack
			if rackFull != c.fullOffRack[r] {
				c.fullOffRack[r] = rackFull
				if rackFull {
					c.nFullOffRacks++
				} else {
					c.nFullOffRacks--
				}
			}
		}
	}
}

// PowerOff switches an idle node off. Busy nodes cannot be switched off;
// already-off nodes are a no-op.
func (c *Cluster) PowerOff(id NodeID) error {
	if err := c.checkID(id); err != nil {
		return err
	}
	switch c.nodes[id].state {
	case StateOff:
		return nil
	case StateBusy:
		return fmt.Errorf("cluster: cannot power off busy node %d", id)
	}
	c.transition(id, StateOff, 0, 0)
	return nil
}

// PowerOn brings an off node back to idle. Powered nodes are a no-op.
func (c *Cluster) PowerOn(id NodeID) error {
	if err := c.checkID(id); err != nil {
		return err
	}
	if c.nodes[id].state != StateOff {
		return nil
	}
	c.transition(id, StateIdle, 0, 0)
	return nil
}

// Alloc records cores taken on one node: one entry of a job's
// allocation, and of the whole-job Occupy and Vacate calls.
type Alloc struct {
	Node  NodeID
	Cores int
}

// checkAllocs validates a whole-job call before anything changes: every
// node in range and named once, every core count positive and within
// what the node has — free cores of a powered node to occupy, cores held
// by a busy node to vacate. On success the nodes are marked in c.seen,
// and the caller's apply loop clears the marks. The checks are inline;
// only a failure calls out to build its error.
func (c *Cluster) checkAllocs(allocs []Alloc, vacate bool) error {
	per := c.topo.CoresPerNode
	for i, a := range allocs {
		ok := uint(a.Node) < uint(len(c.nodes)) && a.Cores > 0 && !c.seen.Has(a.Node)
		if ok {
			n := &c.nodes[a.Node]
			if vacate {
				ok = n.state == StateBusy && a.Cores <= n.usedCores
			} else {
				ok = n.state != StateOff && n.usedCores+a.Cores <= per
			}
		}
		if !ok {
			err := c.allocErr(a, vacate)
			for _, b := range allocs[:i] {
				c.seen.Remove(b.Node)
			}
			return err
		}
		c.seen.Add(a.Node)
	}
	return nil
}

// allocErr names what checkAllocs refused.
func (c *Cluster) allocErr(a Alloc, vacate bool) error {
	if err := c.checkID(a.Node); err != nil {
		return err
	}
	n := &c.nodes[a.Node]
	switch {
	case c.seen.Has(a.Node):
		return fmt.Errorf("cluster: node %d named twice in one call", a.Node)
	case a.Cores <= 0:
		return fmt.Errorf("cluster: non-positive cores %d on node %d", a.Cores, a.Node)
	case vacate && n.state != StateBusy:
		return fmt.Errorf("cluster: vacate on non-busy node %d (%v)", a.Node, n.state)
	case vacate && a.Cores > n.usedCores:
		return fmt.Errorf("cluster: vacate %d cores from node %d holding %d", a.Cores, a.Node, n.usedCores)
	case !vacate && n.state == StateOff:
		return fmt.Errorf("cluster: node %d is off", a.Node)
	}
	return fmt.Errorf("cluster: node %d has %d cores free, need %d",
		a.Node, c.topo.CoresPerNode-n.usedCores, a.Cores)
}

// barRun batches moves of the cores-by-frequency histogram: consecutive
// moves at one frequency fold into one addFreqCores, so a whole-job call
// — most of whose cores move at the job's frequency — settles a bar once.
type barRun struct {
	f dvfs.Freq
	d int
}

func (c *Cluster) moveBar(r *barRun, f dvfs.Freq, d int) {
	if f != r.f {
		c.startBar(r, f)
	}
	r.d += d
}

// startBar settles r's run and starts one at f; kept out of line so that
// moveBar inlines.
//
//go:noinline
func (c *Cluster) startBar(r *barRun, f dvfs.Freq) {
	c.flushBar(r)
	r.f = f
}

func (c *Cluster) flushBar(r *barRun) {
	if r.d != 0 {
		c.addFreqCores(r.f, r.d)
		r.d = 0
	}
}

// Occupy starts one job on its allocation: allocs[i].Cores cores of node
// allocs[i].Node, at frequency f (0 means nominal). Every node must be
// powered on, named once and have the cores free; all of that is checked
// before anything changes, so an error leaves the cluster untouched.
// While several jobs share a node it is charged at the highest frequency
// among them (conservative, mirroring the paper's node-level power
// accounting).
//
// Each node record is written once, and the counts, busy cores,
// histogram bars, node draw, candidate sets and generation settle once
// per call. The draw is summed over the nodes before it is added: the
// same value as node by node while the profile's draws are whole watts
// (power.TestCurieProfileIntegralWatts).
func (c *Cluster) Occupy(allocs []Alloc, f dvfs.Freq) error {
	if err := c.checkAllocs(allocs, false); err != nil {
		return err
	}
	if f == 0 {
		f = c.profile.Nominal()
	}
	per, busyW := c.topo.CoresPerNode, float64(c.profile.Busy(f))
	var bars barRun
	watts, taken, cores := 0.0, 0, 0
	for _, a := range allocs {
		id, n := a.Node, &c.nodes[a.Node]
		c.seen.Remove(id)
		used := n.usedCores + a.Cores
		if n.state == StateIdle {
			taken++
			c.idleSet.Remove(id)
			if used < per {
				c.partialBusy.Add(id)
			}
			c.moveBar(&bars, f, used)
			watts += busyW - n.watts
			n.state, n.freq, n.watts = StateBusy, f, busyW
		} else {
			// Busy with room for a.Cores: the node was partly used.
			if used == per {
				c.partialBusy.Remove(id)
			}
			if nf := max(n.freq, f); nf != n.freq {
				c.moveBar(&bars, n.freq, -n.usedCores)
				c.moveBar(&bars, nf, used)
				watts += busyW - n.watts
				n.freq, n.watts = nf, busyW
			} else {
				c.moveBar(&bars, nf, a.Cores)
			}
		}
		n.usedCores = used
		cores += a.Cores
	}
	c.flushBar(&bars)
	c.settle(watts, taken, cores)
	return nil
}

// Vacate ends one job on its allocation, releasing allocs[i].Cores cores
// of node allocs[i].Node. remaining[i] is the highest frequency among the
// jobs still on that node (the controller knows them; 0 means nominal),
// ignored when the node empties. Every node must be busy, named once and
// hold the cores; all of that is checked before anything changes, so an
// error leaves the cluster untouched. Like Occupy, each node record is
// written once and the aggregates settle once per call.
func (c *Cluster) Vacate(allocs []Alloc, remaining []dvfs.Freq) error {
	if len(remaining) != len(allocs) {
		return fmt.Errorf("cluster: vacate of %d nodes with %d remaining frequencies", len(allocs), len(remaining))
	}
	if err := c.checkAllocs(allocs, true); err != nil {
		return err
	}
	per, idleW := c.topo.CoresPerNode, float64(c.profile.Idle())
	var bars barRun
	watts, freed, cores := 0.0, 0, 0
	for i, a := range allocs {
		id, n := a.Node, &c.nodes[a.Node]
		c.seen.Remove(id)
		wasPartial := n.usedCores < per
		left := n.usedCores - a.Cores
		cores += a.Cores
		if left == 0 {
			freed++
			c.moveBar(&bars, n.freq, -n.usedCores)
			watts += idleW - n.watts
			n.state, n.freq, n.usedCores, n.watts = StateIdle, 0, 0, idleW
			c.idleSet.Add(id)
			if wasPartial {
				c.partialBusy.Remove(id)
			}
			continue
		}
		rf := remaining[i]
		if rf == 0 {
			rf = c.profile.Nominal()
		}
		if rf == n.freq {
			c.moveBar(&bars, rf, -a.Cores)
		} else {
			c.moveBar(&bars, n.freq, -n.usedCores)
			c.moveBar(&bars, rf, left)
			w := float64(c.profile.Busy(rf))
			watts += w - n.watts
			n.freq, n.watts = rf, w
		}
		n.usedCores = left
		if !wasPartial {
			c.partialBusy.Add(id)
		}
	}
	c.flushBar(&bars)
	c.settle(watts, -freed, -cores)
	return nil
}

// settle applies what a whole-job call summed over its nodes: the change
// in node draw, the idle nodes that turned busy (negative: busy nodes
// freed) and the cores taken (negative: released).
func (c *Cluster) settle(watts float64, toBusy, cores int) {
	if cores == 0 {
		return
	}
	c.nodeWatts += watts
	c.counts[StateIdle] -= toBusy
	c.counts[StateBusy] += toBusy
	c.busyCores += cores
	c.gen++
}

// SetFreq changes the charged frequency of a busy node without touching
// its allocation — the dynamic-DVFS extension re-clocks running jobs and
// re-derives each node's frequency from the jobs it hosts.
func (c *Cluster) SetFreq(id NodeID, f dvfs.Freq) error {
	if err := c.checkID(id); err != nil {
		return err
	}
	n := &c.nodes[id]
	if n.state != StateBusy {
		return fmt.Errorf("cluster: SetFreq on non-busy node %d (%v)", id, n.state)
	}
	if f == 0 {
		f = c.profile.Nominal()
	}
	if f == n.freq {
		return nil
	}
	c.transition(id, StateBusy, f, n.usedCores)
	return nil
}

// SurvivorDraw returns what the machine draws once every node held is
// down and every other node runs busy at busy watts: the survivors, plus
// the shared equipment of each chassis and rack that keeps at least one
// — the projection Section IV-B's "optimal CPU frequency" holds against
// a future window's budget. O(1) off the counts, and equal bit for bit
// to the sum over nodes and groups while the overheads are whole watts.
func (c *Cluster) SurvivorDraw(held Groups, busy power.Watts) power.Watts {
	shared := c.overhead.ChassisWatts*float64(c.topo.Chassis()-held.Chassis) +
		c.overhead.RackWatts*float64(c.topo.Racks-held.Racks)
	return power.Watts(float64(len(c.nodes)-held.Nodes)*float64(busy)) + power.Watts(shared)
}

// Info returns a read-only snapshot of one node.
func (c *Cluster) Info(id NodeID) (NodeInfo, error) {
	if err := c.checkID(id); err != nil {
		return NodeInfo{}, err
	}
	n := &c.nodes[id]
	return NodeInfo{ID: id, State: n.state, Freq: n.freq, UsedCores: n.usedCores}, nil
}

// State returns the state of node id; out-of-range IDs report StateOff.
func (c *Cluster) State(id NodeID) NodeState {
	if c.checkID(id) != nil {
		return StateOff
	}
	return c.nodes[id].state
}

// FreeCores returns the unallocated cores of node id (0 when off).
func (c *Cluster) FreeCores(id NodeID) int {
	if c.checkID(id) != nil {
		return 0
	}
	n := &c.nodes[id]
	if n.state == StateOff {
		return 0
	}
	return c.topo.CoresPerNode - n.usedCores
}

// Count returns the number of nodes in state st.
func (c *Cluster) Count(st NodeState) int {
	if st < 0 || int(st) >= len(c.counts) {
		return 0
	}
	return c.counts[st]
}

// BusyCores returns the total allocated core count.
func (c *Cluster) BusyCores() int { return c.busyCores }

// CoresByFreq returns a copy of the allocated-cores histogram keyed by the
// node frequency they are charged at (the Figure 6/7 core series).
func (c *Cluster) CoresByFreq() map[dvfs.Freq]int {
	out := make(map[dvfs.Freq]int, len(c.coresByFreq))
	for _, e := range c.coresByFreq {
		out[e.freq] = e.cores
	}
	return out
}

// Power returns the instantaneous cluster draw: per-node draws plus the
// shared chassis/rack equipment, minus the bonuses of fully-off groups.
// When a whole chassis is off its equipment and its nodes' BMCs stop
// drawing (Figure 2: 248 W + 18x14 W = 500 W bonus); a fully-off rack
// additionally sheds its 900 W of fans and cold-door equipment.
func (c *Cluster) Power() power.Watts {
	w := c.nodeWatts
	w += c.overhead.ChassisWatts * float64(c.topo.Chassis())
	w += c.overhead.RackWatts * float64(c.topo.Racks)
	w -= float64(c.nFullOffChassis) * (c.overhead.ChassisWatts +
		float64(c.profile.Down())*float64(c.topo.NodesPerChassis))
	w -= float64(c.nFullOffRacks) * c.overhead.RackWatts
	return power.Watts(w)
}

// MaxPower returns the draw with every node busy at nominal frequency —
// the reference against which powercap percentages are expressed.
func (c *Cluster) MaxPower() power.Watts { return c.maxPowerOnce }

// IdlePower returns the draw with every node powered on and idle.
func (c *Cluster) IdlePower() power.Watts {
	return power.Watts(float64(c.profile.Idle())*float64(c.topo.Nodes()) +
		c.overhead.ChassisWatts*float64(c.topo.Chassis()) +
		c.overhead.RackWatts*float64(c.topo.Racks))
}

// OccupyDelta returns the extra draw caused by occupying the given nodes
// with a job at frequency f, without mutating anything. Nodes already busy
// at a frequency >= f add nothing (the paper: jobs filling partially used
// nodes "always pass the powercapping criteria"); idle nodes add
// busy(f)-idle; busy nodes below f add the frequency uplift. Off nodes are
// rejected by Occupy later, but contribute busy(f)-down here so callers
// probing them see the true cost of powering on. All three are busy(f)
// minus the node's cached draw.
//
// The delta is ≥ 0 and nondecreasing along the ladder: every term is,
// and float sums of nondecreasing terms in a fixed order are. Algorithm
// 2's draw check relies on it to search the ladder instead of walking it
// (core.SelectFreq); TestOccupyDeltaMonotoneInFreq pins it.
func (c *Cluster) OccupyDelta(ids []NodeID, f dvfs.Freq) power.Watts {
	if f == 0 {
		f = c.profile.Nominal()
	}
	target := float64(c.profile.Busy(f))
	var d float64
	for _, id := range ids {
		if c.checkID(id) != nil {
			continue
		}
		if n := &c.nodes[id]; n.state != StateBusy || n.freq < f {
			d += target - n.watts
		}
	}
	return power.Watts(d)
}

// IdleOccupyDelta is OccupyDelta for n idle nodes, from their count — a
// probe knows how many it would take without naming them. Added to the
// OccupyDelta of the probe's other nodes it gives exactly the node-by-
// node sum as long as the profile's draws are whole watts (every partial
// sum is an integer); power.TestCurieProfileIntegralWatts pins that.
// Like OccupyDelta it is ≥ 0 and nondecreasing along the ladder.
func (c *Cluster) IdleOccupyDelta(n int, f dvfs.Freq) power.Watts {
	return power.Watts(float64(n) * (float64(c.profile.Busy(f)) - float64(c.profile.Idle())))
}

// BonusWatts returns the power currently saved by group bonuses beyond the
// per-node off savings: eliminated BMC draw and shared equipment of
// fully-off chassis plus eliminated rack equipment of fully-off racks.
func (c *Cluster) BonusWatts() power.Watts {
	w := float64(c.nFullOffChassis) * (c.overhead.ChassisWatts +
		float64(c.profile.Down())*float64(c.topo.NodesPerChassis))
	w += float64(c.nFullOffRacks) * c.overhead.RackWatts
	return power.Watts(w)
}

// PartialBusySet and IdleSet expose the maintained node sets — busy
// nodes with at least one free core, idle nodes — for word-parallel
// allocation probes. The sets alias live cluster state: callers must not
// modify them, and a set is current until the next cluster mutation.
func (c *Cluster) PartialBusySet() NodeSet { return c.partialBusy }

// IdleSet: see PartialBusySet.
func (c *Cluster) IdleSet() NodeSet { return c.idleSet }

// Generation changes whenever PartialBusySet, IdleSet or a node's
// FreeCores does (counted where they change: once per Occupy or Vacate
// call, and in transition; a re-clock moves none of them), so a summary
// of those — sched.Frontier — is current while the generation it was
// built at stands.
func (c *Cluster) Generation() uint64 { return c.gen }

// ForEach calls fn for every node in ID order; fn returning false stops the
// walk.
func (c *Cluster) ForEach(fn func(NodeInfo) bool) {
	for i := range c.nodes {
		n := &c.nodes[i]
		if !fn(NodeInfo{ID: NodeID(i), State: n.state, Freq: n.freq, UsedCores: n.usedCores}) {
			return
		}
	}
}
