package cluster

import (
	"fmt"

	"repro/internal/dvfs"
	"repro/internal/power"
)

// Cluster tracks the power-relevant state of every node and derives the
// instantaneous cluster draw incrementally; reading the total power is
// O(1). A job starts, changes frequency and ends in one call each
// (Occupy, Reclock, Vacate over its whole allocation), O(nodes spanned):
// each node record is written once, a whole node moves between the
// candidate sets by a bit, and the aggregates — counts, busy cores,
// histogram bars, node draw, generation — settle once per call. The
// cluster owns the shared-node rule: it counts each node's cores per
// profile rung, and a busy node is charged at the highest rung it holds
// cores at. Switching a node off or on (PowerOff, PowerOn) is O(1).
// Per-node state is arrays and bitsets only, so nothing on those paths
// hashes: each node caches its own draw and the per-frequency core
// histogram is a handful of scanned entries. The struct is not safe for
// concurrent mutation; the RJMS controller serializes access (the
// experiment harness runs many independent Clusters in parallel instead).
type Cluster struct {
	topo     Topology
	profile  *power.Profile
	overhead Overhead

	nodes []node

	// rungs are the profile's frequencies, ascending; held counts each
	// node's allocated cores per rung, node id's row being
	// held[id*len(rungs):][:len(rungs)] (Topology.Validate bounds a node's
	// cores to what a uint8 holds).
	rungs []dvfs.Freq
	held  []uint8

	// Incrementally maintained aggregates.
	nodeWatts       float64 // sum of per-node draws, before group bonuses
	offPerChassis   []int   // nodes in StateOff per chassis
	fullOffChassis  []bool  // chassis entirely off (bonus active)
	offChassisCount []int   // fully-off chassis per rack
	fullOffRack     []bool  // rack entirely off (bonus active)
	nFullOffChassis int
	nFullOffRacks   int

	counts      [3]int      // nodes per NodeState
	busyCores   int         // cores currently allocated
	coresByFreq []freqCores // allocated cores per node frequency; no zero entry

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
	rungs := profile.Frequencies()
	c := &Cluster{
		topo:            topo,
		profile:         profile,
		overhead:        overhead,
		nodes:           make([]node, topo.Nodes()),
		rungs:           rungs,
		held:            make([]uint8, topo.Nodes()*len(rungs)),
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

// rungOf returns the index of f among the profile's rungs, 0 meaning
// nominal, or an error for a frequency that is not a rung.
func (c *Cluster) rungOf(f dvfs.Freq) (int, error) {
	if f == 0 {
		return len(c.rungs) - 1, nil
	}
	for k := len(c.rungs) - 1; k >= 0; k-- { // nominal is the common case
		if c.rungs[k] == f {
			return k, nil
		}
	}
	return 0, fmt.Errorf("cluster: %v is not a rung of the profile %v", f, c.rungs)
}

// row returns the per-rung core counts of node id.
func (c *Cluster) row(id NodeID) []uint8 {
	r := len(c.rungs)
	return c.held[int(id)*r : int(id)*r+r]
}

// topRung returns the highest rung a row holds cores at; 0 for none.
func (c *Cluster) topRung(row []uint8) dvfs.Freq {
	for k := len(row) - 1; k >= 0; k-- {
		if row[k] > 0 {
			return c.rungs[k]
		}
	}
	return 0
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

// transition switches an idle node off (st == StateOff) or an off node
// back to idle and maintains the aggregates, including the chassis/rack
// full-off bonuses; the whole-job calls move nodes in and out of busy.
func (c *Cluster) transition(id NodeID, st NodeState) {
	n := &c.nodes[id]
	off := st == StateOff
	w := float64(c.profile.Idle())
	if off {
		w = float64(c.profile.Down())
		c.idleSet.Remove(id)
	} else {
		c.idleSet.Add(id)
	}
	c.counts[n.state]--
	c.counts[st]++
	c.gen++
	c.nodeWatts += w - n.watts
	n.state, n.watts = st, w

	ch := c.topo.ChassisOf(id)
	if off {
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
	c.transition(id, StateOff)
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
	c.transition(id, StateIdle)
	return nil
}

// Alloc records cores taken on one node: one entry of a job's
// allocation, and of the whole-job Occupy, Reclock and Vacate calls.
type Alloc struct {
	Node  NodeID
	Cores int
}

// checkAllocs validates a whole-job call before anything changes: every
// node in range and named once, every core count positive and within
// what the node has — free cores of a powered node to occupy (k < 0),
// cores the node holds at rung k to vacate or re-clock. On success the
// nodes are marked in c.seen, and the caller's apply loop clears the
// marks. The checks are inline; only a failure calls out to build its
// error.
func (c *Cluster) checkAllocs(allocs []Alloc, k int) error {
	per, r := c.topo.CoresPerNode, len(c.rungs)
	for i, a := range allocs {
		ok := uint(a.Node) < uint(len(c.nodes)) && a.Cores > 0 && !c.seen.Has(a.Node)
		if ok {
			if k < 0 {
				n := &c.nodes[a.Node]
				ok = n.state != StateOff && n.usedCores+a.Cores <= per
			} else {
				ok = a.Cores <= int(c.held[int(a.Node)*r+k])
			}
		}
		if !ok {
			err := c.allocErr(a, k)
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
func (c *Cluster) allocErr(a Alloc, k int) error {
	if err := c.checkID(a.Node); err != nil {
		return err
	}
	n := &c.nodes[a.Node]
	switch {
	case c.seen.Has(a.Node):
		return fmt.Errorf("cluster: node %d named twice in one call", a.Node)
	case a.Cores <= 0:
		return fmt.Errorf("cluster: non-positive cores %d on node %d", a.Cores, a.Node)
	case k >= 0:
		return fmt.Errorf("cluster: node %d (%v) holds %d cores at %v, not %d",
			a.Node, n.state, c.row(a.Node)[k], c.rungs[k], a.Cores)
	case n.state == StateOff:
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

// recharge charges busy node n, holding row, at its highest held rung —
// the node-level rule of Section V: while several jobs share a node it
// is charged at the highest frequency among them (conservative, like
// the paper's node-level power accounting). The node's cores move
// between histogram bars with it; the change in draw is returned.
func (c *Cluster) recharge(n *node, row []uint8, bars *barRun) float64 {
	nf := c.topRung(row)
	if nf == n.freq {
		return 0
	}
	c.moveBar(bars, n.freq, -n.usedCores)
	c.moveBar(bars, nf, n.usedCores)
	w := float64(c.profile.Busy(nf))
	d := w - n.watts
	n.freq, n.watts = nf, w
	return d
}

// Occupy starts one job on its allocation: allocs[i].Cores cores of node
// allocs[i].Node, at frequency f (0 means nominal), which must be a rung
// of the profile. Every node must be powered on, named once and have the
// cores free; all of that is checked before anything changes, so an
// error leaves the cluster untouched. A shared node is charged at the
// highest rung it holds cores at.
//
// Each node record is written once, and the counts, busy cores,
// histogram bars, node draw, candidate sets and generation settle once
// per call. The draw is summed over the nodes before it is added: the
// same value as node by node while the profile's draws are whole watts
// (power.TestCurieProfileIntegralWatts).
func (c *Cluster) Occupy(allocs []Alloc, f dvfs.Freq) error {
	k, err := c.rungOf(f)
	if err != nil {
		return err
	}
	if err = c.checkAllocs(allocs, -1); err != nil {
		return err
	}
	f = c.rungs[k]
	per, busyW := c.topo.CoresPerNode, float64(c.profile.Busy(f))
	var bars barRun
	watts, taken, cores := 0.0, 0, 0
	for _, a := range allocs {
		id, n := a.Node, &c.nodes[a.Node]
		c.seen.Remove(id)
		row := c.row(id)
		row[k] += uint8(a.Cores)
		n.usedCores += a.Cores
		cores += a.Cores
		if n.state == StateIdle {
			taken++
			c.idleSet.Remove(id)
			if n.usedCores < per {
				c.partialBusy.Add(id)
			}
			c.moveBar(&bars, f, n.usedCores)
			watts += busyW - n.watts
			n.state, n.freq, n.watts = StateBusy, f, busyW
			continue
		}
		// Busy with room for a.Cores: the node was partly used.
		if n.usedCores == per {
			c.partialBusy.Remove(id)
		}
		c.moveBar(&bars, n.freq, a.Cores)
		watts += c.recharge(n, row, &bars)
	}
	c.flushBar(&bars)
	c.settle(watts, taken, cores)
	return nil
}

// Vacate ends one job on its allocation, releasing allocs[i].Cores cores
// of node allocs[i].Node that the job held at frequency f (0 means
// nominal) — the frequency it was occupied or last re-clocked at. Every
// node must be named once and hold that many cores at f; all of that is
// checked before anything changes, so an error leaves the cluster
// untouched. A node left busy is charged at the highest rung it still
// holds cores at. Like Occupy, each node record is written once and the
// aggregates settle once per call.
func (c *Cluster) Vacate(allocs []Alloc, f dvfs.Freq) error {
	k, err := c.rungOf(f)
	if err != nil {
		return err
	}
	if err = c.checkAllocs(allocs, k); err != nil {
		return err
	}
	per, idleW := c.topo.CoresPerNode, float64(c.profile.Idle())
	var bars barRun
	watts, freed, cores := 0.0, 0, 0
	for _, a := range allocs {
		id, n := a.Node, &c.nodes[a.Node]
		c.seen.Remove(id)
		row := c.row(id)
		row[k] -= uint8(a.Cores)
		wasPartial := n.usedCores < per
		cores += a.Cores
		c.moveBar(&bars, n.freq, -a.Cores)
		if n.usedCores -= a.Cores; n.usedCores == 0 {
			freed++
			watts += idleW - n.watts
			n.state, n.freq, n.watts = StateIdle, 0, idleW
			c.idleSet.Add(id)
			if wasPartial {
				c.partialBusy.Remove(id)
			}
			continue
		}
		watts += c.recharge(n, row, &bars)
		if !wasPartial {
			c.partialBusy.Add(id)
		}
	}
	c.flushBar(&bars)
	c.settle(watts, -freed, -cores)
	return nil
}

// Reclock moves one running job from frequency from to frequency to (0
// means nominal for either; both must be rungs) without touching its
// allocation: the allocs[i].Cores cores node allocs[i].Node holds at
// from are held at to, and each node is charged at its highest held
// rung. Every node must be named once and hold the cores at from; all of
// that is checked before anything changes. A re-clock moves no core
// between nodes, so the candidate sets, the free cores and the
// generation stand.
func (c *Cluster) Reclock(allocs []Alloc, from, to dvfs.Freq) error {
	kf, err := c.rungOf(from)
	if err != nil {
		return err
	}
	kt, err := c.rungOf(to)
	if err != nil {
		return err
	}
	if err = c.checkAllocs(allocs, kf); err != nil {
		return err
	}
	var bars barRun
	watts := 0.0
	for _, a := range allocs {
		c.seen.Remove(a.Node)
		row := c.row(a.Node)
		row[kf] -= uint8(a.Cores)
		row[kt] += uint8(a.Cores)
		watts += c.recharge(&c.nodes[a.Node], row, &bars)
	}
	c.flushBar(&bars)
	c.nodeWatts += watts
	return nil
}

// ReclockDelta returns the change in draw Reclock(allocs, from, to)
// would make, without changing anything: per node, the busy draw at the
// highest rung it would hold cores at minus its draw now, summed in
// allocation order. Entries Reclock would refuse — a node out of range,
// not holding the cores at from — add nothing, and neither does a
// frequency that is not a rung.
func (c *Cluster) ReclockDelta(allocs []Alloc, from, to dvfs.Freq) power.Watts {
	kf, errFrom := c.rungOf(from)
	kt, errTo := c.rungOf(to)
	if errFrom != nil || errTo != nil {
		return 0
	}
	var d float64
	for _, a := range allocs {
		if c.checkID(a.Node) != nil || a.Cores <= 0 {
			continue
		}
		row := c.row(a.Node)
		if a.Cores > int(row[kf]) {
			continue
		}
		nf := c.rungs[kt] // the node holds a.Cores at to after the move
		for k := len(row) - 1; k > kt; k-- {
			held := int(row[k])
			if k == kf {
				held -= a.Cores
			}
			if held > 0 {
				nf = c.rungs[k]
				break
			}
		}
		d += float64(c.profile.Busy(nf)) - c.nodes[a.Node].watts
	}
	return power.Watts(d)
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

// CurieCores returns the allocated cores by the Curie rung they are
// charged at (the Figure 6/7 core series), filled from the live bars
// without allocating. The cluster must run the Curie profile, the only
// one a controller builds: a bar at any other frequency has no slot,
// and panics.
func (c *Cluster) CurieCores() dvfs.CurieCores {
	var out dvfs.CurieCores
	for _, e := range c.coresByFreq {
		i, ok := dvfs.CurieSlot(e.freq)
		if !ok {
			panic(fmt.Sprintf("cluster: %v cores at %v, off the Curie ladder", e.cores, e.freq))
		}
		out[i] = int32(e.cores)
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
func (c *Cluster) MaxPower() power.Watts { return c.SurvivorDraw(Groups{}, c.profile.Max()) }

// IdlePower returns the draw with every node powered on and idle.
func (c *Cluster) IdlePower() power.Watts { return c.SurvivorDraw(Groups{}, c.profile.Idle()) }

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
// (core.SelectFreq); TestOccupyDeltaMonotoneInFreq pins it. A frequency
// that is not a rung panics (power.Profile.Busy): no probe prices what
// Occupy refuses.
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
