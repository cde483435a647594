// Package cluster models the hardware hierarchy of an HPC machine the way
// the paper's powercapping scheduler sees it: nodes grouped into chassis,
// chassis into racks, with per-level "power bonus" when a whole group is
// switched off together (Section III-B and Figure 2). It maintains node
// power states incrementally so that the total cluster draw — the quantity
// the online scheduling algorithm compares against the power cap — is O(1)
// to read and O(1) to update on any state transition.
package cluster

import (
	"fmt"
	"math"
)

// NodeID identifies a node; IDs are dense, 0..N-1, laid out in topology
// order: consecutive IDs share a chassis, consecutive chassis share a rack.
type NodeID int

// Topology describes the switch-off hierarchy of the machine.
type Topology struct {
	Racks           int // number of racks in the cluster
	ChassisPerRack  int // chassis housed by each rack
	NodesPerChassis int // compute nodes per chassis
	CoresPerNode    int // cores per compute node
}

// CurieTopology returns the Curie layout of Section VI-A: 5040 Bullx B510
// nodes = 56 racks x 5 chassis x 18 nodes, 16 cores per node (80640 cores).
func CurieTopology() Topology {
	return Topology{Racks: 56, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16}
}

// Validate reports whether every dimension is positive and a node has
// at most 255 cores, what the cluster's per-rung core counts hold.
func (t Topology) Validate() error {
	if t.Racks <= 0 || t.ChassisPerRack <= 0 || t.NodesPerChassis <= 0 || t.CoresPerNode <= 0 {
		return fmt.Errorf("cluster: invalid topology %+v (all dimensions must be positive)", t)
	}
	if t.CoresPerNode > math.MaxUint8 {
		return fmt.Errorf("cluster: invalid topology %+v (at most %d cores per node)", t, math.MaxUint8)
	}
	return nil
}

// Nodes returns the total node count.
func (t Topology) Nodes() int { return t.Racks * t.ChassisPerRack * t.NodesPerChassis }

// Chassis returns the total chassis count.
func (t Topology) Chassis() int { return t.Racks * t.ChassisPerRack }

// Cores returns the total core count.
func (t Topology) Cores() int { return t.Nodes() * t.CoresPerNode }

// NodesPerRack returns the node count of one rack.
func (t Topology) NodesPerRack() int { return t.ChassisPerRack * t.NodesPerChassis }

// ChassisOf returns the chassis index (0..Chassis()-1) housing node id.
func (t Topology) ChassisOf(id NodeID) int { return int(id) / t.NodesPerChassis }

// RackOf returns the rack index (0..Racks-1) housing node id.
func (t Topology) RackOf(id NodeID) int { return int(id) / t.NodesPerRack() }

// ChassisNodes returns the ID range [first, first+NodesPerChassis) of the
// nodes in chassis c.
func (t Topology) ChassisNodes(c int) (first NodeID, n int) {
	return NodeID(c * t.NodesPerChassis), t.NodesPerChassis
}

// RackNodes returns the ID range of the nodes in rack r.
func (t Topology) RackNodes(r int) (first NodeID, n int) {
	return NodeID(r * t.NodesPerRack()), t.NodesPerRack()
}

// Groups counts a node set's members and the chassis and racks it holds whole.
type Groups struct{ Nodes, Chassis, Racks int }

// Groups counts the members of s inside t and the groups of t it holds whole.
func (t Topology) Groups(s NodeSet) Groups {
	var g Groups
	for r := 0; r < t.Racks; r++ {
		whole := 0
		for ch := r * t.ChassisPerRack; ch < (r+1)*t.ChassisPerRack; ch++ {
			first, n := t.ChassisNodes(ch)
			in := 0
			for id := first; id < first+NodeID(n); id++ {
				if s.Has(id) {
					in++
				}
			}
			g.Nodes += in
			if in == n {
				whole++
			}
		}
		g.Chassis += whole
		if whole == t.ChassisPerRack {
			g.Racks++
		}
	}
	return g
}

// Overhead is the power drawn by the shared equipment of one hierarchy
// level while any of its children is powered, and eliminated when the whole
// group is switched off together. Figure 2 of the paper: a chassis'
// switches, fans and ports draw 248 W; a rack's fans and cold door draw
// 900 W.
type Overhead struct {
	ChassisWatts float64 // shared equipment per chassis
	RackWatts    float64 // shared equipment per rack
}

// CurieOverhead returns the Figure 2 constants.
func CurieOverhead() Overhead { return Overhead{ChassisWatts: 248, RackWatts: 900} }
