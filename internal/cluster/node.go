package cluster

import (
	"fmt"

	"repro/internal/dvfs"
)

// NodeState is the RJMS-visible power state of a node. It mirrors the
// SLURM states the paper's implementation keys watt values on: Down (node
// switched off, only the BMC powered), Idle (powered, no job) and Busy
// (allocated; the draw then depends on the CPU frequency).
type NodeState int

const (
	// StateOff means the node is switched off (SLURM "down" for the
	// purposes of the powercap code); only its BMC draws power.
	StateOff NodeState = iota
	// StateIdle means the node is powered on and runs no job.
	StateIdle
	// StateBusy means at least one job occupies cores of the node.
	StateBusy
)

// String implements fmt.Stringer.
func (s NodeState) String() string {
	switch s {
	case StateOff:
		return "off"
	case StateIdle:
		return "idle"
	case StateBusy:
		return "busy"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// node is the internal per-node record.
type node struct {
	state     NodeState
	freq      dvfs.Freq // frequency charged while busy: the highest rung it holds cores at
	usedCores int       // cores currently allocated
	watts     float64   // draw before group bonuses, rewritten whenever state or freq changes
}

// NodeInfo is the read-only view of one node handed to callers.
type NodeInfo struct {
	ID        NodeID
	State     NodeState
	Freq      dvfs.Freq // meaningful while Busy
	UsedCores int
}
