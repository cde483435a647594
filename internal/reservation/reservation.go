// Package reservation implements the two reservation kinds the paper adds
// to SLURM (Section V): powercap reservations — a Watts budget over a time
// window — and switch-off reservations — a node group planned by the
// offline algorithm to be powered down during a powercap window. A Book
// aggregates them and answers the queries the online scheduler needs: the
// effective cap at an instant, the tightest cap over a job's expected span,
// and the next boundary at which the controller must wake up.
package reservation

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/power"
)

// Horizon is the End value of an open-ended window ("powercap set for now
// with no time restriction").
const Horizon = int64(math.MaxInt64)

// PowerCap is a power budget over [Start, End).
type PowerCap struct {
	ID    int
	Start int64
	End   int64 // exclusive; Horizon for open-ended
	Cap   power.Cap
}

// Active reports whether the window covers instant t.
func (p PowerCap) Active(t int64) bool { return t >= p.Start && t < p.End }

// Overlaps reports whether the window intersects [from, to).
func (p PowerCap) Overlaps(from, to int64) bool { return p.Start < to && from < p.End }

// SwitchOff is a planned group power-down over [Start, End): the group
// Algorithm 1 picked for one powercap window, held from booking to Release.
type SwitchOff struct {
	ID    int
	Start int64
	End   int64
	// nodes is the group, sized to its highest member: a probe decides
	// eligibility once per window (BlockedSet), not once per node.
	nodes    cluster.NodeSet
	released bool
}

// Book holds all reservations of a controller, and is the one record of
// which nodes the switch-off windows hold and until when.
type Book struct {
	topo   cluster.Topology
	nextID int
	caps   []PowerCap
	offs   []SwitchOff

	held       cluster.NodeSet // union of the unreleased groups; see Held
	heldGroups cluster.Groups  // its counts

	gen uint64 // see Generation
}

// NewBook returns an empty reservation book for a machine of topology topo.
func NewBook(topo cluster.Topology) *Book { return &Book{topo: topo, nextID: 1} }

// Generation changes whenever a reservation is added, re-budgeted or
// released (counted in AddPowerCap, AddSwitchOff, UpdateCap and Release):
// a conclusion drawn from the book at t0 still stands at t1 while the
// generation does and PhaseStable(t0, t1) holds.
func (b *Book) Generation() uint64 { return b.gen }

// AddPowerCap registers a powercap window and returns its ID. End must be
// strictly after Start (use Horizon for open-ended) and the cap must be
// set.
func (b *Book) AddPowerCap(start, end int64, cap power.Cap) (int, error) {
	if end <= start {
		return 0, fmt.Errorf("reservation: empty powercap window [%d,%d)", start, end)
	}
	if !cap.IsSet() {
		return 0, fmt.Errorf("reservation: powercap reservation without a cap value")
	}
	id := b.nextID
	b.nextID++
	b.gen++
	b.caps = append(b.caps, PowerCap{ID: id, Start: start, End: end, Cap: cap})
	sort.SliceStable(b.caps, func(i, j int) bool { return b.caps[i].Start < b.caps[j].Start })
	return id, nil
}

// AddSwitchOff registers a planned group power-down and returns its ID.
func (b *Book) AddSwitchOff(start, end int64, nodes []cluster.NodeID) (int, error) {
	if end <= start {
		return 0, fmt.Errorf("reservation: empty switch-off window [%d,%d)", start, end)
	}
	if len(nodes) == 0 {
		return 0, fmt.Errorf("reservation: switch-off reservation without nodes")
	}
	id := b.nextID
	b.nextID++
	b.offs = append(b.offs, SwitchOff{ID: id, Start: start, End: end, nodes: cluster.NodeSetOf(nodes)})
	b.hold()
	return id, nil
}

// Release ends the hold of switch-off reservation id, whose window has
// closed, and returns its group: nil when id names no unreleased one.
func (b *Book) Release(id int) cluster.NodeSet {
	for i := range b.offs {
		if o := &b.offs[i]; o.ID == id && !o.released {
			o.released = true
			b.hold()
			return o.nodes
		}
	}
	return nil
}

// hold counts a change of the hold and recomputes it into a new set.
func (b *Book) hold() {
	b.gen++
	held := cluster.NewNodeSet(b.topo.Nodes())
	for i := range b.offs {
		if !b.offs[i].released {
			held = held.Or(b.offs[i].nodes)
		}
	}
	b.held, b.heldGroups = held, b.topo.Groups(held)
}

// Held returns the nodes the unreleased switch-off reservations hold, and
// their counts. The set is replaced, never modified, when the hold
// changes: callers must not modify it, and may compare it by identity.
func (b *Book) Held() (cluster.NodeSet, cluster.Groups) { return b.held, b.heldGroups }

// Draining reports whether a switch-off window open at t holds node id:
// a busy node it holds powers off as soon as its jobs end.
func (b *Book) Draining(id cluster.NodeID, t int64) bool {
	for i := range b.offs {
		if o := &b.offs[i]; !o.released && o.Start <= t && t < o.End && o.nodes.Has(id) {
			return true
		}
	}
	return false
}

// UpdateCap re-budgets an existing powercap reservation in place: the
// window keeps its span and ID, only the Watts value changes. This is
// how a federation broker moves budget between member clusters at
// redistribution boundaries without tearing reservations down. The new
// cap must be set; unknown IDs (including switch-off IDs) are an error.
func (b *Book) UpdateCap(id int, cap power.Cap) error {
	if !cap.IsSet() {
		return fmt.Errorf("reservation: update of powercap %d without a cap value", id)
	}
	for i := range b.caps {
		if b.caps[i].ID == id {
			b.caps[i].Cap = cap
			b.gen++
			return nil
		}
	}
	return fmt.Errorf("reservation: no powercap reservation %d", id)
}

// CapAt returns the tightest cap active at instant t (NoCap when none).
func (b *Book) CapAt(t int64) power.Cap {
	out := power.NoCap
	for _, c := range b.caps {
		if c.Start > t {
			break // caps are sorted by start
		}
		if c.Active(t) && (!out.IsSet() || c.Cap.Watts() < out.Watts()) {
			out = c.Cap
		}
	}
	return out
}

// MinFutureCapOver returns the tightest cap among windows that open
// strictly after `from` (but within `horizon` seconds of it) and overlap
// [from, to). Windows already active at `from` are excluded — the online
// algorithm checks those against the actual cluster draw, while future
// windows are checked against the draw projected after the planned
// switch-offs. The horizon bounds how far ahead the scheduler prepares:
// with walltimes overestimated by four orders of magnitude, "overlaps a
// future reservation" is true of nearly every job nearly all day, and
// throttling against a cap many hours away would idle the machine (the
// paper's figures show preparation starting close to the window).
// horizon <= 0 means unbounded. Returns NoCap when none apply.
func (b *Book) MinFutureCapOver(from, to, horizon int64) power.Cap {
	out := power.NoCap
	for _, c := range b.caps {
		if c.Start >= to {
			break
		}
		if c.Start <= from || !c.Overlaps(from, to) {
			continue
		}
		if horizon > 0 && c.Start > from+horizon {
			continue
		}
		if !out.IsSet() || c.Cap.Watts() < out.Watts() {
			out = c.Cap
		}
	}
	return out
}

// blocks reports whether the window refuses work on its members for a
// job spanning [from, to): the span touches the window and the lead-in
// has begun. With user walltimes overestimated by four orders of
// magnitude (Section VII-B), blocking on walltime overlap alone would
// idle the reserved group hours ahead of the window; instead a
// reservation starts refusing work only `lead` seconds before its window
// opens, and nodes still busy at the window start drain to off as their
// jobs end. lead = 0 reproduces the pure drain behaviour visible in the
// paper's Figures 6/7 (utilization stays high until the window, then the
// group powers down sharply).
func (o *SwitchOff) blocks(from, to, lead int64) bool {
	return o.Start < to && from < o.End && from >= o.Start-lead
}

// BlockedSet returns the nodes on which scheduling a job over
// [from, to) would collide with a switch-off reservation at the given
// lead, as one set: the verdict depends on the window, not on the node
// asked about, so an allocation probe decides it once and intersects.
// The result is nil when no window blocks, the blocking window's own
// membership set when there is exactly one (the common case; callers
// must not modify it), and otherwise the union, written into *scratch
// (grown as needed and reused across calls).
func (b *Book) BlockedSet(from, to int64, lead int64, scratch *cluster.NodeSet) cluster.NodeSet {
	var out cluster.NodeSet
	blocking := 0
	for i := range b.offs {
		if !b.offs[i].blocks(from, to, lead) {
			continue
		}
		set := b.offs[i].nodes
		blocking++
		if blocking == 1 {
			out = set
			continue
		}
		if blocking == 2 {
			out = append((*scratch)[:0], out...) // leave the first window's set intact
		}
		out = out.Or(set)
		*scratch = out
	}
	return out
}

// PhaseStable reports whether the book answers alike at probe times t0
// and t1 (t0 <= t1) for any fixed job span length: no boundary lies in
// (t0, t1]. A powercap window's are its start and end (CapAt moves, and
// an opened window leaves MinFutureCapOver for the active-cap check); a
// switch-off window's are the start of its lead-in, its start and its
// end, between which BlockedSet gives one verdict — except inside the
// lead-in, where the verdict depends on how far the probe instant is
// from the window start, so there the instants must coincide. A future
// cap coming nearer can only refuse more: a record of refusals, the
// controller's scheduling-pass memo, may rest on this.
func (b *Book) PhaseStable(t0, t1, lead int64) bool {
	crossed := func(at int64) bool { return t0 < at && at <= t1 }
	for i := range b.caps {
		if c := &b.caps[i]; crossed(c.Start) || crossed(c.End) {
			return false
		}
	}
	for i := range b.offs {
		o := &b.offs[i]
		if crossed(o.Start-lead) || crossed(o.Start) || crossed(o.End) {
			return false
		}
		if t0 != t1 && o.Start-lead <= t0 && t0 < o.Start {
			return false
		}
	}
	return true
}
