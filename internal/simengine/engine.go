// Package simengine is a deterministic discrete-event simulation core. It
// replaces the paper's real-time "multiple-slurmd" emulation (Section VII-A)
// with virtual time: the controller logic runs unchanged, but hours of
// replayed workload execute in milliseconds and every run is exactly
// reproducible. Events at equal timestamps fire in scheduling order (FIFO),
// which gives the deterministic tie-breaking the replay methodology of
// Section VII-B relies on ("as the replay is deterministic, we can compare
// the different replays").
//
// The pending set is a 4-ary implicit heap ordered by (time, seq) plus a
// same-timestamp FIFO lane: events scheduled at the current clock value
// bypass the heap entirely (the dominant pattern in the RJMS hot path —
// handlers chaining same-time follow-ups) and fire in append order after
// every heap event carrying that timestamp. That order is exactly the
// global (time, seq) order, because a heap event at the current time was
// necessarily scheduled before the clock reached it and therefore holds a
// smaller seq than any lane event. Fired events return to a free list and
// Cancel is a tombstone checked against a per-slot generation counter, so
// the steady state allocates nothing and cancellation is O(1).
//
// An event carries one argument for its handler (At's arg), so a caller
// binds each handler once and schedules the per-event value — a job, a
// cursor — beside it, instead of allocating a closure over that value
// for every event. A slot drops its argument when it fires or is
// cancelled: a tombstone waiting in the heap keeps nothing alive.
package simengine

import (
	"fmt"
)

// Time is virtual time in seconds since the start of the simulation.
type Time = int64

// Handler is an event callback; it receives the current virtual time and
// the argument the event was scheduled with.
type Handler func(now Time, arg any)

type event struct {
	at       Time
	seq      uint64 // FIFO tie-break for equal timestamps
	gen      uint64 // incremented on recycle; stale EventIDs no-op
	fn       Handler
	arg      any
	canceled bool
}

// EventID allows cancelling a scheduled event. The zero value is inert.
type EventID struct {
	ev  *event
	gen uint64
}

// Engine owns the virtual clock and the pending event set. It is not safe
// for concurrent use; run independent engines in parallel instead.
type Engine struct {
	now     Time
	seq     uint64
	heap    []*event // 4-ary implicit heap on (at, seq)
	lane    []*event // FIFO lane of events with at == now
	laneOff int      // index of the lane head
	free    []*event // recycled event slots
	running bool
	fired   uint64
}

// New returns an engine whose clock starts at time start.
func New(start Time) *Engine {
	return &Engine{now: start}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// less orders events by (time, seq) — the global deterministic firing
// order.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends ev and sifts it up the 4-ary heap.
func (e *Engine) heapPush(ev *event) {
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(ev, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		i = p
	}
	e.heap[i] = ev
}

// heapPop removes and returns the minimum event.
func (e *Engine) heapPop() *event {
	top := e.heap[0]
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap[n] = nil
	e.heap = e.heap[:n]
	if n == 0 {
		return top
	}
	// Sift the displaced last element down from the root.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if less(e.heap[j], e.heap[m]) {
				m = j
			}
		}
		if !less(e.heap[m], last) {
			break
		}
		e.heap[i] = e.heap[m]
		i = m
	}
	e.heap[i] = last
	return top
}

// recycle returns a popped event slot to the free list. The generation
// bump invalidates every outstanding EventID pointing at the slot, so
// it happens before the handler runs — a handler rescheduling into the
// slot it is firing from is safe.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.arg = nil, nil
	ev.canceled = false
	e.free = append(e.free, ev)
}

// next returns the globally next event without removing it, or nil.
// The lane holds equal-timestamp events in seq order, so its head is
// the lane minimum; comparing it against the heap top by (at, seq)
// yields the global minimum.
func (e *Engine) next() *event {
	var h *event
	if len(e.heap) > 0 {
		h = e.heap[0]
	}
	if e.laneOff >= len(e.lane) {
		return h
	}
	l := e.lane[e.laneOff]
	if h != nil && less(h, l) {
		return h
	}
	return l
}

// pop removes the event next() returned. ev tells pop which structure
// it came from.
func (e *Engine) pop(ev *event) {
	if e.laneOff < len(e.lane) && e.lane[e.laneOff] == ev {
		e.lane[e.laneOff] = nil
		e.laneOff++
		if e.laneOff == len(e.lane) {
			e.lane = e.lane[:0]
			e.laneOff = 0
		}
		return
	}
	e.heapPop()
}

// At schedules fn(at, arg) at absolute time at. Scheduling in the past
// (before the current clock) is an error: a simulator that silently
// reorders causality produces wrong replays.
func (e *Engine) At(at Time, fn Handler, arg any) (EventID, error) {
	if fn == nil {
		return EventID{}, fmt.Errorf("simengine: nil handler")
	}
	if at < e.now {
		return EventID{}, fmt.Errorf("simengine: schedule at t=%d before now t=%d", at, e.now)
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.seq = e.seq
	ev.fn, ev.arg = fn, arg
	e.seq++
	if at == e.now && (e.laneOff >= len(e.lane) || e.lane[len(e.lane)-1].at == at) {
		// Same-time events fire after every pending heap event at this
		// timestamp (all scheduled earlier, so smaller seq) in append
		// order — global (time, seq) order without touching the heap.
		// The lane stays single-timestamped: if a backwards horizon
		// left stale lane entries, new events take the heap instead.
		e.lane = append(e.lane, ev)
	} else {
		e.heapPush(ev)
	}
	return EventID{ev: ev, gen: ev.gen}, nil
}

// Cancel prevents a scheduled event from firing. Cancelling an already
// fired or already cancelled event is a harmless no-op (the generation
// check catches IDs whose slot has been recycled). The tombstoned slot
// is reclaimed when the queue reaches its timestamp; its handler and
// argument are dropped now.
func (e *Engine) Cancel(id EventID) {
	if id.ev == nil || id.ev.gen != id.gen || id.ev.canceled {
		return
	}
	id.ev.canceled = true
	id.ev.fn, id.ev.arg = nil, nil
}

// Run executes events in timestamp order until the queue drains or the
// next event lies strictly beyond horizon (which then becomes the clock
// value). A negative horizon means "no horizon".
// Handlers may schedule further events, including at the current time.
func (e *Engine) Run(horizon Time) error {
	if e.running {
		return fmt.Errorf("simengine: Run reentered")
	}
	e.running = true
	defer func() { e.running = false }()

	for ev := e.next(); ev != nil; ev = e.next() {
		if ev.canceled {
			e.pop(ev)
			e.recycle(ev)
			continue
		}
		if horizon >= 0 && ev.at > horizon {
			e.now = horizon
			return nil
		}
		e.pop(ev)
		e.now = ev.at
		e.fired++
		fn, arg := ev.fn, ev.arg
		e.recycle(ev)
		fn(e.now, arg)
	}
	if horizon >= 0 && e.now < horizon {
		e.now = horizon
	}
	return nil
}
