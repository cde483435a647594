package simengine

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestRunOrders(t *testing.T) {
	e := New(0)
	var got []int64
	for _, at := range []Time{30, 10, 20} {
		at := at
		if _, err := e.At(at, func(now Time, _ any) { got = append(got, now) }, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now = %d, want 30", e.Now())
	}
	if e.Fired() != 3 {
		t.Errorf("Fired = %d, want 3", e.Fired())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New(0)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := e.At(5, func(Time, any) { got = append(got, i) }, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(got) {
		t.Errorf("same-time events fired out of FIFO order: %v", got)
	}
}

func TestSchedulingFromHandler(t *testing.T) {
	e := New(0)
	var hits []Time
	if _, err := e.At(1, func(now Time, _ any) {
		hits = append(hits, now)
		if _, err := e.At(now+2, func(now Time, _ any) { hits = append(hits, now) }, nil); err != nil {
			t.Error(err)
		}
		// Same-time chaining is allowed.
		if _, err := e.At(now, func(now Time, _ any) { hits = append(hits, now) }, nil); err != nil {
			t.Error(err)
		}
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	want := []Time{1, 1, 3}
	if len(hits) != 3 || hits[0] != want[0] || hits[1] != want[1] || hits[2] != want[2] {
		t.Errorf("hits = %v, want %v", hits, want)
	}
}

func TestPastSchedulingRejected(t *testing.T) {
	e := New(100)
	if _, err := e.At(99, func(Time, any) {}, nil); err == nil {
		t.Error("past event accepted")
	}
	if _, err := e.At(100, nil, nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestCancel(t *testing.T) {
	e := New(0)
	fired := false
	id, err := e.At(5, func(Time, any) { fired = true }, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Cancel(id)
	e.Cancel(id) // double cancel is a no-op
	e.Cancel(EventID{})
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	if fired || e.Fired() != 0 {
		t.Errorf("cancelled event fired (Fired = %d)", e.Fired())
	}
}

func TestHorizon(t *testing.T) {
	e := New(0)
	var fired []Time
	for _, at := range []Time{5, 15, 25} {
		if _, err := e.At(at, func(now Time, _ any) { fired = append(fired, now) }, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want two events", fired)
	}
	if e.Now() != 20 {
		t.Errorf("Now = %d, want horizon 20", e.Now())
	}
	// Resume to drain the rest.
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[2] != 25 {
		t.Errorf("after resume fired = %v", fired)
	}
}

func TestHorizonAdvancesEmptyClock(t *testing.T) {
	e := New(0)
	if err := e.Run(42); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 42 {
		t.Errorf("Now = %d, want 42", e.Now())
	}
}

// TestStep steps an engine through its queue with Run and a horizon:
// each call fires exactly the events up to the horizon and leaves the
// rest pending.
func TestStep(t *testing.T) {
	e := New(0)
	n := 0
	for i := Time(1); i <= 3; i++ {
		if _, err := e.At(i, func(Time, any) { n++ }, nil); err != nil {
			t.Fatal(err)
		}
	}
	for want := 1; want <= 3; want++ {
		if err := e.Run(Time(want)); err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("after Run(%d): fired %d", want, n)
		}
	}
	if err := e.Run(4); err != nil { // empty queue: only the clock moves
		t.Fatal(err)
	}
	if n != 3 || e.Now() != 4 {
		t.Errorf("n = %d, now = %d after draining", n, e.Now())
	}
}

func TestStepSkipsCancelled(t *testing.T) {
	e := New(0)
	fired := false
	id, _ := e.At(1, func(Time, any) { t.Error("cancelled event fired") }, nil)
	if _, err := e.At(2, func(Time, any) { fired = true }, nil); err != nil {
		t.Fatal(err)
	}
	e.Cancel(id)
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	if !fired || e.Fired() != 1 {
		t.Errorf("live event fired = %v, Fired() = %d, want true and 1", fired, e.Fired())
	}
}

func TestRunReentry(t *testing.T) {
	e := New(0)
	var inner error
	if _, err := e.At(1, func(Time, any) { inner = e.Run(-1) }, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	if inner == nil {
		t.Error("reentrant Run accepted")
	}
}

// Property: any multiset of event times fires in sorted order.
func TestFiringOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := New(0)
		var fired []Time
		for _, at := range times {
			if _, err := e.At(Time(at), func(now Time, _ any) { fired = append(fired, now) }, nil); err != nil {
				return false
			}
		}
		if err := e.Run(-1); err != nil {
			return false
		}
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPendingExactUnderCancel pins the pending set under cancellation:
// tombstoned slots still sitting in the queue are purged without firing,
// and a double cancel changes nothing.
func TestPendingExactUnderCancel(t *testing.T) {
	e := New(0)
	ids := make([]EventID, 10)
	for i := range ids {
		id, err := e.At(Time(i+1), func(Time, any) {}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids[:4] {
		e.Cancel(id)
	}
	e.Cancel(ids[0]) // double cancel is a no-op

	// Purges the four tombstones, fires t=5.
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 1 {
		t.Fatalf("Fired after the first live event = %d, want 1", e.Fired())
	}
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 6 {
		t.Fatalf("Fired = %d, want 6", e.Fired())
	}
}

// TestStaleCancelAfterRecycle pins the generation check: an EventID
// whose slot has fired and been reused must not cancel the new tenant.
func TestStaleCancelAfterRecycle(t *testing.T) {
	e := New(0)
	stale, err := e.At(1, func(Time, any) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	// The slot is free; the next At reuses it.
	fired := false
	if _, err := e.At(2, func(Time, any) { fired = true }, nil); err != nil {
		t.Fatal(err)
	}
	e.Cancel(stale) // stale generation: must be a no-op
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("recycled slot's event was cancelled by a stale id")
	}
}

// TestSameTimeLaneOrder pins the heap/lane merge rule: events scheduled
// for time T before the clock reaches T fire before events scheduled at
// T from within T's handlers, and both groups fire in scheduling order.
func TestSameTimeLaneOrder(t *testing.T) {
	e := New(0)
	var got []int
	rec := func(i int) Handler { return func(Time, any) { got = append(got, i) } }
	if _, err := e.At(5, func(now Time, _ any) {
		got = append(got, 0)
		// Chained same-time events: must fire after every pre-scheduled
		// t=5 event, in this order.
		if _, err := e.At(now, rec(3), nil); err != nil {
			t.Error(err)
		}
		if _, err := e.At(now, rec(4), nil); err != nil {
			t.Error(err)
		}
	}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.At(5, rec(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.At(5, rec(2), nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order = %v, want %v", got, want)
		}
	}
}

// TestSteadyStateAllocFree pins the free-list promise: once warmed up,
// the schedule/fire cycle allocates nothing — measured on Run, the loop
// the controller drives.
func TestSteadyStateAllocFree(t *testing.T) {
	e := New(0)
	fn := func(Time, any) {}
	cycle := func() {
		if _, err := e.At(e.Now()+1, fn, nil); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(-1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // warm the free list and heap capacity
		cycle()
	}
	allocs := testing.AllocsPerRun(1000, cycle)
	if allocs != 0 {
		t.Errorf("steady-state schedule+fire allocates %.1f times per op, want 0", allocs)
	}
}

// TestRecycledEventDropsItsArgument pins that the engine keeps no
// argument alive once its event is done with: an event that fired, and
// one cancelled while its tombstone still waits in the heap, hold none —
// a finished job is the collector's as soon as its end event is.
func TestRecycledEventDropsItsArgument(t *testing.T) {
	e := New(0)
	held := func(arg any) bool {
		for _, evs := range [][]*event{e.heap, e.lane, e.free} {
			for _, ev := range evs {
				if ev != nil && ev.arg == arg {
					return true
				}
			}
		}
		return false
	}
	fired, cancelled := new(int), new(int)
	var got any
	if _, err := e.At(1, func(_ Time, arg any) { got = arg }, fired); err != nil {
		t.Fatal(err)
	}
	id, err := e.At(5, func(Time, any) { t.Error("cancelled event fired") }, cancelled)
	if err != nil {
		t.Fatal(err)
	}
	if !held(fired) || !held(cancelled) {
		t.Fatal("a scheduled event does not hold its argument")
	}
	e.Cancel(id)
	if len(e.heap) != 2 {
		t.Fatalf("%d heap events after the cancel, want the tombstone still there", len(e.heap))
	}
	if held(cancelled) {
		t.Error("a cancelled event still holds its argument")
	}
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	if got != fired {
		t.Fatalf("handler got %v, want the event's argument", got)
	}
	if held(fired) {
		t.Error("a fired event still holds its argument")
	}
}
