package main

import "testing"

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Name: "wait", Start: 10, End: 90},
		// Two children of wait overlap on [30, 50): their union is [20, 70).
		{ID: 2, Parent: 1, Op: 0, Name: "poll", Start: 20, End: 50},
		{ID: 3, Parent: 1, Op: 0, Name: "stage", Start: 30, End: 70},
		// A child that sticks out of its parent counts only up to the
		// parent's end: [80, 90) of [80, 120).
		{ID: 4, Parent: 1, Op: 0, Name: "stage", Start: 80, End: 120},
		// A child nested inside another child's interval adds nothing.
		{ID: 5, Parent: 1, Op: 0, Name: "poll", Start: 35, End: 40},
	}
	self := selfTimes(spans)
	want := []int64{20, 20, 30, 40, 40, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
}

func TestPerOpAndChildCounts(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{ID: 0, Parent: -1, Op: 7, Name: "service.wait", Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Op: 7, Name: "http GET", Start: 0, End: 1 * ms},
		{ID: 2, Parent: 0, Op: 7, Name: "http GET", Start: 3 * ms, End: 4 * ms},
		{ID: 3, Parent: -1, Op: 7, Name: "service.report_fetch", Start: 10 * ms, End: 11 * ms},
		{ID: 4, Parent: 3, Op: 7, Name: "http GET", Start: 10 * ms, End: 11 * ms},
		{ID: 5, Parent: -1, Op: 9, Name: "service.wait", Start: 20 * ms, End: 25 * ms},
	}
	if got := perOp(spans, "http GET"); len(got) != 1 || got[0] != 3 {
		t.Errorf("http time per op = %v, want [3]", got)
	}
	if got := perOp(spans, "service.wait"); len(got) != 2 || got[0] != 10 || got[1] != 5 {
		t.Errorf("wait time per op = %v, want [10 5]", got)
	}
	// Polls are the GETs under a wait span; the report fetch's GET is not
	// one, and an operation without polls still counts, as 0.
	if got := childCounts(spans, "service.wait", "http GET"); len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Errorf("polls per op = %v, want [2 0]", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("x", -1, 0)
	tr.end(id)
	tr.add("y", id, 0, 0, 1)
	tr.count(0, "z", 1)
	if id != -1 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}

func TestTracerAddPlacesChildInsideParent(t *testing.T) {
	tr := newTracer()
	p := tr.start("wait", -1, 3)
	tr.end(p)
	tr.add("stage.execute", p, 3, 100, 50)
	spans, _ := tr.snapshot()
	c := spans[1]
	if c.Parent != p || c.Op != 3 || c.Start != spans[0].Start+100 || c.End-c.Start != 50 {
		t.Errorf("added span = %+v under %+v", c, spans[0])
	}
}
