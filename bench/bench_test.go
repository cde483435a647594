package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// fakeInst is an instance whose operations take no time.
type fakeInst struct {
	nClients, nCycle int
	ops              atomic.Int64
}

func (f *fakeInst) clients() int         { return f.nClients }
func (f *fakeInst) cycle() int           { return f.nCycle }
func (f *fakeInst) warm() int            { return 0 }
func (f *fakeInst) verify() (int, error) { return 0, nil }
func (f *fakeInst) close()               {}
func (f *fakeInst) op(ctx context.Context, i int, tr *tracer) (int, float64, bool) {
	f.ops.Add(1)
	return i % f.nCycle, 1, true
}
func (f *fakeInst) layers(*config, *tracer, []opRec, []opRec, map[string]float64) error { return nil }

// A window ends on a cycle boundary, runs at least the operations asked
// for, and hands the next window a first operation number that keeps the
// pool aligned.
func TestWindowRunsWholeCycles(t *testing.T) {
	f := &fakeInst{nClients: 1, nCycle: 4}
	recs, _, next := window(context.Background(), f, 0, 10, nil, 0)
	// The stopping client claimed number 12, so the next window starts a
	// cycle later: numbers are never reused.
	if len(recs) != 12 || next != 16 {
		t.Errorf("one client: %d operations, next %d; want 12 and 16 (three cycles cover 10)", len(recs), next)
	}
	recs, _, next = window(context.Background(), f, 0, 1, nil, next)
	if len(recs) != 4 || next != 24 {
		t.Errorf("second window: %d operations, next %d; want 4 and 24", len(recs), next)
	}
	recs, _, _ = window(context.Background(), f, 0, 0, nil, 0)
	if len(recs) != 0 {
		t.Errorf("an empty window ran %d operations", len(recs))
	}

	two := &fakeInst{nClients: 2, nCycle: 8}
	recs, _, next = window(context.Background(), two, 20*time.Millisecond, 0, nil, 0)
	if len(recs) < 8 || next%8 != 0 || next < len(recs) {
		t.Errorf("two clients: %d operations, next %d", len(recs), next)
	}
	// A client may have claimed one operation past the boundary before the
	// other reached it; never more.
	if extra := len(recs) % 8; extra > 1 {
		t.Errorf("two clients ran %d operations past a cycle boundary", extra)
	}
}

func TestThroughputIsTheMedianCycleRate(t *testing.T) {
	// Four cycles of two operations: three take 1 s each, one stalls for
	// 7 s. Over the whole window that is 0.8 operations a second; the
	// median cycle ran at 2.
	var recs []opRec
	for _, s := range []float64{0.5, 1, 1.5, 2, 5, 9, 9.5, 10} {
		recs = append(recs, opRec{done: time.Duration(s * float64(time.Second))})
	}
	if got := throughput(recs, 2); got != 2 {
		t.Errorf("throughput = %v, want 2", got)
	}
	// Fewer operations than one cycle: the plain rate.
	if got := throughput(recs[:1], 2); got != 2 {
		t.Errorf("throughput of half a cycle = %v, want 2", got)
	}
}

func TestTraceOverheadComparesTypeByType(t *testing.T) {
	// Type 1 costs ten times type 0; the traced leg ran more of type 1.
	// Pooled medians would report a large overhead; type by type it is 10 %.
	untraced := []opRec{{ms: 10, kind: 0}, {ms: 10, kind: 0}, {ms: 100, kind: 1}}
	traced := []opRec{{ms: 11, kind: 0}, {ms: 110, kind: 1}, {ms: 110, kind: 1}, {ms: 110, kind: 1}}
	if got := traceOverhead(untraced, traced); !near(got, 0.10) {
		t.Errorf("overhead = %v, want 0.10", got)
	}
}
