package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op; Parent is the id of the span that caused this one
// (-1 for an operation's root). Times are nanoseconds since the
// tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is filled in when the trace is written: the span's duration
	// minus the part of it its child spans cover.
	Self int64 `json:"self_ns"`
}

// count is a counter read at a layer boundary, e.g. the engine events an
// operation fired.
type count struct {
	Op    int     `json:"op"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// tracer is the in-memory span recorder of the traced run. It lives only
// in the benchmark: spans wrap the benchmark's own calls into a layer.
// A nil *tracer records nothing, which is how the untraced run shares
// the operation code.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	counts []count
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere — the stage
// timings a daemon persists with a run — as a child placed offset
// nanoseconds into its parent.
func (t *tracer) add(name string, parent, op int, offset, dur int64) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	base := t.spans[parent].Start + offset
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: base, End: base + dur})
	t.mu.Unlock()
}

func (t *tracer) count(op int, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts = append(t.counts, count{Op: op, Name: name, Value: v})
	t.mu.Unlock()
}

func (t *tracer) snapshot() ([]span, []count) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]count(nil), t.counts...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap one
// another (a status poll is in flight while the daemon executes) and may
// stick out of the parent; only the union of their intervals, clipped to
// the parent, is subtracted.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// perOp sums, per operation, the durations of every span named name, in
// milliseconds, and returns the per-operation totals in op order.
func perOp(spans []span, name string) []float64 {
	sums := map[int]float64{}
	for _, s := range spans {
		if s.Name == name {
			sums[s.Op] += float64(s.End-s.Start) / 1e6
		}
	}
	return inOpOrder(sums)
}

// childCounts returns, per operation, how many spans named child hang
// directly under a span named parent.
func childCounts(spans []span, parent, child string) []float64 {
	sums := map[int]float64{}
	for _, s := range spans {
		if s.Name == parent {
			sums[s.Op] += 0 // an operation with no such child still counts
		}
		if s.Name == child && s.Parent >= 0 && spans[s.Parent].Name == parent {
			sums[s.Op]++
		}
	}
	return inOpOrder(sums)
}

// countPerOp returns the per-operation totals of one counter.
func countPerOp(counts []count, name string) []float64 {
	sums := map[int]float64{}
	for _, c := range counts {
		if c.Name == name {
			sums[c.Op] += c.Value
		}
	}
	return inOpOrder(sums)
}

func inOpOrder(sums map[int]float64) []float64 {
	ops := make([]int, 0, len(sums))
	for op := range sums {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = sums[op]
	}
	return out
}

// maxSpansWritten bounds the trace file: service_read records several
// hundred thousand spans in a run, and the first operations show the
// shape as well as all of them.
const maxSpansWritten = 20000

// writeFile dumps the recorded spans and counts as JSON when the run
// ends.
func (t *tracer) writeFile(path, workload string, seed int64) error {
	spans, counts := t.snapshot()
	for i, self := range selfTimes(spans) {
		spans[i].Self = self
	}
	out := struct {
		Workload   string  `json:"workload"`
		Seed       int64   `json:"seed"`
		SpansTotal int     `json:"spans_total"`
		Spans      []span  `json:"spans"`
		Counts     []count `json:"counts"`
	}{Workload: workload, Seed: seed, SpansTotal: len(spans), Spans: spans, Counts: counts}
	if len(out.Spans) > maxSpansWritten {
		out.Spans = out.Spans[:maxSpansWritten]
	}
	if len(out.Counts) > maxSpansWritten {
		out.Counts = out.Counts[:maxSpansWritten]
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanCtx carries the span a client call runs under into the HTTP
// transport, so every request the service client makes on behalf of
// that call — each status poll inside Client.Wait — becomes a child
// span.
type spanCtx struct {
	tr         *tracer
	parent, op int
}

type spanCtxKey struct{}

func withSpan(ctx context.Context, tr *tracer, parent, op int) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{tr, parent, op})
}

// tracingTransport records one "http METHOD" span per request that
// carries a spanCtx.
type tracingTransport struct {
	base http.RoundTripper
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sc, ok := req.Context().Value(spanCtxKey{}).(spanCtx)
	if !ok {
		return tt.base.RoundTrip(req)
	}
	id := sc.tr.start("http "+req.Method, sc.parent, sc.op)
	resp, err := tt.base.RoundTrip(req)
	sc.tr.end(id)
	return resp, err
}
