// Package obs is the daemon's observability core: a dependency-free
// metrics registry (atomic counters, gauges and fixed-bucket
// histograms with Prometheus text exposition), a leveled key=value
// logger, and request-ID tracing helpers shared by the service and
// gateway HTTP layers.
//
// The package is deliberately free of third-party imports: the
// simulation engine's hot path must stay allocation-free and
// fingerprint-identical, so instrumentation is plain integer
// increments sampled out-of-band (see ARCHITECTURE.md "Observability
// layer"), and the exposition side is a few hundred lines of stdlib.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bounds in seconds —
// 1ms to 10s, the span an HTTP request or a scheduling wait lives in.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters never go down).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Add adjusts the gauge by d (negative to decrement).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one. Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets, plus a
// running sum — the Prometheus histogram model. Observe is lock-free.
type Histogram struct {
	uppers  []float64 // ascending upper bounds, +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending at %v", buckets[i]))
		}
	}
	h := &Histogram{uppers: buckets}
	h.counts = make([]atomic.Uint64, len(buckets)+1) // last = +Inf
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// family is one registered metric family: a name, its help/type
// metadata, and its children (one for the plain form, one per label
// combination for Vec forms).
type family struct {
	name    string
	help    string
	typ     string // counter|gauge|histogram
	labels  []string
	buckets []float64
	// fn, when set, supplies the single sample at exposition time
	// (GaugeFunc/CounterFunc).
	fn func() float64

	mu       sync.Mutex
	children map[string]*child
	order    []string
}

type child struct {
	labelStr string // rendered `k1="v1",k2="v2"`, "" for the plain form
	counter  *Counter
	gauge    *Gauge
	hist     *Histogram
}

func (f *family) child(lvs []string) *child {
	if len(lvs) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", f.name, len(f.labels), len(lvs)))
	}
	key := strings.Join(lvs, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	var sb strings.Builder
	for i, l := range f.labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(lvs[i]))
		sb.WriteByte('"')
	}
	c := &child{labelStr: sb.String()}
	switch f.typ {
	case "counter":
		c.counter = &Counter{}
	case "gauge":
		c.gauge = &Gauge{}
	case "histogram":
		c.hist = newHistogram(f.buckets)
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values (created on
// first use).
func (v *CounterVec) With(lvs ...string) *Counter { return v.fam.child(lvs).counter }

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(lvs ...string) *Histogram { return v.fam.child(lvs).hist }

// Registry holds named metric families and writes them in Prometheus
// text exposition format. Each server owns its own registry — there is
// no process-global state, so tests and embedded servers never
// interfere.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) register(name, help, typ string, labels []string, buckets []float64, fn func() float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if typ == "counter" && !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("obs: counter %q must end in _total", name))
	}
	if typ != "counter" && typ != "histogram" && strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("obs: %s %q must not end in _total", typ, name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: labels, buckets: buckets, fn: fn,
		children: map[string]*child{},
	}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// Counter registers (or returns) a plain counter. Name must end in
// _total.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, "counter", nil, nil, nil).child(nil).counter
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, "counter", labels, nil, nil)}
}

// Gauge registers (or returns) a plain gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, "gauge", nil, nil, nil).child(nil).gauge
}

// GaugeFunc registers a gauge whose value is read from fn at
// exposition time — the idiom for snapshot counters an existing
// subsystem already maintains.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", nil, nil, fn)
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time. The value must be monotone; name must end in
// _total.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", nil, nil, fn)
}

// Histogram registers a plain histogram. A nil buckets slice picks
// DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, "histogram", nil, buckets, nil).child(nil).hist
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, "histogram", labels, buckets, nil)}
}

// WritePrometheus writes every family in registration order in the
// text exposition format (v0.0.4): # HELP and # TYPE per family,
// histogram children as cumulative _bucket{le=...} plus _sum/_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		children := make([]*child, len(f.order))
		for i, k := range f.order {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		if f.fn == nil && len(children) == 0 {
			// A labeled family nothing has touched yet: emit nothing (a
			// HELP/TYPE pair with no samples is a lint violation).
			continue
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
			return err
		}
		if f.fn != nil {
			if _, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.fn())); err != nil {
				return err
			}
			continue
		}
		for _, c := range children {
			if err := writeChild(w, f, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeChild(w io.Writer, f *family, c *child) error {
	switch f.typ {
	case "counter":
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, braced(c.labelStr), c.counter.Value())
		return err
	case "gauge":
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, braced(c.labelStr), formatFloat(c.gauge.Value()))
		return err
	case "histogram":
		h := c.hist
		cum := uint64(0)
		for i, upper := range h.uppers {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bracedLE(c.labelStr, formatFloat(upper)), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.uppers)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bracedLE(c.labelStr, "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, braced(c.labelStr), formatFloat(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced(c.labelStr), h.Count())
		return err
	}
	return nil
}

func braced(labelStr string) string {
	if labelStr == "" {
		return ""
	}
	return "{" + labelStr + "}"
}

func bracedLE(labelStr, le string) string {
	if labelStr == "" {
		return `{le="` + le + `"}`
	}
	return "{" + labelStr + `,le="` + le + `"}`
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
