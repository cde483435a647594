package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.")
	g := r.Gauge("test_depth", "Queue depth.")
	c.Add(3)
	g.Add(2.5)
	g.Add(-0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP test_ops_total Operations.\n",
		"# TYPE test_ops_total counter\n",
		"test_ops_total 3\n",
		"# TYPE test_depth gauge\n",
		"test_depth 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if problems := Lint(strings.NewReader(out)); len(problems) != 0 {
		t.Errorf("lint problems: %v", problems)
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_req_total", "Requests.", "route", "code")
	v.With("/v1/runs", "200").Inc()
	v.With("/v1/runs", "200").Inc()
	v.With(`/v1/"odd"`, "404").Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `test_req_total{route="/v1/runs",code="200"} 2`) {
		t.Errorf("missing labeled sample:\n%s", out)
	}
	if !strings.Contains(out, `test_req_total{route="/v1/\"odd\"",code="404"} 1`) {
		t.Errorf("label escaping broken:\n%s", out)
	}
	if problems := Lint(strings.NewReader(out)); len(problems) != 0 {
		t.Errorf("lint problems: %v", problems)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.1"} 2`, // 0.05 and the boundary 0.1
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="10"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_count 5`,
		`test_latency_seconds_sum 105.6`, // prefix: float accumulation may carry ulps
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if problems := Lint(strings.NewReader(out)); len(problems) != 0 {
		t.Errorf("lint problems: %v", problems)
	}
}

func TestGaugeAndCounterFunc(t *testing.T) {
	r := NewRegistry()
	n := 7.0
	r.GaugeFunc("test_live", "Live things.", func() float64 { return n })
	r.CounterFunc("test_seen_total", "Things seen.", func() float64 { return 41 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "test_live 7\n") || !strings.Contains(out, "test_seen_total 41\n") {
		t.Errorf("func samples missing:\n%s", out)
	}
	if problems := Lint(strings.NewReader(out)); len(problems) != 0 {
		t.Errorf("lint problems: %v", problems)
	}
}

func TestEmptyVecOmitted(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_unused_total", "Never touched.", "x")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("untouched vec family should emit nothing, got:\n%s", buf.String())
	}
}

func TestCounterNamePolicy(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("counter without _total", func() { r.Counter("test_bad", "x") })
	mustPanic("gauge with _total", func() { r.Gauge("test_bad_total", "x") })
	mustPanic("bad name", func() { r.Gauge("0bad", "x") })
	mustPanic("reshape", func() {
		r.Counter("test_dup_total", "x")
		r.GaugeFunc("test_dup_total", "x", func() float64 { return 0 })
	})
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_conc_seconds", "x", nil)
	c := r.Counter("test_conc_total", "x")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.01)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || c.Value() != 8000 {
		t.Errorf("count = %d/%d, want 8000", h.Count(), c.Value())
	}
}
