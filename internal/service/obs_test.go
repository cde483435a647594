package service_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// scrapeMetrics GETs a /metrics endpoint and returns the exposition.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the v0.0.4 exposition type", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue sums every sample of one family (all label sets) in an
// exposition. Returns -1 when the family has no samples at all.
func metricValue(body, family string) float64 {
	sum, found := 0.0, false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		// Exact family only: the next byte must open labels or
		// whitespace, not extend the name (simd_runs vs simd_runs_queued).
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		sum += v
		found = true
	}
	if !found {
		return -1
	}
	return sum
}

// TestDaemonMetricsUnderLoad drives a daemon through a submission, a
// dedupe and a scrape, then checks the exposition is promlint-clean and
// that the instruments actually moved: HTTP route histograms, scheduler
// wait, engine counters sampled from the hot path, cache-tier hits.
func TestDaemonMetricsUnderLoad(t *testing.T) {
	_, c := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	v, _, err := c.Submit(ctx, fastSpec("obs-load"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, v.ID, nil); err != nil {
		t.Fatal(err)
	}
	// Same spec again: a cache hit on some tier.
	if _, hit, err := c.Submit(ctx, fastSpec("obs-load")); err != nil || !hit {
		t.Fatalf("resubmit = hit %v err %v, want a cache hit", hit, err)
	}

	body := scrapeMetrics(t, c.Base)
	if problems := obs.Lint(strings.NewReader(body)); len(problems) > 0 {
		t.Errorf("daemon /metrics has lint problems:\n  %s", strings.Join(problems, "\n  "))
	}

	for family, min := range map[string]float64{
		"simd_http_requests_total":       1,
		"simd_sched_wait_seconds_count":  1,
		"simd_run_stage_seconds_count":   2, // at least queued+execute observed
		"simd_engine_events_total":       1,
		"simd_engine_sched_passes_total": 1,
		"simd_cache_tier_hits_total":     1,
		"simd_executions_total":          1,
		"simd_cache_hits_total":          1,
	} {
		if got := metricValue(body, family); got < min {
			t.Errorf("%s = %v, want >= %v", family, got, min)
		}
	}
	// The projection memo is gone from the engine, and its series with it.
	if strings.Contains(body, "simd_engine_projection_memo_total") {
		t.Errorf("exposition still carries simd_engine_projection_memo_total")
	}
	// Route labels are templated, never raw ids.
	if !strings.Contains(body, `route="/v1/runs"`) {
		t.Errorf("exposition lacks the /v1/runs route label")
	}
	if strings.Contains(body, v.ID) {
		t.Errorf("exposition leaks a raw run id (%s) into labels", v.ID)
	}
}

// TestGatewayMetricsUnderLoad checks the gateway exposition: its own
// namespace (HTTP, dispatch, membership) plus the fleet-aggregated
// snapshot, all promlint-clean.
func TestGatewayMetricsUnderLoad(t *testing.T) {
	gw, c, workers := newFleet(t, 1, service.GatewayConfig{})
	heartbeatLoop(t, gw, workers, nil) // newFleet's 200ms lease lapses mid-run under -race
	ctx := context.Background()

	v, _, err := c.Submit(ctx, fastSpec("gw-obs"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, v.ID, nil); err != nil {
		t.Fatal(err)
	}

	body := scrapeMetrics(t, c.Base)
	if problems := obs.Lint(strings.NewReader(body)); len(problems) > 0 {
		t.Errorf("gateway /metrics has lint problems:\n  %s", strings.Join(problems, "\n  "))
	}
	for family, min := range map[string]float64{
		"simd_gateway_http_requests_total": 1,
		"simd_gateway_members_alive":       1,
		"simd_gateway_dispatches_total":    1,
		"simd_fleet_members_alive":         1,
		"simd_fleet_runs":                  1,
		"simd_fleet_runs_done":             1,
		"simd_fleet_executions_total":      1,
	} {
		if got := metricValue(body, family); got < min {
			t.Errorf("%s = %v, want >= %v", family, got, min)
		}
	}
}

// syncBuf is a goroutine-safe log sink: watchers and handlers keep
// logging while the test reads.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDEndToEnd pins the trace thread: one client-chosen
// X-Request-ID must surface in the gateway's logs, in the worker's logs
// (carried across the dispatch hop), and in the error body of a failed
// call — the operator's grep key across the whole fleet.
func TestRequestIDEndToEnd(t *testing.T) {
	var gwLog, wLog syncBuf
	worker := service.New(service.Config{
		Workers: 1,
		Logger:  obs.NewLogger(&wLog, obs.LevelDebug),
	})
	wts := httptest.NewServer(worker.Handler())
	gw := service.NewGateway(service.GatewayConfig{
		PollInterval: 10 * time.Millisecond,
		RetryDelay:   10 * time.Millisecond,
		Logger:       obs.NewLogger(&gwLog, obs.LevelDebug),
	})
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
		worker.Shutdown(ctx)
		gts.Close()
		wts.Close()
	})
	if _, err := gw.Register("w1", wts.URL); err != nil {
		t.Fatal(err)
	}

	const traceID = "e2e-trace-0042"
	c := service.NewClient(gts.URL)
	c.PollInterval = 10 * time.Millisecond
	ctx := obs.WithRequestID(context.Background(), traceID)
	v, _, err := c.Submit(ctx, fastSpec("trace-e2e"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, v.ID, nil); err != nil {
		t.Fatal(err)
	}

	needle := "request_id=" + traceID
	if !strings.Contains(gwLog.String(), needle) {
		t.Errorf("gateway log lacks %q:\n%s", needle, gwLog.String())
	}
	if !strings.Contains(wLog.String(), needle) {
		t.Errorf("worker log lacks %q (the id did not survive the dispatch hop):\n%s", needle, wLog.String())
	}

	// A failed call echoes the id in its body, so the error a user
	// pastes into a ticket already names the trace.
	req, _ := http.NewRequest(http.MethodGet, gts.URL+"/v1/runs/g999999", nil)
	req.Header.Set(obs.RequestIDHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown run GET = %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(string(body), fmt.Sprintf("%q: %q", "request_id", traceID)) {
		t.Errorf("error body lacks the request id: %s", body)
	}
	if resp.Header.Get(obs.RequestIDHeader) != traceID {
		t.Errorf("response header %s = %q, want %q", obs.RequestIDHeader, resp.Header.Get(obs.RequestIDHeader), traceID)
	}
}

// readSSEUntil reads an SSE stream line-by-line until the predicate
// matches a line or the deadline passes.
func readSSEUntil(t *testing.T, base, path string, timeout time.Duration, want func(line string) bool) bool {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s status = %d", path, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if want(sc.Text()) {
			return true
		}
	}
	return false
}

// TestSSEKeepaliveDaemon pins the keepalive comment frames on a
// daemon's event stream: a long-running run's stream carries ": ..."
// comments between real events, so idle proxies never reap it.
func TestSSEKeepaliveDaemon(t *testing.T) {
	c := serveTest(t, service.NewWithKeepalive(service.Config{Workers: 1}, 20*time.Millisecond))
	ctx := context.Background()
	v, _, err := c.Submit(ctx, longSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel(ctx, v.ID)

	found := readSSEUntil(t, c.Base, "/v1/runs/"+v.ID+"/events", 5*time.Second,
		func(line string) bool { return strings.HasPrefix(line, ": keepalive") })
	if !found {
		t.Fatal("no keepalive comment frame on the daemon event stream")
	}
}

// TestSSEKeepaliveGatewayRelay pins that a worker's keepalive frames
// survive the gateway's event proxy: the relay flushes per chunk and
// never strips comment frames.
func TestSSEKeepaliveGatewayRelay(t *testing.T) {
	worker := service.NewWithKeepalive(service.Config{Workers: 1}, 20*time.Millisecond)
	wts := httptest.NewServer(worker.Handler())
	gw := service.NewGateway(service.GatewayConfig{
		PollInterval: 10 * time.Millisecond,
		RetryDelay:   10 * time.Millisecond,
	})
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
		worker.Shutdown(ctx)
		gts.Close()
		wts.Close()
	})
	if _, err := gw.Register("w1", wts.URL); err != nil {
		t.Fatal(err)
	}

	c := service.NewClient(gts.URL)
	c.PollInterval = 10 * time.Millisecond
	ctx := context.Background()
	v, _, err := c.Submit(ctx, longSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel(ctx, v.ID)

	// Wait until the run is executing on the worker — a still-queued
	// run answers events locally (and closes), not via the relay.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, err := c.Get(ctx, v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never started (state %s)", cur.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	found := readSSEUntil(t, gts.URL, "/v1/runs/"+v.ID+"/events", 5*time.Second,
		func(line string) bool { return strings.HasPrefix(line, ": keepalive") })
	if !found {
		t.Fatal("no keepalive comment frame relayed through the gateway event proxy")
	}
}

// TestStageTimingsOnRunView pins the per-run stage breakdown: a
// finished run's view reports queued/setup/execute/render timings. Wait
// returns the first terminal view, which can come before retire has
// rendered and archived the run; the run turns terminal with its
// queued, setup and execute stages already stamped
// (TestTerminalViewCarriesStages holds a run inside retire to show it),
// so the view read after Wait always carries them.
func TestStageTimingsOnRunView(t *testing.T) {
	_, c := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()
	v, _, err := c.Submit(ctx, fastSpec("stages"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, v.ID, nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stages == nil {
		t.Fatal("finished run view has no stage timings")
	}
	if got.Stages.ExecuteMS <= 0 {
		t.Errorf("ExecuteMS = %v, want > 0", got.Stages.ExecuteMS)
	}
	if got.Stages.QueuedMS < 0 || got.Stages.SetupMS < 0 || got.Stages.RenderMS < 0 {
		t.Errorf("negative stage timing: %+v", *got.Stages)
	}
}

// gatedArchive is an archive whose Put waits for the test, holding a
// done run inside retire: execution is over, the handoff to the store
// tiers has not happened.
type gatedArchive struct {
	*service.MemStore
	entered, release chan struct{}
}

func (g *gatedArchive) Put(rec service.Record) error {
	g.entered <- struct{}{}
	<-g.release
	return g.MemStore.Put(rec)
}

// A run turns terminal with its stage timings. While retire is still
// writing the archive — after execution, before the handoff to the
// store tiers — the run already reads done, with its execute stage and
// no archive time; once the write is released the stored view adds it.
func TestTerminalViewCarriesStages(t *testing.T) {
	arch := &gatedArchive{MemStore: service.NewMemStore(0, nil), entered: make(chan struct{}), release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(arch.release) }) }
	_, c := newTestServer(t, service.Config{Workers: 1, Archive: arch})
	t.Cleanup(release) // runs before the server's shutdown, which waits on the write
	ctx := context.Background()
	v, _, err := c.Submit(ctx, fastSpec("gated-archive"))
	if err != nil {
		t.Fatal(err)
	}
	<-arch.entered
	mid, err := c.Get(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.State != service.StateDone || mid.Stages == nil || mid.Stages.ExecuteMS <= 0 || mid.Stages.ArchiveMS != 0 {
		t.Fatalf("run inside retire reads %s with stages %+v, want done with an execute stage and no archive time", mid.State, mid.Stages)
	}
	release()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		got, err := c.Get(ctx, v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stages == nil || got.Stages.ExecuteMS != mid.Stages.ExecuteMS {
			t.Fatalf("stages went from %+v to %+v", *mid.Stages, got.Stages)
		}
		if got.Stages.ArchiveMS > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no archive time 10 s after the write was released: %+v", *got.Stages)
		}
	}
}

// TestPprofGating pins the profiler's exposure matrix: open daemons
// serve it, authed daemons 401 anonymous callers (the generic auth
// wall), 404 non-admin tenants (indistinguishable from the route not
// existing) and 200 admins.
func TestPprofGating(t *testing.T) {
	get := func(base, token, path string) int {
		req, _ := http.NewRequest(http.MethodGet, base+path, nil)
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	t.Run("open daemon", func(t *testing.T) {
		_, c := newTestServer(t, service.Config{Workers: 1})
		if got := get(c.Base, "", "/debug/pprof/heap"); got != 200 {
			t.Errorf("open daemon heap profile = %d, want 200", got)
		}
	})
	t.Run("authed daemon", func(t *testing.T) {
		_, base := newAuthServer(t)
		if got := get(base, "", "/debug/pprof/heap"); got != 401 {
			t.Errorf("anonymous heap profile = %d, want 401", got)
		}
		if got := get(base, "tok-alice", "/debug/pprof/heap"); got != 404 {
			t.Errorf("non-admin heap profile = %d, want 404", got)
		}
		if got := get(base, "tok-ops", "/debug/pprof/heap"); got != 200 {
			t.Errorf("admin heap profile = %d, want 200", got)
		}
	})
	t.Run("authed gateway", func(t *testing.T) {
		auth, err := service.NewAuth([]service.TenantConfig{
			{Name: "alice", Token: "tok-alice"},
			{Name: "ops", Token: "tok-ops", Admin: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		gw := service.NewGateway(service.GatewayConfig{Auth: auth})
		ts := httptest.NewServer(gw.Handler())
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			gw.Shutdown(ctx)
			ts.Close()
		})
		if got := get(ts.URL, "", "/debug/pprof/heap"); got != 401 {
			t.Errorf("anonymous gateway heap profile = %d, want 401", got)
		}
		if got := get(ts.URL, "tok-alice", "/debug/pprof/heap"); got != 404 {
			t.Errorf("non-admin gateway heap profile = %d, want 404", got)
		}
		if got := get(ts.URL, "tok-ops", "/debug/pprof/heap"); got != 200 {
			t.Errorf("admin gateway heap profile = %d, want 200", got)
		}
		// /metrics stays open on an authed gateway, like /healthz.
		if got := get(ts.URL, "", "/metrics"); got != 200 {
			t.Errorf("anonymous gateway /metrics = %d, want 200", got)
		}
	})
}
