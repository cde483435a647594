package service_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tsdb"
)

// fastSpec is a sub-second single run: one rack, one simulated hour.
func fastSpec(name string) sim.RunSpec {
	return sim.RunSpec{
		Name:         name,
		Workload:     sim.WorkloadSpec{Kind: "smalljob", Seed: 42, DurationSec: 3600},
		Racks:        1,
		Policies:     []string{"SHUT"},
		CapFractions: []float64{0.6},
	}
}

// sweepSpec expands to four cells.
func sweepSpec() sim.RunSpec {
	return sim.RunSpec{
		Name:         "test-sweep",
		Workload:     sim.WorkloadSpec{Kind: "smalljob", Seed: 42, DurationSec: 3600},
		Racks:        1,
		Policies:     []string{"SHUT", "DVFS"},
		CapFractions: []float64{0.6, 0.4},
	}
}

// longSpec is long by construction, not by the engine's speed: a
// one-worker sweep of 64 full-Curie day-long cells, seconds of work on
// a 2-core box, so it is still in flight whenever a test looks. Every
// test that submits it cancels it; a test that waits for its run to end
// uses boundedSpec.
func longSpec() sim.RunSpec {
	return sim.RunSpec{
		Name:     "test-long",
		Workload: sim.WorkloadSpec{Kind: "24h", Seed: 7},
		Workers:  1,
		Policies: []string{"SHUT", "DVFS", "MIX", "IDLE"},
		CapFractions: []float64{0.3, 0.34, 0.38, 0.42, 0.46, 0.5, 0.54, 0.58,
			0.62, 0.66, 0.7, 0.74, 0.78, 0.82, 0.86, 0.9},
	}
}

// boundedSpec is the long run a test waits out: one heavy-tailed 5 h
// cell on 8 racks, long enough to be caught running (about 140 ms on a
// 2-core box) and short enough to finish. It is a single run, so its
// report carries no wall-clock field and compares byte for byte.
func boundedSpec() sim.RunSpec {
	return sim.RunSpec{
		Name:         "test-bounded",
		Workload:     sim.WorkloadSpec{Kind: "heavytail", Seed: 7},
		Racks:        8,
		Policies:     []string{"MIX"},
		CapFractions: []float64{0.5},
	}
}

func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *service.Client) {
	t.Helper()
	s := service.New(cfg)
	return s, serveTest(t, s)
}

// serveTest serves s over HTTP for the test's duration and returns a
// fast-polling client of it.
func serveTest(t *testing.T, s *service.Server) *service.Client {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	c := service.NewClient(ts.URL)
	c.PollInterval = 20 * time.Millisecond
	return c
}

func TestSubmitStatusReportMetrics(t *testing.T) {
	s, c := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	v, hit, err := c.Submit(ctx, fastSpec("single"))
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first submission reported a cache hit")
	}
	if v.State != service.StateQueued && v.State != service.StateRunning {
		t.Fatalf("fresh run state = %s", v.State)
	}

	v, err = c.Wait(ctx, v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != service.StateDone {
		t.Fatalf("state = %s (%s), want done", v.State, v.Error)
	}

	// The report endpoint renders through the sink pipeline.
	var ascii, jsonOut strings.Builder
	if err := c.WriteReport(ctx, v.ID, "ascii", sim.SinkOptions{Width: 60, Height: 8}, &ascii); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ascii.String(), "summary:") {
		t.Errorf("ascii report missing summary:\n%s", ascii.String())
	}
	if err := c.WriteReport(ctx, v.ID, "json", sim.SinkOptions{}, &jsonOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonOut.String(), "\"max_power_w\"") {
		t.Errorf("json report looks empty: %.200s", jsonOut.String())
	}

	// Telemetry must agree with the run's own sample series: the
	// collector fires once per recorded sample with identical values. The
	// engine is deterministic, so a local run of the spec holds exactly
	// the samples the daemon's run recorded.
	rep, err := sim.Run(ctx, fastSpec("single"))
	if err != nil {
		t.Fatal(err)
	}
	rs := s.TSDB().Lookup(v.ID)
	if rs == nil {
		t.Fatal("run recorded no telemetry")
	}
	for _, name := range []string{"power", "cap", "pending_cores", "running_jobs"} {
		pts, per, err := rs.Query(name, 0, 0, 0)
		if err != nil {
			t.Fatalf("query %s: %v", name, err)
		}
		if per != 1 {
			t.Errorf("%s answered at raw_per_point=%d, want raw", name, per)
		}
		if len(pts) != len(rep.Single.Samples) {
			t.Fatalf("%s holds %d points, report has %d samples", name, len(pts), len(rep.Single.Samples))
		}
	}
	pts, _, _ := rs.Query("power", 0, 0, 0)
	capPts, _, _ := rs.Query("cap", 0, 0, 0)
	for i, sm := range rep.Single.Samples {
		if pts[i].T != sm.T || pts[i].Mean != float64(sm.Power) {
			t.Fatalf("power[%d] = (%d, %v), sample = (%d, %v)", i, pts[i].T, pts[i].Mean, sm.T, float64(sm.Power))
		}
		if capPts[i].Mean != float64(sm.Cap) {
			t.Fatalf("cap[%d] = %v, sample cap = %v", i, capPts[i].Mean, float64(sm.Cap))
		}
	}

	// HTTP metrics endpoint: discovery then a downsampled query.
	resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/metrics", c.Base, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics discovery status %d", resp.StatusCode)
	}
}

// TestCacheHitDedupe pins the heavy-traffic story: 50 concurrent
// identical submissions collapse into one execution.
func TestCacheHitDedupe(t *testing.T) {
	s, c := newTestServer(t, service.Config{Workers: 2})
	ctx := context.Background()

	const n = 50
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ids  = map[string]int{}
		hits int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.Submit(ctx, fastSpec("dedupe"))
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			ids[v.ID]++
			if hit {
				hits++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(ids) != 1 {
		t.Fatalf("submissions landed on %d distinct runs, want 1: %v", len(ids), ids)
	}
	if hits != n-1 {
		t.Errorf("cache hits = %d, want %d", hits, n-1)
	}
	var id string
	for k := range ids {
		id = k
	}
	v, err := c.Wait(ctx, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != service.StateDone {
		t.Fatalf("state = %s (%s)", v.State, v.Error)
	}
	if v.CacheHits != n-1 {
		t.Errorf("run metadata cache_hits = %d, want %d", v.CacheHits, n-1)
	}
	st := s.Stats()
	if st.Executions != 1 {
		t.Errorf("executions = %d, want 1", st.Executions)
	}
	if st.CacheHits != n-1 {
		t.Errorf("stats cache hits = %d, want %d", st.CacheHits, n-1)
	}

	// A later identical submission hits the finished result instantly.
	v2, hit, err := c.Submit(ctx, fastSpec("dedupe"))
	if err != nil {
		t.Fatal(err)
	}
	if !hit || v2.ID != id || v2.State != service.StateDone {
		t.Errorf("post-completion resubmit: hit=%v id=%s state=%s", hit, v2.ID, v2.State)
	}
}

func TestCancelRunningPromptly(t *testing.T) {
	_, c := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	v, _, err := c.Submit(ctx, longSpec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		got, err := c.Get(ctx, v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == service.StateRunning {
			break
		}
		if got.Terminal() {
			t.Fatalf("run finished before it could be cancelled (state %s); grow longSpec", got.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	t0 := time.Now()
	if _, err := c.Cancel(ctx, v.ID); err != nil {
		t.Fatal(err)
	}
	got, err := c.Wait(ctx, v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != service.StateCancelled {
		t.Fatalf("state after cancel = %s", got.State)
	}
	if wait := time.Since(t0); wait > 10*time.Second {
		t.Errorf("cancellation took %v", wait)
	}

	// A fresh identical submission must re-execute, not serve the
	// cancelled run.
	v2, hit, err := c.Submit(ctx, longSpec())
	if err != nil {
		t.Fatal(err)
	}
	if hit || v2.ID == v.ID {
		t.Errorf("cancelled run served as a cache entry (hit=%v, id=%s)", hit, v2.ID)
	}
	if _, err := c.Cancel(ctx, v2.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, v2.ID, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCancelQueued(t *testing.T) {
	_, c := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	// Occupy the single worker, then queue a second run behind it.
	first, _, err := c.Submit(ctx, longSpec())
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := c.Submit(ctx, fastSpec("queued-cancel"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != service.StateCancelled {
		t.Fatalf("queued run state after cancel = %s, want cancelled immediately", v.State)
	}
	if _, err := c.Cancel(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, first.ID, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSSEEventOrdering reads the event stream of a sweep run and checks
// the protocol: queued, started, cells with increasing done counters,
// then done — and that a late subscriber replays the identical history.
func TestSSEEventOrdering(t *testing.T) {
	_, c := newTestServer(t, service.Config{Workers: 1, SweepWorkers: 2})
	ctx := context.Background()

	v, _, err := c.Submit(ctx, sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	readEvents := func() []string {
		resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/events", c.Base, v.ID))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("content type %q", ct)
		}
		var types []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "event: ") {
				types = append(types, strings.TrimPrefix(sc.Text(), "event: "))
			}
		}
		return types
	}

	live := readEvents() // follows until terminal
	want := []string{"queued", "started", "cell", "cell", "cell", "cell", "done"}
	if strings.Join(live, ",") != strings.Join(want, ",") {
		t.Fatalf("live event order = %v, want %v", live, want)
	}
	replay := readEvents() // late subscriber: history replay, then close
	if strings.Join(replay, ",") != strings.Join(live, ",") {
		t.Fatalf("replayed events %v != live %v", replay, live)
	}
}

func TestListFiltersAndErrors(t *testing.T) {
	_, c := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	a, _, err := c.Submit(ctx, fastSpec("list-a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Submit(ctx, fastSpec("list-b")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, a.ID, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.Base + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<20)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), a.ID) {
		t.Errorf("listing misses %s: %.300s", a.ID, body[:n])
	}

	if _, err := c.Get(ctx, "r999999"); err == nil {
		t.Error("unknown run id succeeded")
	} else if apiErr, ok := err.(*service.Error); !ok || apiErr.Status != 404 {
		t.Errorf("unknown run error = %v", err)
	}

	// A spec no controller would accept is refused at submit — an
	// unknown policy, or an option value rjms.New rejects — instead of
	// taking a queue slot and failing inside the worker.
	badPolicy := fastSpec("bad")
	badPolicy.Policies = []string{"NOPE"}
	badOption := fastSpec("bad")
	badOption.Options.BackfillDepth = -1
	for _, bad := range []sim.RunSpec{badPolicy, badOption} {
		if _, _, err := c.Submit(ctx, bad); err == nil {
			t.Error("invalid spec accepted")
		} else if apiErr, ok := err.(*service.Error); !ok || apiErr.Status != 400 {
			t.Errorf("invalid spec error = %v", err)
		}
	}
}

// TestShutdownDrains checks the SIGTERM path: queued runs cancel,
// running runs finish, later submissions are refused.
func TestShutdownDrains(t *testing.T) {
	s, c := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	// Occupy the single worker with a run long enough to still be in
	// flight when Shutdown fires, so the second submission stays queued,
	// and short enough for the drain to finish it.
	running, _, err := c.Submit(ctx, boundedSpec())
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := c.Submit(ctx, fastSpec("drain-queued"))
	if err != nil {
		t.Fatal(err)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	got, err := c.Get(ctx, running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != service.StateDone && got.State != service.StateCancelled {
		t.Errorf("in-flight run state after drain = %s", got.State)
	}
	gotQ, err := c.Get(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotQ.State != service.StateCancelled {
		t.Errorf("queued run state after drain = %s, want cancelled", gotQ.State)
	}
	if _, _, err := c.Submit(ctx, fastSpec("post-drain")); err == nil {
		t.Error("submission accepted while draining")
	} else if apiErr, ok := err.(*service.Error); !ok || apiErr.Status != 503 {
		t.Errorf("draining submit error = %v", err)
	}
}

// TestTSDBBoundsFromConfig checks the config plumbing into the store.
func TestTSDBBoundsFromConfig(t *testing.T) {
	s, c := newTestServer(t, service.Config{
		Workers: 1,
		TSDB:    tsdb.Options{PointsPerLevel: 8, Levels: 2},
	})
	ctx := context.Background()
	v, _, err := c.Submit(ctx, fastSpec("bounds"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, v.ID, nil); err != nil {
		t.Fatal(err)
	}
	rs := s.TSDB().Lookup(v.ID)
	if rs == nil {
		t.Fatal("no telemetry")
	}
	// The coarsest of two levels folds tsdb's fanout (4) raw points into
	// one and, like the finest, holds at most eight: whatever level
	// answers, it answers with at most eight points of at most four raw
	// samples.
	for _, res := range []int64{0, 1 << 40} {
		pts, per, err := rs.Query("power", 0, 0, res)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) > 8 || per > 4 {
			t.Errorf("res %d: %d points of %d raw samples each, want at most 8 of at most 4", res, len(pts), per)
		}
	}
}

// TestReportChartSizeBounded: an ASCII report's width and height are
// client integers the chart renderer allocates and loops by, so past
// their bounds they are refused with the 400 JSON error — by a daemon
// and, through the proxied query, by a gateway.
func TestReportChartSizeBounded(t *testing.T) {
	ctx := context.Background()
	_, daemon := newTestServer(t, service.Config{Workers: 1})
	_, gateway, _ := newFleet(t, 1, service.GatewayConfig{LeaseTTL: time.Hour})
	for name, c := range map[string]*service.Client{"daemon": daemon, "gateway": gateway} {
		v, _, err := c.Submit(ctx, fastSpec("chart-size"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, v.ID, nil); err != nil {
			t.Fatal(err)
		}
		for _, opt := range []sim.SinkOptions{{Width: 1000000}, {Height: 1000}, {Width: -1}} {
			var out bytes.Buffer
			err := c.WriteReport(ctx, v.ID, "ascii", opt, &out)
			var apiErr *service.Error
			if !errors.As(err, &apiErr) || apiErr.Status != 400 || !strings.Contains(apiErr.Msg, "want an integer in [0, ") {
				t.Errorf("%s: %+v rendered %d bytes, err %v; want the 400 JSON error", name, opt, out.Len(), err)
			}
		}
		var out bytes.Buffer
		if err := c.WriteReport(ctx, v.ID, "ascii", sim.SinkOptions{Width: 60, Height: 8}, &out); err != nil || out.Len() == 0 {
			t.Errorf("%s: 60x8 chart: %d bytes, err %v", name, out.Len(), err)
		}
	}
}
