package service_test

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/twin"
)

// fastTwinSpec is a twin small enough to run to its horizon in well
// under a second: two one-rack members, one virtual hour, no pacing.
func fastTwinSpec(name string) twin.Spec {
	return twin.Spec{
		Name: name,
		Members: []twin.MemberSpec{
			{Name: "alpha", Workload: sim.WorkloadSpec{Kind: "bursty", Seed: 21, DurationSec: 1800, LoadFactor: 0.7}, Racks: 1},
			{Name: "beta", Workload: sim.WorkloadSpec{Kind: "smalljob", Seed: 22, DurationSec: 1800, LoadFactor: 0.4}, Racks: 1},
		},
		GlobalCapFraction: 0.6,
		EpochSec:          900,
		HorizonSec:        3600,
	}
}

// pacedTwinSpec never finishes on its own within a test's patience —
// the target for stop and drain paths.
func pacedTwinSpec(name string) twin.Spec {
	s := fastTwinSpec(name)
	s.HorizonSec = 7 * 24 * 3600
	s.RealTimeRatio = 900 // one epoch per wall second
	return s
}

// waitTwinState polls until the twin reaches a terminal state.
func waitTwinState(t *testing.T, c *service.Client, id string) service.TwinView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := c.Twin(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("twin %s did not finish: %+v", id, v)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestTwinLifecycleOverHTTP(t *testing.T) {
	s, c := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	// Pace the twin to ~100ms per epoch so the mutation below arrives
	// while the session is still short of its t=1800 boundary.
	spec := fastTwinSpec("lifecycle")
	spec.RealTimeRatio = 9000
	v, err := c.StartTwin(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v.ID, "t") {
		t.Fatalf("twin id = %q, want t-prefixed", v.ID)
	}
	if v.State != service.StateRunning {
		t.Fatalf("fresh twin state = %s", v.State)
	}

	// A mutation enqueued mid-flight lands in the applied log.
	if _, err := c.MutateTwin(ctx, v.ID, twin.Mutation{Op: twin.OpSetBudget, AtSec: 1800, BudgetFraction: 0.3}); err != nil {
		t.Fatal(err)
	}

	final := waitTwinState(t, c, v.ID)
	if final.State != service.StateDone {
		t.Fatalf("twin finished %s: %s", final.State, final.Error)
	}
	if !final.Status.Finished || final.Status.VirtualTime != 3600 {
		t.Fatalf("final status: %+v", final.Status)
	}
	if len(final.Mutations) != 1 || final.Mutations[0].Err != "" || final.Mutations[0].AtEpoch != 1800 {
		t.Fatalf("mutation log: %+v", final.Mutations)
	}
	if final.Spec == nil || final.Spec.Division != "demand" {
		t.Fatalf("single GET carries no normalized spec: %+v", final.Spec)
	}

	// The budget series reflects the cut: both endpoint and client.
	sr, err := c.TwinSeries(ctx, v.ID, "budget", service.SeriesQuery{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after float64
	for _, p := range sr.Points {
		if p.T < 1800 {
			before = p.Mean
		}
		if p.T == 1800 {
			after = p.Mean
		}
	}
	if before <= 0 || after >= before {
		t.Fatalf("budget mutation invisible in series: before=%v after=%v", before, after)
	}

	// Discovery mode enumerates per-member and site series.
	names, err := c.TwinSeries(ctx, v.ID, "", service.SeriesQuery{})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(names.Metrics, ",")
	for _, want := range []string{"alpha/power", "beta/cap", "power", "budget", "signal"} {
		if !strings.Contains(got, want) {
			t.Errorf("series enumeration %q missing %q", got, want)
		}
	}

	// Stats fold the (now finished) twin into the counters.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TwinsTotal != 1 || st.TwinsLive != 0 {
		t.Errorf("stats twins = %d live / %d total, want 0/1", st.TwinsLive, st.TwinsTotal)
	}

	// The listing shows the twin without the heavy payloads.
	twins, err := c.ListTwins(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(twins) != 1 || twins[0].ID != v.ID || twins[0].Spec != nil || twins[0].Mutations != nil {
		t.Fatalf("listing = %+v", twins)
	}

	// Mutating a finished twin is a 409.
	_, err = c.MutateTwin(ctx, v.ID, twin.Mutation{Op: twin.OpSetBudget, BudgetFraction: 0.5})
	if apiErr, ok := err.(*service.Error); !ok || apiErr.Status != 409 {
		t.Fatalf("mutate finished twin error = %v, want 409", err)
	}
	_ = s
}

func TestTwinStopAndEvents(t *testing.T) {
	_, c := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	v, err := c.StartTwin(ctx, pacedTwinSpec("stop"))
	if err != nil {
		t.Fatal(err)
	}

	// Stream SSE until the started event shows up.
	req, _ := http.NewRequest(http.MethodGet, c.Base+"/v1/twin/"+v.ID+"/events", nil)
	sseCtx, sseCancel := context.WithTimeout(ctx, 10*time.Second)
	defer sseCancel()
	resp, err := http.DefaultClient.Do(req.WithContext(sseCtx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	scanner := bufio.NewScanner(resp.Body)
	sawStarted := false
	for scanner.Scan() {
		if strings.Contains(scanner.Text(), "event: started") {
			sawStarted = true
			break
		}
	}
	if !sawStarted {
		t.Fatal("SSE stream never delivered the started event")
	}

	stopped, err := c.StopTwin(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	_ = stopped
	final := waitTwinState(t, c, v.ID)
	if final.State != service.StateCancelled {
		t.Fatalf("stopped twin state = %s", final.State)
	}
	// Stopping again is a readable no-op.
	again, err := c.StopTwin(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != service.StateCancelled {
		t.Fatalf("re-stop state = %s", again.State)
	}
}

func TestTwinBadSpecAndBadMutation(t *testing.T) {
	_, c := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	bad := fastTwinSpec("bad")
	bad.GlobalCapFraction = 2
	_, err := c.StartTwin(ctx, bad)
	if apiErr, ok := err.(*service.Error); !ok || apiErr.Status != 400 {
		t.Fatalf("bad spec error = %v, want 400", err)
	}

	v, err := c.StartTwin(ctx, pacedTwinSpec("mutate-bad"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopTwin(ctx, v.ID)
	_, err = c.MutateTwin(ctx, v.ID, twin.Mutation{Op: "explode"})
	if apiErr, ok := err.(*service.Error); !ok || apiErr.Status != 400 {
		t.Fatalf("bad mutation error = %v, want 400", err)
	}
	_, err = c.Twin(ctx, "t999999")
	if apiErr, ok := err.(*service.Error); !ok || apiErr.Status != 404 {
		t.Fatalf("unknown twin error = %v, want 404", err)
	}
}

// TestTwinTenancy pins the oracle-closing contract: a foreign tenant's
// GET answers byte-identically to a never-issued id's, writes are 403
// only for callers who can already read the twin, and listings are
// tenant-scoped.
func TestTwinTenancy(t *testing.T) {
	_, base := newAuthServer(t)
	ctx := context.Background()
	alice := authClient(base, "tok-alice")
	bob := authClient(base, "tok-bob")
	ops := authClient(base, "tok-ops")

	v, err := alice.StartTwin(ctx, pacedTwinSpec("tenancy"))
	if err != nil {
		t.Fatal(err)
	}
	defer alice.StopTwin(ctx, v.ID)
	if v.Tenant != "alice" {
		t.Fatalf("twin tenant = %q", v.Tenant)
	}

	// Byte-identical 404: bob probing alice's id vs a free id. A fixed
	// X-Request-ID keeps the echoed request_id out of the comparison.
	readBody := func(id string) (int, string) {
		req, _ := http.NewRequest(http.MethodGet, base+"/v1/twin/"+strings.ReplaceAll(id, "{}", ""), nil)
		req.Header.Set("X-Request-ID", "twin-probe")
		req.Header.Set("Authorization", "Bearer tok-bob")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	fs, foreign := readBody(v.ID)
	us, unknown := readBody("t999999")
	if fs != 404 || us != 404 {
		t.Fatalf("statuses = %d, %d, want 404, 404", fs, us)
	}
	foreign = strings.ReplaceAll(foreign, v.ID, "ID")
	unknown = strings.ReplaceAll(unknown, "t999999", "ID")
	if foreign != unknown {
		t.Fatalf("foreign and unknown twin bodies differ:\nforeign: %s\nunknown: %s", foreign, unknown)
	}

	// Foreign mutate and stop answer the same 404 (bob cannot read the
	// twin, so the ownership layer never confirms it exists).
	_, err = bob.MutateTwin(ctx, v.ID, twin.Mutation{Op: twin.OpSetBudget, BudgetFraction: 0.5})
	if apiErr, ok := err.(*service.Error); !ok || apiErr.Status != 404 {
		t.Fatalf("foreign mutate error = %v, want 404", err)
	}
	_, err = bob.StopTwin(ctx, v.ID)
	if apiErr, ok := err.(*service.Error); !ok || apiErr.Status != 404 {
		t.Fatalf("foreign stop error = %v, want 404", err)
	}
	_, err = bob.TwinSeries(ctx, v.ID, "budget", service.SeriesQuery{})
	if apiErr, ok := err.(*service.Error); !ok || apiErr.Status != 404 {
		t.Fatalf("foreign series error = %v, want 404", err)
	}

	// Listings: bob sees nothing, the admin sees alice's twin.
	bobs, err := bob.ListTwins(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(bobs) != 0 {
		t.Fatalf("bob's listing = %+v", bobs)
	}
	all, err := ops.ListTwins(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].Tenant != "alice" {
		t.Fatalf("admin listing = %+v", all)
	}

	// The owner and the admin can read and mutate.
	if _, err := alice.MutateTwin(ctx, v.ID, twin.Mutation{Op: twin.OpSetBudget, BudgetFraction: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := ops.Twin(ctx, v.ID); err != nil {
		t.Fatal(err)
	}
}

// TestTwinDrainOnShutdown pins the drain discipline: live twins are
// cancelled, their goroutines joined, and new twins are refused while
// draining.
func TestTwinDrainOnShutdown(t *testing.T) {
	s := service.New(service.Config{Workers: 1})
	v, err := s.StartTwinAs(service.TenantConfig{}, pacedTwinSpec("drain"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	got, err := s.TwinAs(service.TenantConfig{Admin: true}, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != service.StateCancelled {
		t.Fatalf("drained twin state = %s", got.State)
	}
	if _, err := s.StartTwinAs(service.TenantConfig{}, fastTwinSpec("late")); err == nil {
		t.Fatal("draining daemon accepted a twin")
	}
}

// TestMetricsEndpoint pins the Prometheus exposition: open behind
// auth, carrying the run and twin gauges.
func TestMetricsEndpoint(t *testing.T) {
	_, base := newAuthServer(t)
	ctx := context.Background()
	alice := authClient(base, "tok-alice")
	v, err := alice.StartTwin(ctx, pacedTwinSpec("metrics"))
	if err != nil {
		t.Fatal(err)
	}
	defer alice.StopTwin(ctx, v.ID)

	resp, err := http.Get(base + "/metrics") // no token on purpose
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("unauthenticated /metrics status = %d, want open 200", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{"simd_runs ", "simd_twins_live 1", "simd_twins_total 1", "# TYPE simd_twins_live gauge"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}
