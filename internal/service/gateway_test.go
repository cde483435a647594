package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
)

// fleetWorker is one worker daemon behind a test gateway.
type fleetWorker struct {
	name string
	srv  *service.Server
	ts   *httptest.Server
}

// kill severs the worker's HTTP surface — the fleet-visible equivalent
// of the process dying. The embedded Server keeps draining in Cleanup.
func (w *fleetWorker) kill() { w.ts.Close() }

// newFleet boots a gateway with n registered workers. The gateway is
// tuned for test time scales: fast polls, fast dispatch retries, a
// short lease.
func newFleet(t *testing.T, n int, cfg service.GatewayConfig) (*service.Gateway, *service.Client, []*fleetWorker) {
	t.Helper()
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 10 * time.Millisecond
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 10 * time.Millisecond
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 200 * time.Millisecond
	}
	gw := service.NewGateway(cfg)
	gwTS := httptest.NewServer(gw.Handler())
	workers := make([]*fleetWorker, n)
	for i := range workers {
		srv := service.New(service.Config{Workers: 2})
		ts := httptest.NewServer(srv.Handler())
		workers[i] = &fleetWorker{name: fmt.Sprintf("w%d", i+1), srv: srv, ts: ts}
		if _, err := gw.Register(workers[i].name, ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
		gwTS.Close()
		for _, w := range workers {
			w.srv.Shutdown(ctx)
			w.ts.Close()
		}
	})
	c := service.NewClient(gwTS.URL)
	c.PollInterval = 10 * time.Millisecond
	return gw, c, workers
}

// heartbeatLoop keeps the named workers' leases alive for the duration
// of the test (manual registration has no FleetMember renewing them).
func heartbeatLoop(t *testing.T, gw *service.Gateway, workers []*fleetWorker, skip func(name string) bool) {
	t.Helper()
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		tick := time.NewTicker(30 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for _, w := range workers {
				if skip == nil || !skip(w.name) {
					_ = gw.Heartbeat(w.name)
				}
			}
		}
	}()
}

// TestRendezvousPickProperties pins the routing function: it is
// deterministic, and removing one member only moves the hashes that
// member owned — every other hash keeps its worker (and its worker's
// warm result cache).
func TestRendezvousPickProperties(t *testing.T) {
	members := []string{"w1", "w2", "w3"}
	without := []string{"w1", "w3"}
	moved := 0
	for i := 0; i < 64; i++ {
		hash := fmt.Sprintf("spec-hash-%03d", i)
		pick := service.RendezvousPick(members, hash)
		if again := service.RendezvousPick(members, hash); again != pick {
			t.Fatalf("hash %s: pick not deterministic (%s then %s)", hash, pick, again)
		}
		after := service.RendezvousPick(without, hash)
		if pick == "w2" {
			moved++
			if after == "w2" {
				t.Fatalf("hash %s still routed to removed member", hash)
			}
		} else if after != pick {
			t.Fatalf("hash %s moved from %s to %s though %s is still alive", hash, pick, after, pick)
		}
	}
	if moved == 0 {
		t.Fatal("no hash was owned by w2 — the distribution test is vacuous")
	}
	if service.RendezvousPick(nil, "anything") != "" {
		t.Error("empty member set should pick nobody")
	}
}

// TestFleetRoutesAndDedupes drives the happy path through a 2-worker
// fleet: a submission routes to a worker and completes; the gateway's
// view carries gateway ids; resubmitting the identical spec is a
// gateway-level cache hit; the proxied report matches a single daemon's
// bytes.
func TestFleetRoutesAndDedupes(t *testing.T) {
	gw, c, workers := newFleet(t, 2, service.GatewayConfig{LeaseTTL: time.Hour})
	_ = workers
	ctx := context.Background()

	v, hit, err := c.Submit(ctx, fastSpec("fleet-basic"))
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first submission reported a cache hit")
	}
	if v.ID == "" || v.ID[0] != 'g' {
		t.Fatalf("gateway run id = %q, want the g-prefixed namespace", v.ID)
	}
	done, err := c.Wait(ctx, v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.StateDone {
		t.Fatalf("run finished %s (%s), want done", done.State, done.Error)
	}
	if done.ID != v.ID {
		t.Errorf("proxied view id = %q, want the gateway id %q", done.ID, v.ID)
	}

	// Identical spec: deduped at the gateway, same run, no new dispatch.
	v2, hit, err := c.Submit(ctx, fastSpec("fleet-basic"))
	if err != nil {
		t.Fatal(err)
	}
	if !hit || v2.ID != v.ID {
		t.Errorf("resubmit: id=%s hit=%v, want a cache hit on %s", v2.ID, hit, v.ID)
	}

	// The proxied report is byte-identical to a single daemon's
	// rendering of the same spec — routing must not change physics.
	var gatewayReport bytes.Buffer
	if err := c.WriteReport(ctx, v.ID, "json", sim.SinkOptions{}, &gatewayReport); err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	localSrv, localClient := newTestServer(t, service.Config{Workers: 1})
	lv, _, err := localClient.Submit(ctx, fastSpec("fleet-basic"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := localClient.Wait(ctx, lv.ID, nil); err != nil {
		t.Fatal(err)
	}
	if err := localSrv.RenderReport(lv.ID, "json", sim.SinkOptions{}, &local); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gatewayReport.Bytes(), local.Bytes()) {
		t.Errorf("fleet report differs from single-daemon report (%d vs %d bytes)", gatewayReport.Len(), local.Len())
	}

	st := gw.Stats(ctx)
	if st.Gateway.CacheHits != 1 || st.Gateway.Done < 1 {
		t.Errorf("gateway stats = %+v, want 1 cache hit and a done run", st.Gateway)
	}
}

// TestFleetFailover is the fleet's headline guarantee: SIGKILL a worker
// mid-run and the gateway requeues its in-flight runs onto a survivor,
// where the deterministic engine reproduces a byte-identical report.
// The client never sees an error — just a run that goes back to queued
// and then completes.
func TestFleetFailover(t *testing.T) {
	gw, c, workers := newFleet(t, 2, service.GatewayConfig{LeaseTTL: 200 * time.Millisecond})
	ctx := context.Background()
	var (
		killedMu sync.Mutex
		killed   string
	)
	heartbeatLoop(t, gw, workers, func(name string) bool {
		killedMu.Lock()
		defer killedMu.Unlock()
		return name == killed
	})

	v, _, err := c.Submit(ctx, boundedSpec())
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the run is actually executing on a worker.
	deadline := time.Now().Add(20 * time.Second)
	var assigned string
	for assigned == "" {
		if time.Now().After(deadline) {
			t.Fatal("run never started on a worker")
		}
		for _, m := range gw.Fleet().Members {
			if m.Runs > 0 {
				if vv, err := c.Get(ctx, v.ID); err == nil && vv.State == service.StateRunning {
					assigned = m.Name
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill it mid-run.
	killedMu.Lock()
	killed = assigned
	killedMu.Unlock()
	for _, w := range workers {
		if w.name == assigned {
			w.kill()
		}
	}

	done, err := c.Wait(ctx, v.ID, nil)
	if err != nil {
		t.Fatalf("waiting through failover: %v", err)
	}
	if done.State != service.StateDone {
		t.Fatalf("run finished %s (%s), want done after requeue", done.State, done.Error)
	}
	st := gw.Stats(ctx)
	if st.Gateway.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1 (the kill must have been observed)", st.Gateway.Requeues)
	}

	// The survivor's report matches a single daemon's bytes exactly.
	var fleetReport bytes.Buffer
	if err := c.WriteReport(ctx, v.ID, "json", sim.SinkOptions{}, &fleetReport); err != nil {
		t.Fatal(err)
	}
	localSrv, localClient := newTestServer(t, service.Config{Workers: 1})
	lv, _, err := localClient.Submit(ctx, boundedSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := localClient.Wait(ctx, lv.ID, nil); err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if err := localSrv.RenderReport(lv.ID, "json", sim.SinkOptions{}, &local); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetReport.Bytes(), local.Bytes()) {
		t.Errorf("post-failover report differs from single-daemon report (%d vs %d bytes)", fleetReport.Len(), local.Len())
	}
}

// TestFleetQueuesWithNoWorkers: submissions to an empty fleet are
// accepted and dispatch as soon as a worker joins — the retry
// scheduler's reason to exist.
func TestFleetQueuesWithNoWorkers(t *testing.T) {
	gw, c, _ := newFleet(t, 0, service.GatewayConfig{LeaseTTL: time.Hour})
	ctx := context.Background()

	v, _, err := c.Submit(ctx, fastSpec("fleet-empty"))
	if err != nil {
		t.Fatal(err)
	}
	if v.State != service.StateQueued {
		t.Fatalf("empty-fleet submission state = %s, want queued", v.State)
	}

	srv := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})
	if _, err := gw.Register("late-joiner", ts.URL); err != nil {
		t.Fatal(err)
	}

	done, err := c.Wait(ctx, v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.StateDone {
		t.Fatalf("run finished %s (%s), want done once a worker joined", done.State, done.Error)
	}
}

// TestGatewayTenancy pins the gateway's auth surface: per-run reads
// hide foreign runs behind the identical unknown-run 404, cancels stay
// 403, and the fleet-management endpoints demand an admin token.
func TestGatewayTenancy(t *testing.T) {
	auth, err := service.NewAuth([]service.TenantConfig{
		{Name: "alice", Token: "tok-alice"},
		{Name: "bob", Token: "tok-bob"},
		{Name: "ops", Token: "tok-ops", Admin: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, c, _ := newFleet(t, 1, service.GatewayConfig{LeaseTTL: time.Hour, Auth: auth})
	base := c.Base
	ctx := context.Background()

	bob := authClient(base, "tok-bob")
	v, _, err := bob.Submit(ctx, fastSpec("gw-tenancy"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Wait(ctx, v.ID, nil); err != nil {
		t.Fatal(err)
	}
	if v.Tenant != "bob" {
		t.Errorf("gateway run tenant = %q, want bob", v.Tenant)
	}

	// Foreign reads: the unknown-run 404, byte for byte, on the run and
	// every proxied subresource.
	for _, sub := range []string{"", "/report", "/metrics", "/series", "/events"} {
		status, body := getPath(t, base, "tok-alice", "/v1/runs/"+v.ID+sub)
		if status != 404 {
			t.Errorf("foreign gateway GET %s status = %d, want 404", sub, status)
		}
		if body != unknownRunBody(v.ID) {
			t.Errorf("foreign gateway GET %s body = %q, want %q", sub, body, unknownRunBody(v.ID))
		}
	}
	// Owner and admin read through the proxy.
	for _, token := range []string{"tok-bob", "tok-ops"} {
		status, body := getPath(t, base, token, "/v1/runs/"+v.ID+"/report?format=json")
		if status != 200 {
			t.Errorf("%s gateway report status = %d (%s), want 200", token, status, body)
		}
	}
	// Foreign cancel: the unknown-run 404, as on a daemon.
	assertForeignCancelIsUnknown(t, base, "tok-alice", v.ID, "g999999")

	// Fleet management: tenants are refused, admins pass.
	status, _ := getPath(t, base, "tok-alice", "/v1/fleet")
	if status != 403 {
		t.Errorf("tenant GET /v1/fleet status = %d, want 403", status)
	}
	status, body := getPath(t, base, "tok-ops", "/v1/fleet")
	if status != 200 {
		t.Errorf("admin GET /v1/fleet status = %d (%s), want 200", status, body)
	}
	// Joining needs admin credentials too.
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/fleet/join",
		bytes.NewReader([]byte(`{"name":"rogue","url":"http://127.0.0.1:1"}`)))
	req.Header.Set("Authorization", "Bearer tok-alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Errorf("tenant join status = %d, want 403", resp.StatusCode)
	}
}

// TestJoinBodyDecoding: the fleet endpoints decode their bodies like
// every other POST — unknown fields and bodies past the bound are the
// 400 JSON error, and a well-formed join still registers.
func TestJoinBodyDecoding(t *testing.T) {
	gw, c, _ := newFleet(t, 0, service.GatewayConfig{LeaseTTL: time.Hour})
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(c.Base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct{ Error string }
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	oversized := `{"name":"w1","url":"http://127.0.0.1:1","x":"` + strings.Repeat("a", 8<<20) + `"}`
	for _, tc := range []struct{ path, body, want string }{
		{"/v1/fleet/join", `{"name":"w1","url":"http://127.0.0.1:1","weight":2}`, `service: decoding join: json: unknown field "weight"`},
		{"/v1/fleet/join", oversized, "service: decoding join: http: request body too large"},
		{"/v1/fleet/heartbeat", `{"name":"w1","lease":"1h"}`, `service: decoding heartbeat: json: unknown field "lease"`},
	} {
		if status, msg := post(tc.path, tc.body); status != http.StatusBadRequest || msg != tc.want {
			t.Errorf("POST %s (%d bytes) = %d %q, want 400 %q", tc.path, len(tc.body), status, msg, tc.want)
		}
	}
	if n := len(gw.Fleet().Members); n != 0 {
		t.Fatalf("refused joins registered %d members", n)
	}
	if status, msg := post("/v1/fleet/join", `{"name":"w1","url":"http://127.0.0.1:1"}`); status != http.StatusOK {
		t.Errorf("well-formed join = %d %q, want 200", status, msg)
	}
}

// TestFleetMemberLeaseProtocol drives the worker-side join loop against
// a live gateway: it registers, heartbeats inside the lease, and
// re-registers after the gateway forgets it.
func TestFleetMemberLeaseProtocol(t *testing.T) {
	gw, c, _ := newFleet(t, 0, service.GatewayConfig{LeaseTTL: 150 * time.Millisecond})

	srv := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	fm := &service.FleetMember{
		Gateway:   c.Base,
		Name:      "joiner",
		Advertise: ts.URL,
		Interval:  25 * time.Millisecond,
	}
	go fm.Run(ctx)

	alive := func() bool {
		for _, m := range gw.Fleet().Members {
			if m.Name == "joiner" && m.Alive {
				return true
			}
		}
		return false
	}
	waitFor := func(what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !alive() {
			if time.Now().After(deadline) {
				t.Fatalf("worker never %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("joined")

	// The lease outlives several TTLs because heartbeats renew it, and a
	// submission routes to the joined worker.
	time.Sleep(400 * time.Millisecond)
	if !alive() {
		t.Fatal("lease lapsed despite heartbeats")
	}
	v, _, err := c.Submit(context.Background(), fastSpec("fleet-member"))
	if err != nil {
		t.Fatal(err)
	}
	if done, err := c.Wait(context.Background(), v.ID, nil); err != nil || done.State != service.StateDone {
		t.Fatalf("run via joined worker: state=%v err=%v", done.State, err)
	}
}

// TestGatewayTwinRoutesAre501 pins the gateway's answer on the twin
// surface: a JSON 501 through writeErr (request id stamped) behind the
// auth wall, not the mux's plain-text 404.
func TestGatewayTwinRoutesAre501(t *testing.T) {
	auth, err := service.NewAuth([]service.TenantConfig{{Name: "alice", Token: "tok-alice"}})
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
	do := func(method, path, token string) (*http.Response, string) {
		req, _ := http.NewRequest(method, ts.URL+path, nil)
		req.Header.Set(obs.RequestIDHeader, "twin-501-trace")
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}
	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/v1/twin"},
		{http.MethodGet, "/v1/twin"},
		{http.MethodGet, "/v1/twin/t000001/series"},
	} {
		resp, body := do(tc.method, tc.path, "tok-alice")
		if resp.StatusCode != 501 {
			t.Errorf("%s %s = %d, want 501", tc.method, tc.path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s %s content type = %q, want JSON", tc.method, tc.path, ct)
		}
		for _, want := range []string{`"request_id": "twin-501-trace"`, "daemon-only"} {
			if !strings.Contains(body, want) {
				t.Errorf("%s %s body lacks %q: %s", tc.method, tc.path, want, body)
			}
		}
	}
	if resp, _ := do(http.MethodGet, "/v1/twin", ""); resp.StatusCode != 401 {
		t.Errorf("anonymous /v1/twin = %d, want 401", resp.StatusCode)
	}
}
