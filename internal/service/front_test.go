package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// frontTenants is the tenant table both fronts of the parity test
// authenticate against.
func frontTenants(t *testing.T) *service.Auth {
	t.Helper()
	auth, err := service.NewAuth([]service.TenantConfig{
		{Name: "alice", Token: "tok-alice"},
		{Name: "bob", Token: "tok-bob"},
		{Name: "ops", Token: "tok-ops", Admin: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return auth
}

var runIDPattern = regexp.MustCompile(`\b[rg](\d{6})\b`)

// normalizeFront erases what legitimately differs between a daemon's
// and a gateway's answer to the same request: the run-id prefix, wall
// clock timestamps and timings. Everything else must match.
func normalizeFront(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			switch k {
			case "submitted_at", "started_at", "finished_at":
				x[k] = "T"
			case "elapsed_ms", "serial_cost_ms", "speedup":
				x[k] = 0.0
			case "stages":
				// Retire-time stage timings live with the executing daemon;
				// a gateway relays them on proxied views only.
				delete(x, k)
			default:
				x[k] = normalizeFront(val)
			}
		}
		return x
	case []any:
		for i := range x {
			x[i] = normalizeFront(x[i])
		}
		return x
	case string:
		return runIDPattern.ReplaceAllString(x, "X$1")
	default:
		return v
	}
}

// frontCall sends one request as a tenant and returns the status and
// the normalized body (parsed JSON when it is JSON, else the raw text).
func frontCall(t *testing.T, base, token, method, path string, body []byte) (int, any) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("X-Request-ID", "front-parity")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var parsed any
	if json.Unmarshal(raw, &parsed) == nil {
		return resp.StatusCode, normalizeFront(parsed)
	}
	return resp.StatusCode, runIDPattern.ReplaceAllString(string(raw), "X$1")
}

// TestRunsFrontParity drives one request matrix against a daemon's and
// a gateway's handler and requires equal statuses and equal bodies
// (modulo id prefix, timestamps and timings): the /v1/runs surface is
// one front over two backends, so a client cannot tell which it talks
// to.
func TestRunsFrontParity(t *testing.T) {
	ctx := context.Background()
	_, daemon := newTestServer(t, service.Config{Workers: 2, Auth: frontTenants(t)})
	gw, gateway, workers := newFleet(t, 1, service.GatewayConfig{Auth: frontTenants(t)})
	heartbeatLoop(t, gw, workers, nil)
	fronts := []struct {
		name, base, prefix string
	}{{"daemon", daemon.Base, "r"}, {"gateway", gateway.Base, "g"}}

	var spec bytes.Buffer
	if err := fastSpec("parity").EncodeJSON(&spec); err != nil {
		t.Fatal(err)
	}
	invalid := fastSpec("parity-invalid")
	invalid.Racks = -1
	var invalidSpec bytes.Buffer
	if err := invalid.EncodeJSON(&invalidSpec); err != nil {
		t.Fatal(err)
	}
	oversized := []byte(`{"name":"` + strings.Repeat("a", 9<<20) + `"}`)

	// The first run of each front is id 000001; waitDone is the one step
	// that is not a plain request: it polls the run to completion.
	const waitDone = "WAIT"
	type step struct {
		name, token, method, path string
		body                      []byte
		want                      int
	}
	matrix := []step{
		{"submit", "tok-bob", "POST", "/v1/runs", spec.Bytes(), 201},
		{"wait", "tok-bob", waitDone, "", nil, 0},
		{"resubmit is a cache hit", "tok-bob", "POST", "/v1/runs", spec.Bytes(), 200},
		{"malformed spec", "tok-bob", "POST", "/v1/runs", []byte(`{"name":`), 400},
		{"invalid spec", "tok-bob", "POST", "/v1/runs", invalidSpec.Bytes(), 400},
		{"oversized body", "tok-bob", "POST", "/v1/runs", oversized, 400},
		{"list", "tok-bob", "GET", "/v1/runs", nil, 200},
		{"list as admin, all tenants", "tok-ops", "GET", "/v1/runs?tenant=all", nil, 200},
		{"list page", "tok-bob", "GET", "/v1/runs?limit=1", nil, 200},
		{"list past the cursor", "tok-bob", "GET", "/v1/runs?cursor=0", nil, 200},
		{"bad cursor", "tok-bob", "GET", "/v1/runs?cursor=nope", nil, 400},
		{"foreign tenant= is 403 before the bad cursor's 400", "tok-bob", "GET", "/v1/runs?tenant=alice&cursor=nope", nil, 403},
		{"get", "tok-bob", "GET", "/v1/runs/ID", nil, 200},
		{"get without report", "tok-bob", "GET", "/v1/runs/ID?report=0", nil, 200},
		{"report csv", "tok-bob", "GET", "/v1/runs/ID/report?format=csv", nil, 200},
		{"report unknown format", "tok-bob", "GET", "/v1/runs/ID/report?format=nope", nil, 400},
		{"series discovery", "tok-bob", "GET", "/v1/runs/ID/series", nil, 200},
		{"series bad res", "tok-bob", "GET", "/v1/runs/ID/series?metric=power&res=5m", nil, 400},
		{"metrics discovery", "tok-bob", "GET", "/v1/runs/ID/metrics", nil, 200},
		{"delete a finished run is a no-op", "tok-bob", "DELETE", "/v1/runs/ID", nil, 200},
		{"405 on the collection", "tok-bob", "PUT", "/v1/runs", nil, 405},
		{"405 on a run", "tok-bob", "PUT", "/v1/runs/ID", nil, 405},
		{"405 on report", "tok-bob", "POST", "/v1/runs/ID/report", nil, 405},
		{"405 on metrics", "tok-bob", "POST", "/v1/runs/ID/metrics", nil, 405},
		{"405 on series", "tok-bob", "DELETE", "/v1/runs/ID/series", nil, 405},
		{"405 on events", "tok-bob", "POST", "/v1/runs/ID/events", nil, 405},
		{"unknown sub-resource", "tok-bob", "GET", "/v1/runs/ID/bogus", nil, 404},
		{"missing id", "tok-bob", "GET", "/v1/runs/", nil, 404},
		{"unknown id", "tok-bob", "GET", "/v1/runs/UNKNOWN", nil, 404},
		{"unknown id report", "tok-bob", "GET", "/v1/runs/UNKNOWN/report", nil, 404},
		{"unknown id delete", "tok-bob", "DELETE", "/v1/runs/UNKNOWN", nil, 404},
		{"foreign get", "tok-alice", "GET", "/v1/runs/ID", nil, 404},
		{"foreign series", "tok-alice", "GET", "/v1/runs/ID/series", nil, 404},
		{"foreign delete", "tok-alice", "DELETE", "/v1/runs/ID", nil, 404},
		{"foreign list is empty", "tok-alice", "GET", "/v1/runs", nil, 200},
	}

	for _, st := range matrix {
		var statuses [2]int
		var bodies [2]any
		for i, f := range fronts {
			id := f.prefix + "000001"
			if st.method == waitDone {
				c := authClient(f.base, st.token)
				if v, err := c.Wait(ctx, id, nil); err != nil || v.State != service.StateDone {
					t.Fatalf("%s: run %s = %+v, %v; want done", f.name, id, v, err)
				}
				continue
			}
			path := strings.NewReplacer("ID", id, "UNKNOWN", f.prefix+"999999").Replace(st.path)
			statuses[i], bodies[i] = frontCall(t, f.base, st.token, st.method, path, st.body)
			if statuses[i] != st.want {
				t.Errorf("%s: %s %s %s = %d (%v), want %d", st.name, f.name, st.method, path, statuses[i], bodies[i], st.want)
			}
		}
		if !reflect.DeepEqual(bodies[0], bodies[1]) {
			d, _ := json.MarshalIndent(bodies[0], "", "  ")
			g, _ := json.MarshalIndent(bodies[1], "", "  ")
			t.Errorf("%s: bodies differ\ndaemon:  %s\ngateway: %s", st.name, d, g)
		}
	}
}

// TestListingReportsElapsedOfRunningRun pins the listing against the
// single GET: a run still executing reports wall-clock so far in both
// (listings used to render it through the stored-record path, whose
// missing finish time collapsed elapsed_ms to 0).
func TestListingReportsElapsedOfRunningRun(t *testing.T) {
	ctx := context.Background()
	_, daemon := newTestServer(t, service.Config{Workers: 1})
	gw, gateway, workers := newFleet(t, 1, service.GatewayConfig{})
	heartbeatLoop(t, gw, workers, nil)
	for name, c := range map[string]*service.Client{"daemon": daemon, "gateway": gateway} {
		v, _, err := c.Submit(ctx, longSpec())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer c.Cancel(ctx, v.ID)
		deadline := time.Now().Add(10 * time.Second)
		for v.State != service.StateRunning {
			if v.Terminal() || time.Now().After(deadline) {
				t.Fatalf("%s: run %s is %s, want running", name, v.ID, v.State)
			}
			time.Sleep(5 * time.Millisecond)
			if v, err = c.Get(ctx, v.ID); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		time.Sleep(5 * time.Millisecond)
		runs, _, err := c.List(ctx, service.ListFilter{State: string(service.StateRunning)})
		if err != nil || len(runs) != 1 || runs[0].ID != v.ID {
			t.Fatalf("%s: running listing = %+v, %v; want exactly %s", name, runs, err, v.ID)
		}
		if runs[0].ElapsedMS <= 0 {
			t.Errorf("%s: listed running run reports elapsed_ms = %v, want > 0", name, runs[0].ElapsedMS)
		}
	}
}

// TestListingsInSubmissionOrder lists several live entries of each
// registry — queued and running runs on a daemon, runs routed by a
// gateway, running twins — and pins the order each listing promises:
// submission order for runs, start order for twins.
func TestListingsInSubmissionOrder(t *testing.T) {
	ctx := context.Background()
	_, daemon := newTestServer(t, service.Config{Workers: 1})
	gw, gateway, workers := newFleet(t, 1, service.GatewayConfig{})
	heartbeatLoop(t, gw, workers, nil)
	for name, c := range map[string]*service.Client{"daemon": daemon, "gateway": gateway} {
		var ids []string
		for seed := int64(7); seed < 11; seed++ {
			spec := longSpec()
			spec.Workload.Seed = seed
			v, _, err := c.Submit(ctx, spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			defer c.Cancel(ctx, v.ID)
			ids = append(ids, v.ID)
		}
		runs, _, err := c.List(ctx, service.ListFilter{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var listed []string
		for _, v := range runs {
			listed = append(listed, v.ID)
		}
		if strings.Join(listed, ",") != strings.Join(ids, ",") {
			t.Errorf("%s: listing = %v, want submission order %v", name, listed, ids)
		}
	}

	var ids []string
	for _, name := range []string{"first", "second", "third", "fourth"} {
		v, err := daemon.StartTwin(ctx, pacedTwinSpec(name))
		if err != nil {
			t.Fatal(err)
		}
		defer daemon.StopTwin(ctx, v.ID)
		ids = append(ids, v.ID)
	}
	twins, err := daemon.ListTwins(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, v := range twins {
		listed = append(listed, v.ID)
	}
	if strings.Join(listed, ",") != strings.Join(ids, ",") {
		t.Errorf("twin listing = %v, want start order %v", listed, ids)
	}
}
