package service_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// newAuthServer boots an authenticated daemon with three tenants:
// alice (1 live run, throttled), bob (unlimited) and ops (admin).
func newAuthServer(t *testing.T) (*service.Server, string) {
	t.Helper()
	auth, err := service.NewAuth([]service.TenantConfig{
		{Name: "alice", Token: "tok-alice", MaxQueued: 1},
		{Name: "bob", Token: "tok-bob"},
		{Name: "ratey", Token: "tok-ratey", RatePerMin: 1, Burst: 1},
		{Name: "ops", Token: "tok-ops", Admin: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, c := newTestServer(t, service.Config{Workers: 2, Auth: auth})
	return s, c.Base
}

func authClient(base, token string) *service.Client {
	c := service.NewClient(base)
	c.PollInterval = 20 * time.Millisecond
	c.Token = token
	return c
}

func TestAuthRequired(t *testing.T) {
	_, base := newAuthServer(t)
	ctx := context.Background()

	// Every API endpoint rejects missing and invalid tokens with 401
	// and a challenge; the liveness probe stays open.
	for _, token := range []string{"", "tok-wrong"} {
		c := authClient(base, token)
		_, _, err := c.Submit(ctx, fastSpec("auth"))
		apiErr, ok := err.(*service.Error)
		if !ok || apiErr.Status != 401 {
			t.Fatalf("token %q: submit error = %v, want 401", token, err)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/stats", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Errorf("unauthenticated stats status = %d, want 401", resp.StatusCode)
	}
	if got := resp.Header.Get("WWW-Authenticate"); !strings.Contains(got, "Bearer") {
		t.Errorf("WWW-Authenticate = %q, want a Bearer challenge", got)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz behind auth = %d, want open 200", resp.StatusCode)
	}

	// A valid token submits, and the run is accounted to its tenant.
	c := authClient(base, "tok-bob")
	v, _, err := c.Submit(ctx, fastSpec("auth"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Tenant != "bob" {
		t.Errorf("run tenant = %q, want bob", v.Tenant)
	}
	if _, err := c.Wait(ctx, v.ID, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuotaMaxQueued(t *testing.T) {
	_, base := newAuthServer(t)
	ctx := context.Background()
	alice := authClient(base, "tok-alice")

	// alice's quota is one live run; park a long one.
	long, _, err := alice.Submit(ctx, longSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Cancel(ctx, long.ID)

	_, _, err = alice.Submit(ctx, fastSpec("quota-over"))
	apiErr, ok := err.(*service.Error)
	if !ok || apiErr.Status != 429 {
		t.Fatalf("over-quota submit error = %v, want 429", err)
	}

	// The HTTP response carries a Retry-After the client can honor.
	resp := rawSubmit(t, base, "tok-alice", fastSpec("quota-over2"))
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("raw over-quota status = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}

	// Dedupe into the existing live run is free: identical physics
	// costs the pool nothing, so hits never count against the quota.
	v, hit, err := alice.Submit(ctx, longSpec())
	if err != nil || !hit || v.ID != long.ID {
		t.Errorf("same-spec submit over quota: v=%+v hit=%v err=%v, want a cache hit", v, hit, err)
	}

	// Another tenant is not throttled by alice's quota.
	bob := authClient(base, "tok-bob")
	bv, _, err := bob.Submit(ctx, fastSpec("quota-bob"))
	if err != nil {
		t.Fatalf("bob throttled by alice's quota: %v", err)
	}
	if _, err := bob.Wait(ctx, bv.ID, nil); err != nil {
		t.Fatal(err)
	}

	// Once alice's run is gone, her quota frees up.
	if _, err := alice.Cancel(ctx, long.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, alice, long.ID)
	freed, _, err := alice.Submit(ctx, fastSpec("quota-freed"))
	if err != nil {
		t.Fatalf("submit after freeing quota: %v", err)
	}
	if _, err := alice.Wait(ctx, freed.ID, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRateLimit(t *testing.T) {
	_, base := newAuthServer(t)
	ctx := context.Background()
	ratey := authClient(base, "tok-ratey")

	v, _, err := ratey.Submit(ctx, fastSpec("rate-1"))
	if err != nil {
		t.Fatal(err)
	}
	// 1/min with burst 1: the second submission inside the same minute
	// is refused — even a would-be cache hit, since the rate guards the
	// endpoint, not the execution.
	resp := rawSubmit(t, base, "tok-ratey", fastSpec("rate-1"))
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("second submission status = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 60 {
		t.Errorf("Retry-After = %q, want 1..60 seconds", resp.Header.Get("Retry-After"))
	}
	// Reads are not rate limited.
	if _, err := ratey.Wait(ctx, v.ID, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCancelOwnership(t *testing.T) {
	_, base := newAuthServer(t)
	ctx := context.Background()
	bob, alice, ops := authClient(base, "tok-bob"), authClient(base, "tok-alice"), authClient(base, "tok-ops")

	v, _, err := bob.Submit(ctx, fastSpec("owned"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = alice.Cancel(ctx, v.ID)
	apiErr, ok := err.(*service.Error)
	if !ok || apiErr.Status != 404 {
		t.Fatalf("cross-tenant cancel error = %v, want the unknown-run 404", err)
	}
	assertForeignCancelIsUnknown(t, base, "tok-alice", v.ID, "r999999")
	if _, err := ops.Cancel(ctx, v.ID); err != nil {
		t.Errorf("admin cancel: %v", err)
	}
	if _, err := bob.Cancel(ctx, v.ID); err != nil {
		t.Errorf("owner cancel: %v", err)
	}
}

// rawSubmit posts a spec with a raw HTTP client so headers are
// observable.
func rawSubmit(t *testing.T, base, token string, spec sim.RunSpec) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if err := spec.EncodeJSON(&body); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/runs", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitTerminal polls until the run leaves the live tier.
func waitTerminal(t *testing.T, c *service.Client, id string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		v, err := c.Get(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Terminal() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s still %s", id, v.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestListPaginationHTTP drives the list API end to end: filters,
// limit/cursor walking, the empty page past the end, and malformed
// parameters as 400s.
func TestListPaginationHTTP(t *testing.T) {
	_, c := newTestServer(t, service.Config{Workers: 2})
	ctx := context.Background()

	const n = 5
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		v, _, err := c.Submit(ctx, fastSpec(fmt.Sprintf("page-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	for _, id := range ids {
		if _, err := c.Wait(ctx, id, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Walk in pages of 2: 2 + 2 + 1, then the cursor runs dry.
	var walked []string
	cursor := ""
	for page := 0; ; page++ {
		if page > n {
			t.Fatal("pagination did not terminate")
		}
		runs, next, err := c.List(ctx, service.ListFilter{Limit: 2, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range runs {
			walked = append(walked, v.ID)
		}
		if next == "" {
			break
		}
		cursor = next
	}
	if strings.Join(walked, ",") != strings.Join(ids, ",") {
		t.Errorf("paged walk = %v, want submission order %v", walked, ids)
	}

	// A cursor past the end answers an empty page, not an error.
	runs, next, err := c.List(ctx, service.ListFilter{Limit: 2, Cursor: "999999"})
	if err != nil || len(runs) != 0 || next != "" {
		t.Errorf("cursor past end: runs=%d next=%q err=%v", len(runs), next, err)
	}
	// An empty store answers an empty page too.
	runs, _, err = c.List(ctx, service.ListFilter{State: "failed"})
	if err != nil || len(runs) != 0 {
		t.Errorf("no-match filter: runs=%d err=%v", len(runs), err)
	}
	// Name filtering narrows to one.
	runs, _, err = c.List(ctx, service.ListFilter{Name: "page-3"})
	if err != nil || len(runs) != 1 || runs[0].ID != ids[3] {
		t.Errorf("name filter = %+v, err=%v", runs, err)
	}

	// Malformed paging parameters are the caller's 400, never a silent
	// full listing.
	for _, q := range []string{"cursor=banana", "limit=-2", "limit=nope", "since=yesterday", "until=%3f"} {
		resp, err := http.Get(c.Base + "/v1/runs?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("GET /v1/runs?%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestListTenantScoping pins the listing's visibility rules on an
// authenticated daemon: non-admin tokens see their own tenant only —
// by default and by explicit name — and get a 403 (not an empty page)
// for any other tenant or the "all" pseudo-tenant; admin tokens keep
// the unscoped semantics.
func TestListTenantScoping(t *testing.T) {
	_, base := newAuthServer(t)
	ctx := context.Background()
	alice := authClient(base, "tok-alice")
	bob := authClient(base, "tok-bob")
	ops := authClient(base, "tok-ops")

	va, _, err := alice.Submit(ctx, fastSpec("scope-alice"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Wait(ctx, va.ID, nil); err != nil {
		t.Fatal(err)
	}
	vb, _, err := bob.Submit(ctx, fastSpec("scope-bob"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Wait(ctx, vb.ID, nil); err != nil {
		t.Fatal(err)
	}

	onlyTenant := func(runs []service.RunView, tenant string) bool {
		for _, r := range runs {
			if r.Tenant != tenant {
				return false
			}
		}
		return true
	}
	hasRun := func(runs []service.RunView, id string) bool {
		for _, r := range runs {
			if r.ID == id {
				return true
			}
		}
		return false
	}

	// Default and explicit-own listings are scoped to the caller.
	for _, f := range []service.ListFilter{{}, {Tenant: "alice"}} {
		runs, _, err := alice.List(ctx, f)
		if err != nil {
			t.Fatalf("alice list %+v: %v", f, err)
		}
		if !onlyTenant(runs, "alice") || !hasRun(runs, va.ID) || hasRun(runs, vb.ID) {
			t.Errorf("alice list %+v leaked: %+v", f, runs)
		}
	}

	// Any other tenant — or "all" — is refused outright.
	for _, tn := range []string{"bob", "all", "nosuch"} {
		_, _, err := alice.List(ctx, service.ListFilter{Tenant: tn})
		if apiErr, ok := err.(*service.Error); !ok || apiErr.Status != 403 {
			t.Errorf("alice list tenant=%q error = %v, want 403", tn, err)
		}
	}

	// Admin: unscoped by default and via "all", narrowable to anyone.
	for _, f := range []service.ListFilter{{}, {Tenant: "all"}} {
		runs, _, err := ops.List(ctx, f)
		if err != nil {
			t.Fatalf("ops list %+v: %v", f, err)
		}
		if !hasRun(runs, va.ID) || !hasRun(runs, vb.ID) {
			t.Errorf("ops list %+v missing runs: %+v", f, runs)
		}
	}
	runs, _, err := ops.List(ctx, service.ListFilter{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if !onlyTenant(runs, "alice") || !hasRun(runs, va.ID) {
		t.Errorf("ops tenant filter = %+v", runs)
	}
}
