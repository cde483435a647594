package service_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// getPath GETs an authenticated path and returns status + body. Every
// probe carries the same fixed X-Request-ID: error bodies echo the
// request ID, so the byte-identical-404 comparisons below need the
// client-controlled ID the middleware adopts, not a fresh random one.
func getPath(t *testing.T, base, token, path string) (int, string) {
	t.Helper()
	return doPath(t, http.MethodGet, base, token, path)
}

func doPath(t *testing.T, method, base, token, path string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "tenancy-probe")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// unknownRunBody is the exact wire body an id that never existed
// answers (for getPath's fixed request ID) — the reference bytes the
// foreign-tenant 404 must match.
func unknownRunBody(id string) string {
	return fmt.Sprintf("{\n  \"error\": \"service: unknown run \\\"%s\\\"\",\n  \"request_id\": \"tenancy-probe\"\n}\n", id)
}

// assertForeignCancelIsUnknown pins the write side of the oracle fix: a
// tenant's DELETE of someone else's run answers 404 with exactly the
// bytes a DELETE of an id that never existed answers — a 403 would
// confirm the (sequential) id is taken.
func assertForeignCancelIsUnknown(t *testing.T, base, token, foreignID, unknownID string) {
	t.Helper()
	for _, id := range []string{foreignID, unknownID} {
		status, body := doPath(t, http.MethodDelete, base, token, "/v1/runs/"+id)
		if status != 404 || body != unknownRunBody(id) {
			t.Errorf("%s DELETE %s = %d %q, want 404 %q", token, id, status, body, unknownRunBody(id))
		}
	}
}

// TestCrossTenantReads404 pins the read-side ownership matrix: on an
// authenticated daemon, every per-run GET — the run itself and each
// subresource — answers a foreign tenant with the byte-identical 404 an
// unknown id gets. A 403 would confirm the id exists; with sequential
// run ids that is an enumeration oracle over other tenants' activity.
// Owners and admins keep full access, and cross-tenant DELETE answers
// the same unknown-run 404.
func TestCrossTenantReads404(t *testing.T) {
	_, base := newAuthServer(t)
	ctx := context.Background()
	bob := authClient(base, "tok-bob")

	v, _, err := bob.Submit(ctx, fastSpec("read-matrix"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Wait(ctx, v.ID, nil); err != nil {
		t.Fatal(err)
	}

	subresources := []string{"", "/report", "/metrics", "/series", "/events"}

	// The reference: a run id that never existed, probed on every verb.
	for _, sub := range subresources {
		status, body := getPath(t, base, "tok-alice", "/v1/runs/r999999"+sub)
		if status != 404 {
			t.Errorf("unknown id GET %s status = %d, want 404", sub, status)
		}
		if sub == "" && body != unknownRunBody("r999999") {
			t.Errorf("unknown id body = %q, want %q", body, unknownRunBody("r999999"))
		}
	}

	// Foreign tenant: same 404, same body bytes, on every subresource.
	for _, sub := range subresources {
		status, body := getPath(t, base, "tok-alice", "/v1/runs/"+v.ID+sub)
		if status != 404 {
			t.Errorf("foreign GET %s status = %d, want 404", sub, status)
		}
		if body != unknownRunBody(v.ID) {
			t.Errorf("foreign GET %s body = %q, want the unknown-run bytes %q", sub, body, unknownRunBody(v.ID))
		}
	}

	// Owner and admin read everything.
	for _, token := range []string{"tok-bob", "tok-ops"} {
		for _, sub := range subresources {
			status, body := getPath(t, base, token, "/v1/runs/"+v.ID+sub)
			if status != 200 {
				t.Errorf("%s GET %s status = %d (%s), want 200", token, sub, status, body)
			}
		}
	}

	// Foreign cancel: the same unknown-run 404, for a stored run here
	// and a live one below.
	assertForeignCancelIsUnknown(t, base, "tok-alice", v.ID, "r999999")

	// A live (running) run hides from foreign tenants the same way.
	long, _, err := bob.Submit(ctx, longSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Cancel(ctx, long.ID)
	status, body := getPath(t, base, "tok-alice", "/v1/runs/"+long.ID)
	if status != 404 || body != unknownRunBody(long.ID) {
		t.Errorf("foreign GET of live run = %d %q, want the unknown-run 404", status, body)
	}
	assertForeignCancelIsUnknown(t, base, "tok-alice", long.ID, "r999998")
	if lv, err := bob.Get(ctx, long.ID); err != nil || lv.Terminal() {
		t.Errorf("foreign cancel touched the run: %+v, %v", lv, err)
	}
}

// TestListScopeBeforeValidation pins the check ordering on the list
// endpoint: an unauthorized cross-tenant listing is refused with 403
// even when the request also carries a malformed parameter. Answering
// the 400 first would let a tenant distinguish "param invalid" from
// "param invalid AND scope denied" and probe scope rules it cannot
// pass.
func TestListScopeBeforeValidation(t *testing.T) {
	_, base := newAuthServer(t)

	// Malformed cursor + foreign tenant: the scope refusal wins.
	status, refusal := getPath(t, base, "tok-alice", "/v1/runs?tenant=bob&cursor=banana")
	if status != 403 {
		t.Errorf("foreign tenant + bad cursor status = %d (%s), want 403", status, refusal)
	}
	if !strings.Contains(refusal, "admin token") {
		t.Errorf("scope refusal body = %q, want the admin-token message", refusal)
	}
	// Same malformed cursor inside the caller's own scope: a plain 400.
	status, _ = getPath(t, base, "tok-alice", "/v1/runs?tenant=alice&cursor=banana")
	if status != 400 {
		t.Errorf("own tenant + bad cursor status = %d, want 400", status)
	}
	// Admins skip scoping and hit validation directly.
	status, _ = getPath(t, base, "tok-ops", "/v1/runs?tenant=bob&cursor=banana")
	if status != 400 {
		t.Errorf("admin + bad cursor status = %d, want 400", status)
	}
}
