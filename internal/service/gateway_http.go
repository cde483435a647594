package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Handler returns the gateway's HTTP API — the daemon /v1 surface plus
// the fleet endpoints:
//
//	POST   /v1/runs                 submit (routed to a worker)
//	GET    /v1/runs                 list routed runs (daemon filters)
//	GET    /v1/runs/{id}            status (+ report), proxied live
//	DELETE /v1/runs/{id}            cancel, proxied to the worker
//	GET    /v1/runs/{id}/report     proxied report rendering
//	GET    /v1/runs/{id}/metrics    proxied telemetry
//	GET    /v1/runs/{id}/series     proxied single-metric query
//	GET    /v1/runs/{id}/events     proxied SSE progress stream
//	GET    /v1/stats                fleet-wide stats (gateway + members)
//	GET    /v1/fleet                member table
//	POST   /v1/fleet/join           worker registration {name, url}
//	POST   /v1/fleet/heartbeat      lease renewal {name}
//	*      /v1/twin, /v1/twin/...   501: twin sessions are daemon-only
//	GET    /healthz                 liveness
//
// Clients cannot tell a gateway from a daemon on the /v1/runs surface:
// ids, errors, tenancy and cache-hit semantics match. The twin surface
// is the one exception: a gateway routes no twin sessions and says so
// with a JSON 501 (behind the same auth as everything else) rather
// than the mux's plain-text 404 — address a worker directly. With Auth
// configured the same bearer rules apply, and the fleet endpoints
// additionally require an admin token — workers join with operator
// credentials, tenants never see the member table.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, 200, g.Stats(r.Context()))
	})
	mux.HandleFunc("/v1/fleet", g.adminOnly(g.handleFleet))
	mux.HandleFunc("/v1/fleet/join", g.adminOnly(g.handleJoin))
	mux.HandleFunc("/v1/fleet/heartbeat", g.adminOnly(g.handleHeartbeat))
	mux.HandleFunc("/metrics", g.handleMetrics)
	mux.HandleFunc("/v1/twin", twinsAreDaemonOnly)
	mux.HandleFunc("/v1/twin/", twinsAreDaemonOnly)
	return apiShell(mux, g, g.cfg.Auth, g.met.httpMet, g.cfg.Logger.Component("gateway-http"))
}

// twinsAreDaemonOnly answers the twin routes on a gateway: a twin is a
// long-lived session pinned to the daemon that runs it, which the
// gateway's stateless dispatch does not route.
func twinsAreDaemonOnly(w http.ResponseWriter, r *http.Request) {
	writeErr(w, &Error{Status: 501, Msg: "twin sessions are daemon-only; address a worker directly"})
}

// handleMetrics is the gateway's Prometheus exposition: its own
// families plus the fleet-aggregated simd_fleet_* snapshot (which fans
// out to every member's /v1/stats, like GET /v1/stats does).
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, errMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = g.met.scrape(w, g.Stats(r.Context()))
}

// adminOnly gates fleet management behind operator tokens on
// authenticated gateways.
func (g *Gateway) adminOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if g.cfg.Auth != nil && !requestTenant(r).Admin {
			writeErr(w, &Error{Status: 403, Msg: "gateway: fleet endpoints require an admin token"})
			return
		}
		h(w, r)
	}
}

// serveSub is the gateway's sub-resource half of the runs front: it
// forwards a per-run read to the assigned worker, translating the run
// id both ways. Unassigned runs answer from gateway state (a queued run
// has no report, telemetry or events yet); a worker that fails
// mid-proxy is declared dead — the client retries and finds the run
// requeued.
func (g *Gateway) serveSub(w http.ResponseWriter, r *http.Request, id, sub string) {
	// The front resolved the id for this caller already, and routed runs
	// are never dropped.
	g.mu.Lock()
	gr := g.runs[id]
	g.mu.Unlock()
	m, workerRunID, local := g.assignment(gr)
	if m == nil || workerRunID == "" {
		switch sub {
		case "report":
			writeErr(w, &Error{Status: 409, Msg: fmt.Sprintf("service: run %s is %s; report not ready", id, local.State)})
		case "events":
			g.localEvents(w, r, local)
		default:
			writeErr(w, &Error{Status: 404, Msg: fmt.Sprintf("run %s recorded no telemetry", id)})
		}
		return
	}

	path := "/v1/runs/" + workerRunID + "/" + sub
	if raw := r.URL.RawQuery; raw != "" {
		path += "?" + raw
	}
	resp, err := m.client.request(r.Context(), http.MethodGet, path, nil)
	if err != nil {
		g.met.proxyErrors.Inc()
		if g.baseCtx.Err() == nil && r.Context().Err() == nil {
			g.markDead(m.name)
		}
		writeErr(w, &Error{Status: 503, Msg: fmt.Sprintf("gateway: worker %s unreachable; run requeued", m.name)})
		return
	}
	defer resp.Body.Close()

	switch sub {
	case "metrics", "series":
		// Small JSON bodies naming the worker's run id — rewrite it.
		g.patchRunField(w, resp, id)
	default:
		// report: opaque rendering; events: SSE stream. Neither carries
		// run ids — relay verbatim, flushing per chunk so live event
		// streams stay live.
		copyResponse(w, resp)
	}
}

// patchRunField relays a JSON response, rewriting its "run" field into
// the gateway's id namespace. A body past maxSpecBytes is a 502, never
// a truncated relay.
func (g *Gateway) patchRunField(w http.ResponseWriter, resp *http.Response, gwID string) {
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxSpecBytes+1))
	if err != nil {
		writeErr(w, &Error{Status: 502, Msg: fmt.Sprintf("gateway: reading worker response: %v", err)})
		return
	}
	if len(body) > maxSpecBytes {
		writeErr(w, &Error{Status: 502, Msg: fmt.Sprintf("gateway: worker response exceeds %d bytes", maxSpecBytes)})
		return
	}
	if resp.StatusCode >= 400 {
		relayBody(w, resp.StatusCode, resp.Header.Get("Content-Type"), body)
		return
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		relayBody(w, resp.StatusCode, resp.Header.Get("Content-Type"), body)
		return
	}
	if _, ok := m["run"]; ok {
		m["run"] = gwID
	}
	writeJSON(w, resp.StatusCode, m)
}

func relayBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	if contentType != "" {
		w.Header().Set("Content-Type", contentType)
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// copyResponse relays status, content type and body, flushing as bytes
// arrive (SSE streams must not buffer).
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "" {
		w.Header().Set("Cache-Control", cc)
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// localEvents streams the events a gateway-held run has: the queued
// marker, plus the terminal marker for runs that ended without ever
// reaching a worker. The stream closes after the replay — assigned
// runs get the worker's live (keepalive-bearing) stream proxied
// instead.
func (g *Gateway) localEvents(w http.ResponseWriter, r *http.Request, v RunView) {
	serveSSE(w, r, 0, func(ctx context.Context, emit func(Event) error) error {
		if err := emit(Event{Seq: 0, Type: "queued"}); err != nil {
			return err
		}
		if v.Terminal() {
			return emit(Event{Seq: 1, Type: string(v.State), Error: v.Error})
		}
		return nil
	})
}

// joinRequest is the POST /v1/fleet/join body.
type joinRequest struct {
	// Name is the worker's stable identity (rendezvous hashing keys on
	// it — renaming a worker moves its cache affinity).
	Name string `json:"name"`
	// URL is the worker's advertised base address, reachable from the
	// gateway.
	URL string `json:"url"`
}

// joinResponse tells the worker its heartbeat deadline.
type joinResponse struct {
	// LeaseTTL is the Go duration string the worker must heartbeat
	// within.
	LeaseTTL string `json:"lease_ttl"`
}

func (g *Gateway) handleJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, errMethodNotAllowed)
		return
	}
	var req joinRequest
	if err := decodeBody(w, r, "join", &req); err != nil {
		writeErr(w, err)
		return
	}
	ttl, err := g.Register(req.Name, req.URL)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, 200, joinResponse{LeaseTTL: ttl.String()})
}

func (g *Gateway) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, errMethodNotAllowed)
		return
	}
	var req joinRequest
	if err := decodeBody(w, r, "heartbeat", &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := g.Heartbeat(req.Name); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, 200, map[string]string{"status": "ok"})
}

func (g *Gateway) handleFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, errMethodNotAllowed)
		return
	}
	writeJSON(w, 200, g.Fleet())
}
