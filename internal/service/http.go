package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tsdb"
)

// decodeBody decodes a POST body into v, the one decoder of every
// request body: at most maxSpecBytes (a bounded body keeps a hostile or
// broken client from ballooning the process's memory), unknown fields
// refused, and any failure the 400 "service: decoding <what>: <why>".
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &Error{Status: 400, Msg: fmt.Sprintf("service: decoding %s: %v", what, err)}
	}
	return nil
}

// maxSpecBytes bounds a submission body. The largest checked-in spec is
// ~3 KB; 8 MiB leaves three orders of magnitude of headroom for huge
// generated cell lists while still bounding memory per request.
const maxSpecBytes = 8 << 20

// tenantKey carries the authenticated tenant through request contexts.
type tenantKeyType struct{}

var tenantKey tenantKeyType

// requestTenant returns the tenant the request authenticated as (the
// zero config on open daemons).
func requestTenant(r *http.Request) TenantConfig {
	tc, _ := r.Context().Value(tenantKey).(TenantConfig)
	return tc
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/runs                 submit a sim.RunSpec (JSON body)
//	GET    /v1/runs                 list runs (?state=&hash=&policy=&kind=
//	                                &name=&tenant=&since=&until=
//	                                &cursor=&limit= filters + paging)
//	GET    /v1/runs/{id}            status + report (?report=0 omits it)
//	DELETE /v1/runs/{id}            cancel
//	GET    /v1/runs/{id}/report     sink-rendered report (?format=json|csv|ascii)
//	GET    /v1/runs/{id}/metrics    telemetry (?series=,&from=,&to=,&res=)
//	GET    /v1/runs/{id}/series     one metric's points (?metric=&res=&from=&to=;
//	                                no params enumerates the recorded metrics)
//	GET    /v1/runs/{id}/events     progress stream (SSE)
//	POST   /v1/twin                 start a twin session (twin.Spec body)
//	GET    /v1/twin                 list twin sessions
//	GET    /v1/twin/{id}            status + spec + mutation log
//	DELETE /v1/twin/{id}            stop the session
//	POST   /v1/twin/{id}/mutations  enqueue a live mutation (twin.Mutation)
//	GET    /v1/twin/{id}/mutations  the applied-mutation log
//	GET    /v1/twin/{id}/series     twin telemetry (?metric=&res=&from=&to=)
//	GET    /v1/twin/{id}/events     session stream (SSE)
//	GET    /v1/stats                server counters
//	GET    /metrics                 Prometheus gauge exposition
//	GET    /healthz                 liveness
//
// With Config.Auth set, every endpoint except /healthz and /metrics
// requires an
// "Authorization: Bearer <token>" header naming a configured tenant;
// failures are 401 with a WWW-Authenticate challenge. Liveness stays
// open so load balancers and restart scripts need no credentials.
// Listings are tenant-scoped: non-admin tokens see only their own runs
// and get 403 for any other ?tenant= (admins may name any tenant, or
// ?tenant=all for every run).
//
// Paths are routed by hand (no 1.22 mux patterns — the module targets
// go 1.21).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/twin", s.handleTwins)
	mux.HandleFunc("/v1/twin/", s.handleTwin)
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, 200, s.Stats())
	})
	mux.HandleFunc("/metrics", s.handlePromMetrics)
	return apiShell(mux, s, s.cfg.Auth, s.met.httpMet, s.cfg.Logger.Component("http"))
}

// runBackend is what the shared /v1/runs front needs from whoever owns
// the runs — a daemon executing them or a gateway routing them.
type runBackend interface {
	SubmitTraced(ctx context.Context, tenant TenantConfig, spec sim.RunSpec) (RunView, bool, error)
	GetAs(tenant TenantConfig, id string, withReport bool) (RunView, error)
	CancelAs(tenant TenantConfig, id string) (RunView, error)
	List(f ListFilter) ([]RunView, string, error)
	// owner names the tenant run id belongs to (false: no such run)
	// without rendering it — the sub-resource ownership probe.
	owner(id string) (string, bool)
	// serveSub answers GET /v1/runs/{id}/{report|metrics|series|events}
	// for a caller the front has already shown to own the run.
	serveSub(w http.ResponseWriter, r *http.Request, id, sub string)
}

// runsFront is the one /v1/runs handler, serving daemon and gateway
// alike: routing, method checks, body bounds, tenant scoping and
// ownership live here; only sub-resource bodies are per-backend.
type runsFront struct {
	runBackend
	auth *Auth
}

// apiShell finishes a daemon's or a gateway's mux into its handler —
// the part of the HTTP surface the two share byte for byte: the
// /v1/runs front, /healthz, the admin-gated profiler, bearer
// authentication and the obs middleware.
func apiShell(mux *http.ServeMux, runs runBackend, auth *Auth, httpMetrics *obs.HTTPMetrics, logger *obs.Logger) http.Handler {
	front := runsFront{runs, auth}
	mux.HandleFunc("/v1/runs", front.handleRuns)
	mux.HandleFunc("/v1/runs/", front.handleRun)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, 200, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/debug/pprof/", gatePprof(auth, pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", gatePprof(auth, pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", gatePprof(auth, pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", gatePprof(auth, pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", gatePprof(auth, pprof.Trace))

	var h http.Handler = mux
	if auth != nil {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Liveness and the metric exposition stay open: load
			// balancers and scrapers need no credentials, and neither
			// answer carries per-tenant data.
			if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
				mux.ServeHTTP(w, r)
				return
			}
			tc, err := auth.Authenticate(r.Header.Get("Authorization"))
			if err != nil {
				w.Header().Set("WWW-Authenticate", `Bearer realm="simd"`)
				writeErr(w, err)
				return
			}
			mux.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantKey, tc)))
		})
	}
	// The middleware wraps the auth layer, so denied requests are
	// counted and traced like served ones.
	return obs.Middleware(h, obs.MiddlewareOptions{Metrics: httpMetrics, Log: logger, Route: routeTemplate})
}

// gatePprof admits profiler requests per the admin policy: open
// servers expose pprof (single-user, like everything else),
// authenticated ones require an admin token — non-admin tokens get the
// generic 404 (profiles leak memory contents; their existence is not
// advertised), and tokenless requests never reach here (the auth
// wrapper's open list covers only /healthz and /metrics, so /debug/*
// is a 401).
func gatePprof(auth *Auth, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if auth != nil && !requestTenant(r).Admin {
			writeErr(w, &Error{Status: 404, Msg: "not found"})
			return
		}
		h(w, r)
	}
}

// routeTemplate maps request paths to bounded metric labels: run and
// twin ids collapse to {id}, unknown subresources and paths collapse
// to catch-alls, so label cardinality stays finite no matter what
// clients probe.
func routeTemplate(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/runs", p == "/v1/twin", p == "/v1/stats",
		p == "/v1/fleet", p == "/v1/fleet/join", p == "/v1/fleet/heartbeat",
		p == "/metrics", p == "/healthz":
		return p
	case strings.HasPrefix(p, "/debug/pprof/"):
		return "/debug/pprof/"
	case strings.HasPrefix(p, "/v1/runs/"):
		return subTemplate("/v1/runs/{id}", strings.TrimPrefix(p, "/v1/runs/"),
			"report", "metrics", "series", "events")
	case strings.HasPrefix(p, "/v1/twin/"):
		return subTemplate("/v1/twin/{id}", strings.TrimPrefix(p, "/v1/twin/"),
			"mutations", "series", "events")
	default:
		return "other"
	}
}

func subTemplate(base, rest string, known ...string) string {
	_, sub, _ := strings.Cut(rest, "/")
	if sub == "" {
		return base
	}
	for _, k := range known {
		if sub == k {
			return base + "/" + k
		}
	}
	return base + "/{sub}"
}

func (f runsFront) handleRuns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var spec sim.RunSpec
		if err := decodeBody(w, r, "spec", &spec); err != nil {
			writeErr(w, err)
			return
		}
		v, hit, err := f.SubmitTraced(r.Context(), requestTenant(r), spec)
		if err != nil {
			writeErr(w, err)
			return
		}
		status := http.StatusCreated
		if hit {
			status = http.StatusOK // existing run; nothing created
		}
		writeJSON(w, status, submitResponse{Run: v, CacheHit: hit})
	case http.MethodGet:
		q := r.URL.Query()
		// Authorization before parameter validation: an unauthorized
		// cross-tenant probe must get its 403 even when it also carries
		// a malformed cursor — a 400 first would let an attacker use
		// validation ordering to learn which tenants exist to be denied.
		tenant := requestTenant(r)
		if err := checkTenantScope(q.Get("tenant"), f.auth, tenant); err != nil {
			writeErr(w, err)
			return
		}
		filter, err := ParseListFilter(q)
		if err != nil {
			writeErr(w, err)
			return
		}
		applyTenantScope(&filter, f.auth, tenant)
		views, next, err := f.List(filter)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, 200, listResponse{Runs: views, NextCursor: next})
	default:
		writeErr(w, errMethodNotAllowed)
	}
}

// checkTenantScope decides whether the caller may list the requested
// tenant at all — run before any parameter parsing. On an authenticated
// daemon a non-admin caller may name only itself (or nothing); any
// other tenant — or the "all" pseudo-tenant — is a 403, not an empty
// result (silent emptiness would make a typoed tenant name
// indistinguishable from an idle one). Admins may name anyone; open
// daemons are unscoped.
func checkTenantScope(requested string, auth *Auth, tenant TenantConfig) error {
	if auth == nil || tenant.Admin {
		return nil
	}
	switch requested {
	case "", tenant.Name:
		return nil
	default:
		return &Error{Status: 403, Msg: "service: listing other tenants' runs requires an admin token"}
	}
}

// applyTenantScope pins the validated filter to the caller's
// visibility: non-admin listings are always scoped to the caller's
// tenant, and an admin's "all" pseudo-tenant clears the filter.
// checkTenantScope must have passed first.
func applyTenantScope(f *ListFilter, auth *Auth, tenant TenantConfig) {
	if auth == nil {
		return
	}
	if tenant.Admin {
		if f.Tenant == "all" {
			f.Tenant = ""
		}
		return
	}
	f.Tenant = tenant.Name
}

// submitResponse wraps a submission's run with the dedup verdict.
type submitResponse struct {
	Run      RunView `json:"run"`
	CacheHit bool    `json:"cache_hit"`
}

// listResponse is one page of the runs listing. NextCursor resumes the
// listing where this page ended; empty means the listing is exhausted.
type listResponse struct {
	Runs       []RunView `json:"runs"`
	NextCursor string    `json:"next_cursor,omitempty"`
}

func (f runsFront) handleRun(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/runs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		writeErr(w, &Error{Status: 404, Msg: "missing run id"})
		return
	}
	tenant := requestTenant(r)
	switch sub {
	case "":
		var (
			v   RunView
			err error
		)
		switch r.Method {
		case http.MethodGet:
			v, err = f.GetAs(tenant, id, r.URL.Query().Get("report") != "0")
		case http.MethodDelete:
			v, err = f.CancelAs(tenant, id)
		default:
			err = errMethodNotAllowed
		}
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, 200, v)
	case "report", "metrics", "series", "events":
		if r.Method != http.MethodGet {
			writeErr(w, errMethodNotAllowed)
			return
		}
		// Ownership first: a foreign tenant's probe answers the
		// unknown-run 404 before any report or telemetry machinery runs.
		if owner, ok := f.owner(id); !ok || !owns(f.auth, tenant, owner) {
			writeErr(w, errUnknownRun(id))
			return
		}
		f.serveSub(w, r, id, sub)
	default:
		writeErr(w, &Error{Status: 404, Msg: fmt.Sprintf("unknown resource %q", sub)})
	}
}

// errMethodNotAllowed is the shared 405.
var errMethodNotAllowed = &Error{Status: 405, Msg: "method not allowed"}

// serveSub is the daemon's sub-resource half of the runs front.
func (s *Server) serveSub(w http.ResponseWriter, r *http.Request, id, sub string) {
	switch sub {
	case "report":
		s.handleReport(w, r, id)
	case "metrics":
		s.handleMetrics(w, r, id)
	case "series":
		rs, err := s.runSeries(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeSeries(w, r.URL.Query(), id, rs)
	case "events":
		serveSSE(w, r, s.sseKeepalive, func(ctx context.Context, emit func(Event) error) error {
			return s.Follow(ctx, id, emit)
		})
	}
}

// handleReport streams the run's report through the named sink — the
// exact pipeline the CLIs print with, so a remote client's output is
// byte-compatible with a local run's exports. Runs that survive only in
// the archive serve the rendering captured at completion.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request, id string) {
	q := r.URL.Query()
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	// An unknown format is the client's mistake: classify it before any
	// report bytes stream, so the 400 carries the registry enumeration.
	if _, err := sim.Sinks.Lookup(format); err != nil {
		writeErr(w, &Error{Status: 400, Msg: err.Error()})
		return
	}
	width, err := intParam("width", q.Get("width"), maxChartWidth)
	if err != nil {
		writeErr(w, err)
		return
	}
	height, err := intParam("height", q.Get("height"), maxChartHeight)
	if err != nil {
		writeErr(w, err)
		return
	}
	opt := sim.SinkOptions{Width: width, Height: height}
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	if err := s.RenderReport(id, format, opt, w); err != nil {
		var apiErr *Error
		if errors.As(err, &apiErr) {
			// Nothing was streamed yet on API errors; the header above
			// is overridden by writeErr's JSON.
			writeErr(w, err)
			return
		}
		// The sink failed mid-stream: part of a 200 response is already
		// out. Abort the connection so the client sees a failed
		// transfer instead of saving a partial report that ends in an
		// appended error object.
		panic(http.ErrAbortHandler)
	}
}

// metricsResponse is the wire form of a telemetry query.
type metricsResponse struct {
	Run    string         `json:"run"`
	Series []seriesResult `json:"series"`
	// Available lists the run's series names when no ?series= was
	// asked for (discovery).
	Available []string `json:"available,omitempty"`
	// DroppedSeries names series the per-run cap refused: the run was
	// wider than the configured store and its telemetry is partial
	// (raise -tsdb-series / tsdb.Options.MaxSeriesPerRun).
	DroppedSeries []string `json:"dropped_series,omitempty"`
}

type seriesResult struct {
	Name string `json:"name"`
	// RawPerPoint is the downsampling factor of the level that answered
	// (1 = raw samples).
	RawPerPoint int          `json:"raw_per_point"`
	Points      []tsdb.Point `json:"points"`
}

// runSeries resolves a run's telemetry wherever it lives: the live
// store, or — for runs adopted from the archive, evicted from the table
// or completed by an earlier process — the snapshot the held run or the
// archive keeps, restored into the live store on first query.
func (s *Server) runSeries(id string) (*tsdb.Run, error) {
	for {
		if rs := s.tsdb.Lookup(id); rs != nil {
			return rs, nil
		}
		// Single-flight the archive restore: concurrent first queries for
		// an evicted run would each deserialize the snapshot and race
		// tsdb.Restore (last install wins, earlier handles orphaned).
		// One caller claims the id; the rest wait and re-Lookup.
		s.restoreMu.Lock()
		if ch, ok := s.restoring[id]; ok {
			s.restoreMu.Unlock()
			<-ch
			continue
		}
		ch := make(chan struct{})
		s.restoring[id] = ch
		s.restoreMu.Unlock()

		rs, err := func() (*tsdb.Run, error) {
			defer func() {
				s.restoreMu.Lock()
				delete(s.restoring, id)
				close(ch)
				s.restoreMu.Unlock()
			}()
			if rs := s.tsdb.Lookup(id); rs != nil {
				return rs, nil
			}
			_, rec, ok := s.find(id, true)
			if !ok || rec.Telemetry == nil {
				return nil, nil
			}
			rs, err := s.tsdb.Restore(id, rec.Telemetry)
			if err != nil {
				return nil, &Error{Status: 500, Msg: fmt.Sprintf("restoring archived telemetry: %v", err)}
			}
			return rs, nil
		}()
		if err != nil {
			return nil, err
		}
		if rs == nil {
			return nil, &Error{Status: 404, Msg: fmt.Sprintf("run %s recorded no telemetry", id)}
		}
		return rs, nil
	}
}

// timeRangeParams parses the shared from/to/res query parameters; any
// malformed value is a 400.
func timeRangeParams(q url.Values) (from, to, res int64, err error) {
	for _, p := range []struct {
		name string
		dst  *int64
	}{{"from", &from}, {"to", &to}, {"res", &res}} {
		v, perr := int64Param(p.name, q.Get(p.name))
		if perr != nil {
			return 0, 0, 0, perr
		}
		*p.dst = v
	}
	return from, to, res, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, id string) {
	rs, err := s.runSeries(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	q := r.URL.Query()
	resp := metricsResponse{Run: id, DroppedSeries: rs.Dropped()}
	names := q.Get("series")
	if names == "" {
		resp.Available = rs.Series()
		resp.Series = []seriesResult{}
		writeJSON(w, 200, resp)
		return
	}
	from, to, res, err := timeRangeParams(q)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Every name answers with a copy of its series, so the list is
	// bounded by what the run recorded: a repeat-padded query must not
	// amplify into an unbounded body.
	list := strings.Split(names, ",")
	if recorded := len(rs.Series()); len(list) > recorded {
		writeErr(w, &Error{Status: 400, Msg: fmt.Sprintf("bad series: %d names, the run recorded %d series", len(list), recorded)})
		return
	}
	for _, name := range list {
		name = strings.TrimSpace(name)
		pts, per, err := rs.Query(name, from, to, res)
		if err != nil {
			writeErr(w, &Error{Status: 404, Msg: err.Error()})
			return
		}
		resp.Series = append(resp.Series, seriesResult{Name: name, RawPerPoint: per, Points: pts})
	}
	writeJSON(w, 200, resp)
}

// SeriesResponse is the wire form of /v1/runs/{id}/series — the
// single-metric counterpart of the metrics endpoint, shaped for
// dashboard panels: one query, one metric, one points array. Without
// ?metric= it enumerates what the run recorded.
type SeriesResponse struct {
	Run string `json:"run"`
	// Metrics enumerates the run's recorded series names (discovery
	// mode, no ?metric= given).
	Metrics []string `json:"metrics,omitempty"`
	// Metric echoes the queried series name.
	Metric string `json:"metric,omitempty"`
	// RawPerPoint is the downsampling factor of the level that answered
	// (1 = raw samples).
	RawPerPoint int          `json:"raw_per_point,omitempty"`
	Points      []tsdb.Point `json:"points,omitempty"`
	// DroppedSeries names series the per-run cap refused (telemetry is
	// partial; raise -tsdb-series / tsdb.Options.MaxSeriesPerRun).
	DroppedSeries []string `json:"dropped_series,omitempty"`
}

// writeSeries answers a series query (?metric=&res=&from=&to=) over one
// run's or twin's telemetry, wherever the caller found it — the live
// store for held runs and twins, or a snapshot restored on first touch
// — so a dashboard needs no knowledge of the lifecycle stage. Without
// ?metric= it enumerates the recorded metrics; malformed res/from/to
// are 400s; an unknown metric is a 404 naming the miss.
func writeSeries(w http.ResponseWriter, q url.Values, id string, rs *tsdb.Run) {
	resp := SeriesResponse{Run: id, DroppedSeries: rs.Dropped()}
	if resp.Metric = q.Get("metric"); resp.Metric == "" {
		resp.Metrics = rs.Series()
		writeJSON(w, 200, resp)
		return
	}
	from, to, res, err := timeRangeParams(q)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp.Points, resp.RawPerPoint, err = rs.Query(resp.Metric, from, to, res)
	if err != nil {
		writeErr(w, &Error{Status: 404, Msg: err.Error()})
		return
	}
	writeJSON(w, 200, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		apiErr = &Error{Status: 500, Msg: err.Error()}
	}
	if apiErr.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(apiErr.RetryAfter.Seconds()))))
	}
	body := map[string]string{"error": apiErr.Msg}
	// Stamp the request ID into the body so a failed call is greppable
	// in the logs from the error alone (map keys encode sorted, so the
	// shape stays deterministic).
	if id := obs.ResponseRequestID(w); id != "" {
		body["request_id"] = id
	}
	writeJSON(w, apiErr.Status, body)
}

// maxChartWidth and maxChartHeight bound an ASCII report's chart size:
// the renderer allocates per column and loops per row, so the client's
// integers must not size it unchecked. The CLI defaults are 96x16 and
// 96x14.
const (
	maxChartWidth  = 1000
	maxChartHeight = 200
)

// intParam parses an optional numeric query parameter in [0, max]; a
// malformed or out-of-range value is a 400, not a silent zero or an
// unbounded size ("res=300s" must not quietly mean "raw resolution").
func intParam(name, s string, max int) (int, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 || v > max {
		return 0, &Error{Status: 400, Msg: fmt.Sprintf("bad %s %q: want an integer in [0, %d]", name, s, max)}
	}
	return v, nil
}

func int64Param(name, s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, &Error{Status: 400, Msg: fmt.Sprintf("bad %s %q: want an integer (seconds)", name, s)}
	}
	return v, nil
}
