package service

// The twin layer: long-lived digital-twin sessions hosted next to the
// batch run registry. A twin is not a run — it has no spec-hash cache
// (two tenants starting the same twin get two live sessions), no
// archive tier (a twin's durable artifact is its spec + mutation log,
// which replays byte-identically), and no terminal report. It shares
// the daemon's tsdb (series under the twin id), the auth/quota layer,
// the SSE idiom and the drain discipline.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/twin"
)

// twinRun is the server-side record of one twin session, live or
// finished. Finished twins stay in the registry (status, mutation log
// and telemetry remain queryable) until the daemon exits; they are
// bounded by the tenants' session quotas, not MaxRuns.
type twinRun struct {
	id      string
	seq     int
	tenant  string
	session *twin.Session
	cancel  context.CancelFunc

	eventLog  // its mu guards the fields below
	state     State
	errMsg    string
	submitted time.Time
	finished  time.Time
}

// TwinView is the wire form of one twin session.
type TwinView struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State State  `json:"state"` // running|done|failed|cancelled
	Error string `json:"error,omitempty"`
	// Tenant is the owning tenant's name (empty on open daemons).
	Tenant string `json:"tenant,omitempty"`
	// Spec is the normalized twin spec; only the single-twin GET
	// carries it (listings stay light).
	Spec *twin.Spec `json:"spec,omitempty"`
	// Status is the session's last epoch-boundary snapshot: virtual
	// clock, active signal value, effective budget, per-member state.
	Status twin.Status `json:"status"`
	// Mutations is the applied-mutation log — together with Spec,
	// everything needed to replay the session byte-identically. Only
	// the single-twin GET carries it.
	Mutations []twin.Applied `json:"mutations,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// current reads the twin's state under its lock.
func (t *twinRun) current() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// view renders the twin; full attaches the spec and mutation log (the
// single-twin GET).
func (t *twinRun) view(full bool) TwinView {
	st := t.session.Status()
	t.mu.Lock()
	defer t.mu.Unlock()
	v := TwinView{
		ID:          t.id,
		Name:        st.Name,
		State:       t.state,
		Error:       t.errMsg,
		Tenant:      t.tenant,
		Status:      st,
		SubmittedAt: t.submitted,
	}
	if !t.finished.IsZero() {
		ft := t.finished
		v.FinishedAt = &ft
	}
	if full {
		sp := t.session.Spec()
		v.Spec = &sp
		v.Mutations = t.session.Log()
	}
	return v
}

// errUnknownTwin is THE not-found answer for a twin id: every read and
// write on someone else's twin reuses it verbatim (same oracle-closing
// contract as errUnknownRun).
func errUnknownTwin(id string) *Error {
	return &Error{Status: 404, Msg: fmt.Sprintf("service: unknown twin %q", id)}
}

// twinFor resolves a twin id under the caller's tenancy.
func (s *Server) twinFor(tenant TenantConfig, id string) (*twinRun, error) {
	s.twinMu.Lock()
	t := s.twins[id]
	s.twinMu.Unlock()
	if t == nil || !owns(s.cfg.Auth, tenant, t.tenant) {
		return nil, errUnknownTwin(id)
	}
	return t, nil
}

// StartTwinAs validates and boots a twin session on behalf of a
// tenant: members built, reservations placed, the lockstep loop
// running on its own goroutine until the horizon, a stop or shutdown.
// Twin starts share the tenant's submission rate limit with runs — a
// live session is strictly more expensive than a batch run.
func (s *Server) StartTwinAs(tenant TenantConfig, spec twin.Spec) (TwinView, error) {
	if apiErr := admit(s.cfg.Auth, tenant, spec); apiErr != nil {
		return TwinView{}, apiErr
	}

	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return TwinView{}, errDraining("twins")
	}

	// Claim the id before the (potentially slow) member build so
	// concurrent starts never race the sequence.
	s.twinMu.Lock()
	id := fmt.Sprintf("t%06d", s.nextTwinSeq+1)
	seq := s.nextTwinSeq
	s.nextTwinSeq++
	s.twinMu.Unlock()

	t := &twinRun{id: id, seq: seq, tenant: tenant.Name, state: StateRunning, submitted: time.Now()}
	t.init()
	sink := s.tsdb.Run(id)
	session, err := twin.New(spec, twin.Config{
		Sink: sink,
		OnEpoch: func(st twin.Status) {
			t.mu.Lock()
			t.appendLocked("epoch", Event{Done: int(st.VirtualTime), Total: int(st.HorizonSec)})
			t.mu.Unlock()
		},
		OnApplied: func(a twin.Applied) {
			t.mu.Lock()
			t.appendLocked("mutation", Event{Cell: string(a.Mutation.Op), Done: int(a.AtEpoch), Error: a.Err})
			t.mu.Unlock()
		},
	})
	if err != nil {
		s.tsdb.Drop(id)
		return TwinView{}, &Error{Status: 400, Msg: err.Error()}
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	t.session = session
	t.cancel = cancel

	s.twinMu.Lock()
	s.twins[id] = t
	s.twinMu.Unlock()

	t.mu.Lock()
	t.appendLocked("started", Event{})
	t.mu.Unlock()

	s.twinWG.Add(1)
	go func() {
		defer s.twinWG.Done()
		defer cancel()
		err := session.Run(ctx)
		t.mu.Lock()
		t.finished = time.Now()
		switch {
		case err == nil:
			t.state = StateDone
			t.appendLocked("done", Event{})
		case ctx.Err() != nil:
			t.state = StateCancelled
			t.errMsg = err.Error()
			t.appendLocked("cancelled", Event{Error: t.errMsg})
		default:
			t.state = StateFailed
			t.errMsg = err.Error()
			t.appendLocked("failed", Event{Error: t.errMsg})
		}
		t.mu.Unlock()
	}()
	return t.view(false), nil
}

// TwinAs returns one twin's view — spec and mutation log included —
// with the caller's tenancy applied: someone else's twin answers the
// exact 404 an id that never existed answers.
func (s *Server) TwinAs(tenant TenantConfig, id string) (TwinView, error) {
	t, err := s.twinFor(tenant, id)
	if err != nil {
		return TwinView{}, err
	}
	return t.view(true), nil
}

// ListTwinsAs returns the caller-visible twins in start order (admins
// and open daemons see all).
func (s *Server) ListTwinsAs(tenant TenantConfig) []TwinView {
	s.twinMu.Lock()
	order := make([]*twinRun, 0, len(s.twins))
	for _, t := range s.twins {
		order = append(order, t)
	}
	s.twinMu.Unlock()
	sort.Slice(order, func(i, j int) bool { return order[i].seq < order[j].seq })
	views := make([]TwinView, 0, len(order))
	for _, t := range order {
		if owns(s.cfg.Auth, tenant, t.tenant) {
			views = append(views, t.view(false))
		}
	}
	return views
}

// MutateTwinAs enqueues a live mutation; it applies at the first epoch
// boundary at or after its AtSec. Unknown ops are 400; mutating a
// finished twin is 409; the returned view shows the queue growing
// (application is asynchronous by design — the boundary contract).
func (s *Server) MutateTwinAs(tenant TenantConfig, id string, m twin.Mutation) (TwinView, error) {
	t, err := s.twinFor(tenant, id)
	if err != nil {
		return TwinView{}, err
	}
	if t.current().Terminal() {
		return TwinView{}, &Error{Status: 409, Msg: fmt.Sprintf("service: twin %s is finished; mutations no longer apply", id)}
	}
	if err := t.session.Mutate(m); err != nil {
		return TwinView{}, &Error{Status: 400, Msg: err.Error()}
	}
	return t.view(false), nil
}

// StopTwinAs stops a twin: its context is cancelled and the session
// unwinds at the next boundary (or mid-sleep for paced twins).
// Stopping a finished twin is a no-op; the view reports the state
// reached. The twin's status, log and telemetry remain readable.
func (s *Server) StopTwinAs(tenant TenantConfig, id string) (TwinView, error) {
	t, err := s.twinFor(tenant, id)
	if err != nil {
		return TwinView{}, err
	}
	t.cancel()
	return t.view(false), nil
}

// twinStats counts the registry for Stats (live = still running).
func (s *Server) twinStats() (live, total int) {
	s.twinMu.Lock()
	defer s.twinMu.Unlock()
	for _, t := range s.twins {
		if !t.current().Terminal() {
			live++
		}
	}
	return live, len(s.twins)
}

// stopTwins cancels every live twin and waits for their goroutines,
// bounded by ctx — the Shutdown leg of the twin registry.
func (s *Server) stopTwins(ctx context.Context) error {
	s.twinMu.Lock()
	for _, t := range s.twins {
		t.cancel()
	}
	s.twinMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.twinWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- HTTP ---

// handleTwins serves the collection: POST starts a twin, GET lists the
// caller's twins.
func (s *Server) handleTwins(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var spec twin.Spec
		if err := decodeBody(w, r, "twin spec", &spec); err != nil {
			writeErr(w, err)
			return
		}
		v, err := s.StartTwinAs(requestTenant(r), spec)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, v)
	case http.MethodGet:
		writeJSON(w, 200, twinListResponse{Twins: s.ListTwinsAs(requestTenant(r))})
	default:
		writeErr(w, errMethodNotAllowed)
	}
}

// twinListResponse is the GET /v1/twin answer.
type twinListResponse struct {
	Twins []TwinView `json:"twins"`
}

// handleTwin routes /v1/twin/{id}[/mutations|series|events]. The two
// read-only sub-resources share one GET-only check and one ownership
// probe: series is the run series endpoint over the twin's telemetry
// (twins have no archive tier — the live tsdb is the only source);
// events streams the twin's log as SSE: started, epoch (virtual-clock
// ticks), mutation, done/failed/cancelled.
func (s *Server) handleTwin(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/twin/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		writeErr(w, &Error{Status: 404, Msg: "missing twin id"})
		return
	}
	tenant := requestTenant(r)
	switch sub {
	case "":
		var (
			v   TwinView
			err error
		)
		switch r.Method {
		case http.MethodGet:
			v, err = s.TwinAs(tenant, id)
		case http.MethodDelete:
			v, err = s.StopTwinAs(tenant, id)
		default:
			err = errMethodNotAllowed
		}
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, 200, v)
	case "mutations":
		s.handleTwinMutations(w, r, id)
	case "series", "events":
		if r.Method != http.MethodGet {
			writeErr(w, errMethodNotAllowed)
			return
		}
		t, err := s.twinFor(tenant, id)
		if err != nil {
			writeErr(w, err)
			return
		}
		if sub == "events" {
			serveSSE(w, r, s.sseKeepalive, func(ctx context.Context, emit func(Event) error) error {
				return t.follow(ctx, emit)
			})
			return
		}
		rs := s.tsdb.Lookup(id)
		if rs == nil {
			writeErr(w, &Error{Status: 404, Msg: fmt.Sprintf("twin %s recorded no telemetry", id)})
			return
		}
		writeSeries(w, r.URL.Query(), id, rs)
	default:
		writeErr(w, &Error{Status: 404, Msg: fmt.Sprintf("unknown resource %q", sub)})
	}
}

// handleTwinMutations serves POST (enqueue a mutation) and GET (the
// applied log) on /v1/twin/{id}/mutations.
func (s *Server) handleTwinMutations(w http.ResponseWriter, r *http.Request, id string) {
	switch r.Method {
	case http.MethodPost:
		var m twin.Mutation
		if err := decodeBody(w, r, "mutation", &m); err != nil {
			writeErr(w, err)
			return
		}
		v, err := s.MutateTwinAs(requestTenant(r), id, m)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, v)
	case http.MethodGet:
		v, err := s.TwinAs(requestTenant(r), id)
		if err != nil {
			writeErr(w, err)
			return
		}
		if v.Mutations == nil {
			v.Mutations = []twin.Applied{}
		}
		writeJSON(w, 200, v.Mutations)
	default:
		writeErr(w, errMethodNotAllowed)
	}
}

// handlePromMetrics serves the Prometheus text exposition on /metrics
// — unauthenticated like /healthz, so scrapers need no tenant token
// (the families are aggregate counters, no per-tenant data). The
// registry carries everything: the stats-derived gauge/counter set,
// per-route HTTP histograms, scheduler wait/depth, engine hot-path
// counters, cache-tier hits and run stage timings.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, errMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.met.scrape(w, s.Stats())
}
