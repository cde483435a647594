// Package service is the simulation-as-a-service core behind cmd/simd:
// a long-running daemon that accepts declarative sim.RunSpec
// submissions over HTTP, executes them on one shared bounded worker
// scheduler, content-addresses results by canonical spec hash so
// identical specs under load collapse into a single execution, and
// streams per-run telemetry into the internal/tsdb time-series store.
//
// The execution pipeline is the sim facade end to end: a submission is
// validated and normalized exactly like a -spec file, runs through
// sim.RunObserved with a per-run cancellable context, and its Report is
// served back through the same sink pipeline the CLIs print with — the
// service adds queueing, dedup, telemetry and lifecycle, never a second
// result format.
//
// The daemon holds a run in one table, under its id, from submission
// through its terminal state until it is the oldest of more than
// Config.MaxRuns retired runs. When Config.Archive is set, done runs are
// written through to a RunStore that survives restarts (cmd/simd wires
// the filesystem archive there). Reads answer from the table, else from
// the archive, so a rebooted daemon still serves yesterday's reports
// and dedupes resubmissions of archived specs into cache hits.
//
// Layering (see ARCHITECTURE.md "Service layer" and "Persistence &
// tenancy"):
//
//	cmd/simd                     HTTP + signals + archive/tokens wiring
//	        v
//	internal/service             queue, spec-hash cache, events, drain
//	        |                    auth/quotas, run table + archive
//	        |            sim.RunObserved(ctx, spec, progress, observe)
//	        v
//	internal/sim -> experiment/replay/federation -> rjms
//	        |
//	        +-- rjms.AddObserver samples -> internal/tsdb rings
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rjms"
	"repro/internal/sim"
	"repro/internal/tsdb"
)

// Config bounds a server. The zero value picks the defaults.
type Config struct {
	// Workers is the number of runs executing concurrently (the shared
	// scheduler's pool size; default 2). Each run's internal sweep pool
	// is bounded separately by SweepWorkers.
	Workers int
	// QueueDepth bounds the submissions waiting for a worker (default
	// 256); a full queue rejects submissions instead of buffering
	// without bound.
	QueueDepth int
	// SweepWorkers clamps every run's sweep pool (spec.Workers); 0
	// leaves specs as submitted. With W service workers and S sweep
	// workers the daemon runs at most W*S controllers at once.
	SweepWorkers int
	// TSDB bounds the telemetry store (per-series ring sizes).
	TSDB tsdb.Options
	// MaxRuns caps the retired runs the server holds; beyond it the
	// oldest retired run leaves the table with its live telemetry
	// (default 1024). Archived copies survive eviction.
	MaxRuns int
	// Archive, when non-nil, is the durable store done runs are written
	// through to and read back from after eviction or a restart. The
	// server owns it from New on and closes it in Shutdown.
	Archive RunStore
	// Auth, when non-nil, turns on bearer-token authentication and
	// per-tenant quotas; nil runs the daemon open (single-user
	// default).
	Auth *Auth
	// Logger, when non-nil, receives the daemon's structured log lines
	// (lifecycle, cache hits, archive failures, HTTP access); nil is
	// silent.
	Logger *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 1024
	}
	return c
}

// State is a run's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// run is one run the server holds, from submission to eviction: its
// Record, plus what the daemon keeps beside it. A run adopted from the
// archive has no context; it is retired from the start.
type run struct {
	// Record is the run's one row: every view and listing renders from
	// it, and retire writes a copy of it to the archive. eventLog.mu
	// guards it and retired.
	Record

	ctx    context.Context
	cancel context.CancelFunc
	// retired is set once retire has rendered the run's report, taken
	// its telemetry snapshot and added it to the server's retired list.
	retired bool

	// reqID is the X-Request-ID of the submission that created the run,
	// stamped into its lifecycle log lines; setupDur is the
	// validate/normalize/hash time, folded into the stage timings.
	reqID    string
	setupDur time.Duration

	eventLog // the run's events; Record.Events stays nil on a held run
}

// current reads the run's state under its lock.
func (r *run) current() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.State
}

// Stats are the server-wide counters the cache-hit story is measured
// by.
type Stats struct {
	// Runs counts the runs the server holds, from submission to
	// eviction.
	Runs       int  `json:"runs"`
	Queued     int  `json:"queued"`
	Running    int  `json:"running"`
	Executions int  `json:"executions"`
	CacheHits  int  `json:"cache_hits"`
	Workers    int  `json:"workers"`
	QueueDepth int  `json:"queue_depth"`
	Draining   bool `json:"draining"`
	// Archived counts the durable archive's records (0 with no
	// archive configured); ArchiveErrors counts failed archive writes
	// — a non-zero value means the durable tier is lossy right now.
	Archived      int `json:"archived,omitempty"`
	ArchiveErrors int `json:"archive_errors,omitempty"`
	// TwinsLive counts the twin sessions running now; TwinsTotal every
	// session the registry retains (live and finished).
	TwinsLive  int `json:"twins_live,omitempty"`
	TwinsTotal int `json:"twins_total,omitempty"`
}

// Server is the daemon core: the run table, the spec-hash result cache,
// the FIFO worker scheduler, the telemetry store and the archive.
// Construct with New; serve its HTTP API via Handler; stop with
// Shutdown.
type Server struct {
	cfg  Config
	tsdb *tsdb.Store

	// met is the metric registry and instruments (always present); log
	// is the component-scoped logger (nil-safe when Config.Logger is
	// unset).
	met *serverMetrics
	log *obs.Logger
	// sseKeepalive is the interval between ": keepalive" comment frames
	// on event streams, keeping idle proxies from reaping long-lived
	// connections.
	sseKeepalive time.Duration

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// sched dispatches queued run ids onto execution slots, errors
	// final.
	sched *fifo

	// mu guards the run table; a run's own lock is taken after it.
	mu   sync.Mutex
	runs map[string]*run // every held run, by id
	// byHash is the dedupe index: the newest held run of each spec hash.
	byHash map[string]*run
	// retired lists the retired runs in the order they retired (or were
	// adopted from the archive): eviction takes the front.
	retired     []*run
	draining    bool
	nextSeq     int
	executions  int
	cacheHits   int
	archiveErrs int

	// restoring single-flights archived-telemetry restores per run id:
	// concurrent first queries for an evicted run wait on the winner's
	// channel instead of racing duplicate tsdb.Restore work.
	restoreMu sync.Mutex
	restoring map[string]chan struct{}

	// The twin registry (see twin.go). twinMu is leaf-level: never
	// taken while holding s.mu or a run's lock.
	twinMu      sync.Mutex
	twins       map[string]*twinRun
	nextTwinSeq int
	twinWG      sync.WaitGroup
}

// New builds a server and starts its worker pool. With an archive
// configured, the run-id sequence resumes above the archive's highest
// stored sequence so restarted daemons never reissue an archived id.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		tsdb:         tsdb.New(cfg.TSDB),
		sseKeepalive: 15 * time.Second,
		baseCtx:      ctx,
		baseCancel:   cancel,
		runs:         map[string]*run{},
		byHash:       map[string]*run{},
		restoring:    map[string]chan struct{}{},
		twins:        map[string]*twinRun{},
	}
	if cfg.Archive != nil {
		if max, err := cfg.Archive.MaxSeq(); err == nil && max >= 0 {
			s.nextSeq = max + 1
		}
	}
	s.sched = newFIFO(cfg.Workers, cfg.QueueDepth, 0, nil, s.executeID)
	s.log = cfg.Logger.Component("service")
	s.met = newServerMetrics(s)
	return s
}

// executeID is the scheduler's executor: resolve the id to its run and
// execute it. Ids whose runs were cancelled while queued (or already
// evicted) are cheap no-ops — the scheduler stays free of run
// lifecycle knowledge.
func (s *Server) executeID(id string) error {
	s.mu.Lock()
	r := s.runs[id]
	s.mu.Unlock()
	if r != nil {
		s.execute(r)
	}
	return nil
}

// Store returns a MemStore holding a copy of each retired run the
// server holds, events included (tests and tooling). The copy is put
// in retire order, so of two retired runs of one spec it keeps the
// later one.
func (s *Server) Store() RunStore {
	m := NewMemStore(0, nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.retired {
		r.mu.Lock()
		rec := r.Record
		rec.Events = r.events
		r.mu.Unlock()
		_ = m.Put(rec)
	}
	return m
}

// find resolves a run id to its record: a copy of the held run's,
// events included, else the archive's — whole when payload is set (the
// file is read and decoded), else its index row, with no file read. r
// is the held run itself while it has not retired, the one state in
// which it still changes; nil otherwise.
func (s *Server) find(id string, payload bool) (r *run, rec Record, ok bool) {
	s.mu.Lock()
	held := s.runs[id]
	s.mu.Unlock()
	if held != nil {
		held.mu.Lock()
		defer held.mu.Unlock()
		rec = held.Record
		rec.Events = held.events
		if !held.retired {
			r = held
		}
		return r, rec, true
	}
	if s.cfg.Archive == nil {
		return nil, Record{}, false
	}
	get := s.cfg.Archive.Meta
	if payload {
		get = s.cfg.Archive.Get
	}
	rec, ok, err := get(id)
	return nil, rec, ok && err == nil
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Runs:          len(s.runs),
		Executions:    s.executions,
		CacheHits:     s.cacheHits,
		Workers:       s.cfg.Workers,
		QueueDepth:    s.cfg.QueueDepth,
		Draining:      s.draining,
		ArchiveErrors: s.archiveErrs,
	}
	for _, r := range s.runs {
		switch r.current() {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		}
	}
	s.mu.Unlock()
	if s.cfg.Archive != nil {
		if n, err := s.cfg.Archive.Len(); err == nil {
			st.Archived = n
		}
	}
	st.TwinsLive, st.TwinsTotal = s.twinStats()
	return st
}

// SubmitTraced validates, normalizes and content-addresses a spec on
// behalf of a tenant. An identical spec already queued, running or done
// — held or archived — dedupes into that run and reports cacheHit
// true; the result cache is shared across tenants (identical physics is
// identical physics), while quotas bill only fresh executions. Failed
// and cancelled runs never serve as cache entries: resubmitting their
// spec starts a fresh execution. The caller's request ID (from ctx, see
// obs.WithRequestID) is bound to the run, so its lifecycle log lines
// correlate with the submitting HTTP request across gateway and worker
// logs.
func (s *Server) SubmitTraced(ctx context.Context, tenant TenantConfig, spec sim.RunSpec) (RunView, bool, error) {
	reqID := obs.RequestIDFrom(ctx)
	setupStart := time.Now()
	norm, hash, apiErr := admitRun(s.cfg.Auth, tenant, spec)
	if apiErr != nil {
		return RunView{}, false, apiErr
	}
	// The clamp follows the hash on purpose: SpecHash ignores Workers.
	if s.cfg.SweepWorkers > 0 && (norm.Workers == 0 || norm.Workers > s.cfg.SweepWorkers) {
		norm.Workers = s.cfg.SweepWorkers
	}
	setupDur := time.Since(setupStart)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return RunView{}, false, errDraining("submissions")
	}
	if v, ok := s.cacheHitLocked(hash, reqID); ok {
		return v, true, nil
	}
	// The archive decodes a file: ask it with s.mu released, so every
	// other request proceeds meanwhile, then look again — a concurrent
	// submission may have started or adopted the run in the meantime.
	// An archived done run is adopted into the table as a retired run,
	// unless the table already holds its id (another daemon sharing the
	// archive issued it): then the spec executes afresh.
	if s.cfg.Archive != nil {
		s.mu.Unlock()
		rec, ok, err := s.cfg.Archive.ByHash(hash)
		s.mu.Lock()
		if s.draining {
			return RunView{}, false, errDraining("submissions")
		}
		if v, ok := s.cacheHitLocked(hash, reqID); ok {
			return v, true, nil
		}
		if err == nil && ok && rec.State == StateDone && s.runs[rec.ID] == nil {
			r := &run{Record: rec, retired: true}
			r.init()
			r.events, r.Events = rec.Events, nil
			s.runs[r.ID] = r
			s.byHash[hash] = r
			s.holdRetiredLocked(r)
			r.mu.Lock()
			defer r.mu.Unlock()
			return s.hitLocked(r, "archive", s.met.tierArchive, reqID), true, nil
		}
	}

	// A fresh execution: this is the submission quotas bill.
	if apiErr := overQuota(s.cfg.Auth, tenant, func() (live int) {
		for _, r := range s.runs {
			if r.Tenant == tenant.Name && !r.current().Terminal() {
				live++
			}
		}
		return live
	}); apiErr != nil {
		return RunView{}, false, apiErr
	}

	runCtx, cancel := context.WithCancel(s.baseCtx)
	r := &run{
		Record:   newRecord(fmt.Sprintf("r%06d", s.nextSeq+1), s.nextSeq, tenant.Name, hash, norm),
		ctx:      runCtx,
		cancel:   cancel,
		reqID:    reqID,
		setupDur: setupDur,
	}
	s.nextSeq++
	r.init()
	// The queued event lands before the run is visible to any worker,
	// so the event log always starts queued -> started.
	r.mu.Lock()
	r.appendLocked("queued", Event{})
	v := r.viewLocked(false, false)
	r.mu.Unlock()
	// Register before enqueueing: a scheduler slot resolves the id
	// through s.runs, and s.mu (held here) keeps it from looking before
	// the maps are consistent. A refused enqueue unwinds the
	// registration — the run was never accepted, and a run byHash named
	// before had failed or been cancelled, so no cache entry is lost.
	s.runs[r.ID] = r
	s.byHash[hash] = r
	if err := s.sched.Enqueue(r.ID); err != nil {
		delete(s.runs, r.ID)
		delete(s.byHash, hash)
		cancel()
		return RunView{}, false, errEnqueue(err, s.cfg.QueueDepth)
	}
	s.log.Info("run queued", "run", r.ID, "hash", hash[:12], "tenant", tenant.Name,
		"mode", string(norm.Mode), "request_id", reqID)
	return v, false, nil
}

// cacheHitLocked answers a spec hash from the run table: the newest
// held run of the hash, unless it failed or was cancelled. A hit on a
// run that has not yet retired counts for the live tier, on a retired
// one for the hot tier. s.mu must be held: it serializes the hit
// counts.
func (s *Server) cacheHitLocked(hash, reqID string) (RunView, bool) {
	r := s.byHash[hash]
	if r == nil {
		return RunView{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.State == StateFailed || r.State == StateCancelled:
		return RunView{}, false
	case r.retired:
		return s.hitLocked(r, "hot", s.met.tierHot, reqID), true
	}
	return s.hitLocked(r, "live", s.met.tierLive, reqID), true
}

// hitLocked counts one cache hit on a held run for the tier that
// answered; s.mu and r.mu must be held.
func (s *Server) hitLocked(r *run, tier string, hits *obs.Counter, reqID string) RunView {
	r.CacheHits++
	s.cacheHits++
	hits.Inc()
	s.log.Debug("cache hit", "run", r.ID, "tier", tier, "request_id", reqID)
	return r.viewLocked(false, false)
}

// retire finishes a terminal run where it is held: it renders the
// report through every sink, snapshots the telemetry, writes a done
// run through to the archive and adds the run to the retired list,
// which evicts the oldest retired run beyond Config.MaxRuns. The run
// stays under its id throughout, so the order in which runs retire
// changes nothing a reader sees. Rendering and the archive write happen
// outside the server lock.
func (s *Server) retire(r *run) {
	// The log closed on the terminal event: the copy shares it.
	r.mu.Lock()
	rec := r.Record
	rec.Events = r.events
	r.mu.Unlock()

	renderStart := time.Now()
	if rec.Report != nil {
		rec.Renders = renderAll(*rec.Report)
		// Views of the run serve these from now on.
		r.mu.Lock()
		r.Renders = rec.Renders
		r.mu.Unlock()
	}
	renderDur := time.Since(renderStart)
	if rs := s.tsdb.Lookup(r.ID); rs != nil {
		rec.Telemetry = rs.Snapshot()
	}
	rec.Stages = r.stageTimings(rec, renderDur)

	// Only done runs are worth durable bytes: failures and
	// cancellations are not reusable results, and archiving them would
	// shadow (by spec hash) a later successful run of the same spec
	// written by another process sharing the directory. The archived
	// copy carries ArchiveMS 0 — it was serialized mid-write — and the
	// hit count of the moment it was taken; both keep accruing only on
	// the held run. The archive's index keeps the record it was handed
	// (Meta answers from it), so the held run gets its own stage timings
	// rather than a write through the shared pointer.
	if s.cfg.Archive != nil && rec.State == StateDone {
		archiveStart := time.Now()
		err := s.cfg.Archive.Put(rec)
		stages := *rec.Stages
		stages.ArchiveMS = float64(time.Since(archiveStart).Microseconds()) / 1000
		rec.Stages = &stages
		if err != nil {
			s.mu.Lock()
			s.archiveErrs++
			s.mu.Unlock()
			s.log.Warn("archive write failed", "run", r.ID, "error", err,
				"request_id", r.reqID)
		}
	}
	s.met.observeRetireStages(rec.Stages)

	s.mu.Lock()
	defer s.mu.Unlock()
	r.mu.Lock()
	r.Telemetry, r.Stages, r.retired = rec.Telemetry, rec.Stages, true
	r.mu.Unlock()
	s.holdRetiredLocked(r)
}

// holdRetiredLocked appends a retired run to the retired list and
// evicts the oldest retired runs beyond Config.MaxRuns from the table,
// dropping their live telemetry with them (an archived copy keeps a
// snapshot for later restore); s.mu must be held.
func (s *Server) holdRetiredLocked(r *run) {
	s.retired = append(s.retired, r)
	for len(s.retired) > s.cfg.MaxRuns {
		old := s.retired[0]
		s.retired[0] = nil
		s.retired = s.retired[1:]
		delete(s.runs, old.ID)
		if s.byHash[old.SpecHash] == old {
			delete(s.byHash, old.SpecHash)
		}
		s.tsdb.Drop(old.ID)
	}
}

// stageTimings assembles the run's pipeline stage breakdown from its
// record: at the terminal transition (renderDur 0), then at retire.
// Runs cancelled while queued have no execute stage; ArchiveMS is
// stamped by retire after the durable write it times.
func (r *run) stageTimings(rec Record, renderDur time.Duration) *StageTimings {
	ms := func(d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(d.Microseconds()) / 1000
	}
	st := &StageTimings{
		SetupMS:  ms(r.setupDur),
		RenderMS: ms(renderDur),
	}
	if !rec.Started.IsZero() {
		st.QueuedMS = ms(rec.Started.Sub(rec.Submitted))
		st.ExecuteMS = ms(rec.Finished.Sub(rec.Started))
	} else if !rec.Finished.IsZero() {
		st.QueuedMS = ms(rec.Finished.Sub(rec.Submitted))
	}
	return st
}

// renderAll renders the report through every registered sink at default
// options — the forms a Record serves after the live Report is gone
// (and the only forms the archive can persist at all).
func renderAll(rep sim.Report) map[string][]byte {
	out := map[string][]byte{}
	for _, name := range sim.Sinks.Names() {
		var buf bytes.Buffer
		if err := sim.Export(&buf, name, rep, sim.SinkOptions{}); err == nil {
			out[name] = buf.Bytes()
		}
	}
	return out
}

// GetAs returns one run's view (withReport controls the heavy payload),
// resolving held runs first, then the archive, with the caller's
// tenancy applied: on an authenticated daemon a non-admin tenant
// resolves only its own runs, and anyone else's run answers the exact
// 404 an id that never existed answers — a 403 would confirm the id is
// taken, handing a tenant walking the sequential id space an existence
// oracle. A status poll needs only the metadata; the report payload is
// what makes an archived run worth reading from disk.
func (s *Server) GetAs(tenant TenantConfig, id string, withReport bool) (RunView, error) {
	_, rec, ok := s.find(id, withReport)
	if !ok || !owns(s.cfg.Auth, tenant, rec.Tenant) {
		return RunView{}, errUnknownRun(id)
	}
	return viewFromRecord(rec, time.Now(), withReport, true), nil
}

// owner names the tenant a run belongs to, wherever the run lives; false
// when neither the table nor the archive knows the id.
func (s *Server) owner(id string) (string, bool) {
	_, rec, ok := s.find(id, false)
	return rec.Tenant, ok
}

// errUnknownRun is THE not-found answer for a run id: every read and
// write on someone else's run reuses it verbatim, so "never existed" and
// "not yours" are indistinguishable.
func errUnknownRun(id string) *Error {
	return &Error{Status: 404, Msg: fmt.Sprintf("service: unknown run %q", id)}
}

// RenderReport writes the run's report in the named sink format — the
// report endpoint's engine. Runs with a live Report render on demand
// with the requested options; runs adopted from the archive, and runs
// the server no longer holds, serve the rendering captured at
// completion (default options), so a restarted daemon still answers
// byte-identically for the formats it stored. An archived run is read
// once: the one record read serves either form.
func (s *Server) RenderReport(id, format string, opt sim.SinkOptions, w io.Writer) error {
	if _, err := sim.Sinks.Lookup(format); err != nil {
		return &Error{Status: 400, Msg: err.Error()}
	}
	r, rec, ok := s.find(id, true)
	if !ok {
		return errUnknownRun(id)
	}
	if !rec.State.Terminal() {
		return &Error{Status: 409, Msg: fmt.Sprintf("service: run %s is %s; report not ready", id, rec.State)}
	}
	if rec.Report != nil {
		return sim.Export(w, format, *rec.Report, opt)
	}
	if b, ok := rec.Renders[format]; ok {
		_, err := w.Write(b)
		return err
	}
	if r != nil {
		return &Error{Status: 409, Msg: fmt.Sprintf("service: run %s (%s) produced no report: %s", id, rec.State, rec.Error)}
	}
	return &Error{Status: 409, Msg: fmt.Sprintf("service: run %s (%s) stored no %s rendering", id, rec.State, format)}
}

// List returns the run views matching the filter in submission order
// across the run table and the archive, plus the cursor of the next
// page ("" when exhausted). Ids are unique across both (the archive
// seeds the id sequence at boot), and the held run wins when an id is
// in both.
//
// Each source is asked for one row more than the page, after the
// cursor, and the merge keeps the first Limit distinct ids by Seq. That
// is the page a merge of everything would give: a row among the union's
// first Limit+1 distinct ids has at most Limit rows before it in any
// source holding it, so that source returned it; and an id's Seq and
// filter fields are the same in both (the id is derived from the Seq).
func (s *Server) List(f ListFilter) ([]RunView, string, error) {
	srcF := f
	if f.Limit > 0 {
		srcF.Limit = f.Limit + 1
	}
	s.mu.Lock()
	records, _, err := listPage(s.runs, srcF, func(r *run) Record {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.Record
	})
	s.mu.Unlock()
	if err != nil {
		return nil, "", err
	}
	if s.cfg.Archive != nil {
		rows, _, err := s.cfg.Archive.List(srcF)
		if err != nil {
			return nil, "", err
		}
		records = append(records, rows...)
	}

	// Stable: of one id's rows, adjacent (an id is its Seq), the held
	// run's stays first.
	sort.SliceStable(records, func(i, j int) bool { return records[i].Seq < records[j].Seq })
	page := records[:0]
	for _, rec := range records {
		if n := len(page); n == 0 || page[n-1].ID != rec.ID {
			page = append(page, rec)
		}
	}
	page, next := cutPage(page, f.Limit, func(rec Record) int { return rec.Seq })
	return viewsFromRecords(page), next, nil
}

// CancelAs cancels a run on behalf of a tenant: a queued run
// transitions immediately, a running one has its context cancelled and
// transitions when the engine unwinds (bounded-step checks keep that
// prompt). Cancelling a terminal run is a no-op; the returned view
// reports the state reached. With auth enabled, a tenant may cancel
// only its own runs unless marked admin; anyone else's run answers the
// unknown-run 404, exactly like a read.
func (s *Server) CancelAs(tenant TenantConfig, id string) (RunView, error) {
	r, rec, ok := s.find(id, false)
	if !ok || !owns(s.cfg.Auth, tenant, rec.Tenant) {
		return RunView{}, errUnknownRun(id)
	}
	if r == nil {
		// Retired or archived, so terminal: cancelling is a no-op.
		return viewFromRecord(rec, time.Now(), false, false), nil
	}
	return s.cancel(r, context.Canceled.Error()), nil
}

// cancel cancels a live run's context; a still-queued run also
// transitions (with msg as its error) and retires here — the worker
// that later pops it sees it non-queued and skips it, so this is the
// only retire. The view reports the state reached.
func (s *Server) cancel(r *run, msg string) RunView {
	r.cancel()
	r.mu.Lock()
	queued := r.State == StateQueued
	if queued {
		r.State = StateCancelled
		r.Finished = time.Now()
		r.Error = msg
		r.Stages = r.stageTimings(r.Record, 0)
		s.met.observeTerminalStages(r.Stages)
		r.appendLocked("cancelled", Event{Error: msg})
	}
	v := r.viewLocked(false, false)
	r.mu.Unlock()
	if queued {
		s.retire(r)
	}
	return v
}

// Follow replays a run's event log from the start and then follows live
// appends, invoking fn per event in order, until the run is terminal
// and fully delivered, fn errors, or ctx ends — the SSE loop. A retired
// run, held or archived, replays its log and returns.
func (s *Server) Follow(ctx context.Context, id string, fn func(Event) error) error {
	r, rec, ok := s.find(id, true)
	if !ok {
		return errUnknownRun(id)
	}
	if r != nil {
		return r.follow(ctx, fn)
	}
	for _, e := range rec.Events {
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

// execute runs one queued submission on the calling worker.
func (s *Server) execute(r *run) {
	// The run's cancel context is a child of baseCtx and stays
	// registered there until cancelled — release it once execution is
	// over, or a long-lived daemon leaks one context per finished run.
	defer r.cancel()
	r.mu.Lock()
	if r.State != StateQueued {
		r.mu.Unlock()
		return // cancelled while queued (that path retires the run)
	}
	r.State = StateRunning
	r.Started = time.Now()
	wait := r.Started.Sub(r.Submitted)
	r.appendLocked("started", Event{})
	r.mu.Unlock()

	s.met.schedWait.Observe(wait.Seconds())
	s.log.Debug("run started", "run", r.ID, "wait", wait.Round(time.Microsecond),
		"request_id", r.reqID)

	s.mu.Lock()
	s.executions++
	s.mu.Unlock()

	rep, err := sim.RunObserved(r.ctx, r.Spec, s.progressFn(r), s.observeFn(r))

	r.mu.Lock()
	r.Finished = time.Now()
	if rep.Single != nil || rep.Table != nil || rep.FederationTable != nil {
		r.Report = &rep
	}
	// A terminal view always carries stage timings: what is known now —
	// queued, setup, execute — goes in with the state, and into the stage
	// histogram before the state is visible; retire adds the render and
	// the archive write.
	r.Stages = r.stageTimings(r.Record, 0)
	s.met.observeTerminalStages(r.Stages)
	ctxErr := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	// A cancellation that raced in after every cell completed leaves a
	// ctx error but an error-free report — the work is all there, so
	// classify by the result, not the race: only an *incomplete* run is
	// cancelled (the sweep pools stamp ctx.Err() into unrun cells, so
	// completeness is exactly "payload present, no cell errors").
	complete := r.Report != nil && len(rep.Errs()) == 0
	switch {
	case ctxErr && !complete:
		r.State = StateCancelled
		r.Error = err.Error()
		r.appendLocked("cancelled", Event{Error: r.Error})
	case err != nil && !ctxErr:
		r.State = StateFailed
		r.Error = err.Error()
		r.appendLocked("failed", Event{Error: r.Error})
	default:
		r.State = StateDone
		if errs := rep.Errs(); len(errs) > 0 {
			// Cell-level failures keep the run inspectable but mark it
			// failed: a cached result must never silently hide errors.
			r.State = StateFailed
			r.Error = errs[0].Error()
			r.appendLocked("failed", Event{Error: r.Error})
		} else {
			r.appendLocked("done", Event{Done: r.CellsDone, Total: r.CellsTotal})
		}
	}
	state, errMsg, elapsed := r.State, r.Error, r.Finished.Sub(r.Started)
	r.mu.Unlock()
	s.log.Info("run finished", "run", r.ID, "state", string(state),
		"elapsed", elapsed.Round(time.Millisecond), "error", errMsg,
		"request_id", r.reqID)
	s.retire(r)
}

// progressFn adapts finished-cell callbacks into run events.
func (s *Server) progressFn(r *run) sim.Progress {
	return func(done, total int, cell string, elapsed time.Duration, err error) {
		e := Event{Cell: cell, Done: done, Total: total, ElapsedMS: float64(elapsed.Microseconds()) / 1000}
		if err != nil {
			e.Error = err.Error()
		}
		r.mu.Lock()
		r.CellsDone, r.CellsTotal = done, total
		r.appendLocked("cell", e)
		r.mu.Unlock()
	}
}

// observeFn attaches the telemetry collector: every controller the run
// builds streams power draw, active cap, pending cores and running jobs
// into the run's tsdb series at each metrics sample. Single runs use
// the bare series names; sweep cells and federation members prefix
// theirs with the cell label ("smalljob/60%/SHUT/power"). Nothing stops
// a cell-list spec from naming two cells identically, and two
// controllers interleaving appends into one series would corrupt it —
// colliding labels get a "#2"-style disambiguator instead (assignment
// order follows pool scheduling, so the suffixes are stable only for
// deterministic label sets; deduped telemetry beats dropped telemetry).
func (s *Server) observeFn(r *run) sim.Observer {
	rs := s.tsdb.Run(r.ID)
	single := r.Spec.Mode == sim.ModeSingle
	var (
		mu   sync.Mutex
		seen = map[string]int{}
	)
	return func(cell string, ctl *rjms.Controller) {
		prefix := ""
		if !single {
			mu.Lock()
			seen[cell]++
			if n := seen[cell]; n > 1 {
				cell = fmt.Sprintf("%s#%d", cell, n)
			}
			mu.Unlock()
			prefix = cell + "/"
		}
		power, cap := prefix+"power", prefix+"cap"
		pending, running := prefix+"pending_cores", prefix+"running_jobs"
		// Engine hot-path counters are sampled out-of-band here: the
		// controller bumps plain uint64s on the deterministic path, and
		// each sample publishes the delta since the previous one as
		// atomic adds — the hot path never touches an atomic or
		// allocates for metrics. The tail between the final sample and
		// run teardown goes unreported; the counters are rates, not
		// ledgers.
		var last rjms.SchedCounters
		met := s.met
		ctl.AddObserver(func(now int64) {
			// Append errors (series caps, never out-of-order — the
			// virtual clock is monotone) drop the sample, not the run.
			_ = rs.Append(power, now, float64(ctl.Cluster().Power()))
			w := 0.0
			if c := ctl.ActiveCap(); c.IsSet() {
				w = float64(c.Watts())
			}
			_ = rs.Append(cap, now, w)
			_ = rs.Append(pending, now, float64(ctl.PendingCores()))
			_ = rs.Append(running, now, float64(ctl.RunningCount()))

			cur := ctl.SchedCounters()
			met.engineEvents.Add(cur.EventsFired - last.EventsFired)
			met.passRun.Add(cur.Passes - last.Passes)
			met.passSkipped.Add(cur.PassesSkipped - last.PassesSkipped)
			last = cur
		})
	}
}

// Shutdown drains the server: submissions are refused, queued runs are
// cancelled (they never started; re-submitting later re-executes), and
// the workers finish their in-flight runs — whose results are written
// through to the archive, so an archive-backed daemon hands its
// successor everything that completed. If ctx ends first, the in-flight runs are
// hard-cancelled through their contexts and Shutdown still waits for
// the pool to unwind (no goroutine outlives it) before returning ctx's
// error. The archive is closed last.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	queued := make([]*run, 0)
	for _, r := range s.runs {
		if r.current() == StateQueued {
			queued = append(queued, r)
		}
	}
	s.mu.Unlock()

	sort.Slice(queued, func(i, j int) bool { return queued[i].Seq < queued[j].Seq })
	for _, r := range queued {
		s.cancel(r, "service: shut down before the run started")
	}

	// Twins are cancelled outright — a live session has no batch result
	// to finish; its spec + mutation log (already served to the owner)
	// is the replayable artifact.
	twinErr := s.stopTwins(ctx)

	// The scheduler drains the in-flight runs (the cancelled queued ones
	// pop as no-ops). If ctx ends first, hard-cancel every run context
	// and wait again — the engine unwinds promptly, so no goroutine
	// outlives Shutdown.
	var err error
	if err = s.sched.Shutdown(ctx); err != nil {
		s.baseCancel()
		_ = s.sched.Shutdown(context.Background())
	}
	if err == nil {
		err = twinErr
	}
	if s.cfg.Archive != nil {
		if cerr := s.cfg.Archive.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Error is an API error with its HTTP status.
type Error struct {
	Status int
	Msg    string
	// RetryAfter, when non-zero, is surfaced as a Retry-After header on
	// 429 responses.
	RetryAfter time.Duration
}

func (e *Error) Error() string { return e.Msg }
