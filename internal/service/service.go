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
// Completed runs move out of the live registry into the persistence
// tier: always the in-memory MemStore (the hot tier, bounded by
// Config.MaxRuns), and — when Config.Archive is set — a write-through
// RunStore that survives restarts (cmd/simd wires the filesystem
// archive there). Reads fall through live -> hot -> archive, so a
// rebooted daemon still serves yesterday's reports and dedupes
// resubmissions of archived specs into cache hits.
//
// Layering (see ARCHITECTURE.md "Service layer" and "Persistence &
// tenancy"):
//
//	cmd/simd                     HTTP + signals + archive/tokens wiring
//	        v
//	internal/service             queue, spec-hash cache, events, drain
//	        |                    auth/quotas, MemStore + archive tiers
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
	// MaxRuns caps the hot tier's retained run records; when exceeded,
	// the oldest records (and their live telemetry) are evicted
	// (default 1024). Archived copies survive eviction.
	MaxRuns int
	// Archive, when non-nil, is the durable store completed runs are
	// written through to and read back from after hot-tier eviction or
	// a restart. The server owns it from New on and closes it in
	// Shutdown.
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

// run is one live (queued or running) submission: its Record, plus
// what only a live run has. Terminal runs are retired into the store
// tiers and no longer live here.
type run struct {
	// Record is the run's one row: every view and listing renders from
	// it, and retire hands it to the store tiers. eventLog.mu guards it.
	Record

	ctx    context.Context
	cancel context.CancelFunc

	// reqID is the X-Request-ID of the submission that created the run,
	// stamped into its lifecycle log lines; setupDur is the
	// validate/normalize/hash time, folded into the stage timings.
	reqID    string
	setupDur time.Duration

	eventLog // the events retire copies into Record.Events
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
	// Runs counts the process-visible runs: live plus the hot tier.
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

// Server is the daemon core: the live run registry, the spec-hash
// result cache, the FIFO worker scheduler, the telemetry store and the
// persistence tiers. Construct with New; serve its HTTP API via
// Handler; stop with Shutdown.
type Server struct {
	cfg   Config
	tsdb  *tsdb.Store
	store *MemStore // hot tier: terminal runs completed in this process
	// tiers is the store read order: the hot tier, then the archive when
	// one is configured.
	tiers []RunStore

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

	mu          sync.Mutex
	runs        map[string]*run // live (non-terminal) runs only
	byHash      map[string]*run // live dedupe index
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
	// Hot-tier eviction drops the run's live telemetry with it; the
	// archived copy keeps a snapshot for later restore.
	s.store = NewMemStore(cfg.MaxRuns, func(rec Record) { s.tsdb.Drop(rec.ID) })
	s.tiers = []RunStore{s.store}
	if cfg.Archive != nil {
		s.tiers = append(s.tiers, cfg.Archive)
		if max, err := cfg.Archive.MaxSeq(); err == nil && max >= 0 {
			s.nextSeq = max + 1
		}
	}
	s.sched = newFIFO(cfg.Workers, cfg.QueueDepth, 0, nil, s.executeID)
	s.log = cfg.Logger.Component("service")
	s.met = newServerMetrics(s)
	return s
}

// executeID is the scheduler's executor: resolve the id to its live run
// and execute it. Ids whose runs were cancelled while queued (or
// already retired) are cheap no-ops — the scheduler stays free of run
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

// Store exposes the hot-tier run store (tests and tooling).
func (s *Server) Store() RunStore { return s.store }

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
	if n, err := s.store.Len(); err == nil {
		st.Runs += n
	}
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
// — live, hot or archived — dedupes into that run and reports cacheHit
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
	// submission may have started or warmed the run in the meantime.
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
		if err == nil && ok && rec.State == StateDone {
			if v, ok := s.storeHitLocked(rec, "archive", s.met.tierArchive, reqID); ok {
				return v, true, nil
			}
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
	// registration — the run was never accepted.
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

// cacheHitLocked answers a spec hash from what the server holds in
// memory: a live run that has not failed or been cancelled, else a done
// record in the hot tier. s.mu must be held: it serializes the hit-count
// updates (stores do no read-modify-write of their own).
func (s *Server) cacheHitLocked(hash, reqID string) (RunView, bool) {
	if prev := s.byHash[hash]; prev != nil {
		prev.mu.Lock()
		if st := prev.State; st != StateFailed && st != StateCancelled {
			prev.CacheHits++
			s.cacheHits++
			s.met.tierLive.Inc()
			v := prev.viewLocked(false, false)
			prev.mu.Unlock()
			s.log.Debug("cache hit", "run", v.ID, "tier", "live", "request_id", reqID)
			return v, true
		}
		prev.mu.Unlock()
	}
	if rec, ok, err := s.store.ByHash(hash); err == nil && ok && rec.State == StateDone {
		return s.storeHitLocked(rec, "hot", s.met.tierHot, reqID)
	}
	return RunView{}, false
}

// storeHitLocked counts a cache hit on a stored done record — the
// durable half of the result cache — and re-puts it into the hot tier,
// which warms an archive-only record back into memory; s.mu must be
// held.
func (s *Server) storeHitLocked(rec Record, tier string, hits *obs.Counter, reqID string) (RunView, bool) {
	rec.CacheHits++
	s.cacheHits++
	hits.Inc()
	if err := s.store.Put(rec); err != nil {
		return RunView{}, false
	}
	v := viewFromRecord(rec, time.Now(), false, false)
	s.log.Debug("cache hit", "run", v.ID, "tier", tier, "request_id", reqID)
	return v, true
}

// storeRecord resolves a run id through the store tiers, payload and
// all: the archive reads and decodes the run's file.
func (s *Server) storeRecord(id string) (Record, bool) {
	for _, tier := range s.tiers {
		if rec, ok, err := tier.Get(id); err == nil && ok {
			return rec, true
		}
	}
	return Record{}, false
}

// storeMeta resolves a run id's metadata-only record through the store
// tiers, from their indexes: no file is read.
func (s *Server) storeMeta(id string) (Record, bool) {
	for _, tier := range s.tiers {
		if rec, ok, err := tier.Meta(id); err == nil && ok {
			return rec, true
		}
	}
	return Record{}, false
}

// retire moves a terminal run out of the live registry into the store
// tiers: hot always, archive (write-through) for done runs. The record
// is built outside the server lock (rendering a big sweep's sinks is
// the expensive part), then the handoff — final hit count, live-index
// removal, hot-tier put — is atomic under s.mu, so a concurrent Submit
// sees the run either live or stored, never neither, and no cache hit
// lands between the count copy and the put.
func (s *Server) retire(r *run) {
	r.mu.Lock()
	rec := r.Record
	rec.Events = append([]Event(nil), r.events...)
	r.mu.Unlock()

	renderStart := time.Now()
	if rec.Report != nil {
		rec.Renders = renderAll(*rec.Report)
		// Views of the still-live run serve these from now on.
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
	// written by another process sharing the directory. The write
	// happens before the live→hot handoff so its duration lands in the
	// hot record's stage timings; the run is still live (and deduping)
	// meanwhile. The archived copy itself carries ArchiveMS 0 — it was
	// serialized mid-write — and a hit count that may trail the hot
	// tier's by the hits landing during the write; both keep accruing
	// only in the hot tier afterwards anyway. The archive's index keeps
	// the record it was handed (Meta answers from it), so the hot copy
	// gets its own stage timings rather than a write through the shared
	// pointer.
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
	s.met.observeStages(rec.Stages)

	s.mu.Lock()
	r.mu.Lock()
	rec.CacheHits = r.CacheHits
	r.Stages = rec.Stages
	r.mu.Unlock()
	if s.runs[r.ID] == r {
		delete(s.runs, r.ID)
		if s.byHash[r.SpecHash] == r {
			delete(s.byHash, r.SpecHash)
		}
	}
	putErr := s.store.Put(rec)
	s.mu.Unlock()
	_ = putErr
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
// resolving live runs first, then the store tiers, with the caller's
// tenancy applied: on an authenticated daemon a non-admin tenant
// resolves only its own runs, and anyone else's run answers the exact
// 404 an id that never existed answers — a 403 would confirm the id is
// taken, handing a tenant walking the sequential id space an existence
// oracle.
func (s *Server) GetAs(tenant TenantConfig, id string, withReport bool) (RunView, error) {
	s.mu.Lock()
	r := s.runs[id]
	s.mu.Unlock()
	if r != nil {
		if !owns(s.cfg.Auth, tenant, r.Tenant) {
			return RunView{}, errUnknownRun(id)
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.viewLocked(withReport, true), nil
	}
	// A status poll needs only the metadata; the report payload is what
	// makes a stored run worth reading from disk.
	lookup := s.storeMeta
	if withReport {
		lookup = s.storeRecord
	}
	if rec, ok := lookup(id); ok && owns(s.cfg.Auth, tenant, rec.Tenant) {
		return viewFromRecord(rec, time.Now(), withReport, true), nil
	}
	return RunView{}, errUnknownRun(id)
}

// owner names the tenant a run belongs to, wherever the run lives; false
// when no tier knows the id.
func (s *Server) owner(id string) (string, bool) {
	s.mu.Lock()
	r := s.runs[id]
	s.mu.Unlock()
	if r != nil {
		return r.Tenant, true
	}
	rec, ok := s.storeMeta(id)
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
// with the requested options; archive-only records serve the rendering
// captured at completion (default options), so a restarted daemon still
// answers byte-identically for the formats it stored. A stored run is
// resolved once: the one record read serves either form.
func (s *Server) RenderReport(id, format string, opt sim.SinkOptions, w io.Writer) error {
	if _, err := sim.Sinks.Lookup(format); err != nil {
		return &Error{Status: 400, Msg: err.Error()}
	}
	s.mu.Lock()
	r := s.runs[id]
	s.mu.Unlock()
	if r != nil {
		r.mu.Lock()
		state, rep, errMsg := r.State, r.Report, r.Error
		r.mu.Unlock()
		if !state.Terminal() {
			return &Error{Status: 409, Msg: fmt.Sprintf("service: run %s is %s; report not ready", id, state)}
		}
		if rep == nil {
			return &Error{Status: 409, Msg: fmt.Sprintf("service: run %s (%s) produced no report: %s", id, state, errMsg)}
		}
		return sim.Export(w, format, *rep, opt)
	}
	rec, ok := s.storeRecord(id)
	if !ok {
		return errUnknownRun(id)
	}
	if rec.Report != nil {
		return sim.Export(w, format, *rec.Report, opt)
	}
	b, ok := rec.Renders[format]
	if !ok {
		return &Error{Status: 409, Msg: fmt.Sprintf("service: run %s (%s) stored no %s rendering", id, rec.State, format)}
	}
	_, werr := w.Write(b)
	return werr
}

// List returns the run views matching the filter in submission order
// across every tier — live runs, the hot tier and the archive — plus
// the cursor of the next page ("" when exhausted). Ids are unique
// across tiers (the archive seeds the id sequence at boot), with the
// freshest tier winning when a record exists in several.
//
// Each tier is asked for one row more than the page, after the cursor,
// and the merge keeps the first Limit distinct ids by Seq. That is the
// page a merge of everything would give: a row among the union's first
// Limit+1 distinct ids has at most Limit rows before it in any tier
// holding it, so that tier returned it; and an id's Seq and filter
// fields are the same in every tier (the id is derived from the Seq).
func (s *Server) List(f ListFilter) ([]RunView, string, error) {
	after, err := parseCursor(f.Cursor)
	if err != nil {
		return nil, "", err
	}
	tierF := f
	if f.Limit > 0 {
		tierF.Limit = f.Limit + 1
	}

	var live []Record
	s.mu.Lock()
	for _, r := range s.runs {
		r.mu.Lock()
		if r.Seq > after && f.Match(r.Record) {
			live = append(live, r.Record.light())
		}
		r.mu.Unlock()
	}
	s.mu.Unlock()
	tierRows := make([][]Record, len(s.tiers))
	n := len(live)
	for i, tier := range s.tiers {
		if tierRows[i], _, err = tier.List(tierF); err != nil {
			return nil, "", err
		}
		n += len(tierRows[i])
	}
	records := append(make([]Record, 0, n), live...)
	for _, rows := range tierRows {
		records = append(records, rows...)
	}

	// Stable: of one id's rows, adjacent (an id is its Seq), the
	// freshest tier's stays first.
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
	s.mu.Lock()
	r := s.runs[id]
	s.mu.Unlock()
	if r == nil {
		if rec, ok := s.storeMeta(id); ok && owns(s.cfg.Auth, tenant, rec.Tenant) {
			// Already terminal: cancelling is a no-op.
			return viewFromRecord(rec, time.Now(), false, false), nil
		}
		return RunView{}, errUnknownRun(id)
	}
	if !owns(s.cfg.Auth, tenant, r.Tenant) {
		return RunView{}, errUnknownRun(id)
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
// and fully delivered, fn errors, or ctx ends — the SSE loop. Stored
// (terminal) runs replay their archived log and return.
func (s *Server) Follow(ctx context.Context, id string, fn func(Event) error) error {
	s.mu.Lock()
	r := s.runs[id]
	s.mu.Unlock()
	if r != nil {
		return r.follow(ctx, fn)
	}
	rec, ok := s.storeRecord(id)
	if !ok {
		return errUnknownRun(id)
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
	// queued, setup, execute — goes in with the state; retire adds the
	// render and the archive write.
	r.Stages = r.stageTimings(r.Record, 0)
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
// the workers finish their in-flight runs — whose results land in the
// store tiers, so an archive-backed daemon hands its successor
// everything that completed. If ctx ends first, the in-flight runs are
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
