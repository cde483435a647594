package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// GatewayConfig tunes a fleet gateway. The zero value is serviceable:
// open (no auth), 256 queued submissions, 4 dispatch slots, 15s worker
// leases.
type GatewayConfig struct {
	// Auth enables bearer-token tenancy, exactly as on a single daemon.
	// The gateway enforces ownership itself; workers behind it run open
	// and must not be reachable by tenants directly.
	Auth *Auth
	// QueueDepth bounds undispatched submissions (default 256).
	QueueDepth int
	// Dispatchers is the number of concurrent dispatch slots — how many
	// submissions may be in flight toward workers at once (default 4).
	Dispatchers int
	// LeaseTTL is how long a worker stays routable without a heartbeat;
	// past it the worker is declared dead and its in-flight runs are
	// requeued (default 15s).
	LeaseTTL time.Duration
	// RetryDelay paces dispatch retries when no worker can take a run
	// (default 250ms).
	RetryDelay time.Duration
	// PollInterval paces the per-run completion watchers (default
	// 150ms, the Client default).
	PollInterval time.Duration
	// Logger receives the gateway's structured log lines; nil disables
	// logging (every log call on a nil logger is a cheap no-op).
	Logger *obs.Logger
}

func (c GatewayConfig) withDefaults() GatewayConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Dispatchers <= 0 {
		c.Dispatchers = 4
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 250 * time.Millisecond
	}
	return c
}

// errNoWorkers is the retryable dispatch verdict while the fleet is
// empty: the retry scheduler keeps the run queued until a worker joins.
var errNoWorkers = errors.New("gateway: no live workers")

// member is one registered worker: its address, its lease and the
// client all proxied traffic rides on.
type member struct {
	name     string
	base     string
	client   *Client
	lastSeen time.Time
	alive    bool
}

// gwRun is the gateway-side entry of one submission: the Record every
// view and listing renders from — owner, spec, and the last state the
// watcher observed — plus where the run executes. The gateway never
// runs physics — a gwRun is a routing entry, and every heavy read
// (report, telemetry, events) proxies to the assigned worker.
type gwRun struct {
	Record

	// worker/workerRunID bind the run to its executing member; both
	// empty while queued (or requeued after a worker death).
	worker      string
	workerRunID string
	// requeues counts worker deaths this run survived.
	requeues int
	// reqID is the submitting request's trace id; dispatch and the
	// watcher forward it to the worker so one id stitches the gateway's
	// and the worker's logs together.
	reqID string
}

// view renders the routing entry (no spec: the worker's view carries it
// once the run is assigned); g.mu must be held.
func (r *gwRun) view() RunView {
	return viewFromRecord(r.Record, time.Now(), false, false)
}

// endLocked moves a still-live run to a terminal state the gateway
// decided itself (no worker reported it); g.mu must be held.
func (r *gwRun) endLocked(state State, msg string) {
	if !r.State.Terminal() {
		r.State, r.Error, r.Finished = state, msg, time.Now()
	}
}

// Gateway is the fleet front door: it accepts the same /v1 API a single
// daemon serves, routes each fresh submission to a registered worker by
// rendezvous hashing on the spec hash (identical specs always land on
// the same live worker, so every worker's local result cache keeps its
// hit rate), watches runs to completion, and requeues the in-flight
// runs of any worker whose lease expires. The simulation engine is
// deterministic, so a requeued run re-executed on another worker
// produces a byte-identical report — worker death costs latency, never
// correctness.
type Gateway struct {
	cfg   GatewayConfig
	sched *fifo
	met   *gatewayMetrics
	log   *obs.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu        sync.Mutex
	members   map[string]*member
	runs      map[string]*gwRun
	byHash    map[string]*gwRun // latest run per hash (the dedupe index)
	nextSeq   int
	cacheHits int
	requeues  int
	draining  bool
}

// NewGateway builds a gateway and starts its dispatcher and lease
// sweeper.
func NewGateway(cfg GatewayConfig) *Gateway {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	g := &Gateway{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		members:    map[string]*member{},
		runs:       map[string]*gwRun{},
		byHash:     map[string]*gwRun{},
	}
	g.log = cfg.Logger.Component("gateway")
	g.met = newGatewayMetrics(g)
	g.sched = newFIFO(cfg.Dispatchers, cfg.QueueDepth, cfg.RetryDelay, g.met.dispatchRetries.Inc, g.dispatch)
	go g.sweep()
	return g
}

// Shutdown stops intake, drains the dispatch slots and stops the
// watchers. Runs already handed to workers keep executing there — a
// gateway restart re-learns the fleet from re-registrations.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
	err := g.sched.Shutdown(ctx)
	g.baseCancel()
	if err != nil {
		_ = g.sched.Shutdown(context.Background())
	}
	return err
}

// RendezvousPick returns the member owning a spec hash: the candidate
// with the highest fnv64a(member + NUL + hash) score (ties broken by
// name). Every caller with the same live set picks the same member, and
// a member's death only moves the hashes it owned — the property that
// keeps worker-local result caches hot across fleet changes.
func RendezvousPick(members []string, specHash string) string {
	best := ""
	var bestScore uint64
	for _, m := range members {
		h := fnv.New64a()
		io.WriteString(h, m)
		h.Write([]byte{0})
		io.WriteString(h, specHash)
		if s := h.Sum64(); best == "" || s > bestScore || (s == bestScore && m < best) {
			best, bestScore = m, s
		}
	}
	return best
}

// Register adds (or re-addresses) a worker and opens its lease,
// returning the lease TTL the worker must heartbeat within.
func (g *Gateway) Register(name, base string) (time.Duration, error) {
	if name == "" || base == "" {
		return 0, &Error{Status: 400, Msg: "gateway: join needs both name and url"}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.members[name]
	if m == nil {
		m = &member{name: name}
		g.members[name] = m
	}
	if m.base != base || m.client == nil {
		m.base = base
		c := NewClient(base)
		c.PollInterval = g.cfg.PollInterval
		m.client = c
	}
	m.alive = true
	m.lastSeen = time.Now()
	return g.cfg.LeaseTTL, nil
}

// Heartbeat renews a worker's lease. Unknown names get a 404 — the
// worker's cue to re-register (a restarted gateway has an empty member
// table).
func (g *Gateway) Heartbeat(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.members[name]
	if m == nil {
		return &Error{Status: 404, Msg: fmt.Sprintf("gateway: unknown member %q; re-register", name)}
	}
	m.alive = true
	m.lastSeen = time.Now()
	return nil
}

// sweep expires worker leases: a member silent past the TTL is dead and
// its in-flight runs are requeued.
func (g *Gateway) sweep() {
	tick := g.cfg.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-g.baseCtx.Done():
			return
		case <-t.C:
		}
		now := time.Now()
		g.mu.Lock()
		var dead []string
		for name, m := range g.members {
			if m.alive && now.Sub(m.lastSeen) > g.cfg.LeaseTTL {
				dead = append(dead, name)
			}
		}
		g.mu.Unlock()
		for _, name := range dead {
			g.markDead(name)
		}
	}
}

// markDead declares a worker unroutable and requeues every non-terminal
// run assigned to it. Idempotent — the sweeper, a failed dispatch and a
// failed watcher may all report the same death; each call rescues
// whatever is still bound to the corpse.
func (g *Gateway) markDead(name string) {
	g.mu.Lock()
	m := g.members[name]
	if m == nil {
		g.mu.Unlock()
		return
	}
	wasAlive := m.alive
	m.alive = false
	var requeue []*gwRun
	for _, r := range g.runs {
		if r.worker == name && !r.State.Terminal() {
			r.worker, r.workerRunID = "", ""
			r.State = StateQueued
			r.Started = time.Time{}
			r.CellsDone = 0
			r.requeues++
			g.requeues++
			requeue = append(requeue, r)
		}
	}
	g.mu.Unlock()
	g.met.requeues.Add(uint64(len(requeue)))
	if wasAlive || len(requeue) > 0 {
		g.log.Warn("worker declared dead", "member", name, "requeued", len(requeue))
	}
	for _, r := range requeue {
		if err := g.sched.Enqueue(r.ID); err != nil {
			g.mu.Lock()
			r.endLocked(StateFailed, fmt.Sprintf("gateway: requeue after worker %s died: %v", name, err))
			g.mu.Unlock()
		}
	}
}

// dispatch is the retry scheduler's executor: route one gateway run to
// the rendezvous owner of its spec hash. A returned error means "retry
// later" (empty fleet, worker busy or mid-death); nil is a permanent
// verdict (assigned, already terminal, or failed for a reason retrying
// cannot fix).
func (g *Gateway) dispatch(id string) error {
	g.mu.Lock()
	r := g.runs[id]
	if r == nil || r.State.Terminal() || r.worker != "" {
		g.mu.Unlock()
		return nil
	}
	var alive []string
	for name, m := range g.members {
		if m.alive {
			alive = append(alive, name)
		}
	}
	if len(alive) == 0 {
		g.mu.Unlock()
		return errNoWorkers
	}
	pick := RendezvousPick(alive, r.SpecHash)
	m := g.members[pick]
	client := m.client
	spec := r.Spec
	reqID := r.reqID
	g.mu.Unlock()

	g.met.dispatches.Inc()
	// The submitting request's trace id rides the dispatch: the worker's
	// middleware adopts it, so the worker-side run logs carry the same
	// request_id the gateway logged at submission.
	ctx, cancel := context.WithTimeout(g.baseCtx, 15*time.Second)
	v, _, err := client.Submit(obs.WithRequestID(ctx, reqID), spec)
	cancel()
	if err != nil {
		g.met.dispatchErrors.Inc()
		var apiErr *Error
		if errors.As(err, &apiErr) {
			if apiErr.Status == 503 || apiErr.Status == 429 {
				// The worker is full or draining — retryable.
				g.log.Debug("dispatch deferred", "run", id, "member", pick, "status", apiErr.Status, "request_id", reqID)
				return err
			}
			// The spec itself was refused: retrying re-submits the same
			// bytes to the same verdict.
			g.mu.Lock()
			r.endLocked(StateFailed, apiErr.Msg)
			g.mu.Unlock()
			g.log.Info("dispatch refused", "run", id, "member", pick, "error", apiErr.Msg, "request_id", reqID)
			return nil
		}
		// Transport failure: the worker is unreachable. Declare it dead
		// (requeueing everything it held, including this run) and retry.
		g.markDead(pick)
		return err
	}

	g.mu.Lock()
	if r.State.Terminal() {
		// Cancelled while the submit was in flight — undo on the worker.
		g.mu.Unlock()
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, _ = client.Cancel(ctx, v.ID)
		}()
		return nil
	}
	r.worker = pick
	r.workerRunID = v.ID
	if v.State != "" {
		r.State = v.State
	}
	g.mu.Unlock()
	g.log.Info("run dispatched", "run", id, "member", pick, "worker_run", v.ID, "request_id", reqID)
	go g.watch(id, pick, v.ID)
	return nil
}

// watch polls one assigned run to completion, mirroring progress into
// the gateway record. A polling failure means the worker vanished:
// declare it dead, which requeues this run (and its siblings) for a
// fresh dispatch.
func (g *Gateway) watch(id, memberName, workerRunID string) {
	g.mu.Lock()
	m := g.members[memberName]
	var reqID string
	if r := g.runs[id]; r != nil {
		reqID = r.reqID
	}
	g.mu.Unlock()
	if m == nil {
		return
	}
	v, err := m.client.Wait(obs.WithRequestID(g.baseCtx, reqID), workerRunID, func(rv RunView) {
		g.observe(id, memberName, rv)
	})
	if err != nil {
		if g.baseCtx.Err() != nil {
			return
		}
		g.markDead(memberName)
		return
	}
	g.observe(id, memberName, v)
}

// observe folds a worker-reported view into the gateway record, if the
// run is still bound to that worker.
func (g *Gateway) observe(id, memberName string, rv RunView) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.runs[id]
	if r == nil || r.worker != memberName || r.State.Terminal() {
		return
	}
	r.State = rv.State
	r.Error = rv.Error
	r.CellsDone, r.CellsTotal = rv.CellsDone, rv.CellsTotal
	if rv.StartedAt != nil && r.Started.IsZero() {
		r.Started = *rv.StartedAt
	}
	if rv.Terminal() {
		if rv.FinishedAt != nil {
			r.Finished = *rv.FinishedAt
		} else {
			r.Finished = time.Now()
		}
	}
}

// SubmitTraced is the gateway's submission path: validate and
// content-address exactly as a daemon would, dedupe against every run
// the gateway has routed, then queue for dispatch. The gateway bills
// quotas itself — workers run open behind it. The request's trace id
// (from ctx) is pinned to the run and forwarded on every worker call
// the gateway makes for it.
func (g *Gateway) SubmitTraced(ctx context.Context, tenant TenantConfig, spec sim.RunSpec) (RunView, bool, error) {
	reqID := obs.RequestIDFrom(ctx)
	norm, hash, apiErr := admitRun(g.cfg.Auth, tenant, spec)
	if apiErr != nil {
		return RunView{}, false, apiErr
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return RunView{}, false, errDraining("submissions")
	}
	if prev := g.byHash[hash]; prev != nil && prev.State != StateFailed && prev.State != StateCancelled {
		prev.CacheHits++
		g.cacheHits++
		g.log.Debug("cache hit", "run", prev.ID, "hash", hash[:12], "request_id", reqID)
		return prev.view(), true, nil
	}
	if apiErr := overQuota(g.cfg.Auth, tenant, func() (live int) {
		for _, r := range g.runs {
			if r.Tenant == tenant.Name && !r.State.Terminal() {
				live++
			}
		}
		return live
	}); apiErr != nil {
		return RunView{}, false, apiErr
	}
	r := &gwRun{
		Record: newRecord(fmt.Sprintf("g%06d", g.nextSeq+1), g.nextSeq, tenant.Name, hash, norm),
		reqID:  reqID,
	}
	g.nextSeq++
	g.runs[r.ID] = r
	g.byHash[hash] = r
	if err := g.sched.Enqueue(r.ID); err != nil {
		delete(g.runs, r.ID)
		delete(g.byHash, hash)
		return RunView{}, false, errEnqueue(err, g.cfg.QueueDepth)
	}
	g.log.Info("run queued", "run", r.ID, "hash", hash[:12], "tenant", tenant.Name, "request_id", reqID)
	return r.view(), false, nil
}

// memberCounts tallies the member table for the gauge closures.
func (g *Gateway) memberCounts() (alive, dead int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.members {
		if m.alive {
			alive++
		} else {
			dead++
		}
	}
	return alive, dead
}

// lookup resolves a gateway run id under the caller's tenancy; foreign
// tenants get the identical unknown-run 404 a daemon answers.
func (g *Gateway) lookup(tenant TenantConfig, id string) (*gwRun, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.runs[id]
	if r == nil || !owns(g.cfg.Auth, tenant, r.Tenant) {
		return nil, errUnknownRun(id)
	}
	return r, nil
}

// owner names the tenant a routed run belongs to; false for ids the
// gateway never issued.
func (g *Gateway) owner(id string) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.runs[id]
	if r == nil {
		return "", false
	}
	return r.Tenant, true
}

// assignment snapshots a run's current worker binding.
func (g *Gateway) assignment(r *gwRun) (m *member, workerRunID string, v RunView) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r.worker != "" {
		m = g.members[r.worker]
		workerRunID = r.workerRunID
	}
	return m, workerRunID, r.view()
}

// GetAs resolves one run's view for a tenant. Assigned runs answer with
// the worker's live view (patched back into the gateway's namespace);
// queued and locally-terminal runs answer from the gateway record. A
// worker that fails the proxy read is declared dead and the requeued
// local view answers instead — a fleet member dying mid-poll looks like
// a run going back to queued, never an error.
func (g *Gateway) GetAs(tenant TenantConfig, id string, withReport bool) (RunView, error) {
	r, err := g.lookup(tenant, id)
	if err != nil {
		return RunView{}, err
	}
	m, workerRunID, local := g.assignment(r)
	if m == nil || workerRunID == "" {
		return local, nil
	}
	ctx, cancel := context.WithTimeout(g.baseCtx, 10*time.Second)
	defer cancel()
	var wv RunView
	path := "/v1/runs/" + workerRunID
	if !withReport {
		path += "?report=0"
	}
	if err := m.client.do(ctx, "GET", path, nil, &wv); err != nil {
		if g.baseCtx.Err() == nil && !isAPIError(err) {
			g.markDead(m.name)
		}
		_, _, local = g.assignment(r)
		return local, nil
	}
	g.observe(id, m.name, wv)
	return g.patchView(r, wv), nil
}

// patchView rebases a worker view into the gateway namespace: the
// gateway's id, tenant, cache-hit count and submission time replace the
// worker's (workers are open and see each spec exactly once per
// dispatch).
func (g *Gateway) patchView(r *gwRun, wv RunView) RunView {
	g.mu.Lock()
	defer g.mu.Unlock()
	wv.ID = r.ID
	wv.Tenant = r.Tenant
	wv.CacheHits = r.CacheHits
	wv.SubmittedAt = r.Submitted
	return wv
}

// CancelAs cancels a run fleet-wide: unassigned runs transition locally
// (dispatch skips terminal runs), assigned runs proxy the cancel to the
// executing worker. Cross-tenant cancels answer the unknown-run 404,
// exactly as on a single daemon.
func (g *Gateway) CancelAs(tenant TenantConfig, id string) (RunView, error) {
	g.mu.Lock()
	r := g.runs[id]
	if r == nil || !owns(g.cfg.Auth, tenant, r.Tenant) {
		g.mu.Unlock()
		return RunView{}, errUnknownRun(id)
	}
	if r.worker == "" || r.State.Terminal() {
		r.endLocked(StateCancelled, context.Canceled.Error()) // a no-op once terminal
		v := r.view()
		g.mu.Unlock()
		return v, nil
	}
	m := g.members[r.worker]
	workerRunID := r.workerRunID
	g.mu.Unlock()

	ctx, cancel := context.WithTimeout(g.baseCtx, 10*time.Second)
	defer cancel()
	wv, err := m.client.Cancel(ctx, workerRunID)
	if err != nil {
		if g.baseCtx.Err() == nil && !isAPIError(err) {
			// The worker died under the cancel: its runs requeue, and
			// this one is now unassigned — cancel it locally.
			g.markDead(m.name)
		}
		g.mu.Lock()
		if r.worker == "" {
			r.endLocked(StateCancelled, context.Canceled.Error())
		}
		v := r.view()
		g.mu.Unlock()
		return v, nil
	}
	g.observe(id, m.name, wv)
	return g.patchView(r, wv), nil
}

// List pages the gateway's routed runs with the shared filter
// machinery, copying only the page's rows.
func (g *Gateway) List(f ListFilter) ([]RunView, string, error) {
	g.mu.Lock()
	page, next, err := listPage(g.runs, f, func(r *gwRun) Record { return r.Record })
	g.mu.Unlock()
	if err != nil {
		return nil, "", err
	}
	return viewsFromRecords(page), next, nil
}

// MemberView is one worker's row in the fleet listing.
type MemberView struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// Alive reports whether the lease is current.
	Alive bool `json:"alive"`
	// LastSeenMS is how long ago the last register/heartbeat landed.
	LastSeenMS float64 `json:"last_seen_ms"`
	// Runs counts the gateway runs currently assigned to this worker.
	Runs int `json:"runs"`
}

// FleetView is the GET /v1/fleet answer.
type FleetView struct {
	Members  []MemberView `json:"members"`
	LeaseTTL string       `json:"lease_ttl"`
}

// Fleet snapshots the member table.
func (g *Gateway) Fleet() FleetView {
	g.mu.Lock()
	defer g.mu.Unlock()
	assigned := map[string]int{}
	for _, r := range g.runs {
		if r.worker != "" && !r.State.Terminal() {
			assigned[r.worker]++
		}
	}
	fv := FleetView{LeaseTTL: g.cfg.LeaseTTL.String(), Members: []MemberView{}}
	for _, m := range g.members {
		fv.Members = append(fv.Members, MemberView{
			Name:       m.name,
			URL:        m.base,
			Alive:      m.alive,
			LastSeenMS: float64(time.Since(m.lastSeen).Microseconds()) / 1000,
			Runs:       assigned[m.name],
		})
	}
	sort.Slice(fv.Members, func(i, j int) bool { return fv.Members[i].Name < fv.Members[j].Name })
	return fv
}

// GatewayStats are the gateway's own counters.
type GatewayStats struct {
	Runs      int  `json:"runs"`
	Queued    int  `json:"queued"`
	Running   int  `json:"running"`
	Done      int  `json:"done"`
	Failed    int  `json:"failed"`
	Cancelled int  `json:"cancelled"`
	CacheHits int  `json:"cache_hits"`
	Requeues  int  `json:"requeues"`
	Members   int  `json:"members"`
	Alive     int  `json:"alive_members"`
	Draining  bool `json:"draining"`
	// TwinsLive folds the fleet's live twin sessions (summed from the
	// reachable members' stats — twins run on workers, not the gateway).
	TwinsLive int `json:"twins_live,omitempty"`
}

// MemberStats is one worker's row in the fleet-wide stats: the
// gateway's view of the member plus the stats the member itself
// reported (nil when unreachable).
type MemberStats struct {
	MemberView
	Stats *Stats `json:"stats,omitempty"`
	Error string `json:"error,omitempty"`
}

// FleetStats is the GET /v1/stats answer on a gateway: its own counters
// plus every member's live /v1/stats.
type FleetStats struct {
	Gateway GatewayStats  `json:"gateway"`
	Members []MemberStats `json:"members"`
}

// Stats aggregates fleet-wide counters, querying every registered
// member concurrently (dead members report their last-known row with no
// stats).
func (g *Gateway) Stats(ctx context.Context) FleetStats {
	fv := g.Fleet()
	g.mu.Lock()
	gs := GatewayStats{
		Runs:      len(g.runs),
		CacheHits: g.cacheHits,
		Requeues:  g.requeues,
		Members:   len(g.members),
		Draining:  g.draining,
	}
	clients := map[string]*Client{}
	for name, m := range g.members {
		if m.alive {
			gs.Alive++
			clients[name] = m.client
		}
	}
	for _, r := range g.runs {
		switch r.State {
		case StateQueued:
			gs.Queued++
		case StateRunning:
			gs.Running++
		case StateDone:
			gs.Done++
		case StateFailed:
			gs.Failed++
		case StateCancelled:
			gs.Cancelled++
		}
	}
	g.mu.Unlock()

	out := FleetStats{Gateway: gs, Members: make([]MemberStats, len(fv.Members))}
	var wg sync.WaitGroup
	for i, mv := range fv.Members {
		out.Members[i] = MemberStats{MemberView: mv}
		c := clients[mv.Name]
		if c == nil {
			continue
		}
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			st, err := c.Stats(ctx)
			if err != nil {
				out.Members[i].Error = err.Error()
				return
			}
			out.Members[i].Stats = &st
		}(i, c)
	}
	wg.Wait()
	for _, ms := range out.Members {
		if ms.Stats != nil {
			out.Gateway.TwinsLive += ms.Stats.TwinsLive
		}
	}
	return out
}

// isAPIError reports whether err is a structured API answer (the worker
// spoke — it is alive) as opposed to a transport failure.
func isAPIError(err error) bool {
	var apiErr *Error
	return errors.As(err, &apiErr)
}
