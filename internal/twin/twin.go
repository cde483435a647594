// Package twin turns the batch federation broker into a long-lived
// digital twin of a multi-cluster site: a continuous lockstep session
// over rjms controllers, driven by a virtual clock with a configurable
// real-time ratio (including as-fast-as-possible), streaming telemetry
// into a sink at every epoch boundary and accepting live mutations —
// budget overrides, member add/remove, node failure and repair — from
// a serialized queue that only ever applies at epoch boundaries.
//
// Determinism is the load-bearing contract: the member simulations are
// pure functions of their scenarios, the budget signal is a pure
// function of virtual time, and mutations take effect only at epoch
// boundaries, so a session replayed from the same Spec plus its
// recorded mutation log (Log) produces byte-identical telemetry. That
// is what makes failover and audit of a long-lived twin possible: any
// observer can reconstruct exactly what the site saw.
package twin

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/rjms"
	"repro/internal/signal"
	"repro/internal/sim"
)

// DefaultEpoch is the redistribution period when EpochSec is zero —
// the federation default.
const DefaultEpoch = replay.DefaultFederationEpoch

// DefaultHorizon is the virtual horizon when HorizonSec is zero: one
// simulated week. A twin is long-lived but not literally unbounded —
// the controllers preallocate their sample storage from the horizon,
// so "forever" must stay finite.
const DefaultHorizon = int64(7 * 24 * 3600)

// MemberSpec describes one member cluster of a twin: a workload, a
// policy and a machine scale. No cap fields — the twin's broker owns
// every member's budget, exactly like the batch federation.
type MemberSpec struct {
	// Name identifies the member in mutations and telemetry series;
	// empty names default to member<i> at build. Names must be unique.
	Name string `json:"name,omitempty"`
	// Workload is the member's job source (synthetic kind or SWF).
	Workload sim.WorkloadSpec `json:"workload"`
	// Policy is the member's powercap policy (registry name, default
	// DVFS — every node stays powered, so budget moves translate into
	// launch headroom immediately).
	Policy string `json:"policy,omitempty"`
	// Racks scales the member machine (0 = full Curie).
	Racks int `json:"racks,omitempty"`
}

// Spec declares a twin session. It is JSON-serializable with the same
// Validate-then-Normalize contract as sim.RunSpec.
type Spec struct {
	Name string `json:"name,omitempty"`
	// Members are the initial fleet (at least one).
	Members []MemberSpec `json:"members"`
	// GlobalCapFraction is the site budget as a fraction of the summed
	// member maximum draws; must be in (0, 1).
	GlobalCapFraction float64 `json:"global_cap_fraction"`
	// Division picks the redistribution policy (default "demand").
	Division string `json:"division,omitempty"`
	// EpochSec is the redistribution period; 0 means 900 s. Negative
	// values are rejected.
	EpochSec int64 `json:"epoch_sec,omitempty"`
	// HorizonSec bounds the virtual lifetime; 0 means one week.
	HorizonSec int64 `json:"horizon_sec,omitempty"`
	// RealTimeRatio paces the virtual clock: simulated seconds per
	// wall-clock second. 0 runs as fast as possible; 1 runs in real
	// time; 3600 runs an hour a second.
	RealTimeRatio float64 `json:"real_time_ratio,omitempty"`
	// Signal, when non-nil, scales the global budget over virtual time
	// (see internal/signal).
	Signal *signal.Spec `json:"signal,omitempty"`
}

// Validate reports structural problems without touching the
// filesystem (bad trace paths surface when the session builds).
func (s Spec) Validate() error {
	if len(s.Members) == 0 {
		return fmt.Errorf("twin: spec %q has no members", s.Name)
	}
	if s.GlobalCapFraction <= 0 || s.GlobalCapFraction >= 1 {
		return fmt.Errorf("twin: spec %q global cap fraction %v outside (0, 1)", s.Name, s.GlobalCapFraction)
	}
	if s.Division != "" {
		if _, err := sim.Divisions.Lookup(s.Division); err != nil {
			return fmt.Errorf("twin: %w", err)
		}
	}
	if s.EpochSec < 0 {
		return fmt.Errorf("twin: epoch must be a positive duration, got %d (omit or 0 for the %d s default)", s.EpochSec, DefaultEpoch)
	}
	if s.HorizonSec < 0 {
		return fmt.Errorf("twin: negative horizon %d", s.HorizonSec)
	}
	epoch, horizon := s.EpochSec, s.HorizonSec
	if epoch == 0 {
		epoch = DefaultEpoch
	}
	if horizon == 0 {
		horizon = DefaultHorizon
	}
	if horizon < epoch {
		return fmt.Errorf("twin: horizon %d shorter than epoch %d", horizon, epoch)
	}
	if s.RealTimeRatio < 0 {
		return fmt.Errorf("twin: negative real-time ratio %v", s.RealTimeRatio)
	}
	seen := map[string]bool{}
	for i, m := range s.Members {
		if err := validateMember(m, i); err != nil {
			return err
		}
		name := memberName(m, i)
		if seen[name] {
			return fmt.Errorf("twin: duplicate member name %q", name)
		}
		seen[name] = true
	}
	if s.Signal != nil {
		if err := s.Signal.Validate(); err != nil {
			return fmt.Errorf("twin: budget signal: %w", err)
		}
	}
	return nil
}

func validateMember(m MemberSpec, i int) error {
	policy := m.Policy
	if policy == "" {
		policy = "DVFS"
	}
	if _, err := sim.MemberScenario(memberName(m, i), m.Workload, policy, m.Racks); err != nil {
		return fmt.Errorf("twin: member %d (%s): %w", i, memberName(m, i), err)
	}
	return nil
}

func memberName(m MemberSpec, i int) string {
	if m.Name != "" {
		return m.Name
	}
	return fmt.Sprintf("member%d", i)
}

// Normalize fills defaults (division, epoch, horizon, member names and
// policies) and canonicalizes registry names. Idempotent; normalized
// specs round-trip exactly through JSON.
func (s Spec) Normalize() Spec {
	out := s
	if out.Division == "" {
		out.Division = replay.DivideDemand.String()
	} else if c, err := sim.Divisions.Canonical(out.Division); err == nil {
		out.Division = c
	}
	if out.EpochSec == 0 {
		out.EpochSec = DefaultEpoch
	}
	if out.HorizonSec == 0 {
		out.HorizonSec = DefaultHorizon
	}
	members := make([]MemberSpec, len(out.Members))
	for i, m := range out.Members {
		members[i] = normalizeMember(m, i)
	}
	out.Members = members
	if out.Signal != nil {
		copied := *out.Signal
		if err := copied.Normalize(); err == nil {
			out.Signal = &copied
		}
	}
	return out
}

func normalizeMember(m MemberSpec, i int) MemberSpec {
	m.Name = memberName(m, i)
	if m.Policy == "" {
		m.Policy = "DVFS"
	} else if c, err := sim.Policies.Canonical(m.Policy); err == nil {
		m.Policy = c
	}
	if c, err := sim.Workloads.Canonical(m.Workload.Kind); m.Workload.Kind != "" && err == nil {
		m.Workload.Kind = c
	}
	return m
}

// Op names a mutation kind.
type Op string

const (
	// OpSetBudget overrides the global cap fraction.
	OpSetBudget Op = "set_budget"
	// OpAddMember joins a new member cluster at the boundary; its
	// workload catches up from virtual zero.
	OpAddMember Op = "add_member"
	// OpRemoveMember retires a member; its telemetry series stop.
	OpRemoveMember Op = "remove_member"
	// OpFailNode kills and requeues the jobs on one member node and
	// takes the node out of service.
	OpFailNode Op = "fail_node"
	// OpRepairNode returns a failed node to service.
	OpRepairNode Op = "repair_node"
)

// Mutation is one live change request. Mutations are serialized
// through the session queue and applied only at epoch boundaries — the
// mutation-at-epoch contract that keeps the twin deterministic.
type Mutation struct {
	Op Op `json:"op"`
	// AtSec, when positive, defers the mutation to the first boundary
	// at or after that virtual time; 0 means the next boundary. Replay
	// pins it to the recorded boundary.
	AtSec int64 `json:"at_sec,omitempty"`
	// BudgetFraction is the new global cap fraction (set_budget).
	BudgetFraction float64 `json:"budget_fraction,omitempty"`
	// Member describes the joining cluster (add_member).
	Member *MemberSpec `json:"member,omitempty"`
	// Name targets a member (remove_member, fail_node, repair_node).
	Name string `json:"name,omitempty"`
	// Node is the member-local node index (fail_node, repair_node).
	Node int `json:"node,omitempty"`
}

// Applied is one mutation-log entry: what applied, at which boundary,
// and whether it failed (failed mutations are no-ops, recorded so a
// replayed log reproduces exactly the same no-op).
type Applied struct {
	Seq      int      `json:"seq"`
	AtEpoch  int64    `json:"at_epoch"`
	Mutation Mutation `json:"mutation"`
	Err      string   `json:"error,omitempty"`
}

// Sink receives the twin's telemetry stream. tsdb.Run satisfies it.
type Sink interface {
	Append(name string, t int64, v float64) error
}

// Config carries the session's environment hooks; the zero value runs
// silent and as fast as the pacing allows.
type Config struct {
	// Sink receives telemetry points at every epoch boundary; nil
	// discards them.
	Sink Sink
	// OnEpoch runs after every boundary with the fresh status.
	OnEpoch func(st Status)
	// OnApplied runs after every mutation application.
	OnApplied func(a Applied)
	// observe sees every member controller as it is assembled (initial
	// members before any virtual time passes, added members before
	// their catch-up) — where the tests attach an invariant checker.
	observe func(name string, ctl *rjms.Controller)
}

// MemberStatus is one member's slice of the status snapshot.
type MemberStatus struct {
	Name         string  `json:"name"`
	CapW         float64 `json:"cap_w"`
	PowerW       float64 `json:"power_w"`
	MaxPowerW    float64 `json:"max_power_w"`
	PendingCores int     `json:"pending_cores"`
	RunningJobs  int     `json:"running_jobs"`
	FailedNodes  []int   `json:"failed_nodes,omitempty"`
}

// Status is the session's externally visible state, snapshotted at
// every epoch boundary (reads never touch live controller state).
type Status struct {
	Name string `json:"name,omitempty"`
	// VirtualTime is the twin clock: the last completed boundary.
	VirtualTime int64 `json:"virtual_time"`
	HorizonSec  int64 `json:"horizon_sec"`
	EpochSec    int64 `json:"epoch_sec"`
	// RealTimeRatio is the configured pacing (0 = as fast as possible).
	RealTimeRatio float64 `json:"real_time_ratio,omitempty"`
	// BudgetFraction is the active cap fraction (spec value or the
	// latest set_budget override).
	BudgetFraction float64 `json:"budget_fraction"`
	// SignalValue is the budget signal evaluated at VirtualTime.
	SignalValue float64 `json:"signal_value"`
	// BudgetW is the effective site budget at VirtualTime.
	BudgetW float64 `json:"budget_w"`
	// PowerW is the summed member draw at VirtualTime.
	PowerW  float64        `json:"power_w"`
	Members []MemberStatus `json:"members"`
	// MutationsApplied/MutationsQueued count the log and the backlog.
	MutationsApplied int `json:"mutations_applied"`
	MutationsQueued  int `json:"mutations_queued"`
	// Finished is set once the horizon is reached.
	Finished bool `json:"finished"`
}

// Session is one live twin: a federation.Fleet plus what is the twin's
// own — pacing, the mutation queue, telemetry and the status snapshot.
// Run drives it on a single goroutine (the controllers'
// single-goroutine contract); Status, Log and Mutate are safe from any
// goroutine.
type Session struct {
	spec  Spec
	cfg   Config
	fleet *federation.Fleet // touched only by New and the Run goroutine

	mu      sync.Mutex
	queue   []Mutation
	applied []Applied
	status  Status
}

// New validates, normalizes and assembles a session: members built and
// their workloads loaded, open-ended powercap reservations placed at
// the initial division, virtual clocks at zero. Run starts time.
func New(spec Spec, cfg Config) (*Session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.Normalize()
	div, err := sim.Divisions.Lookup(spec.Division)
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	fs := replay.FederationScenario{
		Name:              spec.Name,
		GlobalCapFraction: spec.GlobalCapFraction,
		Division:          div,
		EpochSec:          spec.EpochSec,
		DurationSec:       spec.HorizonSec,
		BudgetSignal:      spec.Signal,
	}
	for _, ms := range spec.Members {
		sc, err := memberScenario(ms)
		if err != nil {
			return nil, err
		}
		fs.Members = append(fs.Members, sc)
	}
	var observe federation.Observer
	if cfg.observe != nil {
		observe = func(_ int, name string, ctl *rjms.Controller) { cfg.observe(name, ctl) }
	}
	fleet, err := federation.NewFleet(fs, observe)
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	s := &Session{spec: spec, cfg: cfg, fleet: fleet}
	s.snapshot(0, false)
	return s, nil
}

// memberScenario lowers a normalized member spec onto its replay
// scenario.
func memberScenario(ms MemberSpec) (replay.Scenario, error) {
	sc, err := sim.MemberScenario(ms.Name, ms.Workload, ms.Policy, ms.Racks)
	if err != nil {
		return sc, fmt.Errorf("twin: member %s: %w", ms.Name, err)
	}
	return sc, nil
}

// Spec returns the session's normalized spec.
func (s *Session) Spec() Spec { return s.spec }

// Status returns the boundary-consistent snapshot.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.status
	st.Members = append([]MemberStatus(nil), s.status.Members...)
	st.MutationsQueued = len(s.queue)
	st.MutationsApplied = len(s.applied)
	return st
}

// Log returns a copy of the applied-mutation log — together with the
// spec, everything Replay needs to reproduce the session.
func (s *Session) Log() []Applied {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Applied(nil), s.applied...)
}

// Mutate enqueues a mutation; it applies at the first epoch boundary
// at or after its AtSec (the next boundary when zero). Structural
// problems surface in the Applied log, not here — acceptance into the
// queue only checks the op is known.
func (s *Session) Mutate(m Mutation) error {
	switch m.Op {
	case OpSetBudget, OpAddMember, OpRemoveMember, OpFailNode, OpRepairNode:
	default:
		return fmt.Errorf("twin: unknown mutation op %q", m.Op)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue = append(s.queue, m)
	return nil
}

// Run drives the session to its horizon: pace, advance every member in
// lockstep to the boundary, drain due mutations, redistribute the
// budget, stream telemetry, snapshot. It blocks until the horizon or
// ctx cancellation (returning ctx.Err()) and must be called exactly
// once; member resources are released when it returns.
func (s *Session) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	defer s.fleet.Close()
	epoch, horizon := s.spec.EpochSec, s.spec.HorizonSec
	s.telemetry(0)
	// Boundaries fall every epoch; the last is clamped to the horizon
	// and paced for its real length.
	for prev := int64(0); prev < horizon; {
		t := min(prev+epoch, horizon)
		if err := s.pace(ctx, t-prev); err != nil {
			return err
		}
		if err := s.fleet.AdvanceAll(t); err != nil {
			return fmt.Errorf("twin: %w", err)
		}
		s.applyDue(t)
		if _, err := s.fleet.Rebudget(t); err != nil {
			return fmt.Errorf("twin: %w", err)
		}
		s.telemetry(t)
		s.snapshot(t, t == horizon)
		if s.cfg.OnEpoch != nil {
			s.cfg.OnEpoch(s.Status())
		}
		prev = t
	}
	return nil
}

// pace holds the virtual clock to the configured real-time ratio: a
// boundary may not start earlier than epoch/ratio wall seconds after
// the previous one. Ratio 0 never sleeps.
func (s *Session) pace(ctx context.Context, epoch int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.spec.RealTimeRatio <= 0 {
		return nil
	}
	d := time.Duration(float64(epoch) / s.spec.RealTimeRatio * float64(time.Second))
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// applyDue drains the mutations due at boundary t, in arrival order,
// recording each in the applied log.
func (s *Session) applyDue(t int64) {
	s.mu.Lock()
	var due []Mutation
	rest := s.queue[:0]
	for _, m := range s.queue {
		if m.AtSec <= t {
			due = append(due, m)
		} else {
			rest = append(rest, m)
		}
	}
	s.queue = rest
	s.mu.Unlock()
	for _, m := range due {
		err := s.apply(m, t)
		a := Applied{AtEpoch: t, Mutation: m}
		if err != nil {
			a.Err = err.Error()
		}
		s.mu.Lock()
		a.Seq = len(s.applied) + 1
		s.applied = append(s.applied, a)
		s.mu.Unlock()
		if s.cfg.OnApplied != nil {
			s.cfg.OnApplied(a)
		}
	}
}

// apply executes one mutation at boundary t. Errors make the mutation
// a recorded no-op; the session keeps running.
func (s *Session) apply(m Mutation, t int64) error {
	switch m.Op {
	case OpSetBudget:
		if m.BudgetFraction <= 0 || m.BudgetFraction >= 1 {
			return fmt.Errorf("twin: set_budget fraction %v outside (0, 1)", m.BudgetFraction)
		}
		s.fleet.SetFraction(m.BudgetFraction)
		return nil
	case OpAddMember:
		if m.Member == nil {
			return fmt.Errorf("twin: add_member without a member spec")
		}
		sc, err := memberScenario(normalizeMember(*m.Member, len(s.fleet.Members())))
		if err != nil {
			return err
		}
		if err := s.fleet.Join(sc, t); err != nil {
			return fmt.Errorf("twin: %w", err)
		}
		return nil
	case OpRemoveMember:
		if err := s.fleet.Remove(m.Name); err != nil {
			return fmt.Errorf("twin: %w", err)
		}
		return nil
	case OpFailNode, OpRepairNode:
		mem := s.fleet.Member(m.Name)
		if mem == nil {
			return fmt.Errorf("twin: unknown member %q", m.Name)
		}
		if m.Op == OpFailNode {
			return mem.Ctl.FailNode(cluster.NodeID(m.Node))
		}
		return mem.Ctl.RepairNode(cluster.NodeID(m.Node))
	default:
		return fmt.Errorf("twin: unknown mutation op %q", m.Op)
	}
}

// telemetry streams the boundary's samples: per-member power, cap,
// queue depth and running jobs, plus the site aggregates and the raw
// signal value.
func (s *Session) telemetry(t int64) {
	if s.cfg.Sink == nil {
		return
	}
	budget, sv := s.fleet.BudgetAt(t)
	var total power.Watts
	for _, m := range s.fleet.Members() {
		p := m.Ctl.Cluster().Power()
		total += p
		_ = s.cfg.Sink.Append(m.Name+"/power", t, float64(p))
		_ = s.cfg.Sink.Append(m.Name+"/cap", t, float64(m.CapW()))
		_ = s.cfg.Sink.Append(m.Name+"/pending_cores", t, float64(m.Ctl.PendingCores()))
		_ = s.cfg.Sink.Append(m.Name+"/running_jobs", t, float64(m.Ctl.RunningCount()))
	}
	_ = s.cfg.Sink.Append("power", t, float64(total))
	_ = s.cfg.Sink.Append("budget", t, float64(budget))
	_ = s.cfg.Sink.Append("signal", t, sv)
}

// snapshot refreshes the Status copy readers see.
func (s *Session) snapshot(t int64, finished bool) {
	budget, sv := s.fleet.BudgetAt(t)
	members := make([]MemberStatus, len(s.fleet.Members()))
	var total power.Watts
	for i, m := range s.fleet.Members() {
		p := m.Ctl.Cluster().Power()
		total += p
		ms := MemberStatus{
			Name:         m.Name,
			CapW:         float64(m.CapW()),
			PowerW:       float64(p),
			MaxPowerW:    float64(m.MaxPower),
			PendingCores: m.Ctl.PendingCores(),
			RunningJobs:  m.Ctl.RunningCount(),
		}
		for _, id := range m.Ctl.FailedNodes() {
			ms.FailedNodes = append(ms.FailedNodes, int(id))
		}
		members[i] = ms
	}
	s.mu.Lock()
	s.status = Status{
		Name:           s.spec.Name,
		VirtualTime:    t,
		HorizonSec:     s.spec.HorizonSec,
		EpochSec:       s.spec.EpochSec,
		RealTimeRatio:  s.spec.RealTimeRatio,
		BudgetFraction: s.fleet.Fraction(),
		SignalValue:    sv,
		BudgetW:        float64(budget),
		PowerW:         float64(total),
		Members:        members,
		Finished:       finished,
	}
	s.mu.Unlock()
}
