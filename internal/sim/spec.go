// Package sim is the simulator's facade: one programmable entry point
// over the replay, experiment and federation layers. A declarative,
// JSON-serializable RunSpec describes any run the command-line tools
// can express — a single scenario replay, a (policy x cap) sweep, an
// explicit cell list, or a federated multi-cluster run — and
// Run(ctx, spec) executes it with cancellation, progress reporting and
// a unified Report that one sink pipeline encodes as JSON, CSV or
// ASCII.
//
// The extensible vocabulary lives in registries: Policies, Workloads
// and Divisions re-export the self-registering registries of core,
// trace and replay, and Figures holds the paper's figure builders.
// Command-line tools derive flag help and error messages from them, so
// a newly registered name shows up everywhere at once.
//
// Layering (see ARCHITECTURE.md "Facade & registries"):
//
//	cmd/powersched, cmd/expfig, examples, future services
//	        |        flags / -spec file.json -> RunSpec
//	        v
//	internal/sim     Run(ctx, spec) -> Report -> sinks
//	        v
//	internal/{replay, experiment, federation}
//	        v
//	internal/{rjms, trace, core, ...}
package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/replay"
	"repro/internal/rjms"
	"repro/internal/signal"
	"repro/internal/trace"
)

// Facade views of the self-registering registries owned by the layers
// below, plus the figure registry owned here. External callers extend
// the simulator by registering into these (typically in package init)
// and describing runs that name the new entries.
var (
	// Policies maps powercap-policy names (NONE|SHUT|DVFS|MIX|IDLE) to
	// core.Policy values.
	Policies = core.Policies
	// Workloads maps workload-kind names (medianjob|...|heavytail) to
	// trace.Kind values.
	Workloads = trace.Kinds
	// Divisions maps federation budget-division names (prorata|demand)
	// to replay.Division values.
	Divisions = replay.Divisions
)

// Mode selects how a RunSpec executes.
type Mode string

const (
	// ModeSingle replays one scenario and keeps its full time series.
	ModeSingle Mode = "single"
	// ModeSweep fans a scenario list out across the worker pool and
	// aggregates the comparison table.
	ModeSweep Mode = "sweep"
	// ModeFederation runs federated multi-cluster cells (one or a
	// sweep of them) under shared site budgets.
	ModeFederation Mode = "federation"
)

// RunSpec is the declarative description of a run: everything the
// powersched and expfig command lines can express, as one
// JSON-serializable value. The zero value (plus Normalize defaulting)
// is the powersched default run — a medianjob replay under SHUT at a
// 60% cap.
//
// Axes: Policies x CapFractions is the sweep cross product over the
// single Workload; Cells, when set, replaces the cross product with an
// explicit scenario list (the form the non-uniform figure grids use);
// Federation switches to federated cells built from the scenario
// library. Exactly one scenario (one policy, one cap, no cells, no
// federation) runs in single mode with the full time series kept.
type RunSpec struct {
	// Name labels the run in exports; empty means mode-derived.
	Name string `json:"name,omitempty"`
	// Mode is derived (single|sweep|federation) when empty; setting it
	// only validates the derivation, it cannot force a mismatched mode.
	Mode Mode `json:"mode,omitempty"`
	// Workload is the replayed workload of single/sweep modes.
	Workload WorkloadSpec `json:"workload"`
	// Racks shrinks the machine to this many racks; 0 means the full
	// 56-rack Curie.
	Racks int `json:"racks,omitempty"`
	// Policies is the powercap-policy axis (registry names).
	Policies []string `json:"policies,omitempty"`
	// CapFractions is the powercap axis; values outside (0, 1) mean
	// the uncapped baseline.
	CapFractions []float64 `json:"cap_fractions,omitempty"`
	// Cap positions the powercap reservation window (zero value: the
	// paper's one-hour window centred in the interval).
	Cap CapSpec `json:"cap"`
	// Options carries the controller ablations and switches.
	Options OptionSpec `json:"options"`
	// Cells, when non-empty, is the explicit scenario list replacing
	// the Policies x CapFractions cross product. Cell fields default to
	// the spec-level Workload/Cap/Options.
	Cells []CellSpec `json:"cells,omitempty"`
	// Federation, when set, switches to federated mode.
	Federation *FederationSpec `json:"federation,omitempty"`
	// Workers bounds the sweep worker pool; 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
}

// WorkloadSpec describes a workload: a synthetic kind, or an SWF trace
// file with its transform chain.
type WorkloadSpec struct {
	// Kind is a workload-kind registry name; with SWF set it only
	// labels the run.
	Kind string `json:"kind,omitempty"`
	// Seed seeds the synthetic generator.
	Seed int64 `json:"seed,omitempty"`
	// DurationSec bounds the replayed interval; 0 means the kind's
	// default length.
	DurationSec int64 `json:"duration_sec,omitempty"`
	// LoadFactor scales submitted work against machine capacity over
	// the interval; 0 means the paper's 2.0.
	LoadFactor float64 `json:"load_factor,omitempty"`
	// BacklogFraction is the fraction of jobs queued at t=0; 0 means 0.3.
	BacklogFraction float64 `json:"backlog_fraction,omitempty"`
	// Users is the distinct-user count for fairshare; 0 means 150.
	Users int `json:"users,omitempty"`
	// SWF streams the workload from a trace file instead.
	SWF *SWFSpec `json:"swf,omitempty"`
}

// SWFSpec configures streaming replay of an SWF trace file.
type SWFSpec struct {
	// Path is the trace file.
	Path string `json:"path"`
	// WindowStartSec/WindowEndSec replay the submit window
	// [start, end), re-based to t=0; both zero means the whole trace.
	WindowStartSec int64 `json:"window_start_sec,omitempty"`
	WindowEndSec   int64 `json:"window_end_sec,omitempty"`
	// TimeScale multiplies submit times (0.5 doubles the arrival
	// rate); 0 or 1 leaves them unchanged.
	TimeScale float64 `json:"time_scale,omitempty"`
	// Cores is the trace's native machine size; when set, job widths
	// are rescaled onto the replayed machine.
	Cores int `json:"cores,omitempty"`
	// MaxJobs truncates the stream after that many jobs (0 = all).
	MaxJobs int `json:"max_jobs,omitempty"`
}

// CapSpec positions the powercap reservation window: the scenario's
// own window struct, so lowering a spec copies it.
type CapSpec = replay.CapWindow

// OptionSpec carries the controller options and ablation switches: the
// controller's own option struct, so every layer between a spec file
// and rjms.New copies it whole.
type OptionSpec = rjms.Options

// CellSpec is one explicit sweep cell. Nil Workload/Cap/Options inherit
// the spec-level values, so a cell usually just names its policy and
// cap.
type CellSpec struct {
	// Name labels the cell; empty derives the usual
	// "workload/cap%/policy" label.
	Name string `json:"name,omitempty"`
	// Workload overrides the spec-level workload for this cell.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Policy is the cell's powercap policy (registry name).
	Policy string `json:"policy,omitempty"`
	// CapFraction is the cell's cap; outside (0, 1) means uncapped.
	CapFraction float64 `json:"cap_fraction,omitempty"`
	// Cap overrides the spec-level window placement.
	Cap *CapSpec `json:"cap,omitempty"`
	// Options overrides the spec-level options (ablation cells).
	Options *OptionSpec `json:"options,omitempty"`
}

// FederationSpec describes federated runs: fleets built from the
// workload scenario library under shared site budgets (the spec-level
// CapFractions), swept across member counts and division policies.
type FederationSpec struct {
	// MemberCounts is the fleet-size axis; empty means [3].
	MemberCounts []int `json:"member_counts,omitempty"`
	// Divisions is the budget-division axis (registry names); empty
	// means ["demand"].
	Divisions []string `json:"divisions,omitempty"`
	// EpochSec is the redistribution period; 0 keeps the library
	// default (900 s). Negative values are rejected — the broker's
	// lockstep loop needs a positive epoch.
	EpochSec int64 `json:"epoch_sec,omitempty"`
	// Signal, when non-nil, scales the global site budget over time: at
	// every epoch boundary the broker multiplies the cap-fraction base
	// by the signal's value at that instant. See internal/signal for
	// the source kinds (step, diurnal, sinusoid, CSV trace replay,
	// clamp/scale/compose).
	Signal *signal.Spec `json:"signal,omitempty"`
}

// EffectiveMode derives the execution mode from the populated fields:
// federation when Federation is set, sweep when Cells or a multi-valued
// Policies x CapFractions axis is present, single otherwise. An
// explicit Mode must agree (Validate enforces it).
func (s RunSpec) EffectiveMode() Mode {
	switch {
	case s.Federation != nil:
		return ModeFederation
	case len(s.Cells) > 0:
		return ModeSweep
	case len(s.Policies)*len(s.CapFractions) > 1:
		return ModeSweep
	default:
		return ModeSingle
	}
}

// Normalize returns the spec with defaults filled in and every
// registry name canonicalized: the derived Mode, the powersched
// default workload/policy/cap for empty axes, the default federation
// axes, and the registries' canonical spellings for policy, kind and
// division names ("shut" becomes "SHUT"). Normalize never changes what
// a spec means — a normalized spec runs identically to its terse form
// — it is idempotent, and normalized specs round-trip exactly through
// EncodeJSON/DecodeJSON (the properties SpecHash and the result cache
// key on). Unregistered names pass through unchanged; Validate, not
// Normalize, reports them.
func (s RunSpec) Normalize() RunSpec {
	out := s
	if out.Federation == nil && len(out.Cells) == 0 {
		if out.Workload.Kind == "" && out.Workload.SWF == nil {
			out.Workload.Kind = trace.MedianJob.String()
		}
		if len(out.Policies) == 0 {
			out.Policies = []string{core.PolicyShut.String()}
		}
		if len(out.CapFractions) == 0 {
			out.CapFractions = []float64{0.6}
		}
	}
	out.Workload = out.Workload.normalize()
	out.Policies = canonicalNames(Policies, out.Policies)
	if len(out.Cells) > 0 {
		cells := make([]CellSpec, len(out.Cells))
		for i, c := range out.Cells {
			c.Policy = canonicalName(Policies, c.Policy)
			if c.Workload != nil {
				w := c.Workload.normalize()
				c.Workload = &w
			}
			cells[i] = c
		}
		out.Cells = cells
	}
	if f := out.Federation; f != nil {
		ff := *f
		if len(ff.MemberCounts) == 0 {
			ff.MemberCounts = []int{3}
		}
		if len(ff.Divisions) == 0 {
			ff.Divisions = []string{replay.DivideDemand.String()}
		}
		ff.Divisions = canonicalNames(Divisions, ff.Divisions)
		ff.Signal = normalizeSignal(ff.Signal)
		if len(out.CapFractions) == 0 {
			out.CapFractions = []float64{0.6}
		}
		out.Federation = &ff
	}
	out.Mode = out.EffectiveMode()
	return out
}

// normalize canonicalizes the registry names and collapses the
// equivalent spellings of a workload (an SWF TimeScale of 1 means the
// same as the zero value: unchanged arrival times).
func (w WorkloadSpec) normalize() WorkloadSpec {
	w.Kind = canonicalName(Workloads, w.Kind)
	if swf := w.SWF; swf != nil && swf.TimeScale == 1 {
		s := *swf
		s.TimeScale = 0
		w.SWF = &s
	}
	return w
}

// normalizeSignal canonicalizes a budget-signal tree on a deep copy,
// passing the original through untouched when any kind is unregistered
// (Normalize must not fail; Validate reports unknown kinds).
func normalizeSignal(s *signal.Spec) *signal.Spec {
	if s == nil {
		return nil
	}
	raw, err := json.Marshal(s)
	if err != nil {
		return s
	}
	var copied signal.Spec
	if err := json.Unmarshal(raw, &copied); err != nil {
		return s
	}
	if err := copied.Normalize(); err != nil {
		return s
	}
	return &copied
}

// canonicalName resolves a registry name to its canonical spelling,
// passing empty and unregistered names through unchanged (Normalize
// must not fail; Validate reports unknown names).
func canonicalName[T any](reg *registry.Registry[T], name string) string {
	if name == "" {
		return name
	}
	if c, err := reg.Canonical(name); err == nil {
		return c
	}
	return name
}

// canonicalNames maps canonicalName over a name list, leaving the
// input slice untouched.
func canonicalNames[T any](reg *registry.Registry[T], names []string) []string {
	if len(names) == 0 {
		return names
	}
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = canonicalName(reg, n)
	}
	return out
}

// Validate reports the first structural problem a run would trip over:
// unregistered policy/kind/division names (the error enumerates what is
// registered), impossible windows, option values no controller accepts,
// bad federation axes, a mode that contradicts the populated fields.
// Valid specs may still fail at run time (a missing SWF file, an empty
// window) — Validate checks the description, not the world.
func (s RunSpec) Validate() error {
	if s.Mode != "" && s.Mode != s.EffectiveMode() {
		return fmt.Errorf("sim: spec says mode %q but its fields derive %q", s.Mode, s.EffectiveMode())
	}
	if s.Racks < 0 {
		return fmt.Errorf("sim: negative racks %d", s.Racks)
	}
	if s.Workers < 0 {
		return fmt.Errorf("sim: negative workers %d", s.Workers)
	}
	if err := s.Workload.validate(); err != nil {
		return err
	}
	if err := s.Cap.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := s.Options.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for _, p := range s.Policies {
		if _, err := Policies.Lookup(p); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	for i, c := range s.Cells {
		if c.Policy != "" {
			if _, err := Policies.Lookup(c.Policy); err != nil {
				return fmt.Errorf("sim: cell %d: %w", i, err)
			}
		}
		if c.Workload != nil {
			if err := c.Workload.validate(); err != nil {
				return fmt.Errorf("sim: cell %d: %w", i, err)
			}
		}
		if c.Cap != nil {
			if err := c.Cap.Validate(); err != nil {
				return fmt.Errorf("sim: cell %d: %w", i, err)
			}
		}
		if c.Options != nil {
			if err := c.Options.Validate(); err != nil {
				return fmt.Errorf("sim: cell %d: %w", i, err)
			}
		}
	}
	if f := s.Federation; f != nil {
		if len(s.Cells) > 0 {
			return fmt.Errorf("sim: federation specs cannot carry explicit cells")
		}
		for _, n := range f.MemberCounts {
			if n <= 0 {
				return fmt.Errorf("sim: federation member count %d must be positive", n)
			}
		}
		for _, d := range f.Divisions {
			if _, err := Divisions.Lookup(d); err != nil {
				return fmt.Errorf("sim: %w", err)
			}
		}
		if f.EpochSec < 0 {
			return fmt.Errorf("sim: federation epoch must be a positive duration, got %d (omit or 0 for the %d s default)",
				f.EpochSec, replay.DefaultFederationEpoch)
		}
		if f.Signal != nil {
			if err := f.Signal.Validate(); err != nil {
				return fmt.Errorf("sim: federation signal: %w", err)
			}
		}
		for _, frac := range s.CapFractions {
			if frac <= 0 || frac >= 1 {
				return fmt.Errorf("sim: federated mode needs cap fractions in (0, 1), got %v", frac)
			}
		}
	}
	return nil
}

func (w WorkloadSpec) validate() error {
	if w.Kind != "" {
		if _, err := Workloads.Lookup(w.Kind); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if w.DurationSec < 0 {
		return fmt.Errorf("sim: negative workload duration %d", w.DurationSec)
	}
	if w.LoadFactor < 0 {
		return fmt.Errorf("sim: negative load factor %v", w.LoadFactor)
	}
	if swf := w.SWF; swf != nil {
		if swf.Path == "" {
			return fmt.Errorf("sim: swf workload without a path")
		}
		if swf.WindowStartSec < 0 {
			return fmt.Errorf("sim: negative swf window start %d", swf.WindowStartSec)
		}
		if swf.WindowEndSec != 0 && swf.WindowEndSec <= swf.WindowStartSec {
			return fmt.Errorf("sim: swf window [%d, %d) is empty", swf.WindowStartSec, swf.WindowEndSec)
		}
		if swf.TimeScale < 0 {
			return fmt.Errorf("sim: negative swf time scale %v", swf.TimeScale)
		}
		if swf.Cores < 0 {
			return fmt.Errorf("sim: negative swf cores %d", swf.Cores)
		}
		if swf.MaxJobs < 0 {
			return fmt.Errorf("sim: negative swf max jobs %d", swf.MaxJobs)
		}
	}
	return nil
}

// EncodeJSON writes the spec as indented JSON. Encoding a decoded spec
// reproduces the bytes exactly (the round-trip property the spec
// golden CI job checks), so spec files survive load-edit-dump cycles
// without noise.
func (s RunSpec) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// DecodeJSON reads one spec from r, rejecting unknown fields — a typo
// in a spec file is an error, not a silently ignored knob.
func DecodeJSON(r io.Reader) (RunSpec, error) {
	var s RunSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return RunSpec{}, fmt.Errorf("sim: decoding spec: %w", err)
	}
	return s, nil
}

// LoadSpec reads and validates a spec file.
func LoadSpec(path string) (RunSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return RunSpec{}, err
	}
	defer f.Close()
	s, err := DecodeJSON(f)
	if err != nil {
		return RunSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return RunSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// WriteSpecFile encodes the spec into a freshly created file — the
// shared backing of the CLIs' -dumpspec flags (the spec counterpart of
// WriteReportFile).
func WriteSpecFile(path string, spec RunSpec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := spec.EncodeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
