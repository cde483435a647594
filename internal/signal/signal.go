// Package signal provides deterministic time-varying scalar sources:
// pure functions of simulated time that drive the federation's global
// power budget at epoch boundaries. Synthetic shapes (constant, step,
// sinusoid, diurnal) cover modelling; trace replay covers recorded
// energy-price or carbon-intensity series; clamp/scale/compose
// combinators build the rest. Sources are referenced declaratively
// through Spec — a small JSON tree embeddable in sim.RunSpec and
// twin.Spec — so sweeps, simd and the twin control plane share one
// registry and one determinism contract: the same Spec evaluated at
// the same instant always yields the same value.
package signal

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/registry"
)

// Source is a deterministic scalar signal: At must be a pure function
// of t (simulated seconds), so replaying a spec reproduces the exact
// budget sequence a live session saw.
type Source interface {
	At(t int64) float64
}

// Func adapts a plain function to a Source.
type Func func(t int64) float64

// At evaluates the function.
func (f Func) At(t int64) float64 { return f(t) }

// Spec is the declarative form of a source tree. Exactly the fields
// the named kind consumes are meaningful; the rest stay zero and are
// omitted from JSON, so specs read as terse as the shape they name.
type Spec struct {
	// Kind names the source shape (see Kinds for the registry).
	Kind string `json:"kind"`
	// Value is the constant kind's level (default 1).
	Value float64 `json:"value,omitempty"`
	// Times/Values define the step kind's piecewise-hold breakpoints
	// (strictly increasing times; before Times[0] the signal holds
	// Values[0]) and may inline a trace instead of Path.
	Times  []int64   `json:"times,omitempty"`
	Values []float64 `json:"values,omitempty"`
	// Mean/Amplitude/PeriodSec/PhaseSec shape the sinusoid and diurnal
	// kinds: mean + amplitude·sin(2π(t+phase)/period). Diurnal pins the
	// period to 86400s and inverts the phase so the trough sits at
	// midnight and the crest at mid-afternoon — the shape of a solar
	// feed or an off-peak price series.
	Mean      float64 `json:"mean,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`
	PeriodSec int64   `json:"period_sec,omitempty"`
	PhaseSec  int64   `json:"phase_sec,omitempty"`
	// Path names a CSV trace file ("t,value" rows, '#' comments) the
	// trace kind replays with step-hold semantics. Inline Times/Values
	// may stand in for a file.
	Path string `json:"path,omitempty"`
	// Min/Max bound the clamp kind (at least one set).
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	// Factor scales the scale kind's input (default 1).
	Factor float64 `json:"factor,omitempty"`
	// Input is the clamp/scale kinds' operand.
	Input *Spec `json:"input,omitempty"`
	// Inputs are the compose kind's operands (pointwise product).
	Inputs []*Spec `json:"inputs,omitempty"`
}

// Builder constructs a Source from a validated, normalized spec.
type Builder func(*Spec) (Source, error)

// Kinds registers every signal shape; package init of this package is
// the only registrar, but the registry keeps flag help and error
// messages enumerating what exists.
var Kinds = registry.New[Builder]("signal kind")

func init() {
	Kinds.Register("constant", buildConstant)                // fixed level (value)
	Kinds.Register("step", buildStep, "steps")               // piecewise-hold breakpoints (times/values)
	Kinds.Register("sinusoid", buildSinusoid, "sine", "sin") // mean + amplitude*sin(2*pi*(t+phase)/period)
	Kinds.Register("diurnal", buildDiurnal)                  // 24h cycle: trough at midnight, crest mid-afternoon
	Kinds.Register("trace", buildTrace, "csv")               // CSV trace replay with step-hold (path or inline times/values)
	Kinds.Register("clamp", buildClamp)                      // bound input into [min,max]
	Kinds.Register("scale", buildScale)                      // input * factor
	Kinds.Register("compose", buildCompose, "product")       // pointwise product of inputs
}

// Normalize canonicalizes kind spellings and fills defaults (constant
// value 1, sinusoid/diurnal mean 1, scale factor 1) recursively. It is
// idempotent, so normalizing an already-normalized spec is a no-op —
// the property spec hashing relies on.
func (s *Spec) Normalize() error {
	if s == nil {
		return nil
	}
	kind, err := Kinds.Canonical(s.Kind)
	if err != nil {
		return fmt.Errorf("signal: %w", err)
	}
	s.Kind = kind
	switch kind {
	case "constant":
		if s.Value == 0 {
			s.Value = 1
		}
	case "sinusoid", "diurnal":
		if s.Mean == 0 {
			s.Mean = 1
		}
	case "scale":
		if s.Factor == 0 {
			s.Factor = 1
		}
	}
	if err := s.Input.Normalize(); err != nil {
		return err
	}
	for _, in := range s.Inputs {
		if err := in.Normalize(); err != nil {
			return err
		}
	}
	return nil
}

// Validate rejects malformed specs with errors naming the offending
// field; it does not touch the filesystem (a bad trace file surfaces
// at Build).
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	kind, err := Kinds.Canonical(s.Kind)
	if err != nil {
		return fmt.Errorf("signal: %w", err)
	}
	switch kind {
	case "step":
		if err := validBreakpoints(s.Times, s.Values); err != nil {
			return fmt.Errorf("signal: step: %w", err)
		}
	case "sinusoid":
		if s.PeriodSec <= 0 {
			return fmt.Errorf("signal: sinusoid: period_sec must be positive, got %d", s.PeriodSec)
		}
	case "trace":
		if s.Path == "" && len(s.Times) == 0 {
			return fmt.Errorf("signal: trace: needs path or inline times/values")
		}
		if s.Path != "" && len(s.Times) > 0 {
			return fmt.Errorf("signal: trace: path and inline times/values are mutually exclusive")
		}
		if s.Path == "" {
			if err := validBreakpoints(s.Times, s.Values); err != nil {
				return fmt.Errorf("signal: trace: %w", err)
			}
		}
	case "clamp":
		if s.Input == nil {
			return fmt.Errorf("signal: clamp: missing input")
		}
		if s.Min == nil && s.Max == nil {
			return fmt.Errorf("signal: clamp: needs min and/or max")
		}
		if s.Min != nil && s.Max != nil && *s.Min > *s.Max {
			return fmt.Errorf("signal: clamp: min %g > max %g", *s.Min, *s.Max)
		}
	case "scale":
		if s.Input == nil {
			return fmt.Errorf("signal: scale: missing input")
		}
	case "compose":
		if len(s.Inputs) == 0 {
			return fmt.Errorf("signal: compose: needs at least one input")
		}
	}
	if s.Input != nil {
		if err := s.Input.Validate(); err != nil {
			return err
		}
	}
	for _, in := range s.Inputs {
		if err := in.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func validBreakpoints(times []int64, values []float64) error {
	if len(times) == 0 {
		return fmt.Errorf("needs at least one breakpoint")
	}
	if len(times) != len(values) {
		return fmt.Errorf("%d times but %d values", len(times), len(values))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return fmt.Errorf("times must be strictly increasing (times[%d]=%d after %d)", i, times[i], times[i-1])
		}
	}
	return nil
}

// Build validates, normalizes and constructs the source tree. Trace
// files are read here, once — the returned Source holds everything in
// memory and never touches IO again.
func Build(s *Spec) (Source, error) {
	if s == nil {
		return Func(func(int64) float64 { return 1 }), nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	return build(s)
}

func build(s *Spec) (Source, error) {
	b, err := Kinds.Lookup(s.Kind)
	if err != nil {
		return nil, fmt.Errorf("signal: %w", err)
	}
	return b(s)
}

func buildConstant(s *Spec) (Source, error) {
	v := s.Value
	return Func(func(int64) float64 { return v }), nil
}

// stepSource holds the shared piecewise-hold evaluation of step and
// trace: the value at t is the value of the last breakpoint at or
// before t, and Values[0] before the first.
type stepSource struct {
	times  []int64
	values []float64
}

func (st *stepSource) At(t int64) float64 {
	i := sort.Search(len(st.times), func(i int) bool { return st.times[i] > t })
	if i == 0 {
		return st.values[0]
	}
	return st.values[i-1]
}

func buildStep(s *Spec) (Source, error) {
	return &stepSource{
		times:  append([]int64(nil), s.Times...),
		values: append([]float64(nil), s.Values...),
	}, nil
}

func buildSinusoid(s *Spec) (Source, error) {
	mean, amp, period, phase := s.Mean, s.Amplitude, float64(s.PeriodSec), float64(s.PhaseSec)
	return Func(func(t int64) float64 {
		return mean + amp*math.Sin(2*math.Pi*(float64(t)+phase)/period)
	}), nil
}

func buildDiurnal(s *Spec) (Source, error) {
	mean, amp, phase := s.Mean, s.Amplitude, float64(s.PhaseSec)
	return Func(func(t int64) float64 {
		return mean - amp*math.Cos(2*math.Pi*(float64(t)+phase)/86400)
	}), nil
}

func buildTrace(s *Spec) (Source, error) {
	if s.Path == "" {
		return buildStep(s)
	}
	times, values, err := loadTrace(s.Path)
	if err != nil {
		return nil, err
	}
	return &stepSource{times: times, values: values}, nil
}

// loadTrace parses a CSV trace: one "t,value" row per line, '#'
// comments and blank lines skipped, times strictly increasing. Errors
// cite line numbers, never line content — trace paths are user input
// and must not become a file-content oracle.
func loadTrace(path string) (times []int64, values []float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("signal: trace: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		row := strings.TrimSpace(sc.Text())
		if row == "" || strings.HasPrefix(row, "#") {
			continue
		}
		tPart, vPart, ok := strings.Cut(row, ",")
		if !ok {
			return nil, nil, fmt.Errorf("signal: trace %s:%d: want \"t,value\"", path, line)
		}
		t, err := strconv.ParseInt(strings.TrimSpace(tPart), 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("signal: trace %s:%d: bad time", path, line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(vPart), 64)
		if err != nil {
			return nil, nil, fmt.Errorf("signal: trace %s:%d: bad value", path, line)
		}
		if len(times) > 0 && t <= times[len(times)-1] {
			return nil, nil, fmt.Errorf("signal: trace %s:%d: times must be strictly increasing", path, line)
		}
		times = append(times, t)
		values = append(values, v)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("signal: trace %s: %w", path, err)
	}
	if len(times) == 0 {
		return nil, nil, fmt.Errorf("signal: trace %s: no data rows", path)
	}
	return times, values, nil
}

func buildClamp(s *Spec) (Source, error) {
	in, err := build(s.Input)
	if err != nil {
		return nil, err
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	if s.Min != nil {
		lo = *s.Min
	}
	if s.Max != nil {
		hi = *s.Max
	}
	return Func(func(t int64) float64 {
		v := in.At(t)
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}), nil
}

func buildScale(s *Spec) (Source, error) {
	in, err := build(s.Input)
	if err != nil {
		return nil, err
	}
	factor := s.Factor
	return Func(func(t int64) float64 { return factor * in.At(t) }), nil
}

func buildCompose(s *Spec) (Source, error) {
	ins := make([]Source, 0, len(s.Inputs))
	for _, spec := range s.Inputs {
		in, err := build(spec)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	return Func(func(t int64) float64 {
		v := 1.0
		for _, in := range ins {
			v *= in.At(t)
		}
		return v
	}), nil
}
