package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/trace"
)

// traceConfig lowers a WorkloadSpec onto the generator config (the SWF
// half lowers separately through swfSource). The kind must already have
// passed Validate.
func (w WorkloadSpec) traceConfig() (trace.Config, error) {
	cfg := trace.Config{
		Seed:            w.Seed,
		DurationSec:     w.DurationSec,
		LoadFactor:      w.LoadFactor,
		BacklogFraction: w.BacklogFraction,
		Users:           w.Users,
	}
	if w.Kind != "" {
		k, err := Workloads.Lookup(w.Kind)
		if err != nil {
			return trace.Config{}, fmt.Errorf("sim: %w", err)
		}
		cfg.Kind = k
	}
	return cfg, nil
}

// swfSource lowers an SWFSpec onto the streaming trace source;
// machineCores is the replayed machine's size, the rescale target when
// the spec names the trace's native core count.
func (s SWFSpec) swfSource(machineCores int) trace.SWFSource {
	src := trace.SWFSource{
		Path:        s.Path,
		WindowStart: s.WindowStartSec,
		WindowEnd:   s.WindowEndSec,
		TimeScale:   s.TimeScale,
		MaxJobs:     s.MaxJobs,
	}
	if s.Cores != 0 {
		src.CoresFrom, src.CoresTo = s.Cores, machineCores
	}
	return src
}

// MemberScenario lowers one workload + policy + machine scale onto a
// broker-member scenario — the twin layer's bridge from its JSON
// member vocabulary to the replay layer, sharing the exact lowering of
// spec-driven runs (same kind lookup, same SWF rescaling). The member
// carries no cap fields: a broker owns its budget.
func MemberScenario(name string, w WorkloadSpec, policy string, racks int) (replay.Scenario, error) {
	if err := w.validate(); err != nil {
		return replay.Scenario{}, err
	}
	wl, err := w.traceConfig()
	if err != nil {
		return replay.Scenario{}, err
	}
	p, err := Policies.Lookup(policy)
	if err != nil {
		return replay.Scenario{}, fmt.Errorf("sim: %w", err)
	}
	sc := replay.Scenario{Name: name, Workload: wl, Policy: p, ScaleRacks: racks}
	if w.SWF != nil {
		src := w.SWF.swfSource(sc.Machine().Cores())
		sc.SWF = &src
	}
	return sc, nil
}

// label names the workload in scenario labels: the SWF path when
// streaming, the kind otherwise.
func (w WorkloadSpec) label() string {
	if w.SWF != nil {
		return w.SWF.Path
	}
	return w.Kind
}

// baseScenario lowers the spec-level fields shared by every cell.
func (s RunSpec) baseScenario() (replay.Scenario, error) {
	wl, err := s.Workload.traceConfig()
	if err != nil {
		return replay.Scenario{}, err
	}
	base := replay.Scenario{Workload: wl, ScaleRacks: s.Racks, Cap: s.Cap, Options: s.Options}
	if s.Workload.SWF != nil {
		src := s.Workload.SWF.swfSource(base.Machine().Cores())
		base.SWF = &src
	}
	return base, nil
}

// singleScenario lowers a single-mode spec onto its one scenario,
// reproducing the CLI's naming ("label/60%/SHUT", cap percentage
// truncated — the historical single-run spelling).
func (s RunSpec) singleScenario() (replay.Scenario, error) {
	base, err := s.baseScenario()
	if err != nil {
		return replay.Scenario{}, err
	}
	p, err := Policies.Lookup(s.Policies[0])
	if err != nil {
		return replay.Scenario{}, fmt.Errorf("sim: %w", err)
	}
	base.Policy = p
	base.CapFraction = s.CapFractions[0]
	base.Name = s.Name
	if base.Name == "" {
		base.Name = fmt.Sprintf("%s/%d%%/%s", s.Workload.label(), int(base.CapFraction*100), p)
	}
	return base, nil
}

// sweepScenarios lowers a sweep-mode spec onto its scenario list:
// either the explicit Cells, or the Policies x CapFractions cross
// product expanded by replay.SweepScenarios. SWF sweeps are renamed
// after the trace path, matching single-run naming.
func (s RunSpec) sweepScenarios() ([]replay.Scenario, error) {
	if len(s.Cells) > 0 {
		return s.cellScenarios()
	}
	base, err := s.baseScenario()
	if err != nil {
		return nil, err
	}
	policies := make([]core.Policy, len(s.Policies))
	for i, name := range s.Policies {
		if policies[i], err = Policies.Lookup(name); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	scens := replay.SweepScenarios(base, []trace.Config{base.Workload}, s.CapFractions, policies)
	if s.Workload.SWF != nil {
		// The cells replay the streamed trace, not the synthetic kind —
		// name them after the trace file like single-run mode does.
		label := s.Workload.label()
		for i := range scens {
			sc := &scens[i]
			if sc.Capped() {
				sc.Name = fmt.Sprintf("%s/%d%%/%s", label, int(sc.CapFraction*100+0.5), sc.Policy)
			} else {
				sc.Name = fmt.Sprintf("%s/100%%/None", label)
			}
		}
	}
	return scens, nil
}

// cellScenarios lowers an explicit cell list, each cell inheriting the
// spec-level workload, window and options unless it overrides them.
func (s RunSpec) cellScenarios() ([]replay.Scenario, error) {
	out := make([]replay.Scenario, 0, len(s.Cells))
	for i, c := range s.Cells {
		cell := s // shallow copy: per-cell overrides applied below
		if c.Workload != nil {
			cell.Workload = *c.Workload
		}
		if c.Cap != nil {
			cell.Cap = *c.Cap
		}
		if c.Options != nil {
			cell.Options = *c.Options
		}
		sc, err := cell.baseScenario()
		if err != nil {
			return nil, fmt.Errorf("sim: cell %d: %w", i, err)
		}
		if c.Policy != "" {
			p, err := Policies.Lookup(c.Policy)
			if err != nil {
				return nil, fmt.Errorf("sim: cell %d: %w", i, err)
			}
			sc.Policy = p
		}
		sc.CapFraction = c.CapFraction
		sc.Name = c.Name
		if sc.Name == "" {
			sc.Name = sc.Label()
			if lbl := cell.Workload.label(); lbl != "" {
				sc.Name = lbl + "/" + sc.Label()
			}
		}
		out = append(out, sc)
	}
	return out, nil
}

// Scenarios previews the expanded scenario list of a single- or
// sweep-mode spec (after normalization) without running anything —
// what presenters announce and services cost-estimate. Federation
// specs expand through FederationScenarios instead.
func (s RunSpec) Scenarios() ([]replay.Scenario, error) {
	n := s.Normalize()
	switch n.Mode {
	case ModeSingle:
		sc, err := n.singleScenario()
		if err != nil {
			return nil, err
		}
		return []replay.Scenario{sc}, nil
	case ModeSweep:
		return n.sweepScenarios()
	}
	return nil, fmt.Errorf("sim: %s specs expand through FederationScenarios", n.Mode)
}

// FederationScenarios previews the expanded federation cell list of a
// federation-mode spec without running anything.
func (s RunSpec) FederationScenarios() ([]replay.FederationScenario, error) {
	n := s.Normalize()
	if n.Mode != ModeFederation {
		return nil, fmt.Errorf("sim: %s specs expand through Scenarios", n.Mode)
	}
	return n.federationScenarios()
}

// federationScenarios lowers a federation-mode spec onto its cell list:
// the member-count x cap x division cross product over library-built
// fleets (the powersched -federate vocabulary).
func (s RunSpec) federationScenarios() ([]replay.FederationScenario, error) {
	f := s.Federation
	var out []replay.FederationScenario
	for _, n := range f.MemberCounts {
		for _, frac := range s.CapFractions {
			for _, dname := range f.Divisions {
				div, err := Divisions.Lookup(dname)
				if err != nil {
					return nil, fmt.Errorf("sim: %w", err)
				}
				fs := replay.FederationLibraryScenario(n, s.Racks, frac, div)
				if f.EpochSec > 0 {
					fs.EpochSec = f.EpochSec
				}
				fs.BudgetSignal = f.Signal
				out = append(out, fs)
			}
		}
	}
	return out, nil
}

// CellsFromScenarios converts replay scenarios into the equivalent
// explicit cell list — the bridge that lets the predefined figure grids
// (Fig8, claims, ablations) and any other scenario-builder output be
// written down as a declarative RunSpec. Scenario fields the cell
// vocabulary cannot carry (explicit Jobs lists) are rejected.
func CellsFromScenarios(scens []replay.Scenario) ([]CellSpec, error) {
	out := make([]CellSpec, 0, len(scens))
	for i, sc := range scens {
		if sc.Jobs != nil {
			return nil, fmt.Errorf("sim: scenario %d (%s) carries an explicit job list; specs describe workloads by kind or SWF", i, sc.Name)
		}
		wl := &WorkloadSpec{
			Kind:            sc.Workload.Kind.String(),
			Seed:            sc.Workload.Seed,
			DurationSec:     sc.Workload.DurationSec,
			LoadFactor:      sc.Workload.LoadFactor,
			BacklogFraction: sc.Workload.BacklogFraction,
			Users:           sc.Workload.Users,
		}
		if sc.SWF != nil {
			wl.SWF = &SWFSpec{
				Path:           sc.SWF.Path,
				WindowStartSec: sc.SWF.WindowStart,
				WindowEndSec:   sc.SWF.WindowEnd,
				TimeScale:      sc.SWF.TimeScale,
				Cores:          sc.SWF.CoresFrom,
				MaxJobs:        sc.SWF.MaxJobs,
			}
		}
		cell := CellSpec{
			Name:        sc.Name,
			Workload:    wl,
			Policy:      sc.Policy.String(),
			CapFraction: sc.CapFraction,
		}
		if window := sc.Cap; window != (CapSpec{}) {
			cell.Cap = &window
		}
		if opt := sc.Options; opt != (OptionSpec{}) {
			cell.Options = &opt
		}
		out = append(out, cell)
	}
	return out, nil
}
