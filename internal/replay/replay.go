// Package replay implements the experimental methodology of Section VII:
// replaying (synthetic) Curie workload intervals against the RJMS under a
// powercap scenario — a policy, a cap fraction, and a one-hour reservation
// window in the middle of the interval — and collecting the utilization
// and power series plus the Figure 8 totals. One scenario is one
// single-goroutine controller; running many at once is the job of the
// worker pool in internal/experiment.
//
// The predefined scenario builders (Fig6/7/8, the claims, the
// ablations, and the generic SweepScenarios cross product) are the
// vocabulary the sweep layer speaks: internal/experiment expands grids
// through SweepScenarios and aggregates Run results into comparable
// tables.
package replay

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/reservation"
	"repro/internal/rjms"
	"repro/internal/trace"
)

// Scenario is one experiment cell: workload x policy x cap.
type Scenario struct {
	Name     string
	Workload trace.Config
	Policy   core.Policy

	// CapFraction is the power budget as a fraction of the machine's
	// maximum draw; >= 1 (or 0) means no powercap reservation.
	CapFraction float64
	// Cap positions the reservation window.
	Cap CapWindow

	// ScaleRacks shrinks the machine to this many racks (0 = full 56).
	// The workload's Cores is adjusted to match automatically.
	ScaleRacks int

	// Jobs replaces the synthetic workload with an explicit job list
	// (e.g. parsed from a real SWF trace); Workload.Kind still labels
	// the run and Duration()/DurationSec must be set to the interval
	// length when the default kind duration does not apply. The replay
	// reads the list and never writes it, so cells may share one.
	Jobs []*job.Job

	// SWF streams the workload from an SWF trace file through the
	// scanner and its window/rescale transforms instead of
	// materializing it: submissions are ingested lazily as the virtual
	// clock reaches them, so million-job archive traces replay in
	// bounded memory. Ignored when Jobs is set; each scenario cell
	// opens its own stream, so SWF scenarios sweep in parallel like any
	// other. As with Jobs, Workload.Kind only labels the run and
	// DurationSec bounds the replayed interval.
	SWF *trace.SWFSource

	// Options are the ablations and switches, handed to the controller
	// as they are.
	rjms.Options
}

// CapWindow positions a scenario's powercap reservation window; the
// zero value is the paper's default, one hour centred in the interval.
// sim.CapSpec is an alias, so the JSON tags are the RunSpec wire format.
type CapWindow struct {
	// StartSec is the window start; 0 centres the window.
	StartSec int64 `json:"start_sec,omitempty"`
	// DurationSec is the window length; 0 means the paper's hour.
	DurationSec int64 `json:"duration_sec,omitempty"`
	// OpenEnded makes the cap start at StartSec and never end (the
	// "powercap set for now" mode).
	OpenEnded bool `json:"open_ended,omitempty"`
}

// Validate rejects windows that lie before t=0 or run backwards.
func (w CapWindow) Validate() error {
	if w.StartSec < 0 {
		return fmt.Errorf("replay: negative cap window start %d", w.StartSec)
	}
	if w.DurationSec < 0 {
		return fmt.Errorf("replay: negative cap window duration %d", w.DurationSec)
	}
	return nil
}

// Machine returns the topology the scenario runs on.
func (s Scenario) Machine() cluster.Topology {
	topo := cluster.CurieTopology()
	if s.ScaleRacks > 0 {
		topo.Racks = s.ScaleRacks
	}
	return topo
}

// Duration returns the replayed interval length.
func (s Scenario) Duration() int64 {
	if s.Workload.DurationSec > 0 {
		return s.Workload.DurationSec
	}
	return s.Workload.Kind.Duration()
}

// Capped reports whether the scenario actually reserves power.
func (s Scenario) Capped() bool { return s.CapFraction > 0 && s.CapFraction < 1 }

// Window returns the powercap reservation window.
func (s Scenario) Window() (start, end int64) {
	dur := s.Cap.DurationSec
	if dur == 0 {
		dur = 3600
	}
	start = s.Cap.StartSec
	if start == 0 {
		start = (s.Duration() - dur) / 2
		if start < 0 {
			start = 0
		}
	}
	if s.Cap.OpenEnded {
		return start, reservation.Horizon
	}
	return start, start + dur
}

// Label renders the Figure 8 row name, e.g. "40%/MIX".
func (s Scenario) Label() string {
	if !s.Capped() {
		return "100%/None"
	}
	return fmt.Sprintf("%d%%/%s", int(s.CapFraction*100+0.5), s.Policy)
}

// Result is the outcome of one scenario run.
type Result struct {
	Scenario Scenario
	Plan     core.OfflinePlan
	Summary  metrics.Summary
	Samples  []metrics.Sample
	MaxPower power.Watts
	Cores    int
	Err      error
}

// Build constructs the controller of one scenario with its workload
// loaded but nothing reserved or run — the shared front half of
// RunContextWith and of federation members, which reserve and drive
// their controllers themselves. The returned cleanup releases an SWF
// source (it is non-nil even when there is nothing to close) and must
// be called once the run is over.
func Build(s Scenario) (ctl *rjms.Controller, cleanup func(), err error) {
	topo := s.Machine()
	cleanup = func() {}
	ctl, err = rjms.New(rjms.Config{Topology: topo, Policy: s.Policy, Options: s.Options})
	if err != nil {
		return nil, cleanup, err
	}
	if s.Jobs == nil && s.SWF != nil {
		// The controller pulls submissions from the file as the virtual
		// clock advances, so only pending and running jobs are ever
		// materialized.
		stream, err := s.SWF.Open()
		if err != nil {
			return nil, cleanup, err
		}
		if err := ctl.LoadWorkloadStream(stream); err != nil {
			stream.Close()
			return nil, cleanup, err
		}
		return ctl, func() { stream.Close() }, nil
	}
	jobs := s.Jobs
	if jobs == nil {
		wl := s.Workload
		wl.Cores = topo.Cores()
		if jobs, err = trace.Generate(wl); err != nil {
			return nil, cleanup, err
		}
	}
	if err := ctl.LoadWorkload(jobs); err != nil {
		return nil, cleanup, err
	}
	return ctl, cleanup, nil
}

// cancelSteps bounds how stale a cancellation check can get: a replay
// advances in duration/cancelSteps chunks of virtual time, probing ctx
// between chunks, so a cancelled scenario returns after at most ~1/128
// of its remaining wall-clock cost.
const cancelSteps = 128

// RunContextWith is the scenario driver — every single-cluster replay
// in the repo goes through it. It invokes observe (when non-nil) on the
// built controller before the replay starts (the attach point of the
// invariant checker, telemetry collectors and other probes), then
// advances in bounded steps of virtual time, checking ctx between them,
// so a cancellation aborts the replay mid-run instead of after it: the
// result then carries ctx.Err() plus the samples recorded so far.
func RunContextWith(ctx context.Context, s Scenario, observe func(*rjms.Controller)) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	res := Result{Scenario: s}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	ctl, cleanup, err := Build(s)
	if err != nil {
		res.Err = err
		return res
	}
	defer cleanup()
	res.MaxPower = ctl.Cluster().MaxPower()
	res.Cores = ctl.Cluster().Cores()
	if observe != nil {
		observe(ctl)
	}

	if s.Capped() {
		start, end := s.Window()
		budget := power.CapFraction(s.CapFraction, ctl.Cluster().MaxPower())
		plan, err := ctl.ReservePowerCap(start, end, budget)
		if err != nil {
			res.Err = err
			return res
		}
		res.Plan = plan
	}
	dur := s.Duration()
	if err := ctl.Start(dur); err != nil {
		res.Err = err
		return res
	}
	step := dur / cancelSteps
	if step < 1 {
		step = 1
	}
	for t := step; ; t += step {
		if t > dur {
			t = dur
		}
		if err := ctx.Err(); err != nil {
			res.Err = err
			res.Samples = ctl.Samples()
			return res
		}
		if err := ctl.Advance(t); err != nil {
			res.Err = err
			return res
		}
		if t == dur {
			break
		}
	}
	res.Summary = ctl.Finish()
	res.Samples = ctl.Samples()
	return res
}
