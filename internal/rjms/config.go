// Package rjms is the SLURM-like resource and job management controller
// the paper implements its powercapping strategy in (Section V): a
// centralized controller that accepts job submissions and powercap
// reservations, schedules with EASY backfilling over a core-level node
// allocator, keeps per-node power states (IdleWatts / MaxWatts /
// DownWatts / CpuFreqXWatts), runs the offline planning of Algorithm 1
// when a powercap reservation arrives and the online frequency control of
// Algorithm 2 at every job dispatch. It executes against the
// deterministic discrete-event engine, replacing the paper's real-time
// multiple-slurmd emulation.
package rjms

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
)

// DefaultCapPlanningHorizon is how far ahead (seconds) the online
// algorithm prepares for a future powercap window by default: one hour,
// the reservation length of the paper's scenarios.
const DefaultCapPlanningHorizon = 3600

// DefaultReservationLead is how long (seconds) before a switch-off
// window its nodes stop accepting new jobs by default. Thirty minutes
// covers the bulk of the short-job-dominated Curie runtime distribution,
// so the group is mostly drained when the window opens and the draw
// settles onto the cap within minutes (the paper's default powercap
// behaviour tolerates the remaining transient: "the scheduler will wait
// until some jobs are completed").
const DefaultReservationLead = 1800

// Options are the per-run controller switches the paper's evaluation
// varies (Sections V-VII) — the one declaration of the vocabulary.
// Config and replay.Scenario embed it and sim.OptionSpec is an alias of
// it, so a spec file's "options" object, a scenario and a controller
// config carry the same struct and lowering one onto the next is a
// struct copy. The JSON tags and the field order are the RunSpec wire
// format: sim.SpecHash, and with it every archived envelope, is keyed
// on them (sim's pinned-hash test fails when they move).
type Options struct {
	// KillOnOverrun enables the "extreme actions" of Section IV-B:
	// when a cap activates while the cluster draws more, jobs are
	// killed (newest first) until the draw fits. Default off: the
	// scheduler just stops launching and waits.
	KillOnOverrun bool `json:"kill_on_overrun,omitempty"`
	// Scattered disables the bonus-aware grouping of the offline phase
	// (ablation); default false = grouped.
	Scattered bool `json:"scattered,omitempty"`
	// ReservationLeadSec is how many seconds before a switch-off window
	// its nodes stop accepting jobs whose walltime crosses the window.
	// Zero means DefaultReservationLead; negative means pure drain
	// (reserved nodes take work until the window opens and power down
	// as their jobs end). With Curie's ~12000x walltime overestimates,
	// large leads idle the group far ahead of the window (see the lead
	// ablation benchmark).
	ReservationLeadSec int64 `json:"reservation_lead_sec,omitempty"`
	// PlanningHorizonSec bounds how far ahead of a future powercap
	// window the online algorithm starts throttling jobs that overlap
	// it. Beyond the horizon jobs run unconstrained: with the trace's
	// four-orders-of-magnitude walltime overestimates, every job
	// formally "overlaps" any future reservation, and unbounded
	// preparation would idle the machine all day (the paper's Figure 6
	// shows preparation close to the window). Negative disables the
	// horizon (unbounded); zero means DefaultCapPlanningHorizon.
	PlanningHorizonSec int64 `json:"planning_horizon_sec,omitempty"`
	// DynamicDVFS enables re-clocking of running jobs at powercap
	// boundaries (the paper's Section VIII future work): when a cap
	// activates above the current draw, running jobs are slowed one
	// ladder rung at a time until the budget is met; when the window
	// closes they are raised back toward nominal. Only effective for
	// policies that may scale (DVFS, MIX).
	DynamicDVFS bool `json:"dynamic_dvfs,omitempty"`
	// Compact switches node selection to the topology-aware allocator
	// that minimizes the chassis span of each job (jobs share
	// first-level switches; Section IV-A's network-topology criterion).
	// Switch-off reservations still take precedence: when a shutdown is
	// planned, reserved nodes are packed first regardless.
	Compact bool `json:"compact,omitempty"`
	// MeasuredNoise enables measurement-based capping (the paper's
	// final future-work item): instead of trusting the static per-state
	// watt bookkeeping, the active-cap checks use a guarded estimate
	// built from noisy IPMI-style sensor readings of the true draw.
	// The value is the sensor's relative standard deviation (e.g. 0.02);
	// zero keeps the paper's static table behaviour.
	MeasuredNoise float64 `json:"measured_noise,omitempty"`
	// SampleEverySec is the metrics sampling period in seconds; zero
	// means 120.
	SampleEverySec int64 `json:"sample_every_sec,omitempty"`
	// BackfillDepth bounds how many pending jobs one scheduling pass
	// considers (SLURM's bf_max_job_test); zero means 100.
	BackfillDepth int `json:"backfill_depth,omitempty"`
}

// Validate rejects option values no controller can run with. New and
// sim.RunSpec.Validate both call it, so a bad value is refused where a
// spec is submitted, not inside the worker that would have run it.
func (o Options) Validate() error {
	if o.BackfillDepth < 0 {
		return fmt.Errorf("rjms: negative backfill depth %d", o.BackfillDepth)
	}
	if o.SampleEverySec < 0 {
		return fmt.Errorf("rjms: negative sample interval %d", o.SampleEverySec)
	}
	if o.MeasuredNoise < 0 {
		return fmt.Errorf("rjms: negative measurement noise %v", o.MeasuredNoise)
	}
	return nil
}

// What no caller varies is a constant, not a Config field: the node
// power table and shared-equipment draw are Curie's
// (power.CurieProfile, cluster.CurieOverhead), the degradations at the
// ladder minimum the paper's 1.63 / 1.29 (dvfs.DegMinCommon,
// dvfs.DegMinMix), the MIX floor 2.0 GHz (core.DefaultMixFloor), and:
const (
	// measuredPowerWindow is the sensor smoothing window (readings).
	measuredPowerWindow = 10
	// measuredPowerGuard is the guard band in noise sigmas.
	measuredPowerGuard = 3
	// measuredPowerSeed seeds the sensor noise of MeasuredNoise, so a
	// measured run is reproducible.
	measuredPowerSeed = 1
)

// Config assembles a controller. Zero fields take the documented
// defaults.
type Config struct {
	// Topology of the machine; zero value means full Curie.
	Topology cluster.Topology
	// Policy is the powercap scheduling mode.
	Policy core.Policy
	// Options are the per-run switches.
	Options
}

func (c Config) withDefaults() Config {
	if c.Topology == (cluster.Topology{}) {
		c.Topology = cluster.CurieTopology()
	}
	if c.BackfillDepth == 0 {
		c.BackfillDepth = 100
	}
	if c.SampleEverySec == 0 {
		c.SampleEverySec = 120
	}
	if c.ReservationLeadSec == 0 {
		c.ReservationLeadSec = DefaultReservationLead
	} else if c.ReservationLeadSec < 0 {
		c.ReservationLeadSec = 0
	}
	if c.PlanningHorizonSec == 0 {
		c.PlanningHorizonSec = DefaultCapPlanningHorizon
	} else if c.PlanningHorizonSec < 0 {
		c.PlanningHorizonSec = 1 << 40 // effectively unbounded
	}
	return c
}

func (c Config) validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	return c.Options.Validate()
}
