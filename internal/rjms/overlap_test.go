package rjms_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/rjms"
	"repro/internal/trace"
)

// noiseFreeVariants are the option variants of the second golden tier
// (the root package's optionVariantsV2) the invariant checker can
// judge: every one but those with measurement noise, whose guarded
// estimate may admit what the exact bookkeeping would not.
var noiseFreeVariants = []struct {
	name string
	opts rjms.Options
}{
	{"defaults", rjms.Options{}},
	{"kill_on_overrun", rjms.Options{KillOnOverrun: true}},
	{"scattered", rjms.Options{Scattered: true}},
	{"reservation_lead_sec", rjms.Options{ReservationLeadSec: -1}},
	{"planning_horizon_sec", rjms.Options{PlanningHorizonSec: 7200}},
	{"dynamic_dvfs", rjms.Options{DynamicDVFS: true}},
	{"compact", rjms.Options{Compact: true}},
	{"sample_every_sec", rjms.Options{SampleEverySec: 60}},
	{"backfill_depth", rjms.Options{BackfillDepth: 10}},
}

// Every noise-free cell of the second golden tier, with the checker
// attached: the bursty workload on 2 racks under the 50 % hour centred
// in the run, and in the two-window cells a 35 % window opening half-way
// through it. The second window closes half an hour after the first, so
// it may take the first window's group; when the first closes, the
// nodes the second holds stay off. No sample breaks the cap rule, and
// every switch-off plan saves what its cap needs.
func TestOverlappingWindowsHoldTheCap(t *testing.T) {
	if testing.Short() {
		t.Skip("72 replays in -short mode")
	}
	for _, v := range noiseFreeVariants {
		for _, p := range []core.Policy{core.PolicyShut, core.PolicyDvfs, core.PolicyMix, core.PolicyIdle} {
			for windows := 1; windows <= 2; windows++ {
				name := fmt.Sprintf("2racks/%s/%s/%dwin", v.name, p, windows)
				for _, err := range runCheckedCell(name, v.opts, p, windows) {
					t.Error(err)
				}
			}
		}
	}
}

// runCheckedCell replays one cell as the golden tier does and returns
// what the checker and the plans report against it.
func runCheckedCell(name string, opts rjms.Options, policy core.Policy, windows int) []error {
	s := replay.Scenario{Workload: trace.Config{Kind: trace.Bursty, Seed: 1006}, Policy: policy, ScaleRacks: 2, Options: opts}
	ctl, cleanup, err := replay.Build(s)
	if err != nil {
		return []error{fmt.Errorf("%s: %v", name, err)}
	}
	defer cleanup()
	var errs []error
	start, end := s.Window()
	for w, frac := range []float64{0.5, 0.35}[:windows] {
		shift := int64(w) * 1800
		plan, err := ctl.ReservePowerCap(start+shift, end+shift, power.CapFraction(frac, ctl.Cluster().MaxPower()))
		if err != nil {
			return []error{fmt.Errorf("%s: window %d: %v", name, w+1, err)}
		}
		if plan.PlannedSaving < plan.NeededSaving {
			errs = append(errs, fmt.Errorf("%s: window %d books %d nodes saving %v of the %v its cap needs",
				name, w+1, len(plan.OffNodes), plan.PlannedSaving, plan.NeededSaving))
		}
	}
	k := invariant.Attach(ctl, name)
	if err := ctl.Start(s.Duration()); err != nil {
		return append(errs, err)
	}
	if err := ctl.Advance(s.Duration()); err != nil {
		return append(errs, err)
	}
	return append(errs, k.Violations()...)
}
