// Engine-equivalence golden test: the committed fingerprints in
// testdata/golden_fingerprints.json were generated with the pre-PR-7
// engine (binary container/heap event queue, full scheduling pass per
// event, unmemoized power projections). Any rewrite of the hot path —
// the 4-ary event queue, the incremental backfill pass, the pass memo —
// must reproduce them byte-identically at every worker count. The file
// is never regenerated.
package repro_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/experiment"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/rjms"
	"repro/internal/signal"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/twin"
)

const goldenFingerprintFile = "testdata/golden_fingerprints.json"

type goldenFingerprints struct {
	// Library is the Table fingerprint of the full scenario library
	// sweep (7 workloads x uncapped + {60%,40%} x {SHUT,DVFS,MIX}) on
	// a 2-rack machine.
	Library string `json:"library"`
	// SWF is the Table fingerprint of a streamed SWF replay (the
	// library's bursty workload written to an SWF file and replayed
	// through the scanner + streaming ingestion path).
	SWF string `json:"swf"`
	// Federation is the FederationTable fingerprint of a 2- and
	// 3-member federated sweep at a 50% global budget under both
	// division policies.
	Federation string `json:"federation"`
}

// equivalenceWorkerCounts are the pool sizes every sweep is repeated
// at; fingerprints must agree across them and with the golden file.
func equivalenceWorkerCounts() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

func libraryEquivalenceScenarios() []replay.Scenario {
	return replay.LibraryScenarios(2)
}

// swfEquivalenceScenarios writes a deterministic synthetic workload out
// as an SWF trace file and builds scenarios that stream it back in —
// exercising the lazy LoadWorkloadStream ingestion under both the
// uncapped and capped-MIX frontiers.
func swfEquivalenceScenarios(t testing.TB, dir string) []replay.Scenario {
	t.Helper()
	wl := trace.Config{Kind: trace.Bursty, Seed: 1006, Cores: replay.Scenario{ScaleRacks: 2}.Machine().Cores()}
	jobs, err := trace.Generate(wl)
	if err != nil {
		t.Fatalf("generating SWF workload: %v", err)
	}
	path := filepath.Join(dir, "bursty.swf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("creating SWF file: %v", err)
	}
	if err := trace.WriteSWF(f, jobs, "equivalence golden workload"); err != nil {
		t.Fatalf("writing SWF file: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("closing SWF file: %v", err)
	}
	swf := func(name string, policy core.Policy, capFraction float64) replay.Scenario {
		return replay.Scenario{
			Name:        name,
			Workload:    trace.Config{DurationSec: wl.Kind.Duration()},
			Policy:      policy,
			CapFraction: capFraction,
			SWF:         &trace.SWFSource{Path: path},
			ScaleRacks:  2,
		}
	}
	return []replay.Scenario{swf("swf/100%/None", core.PolicyNone, 0), swf("swf/40%/MIX", core.PolicyMix, 0.4)}
}

func federationEquivalenceGrid() experiment.FederationGrid {
	return experiment.FederationGrid{
		Name:         "equivalence-federation",
		MemberCounts: []int{2, 3},
		CapFractions: []float64{0.5},
		Divisions:    []replay.Division{replay.DivideProRata, replay.DivideDemand},
		ScaleRacks:   2,
	}
}

// runLibraryFingerprint runs the scenario list at the given worker
// count with the invariant checker attached to every cell, failing the
// test on any cell error or invariant violation.
func runFingerprint(t *testing.T, name string, scens []replay.Scenario, workers int) string {
	t.Helper()
	r := experiment.Runner{
		Workers: workers,
		Observe: func(i int, sc replay.Scenario, ctl *rjms.Controller) {
			k := invariant.Attach(ctl, sc.Name)
			t.Cleanup(func() {
				if err := k.Err(); err != nil {
					t.Errorf("%s workers=%d: invariant violation: %v", name, workers, err)
				}
			})
		},
	}
	tab := r.Run(name, scens)
	if errs := tab.Errs(); len(errs) > 0 {
		t.Fatalf("%s workers=%d: %v", name, workers, errs[0])
	}
	return tab.Fingerprint()
}

// TestEngineEquivalenceGolden pins the engine rewrite to the old
// engine's results: library sweep, streamed SWF replay, and federation
// fingerprints must match the committed goldens at 1, 4 and max
// workers.
func TestEngineEquivalenceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-library equivalence sweep in -short mode")
	}
	var got goldenFingerprints
	swfDir := t.TempDir()
	for _, workers := range equivalenceWorkerCounts() {
		lib := runFingerprint(t, "equivalence-library", libraryEquivalenceScenarios(), workers)
		if got.Library == "" {
			got.Library = lib
		} else if lib != got.Library {
			t.Fatalf("library fingerprint differs at %d workers:\n got  %s\n want %s", workers, lib, got.Library)
		}

		swf := runFingerprint(t, "equivalence-swf", swfEquivalenceScenarios(t, swfDir), workers)
		if got.SWF == "" {
			got.SWF = swf
		} else if swf != got.SWF {
			t.Fatalf("SWF fingerprint differs at %d workers:\n got  %s\n want %s", workers, swf, got.SWF)
		}

		fed := experiment.RunFederation(federationEquivalenceGrid(), workers)
		if errs := fed.Errs(); len(errs) > 0 {
			t.Fatalf("federation workers=%d: %v", workers, errs[0])
		}
		fp := fed.Fingerprint()
		if got.Federation == "" {
			got.Federation = fp
		} else if fp != got.Federation {
			t.Fatalf("federation fingerprint differs at %d workers:\n got  %s\n want %s", workers, fp, got.Federation)
		}
	}

	b, err := os.ReadFile(goldenFingerprintFile)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var want goldenFingerprints
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("decoding golden file: %v", err)
	}
	if got != want {
		t.Errorf("fingerprints diverge from the committed old-engine goldens:\n got  %+v\n want %+v", got, want)
	}
}

// --- second golden tier ---------------------------------------------
//
// testdata/golden_fingerprints_v2.json pins what the three hashes above
// never run: every rjms.Options field, the IDLE policy, two overlapping
// cap windows, a twin mutation log that re-budgets, fails and repairs a
// node and adds and removes a member mid-run, and the Section VII 24 h
// cells at 56 racks. Its "written_by" names the commit whose engine
// wrote it — the tree as it stood before the pass memo became keyed —
// and like the first tier it is never regenerated: a later engine
// change must reproduce it, or supersede the cells it moves in the
// third file below.

const goldenFingerprintFileV2 = "testdata/golden_fingerprints_v2.json"

type goldenFingerprintsV2 struct {
	WrittenBy string `json:"written_by"`
	// Cells maps a cell name to the SHA-256 of its summary and sample
	// series (runFingerprintV2), or of its telemetry stream (the twin).
	Cells map[string]string `json:"cells"`
}

// testdata/golden_fingerprints_v3.json pins the cells a deliberate
// behaviour change moved, and only those: it names each in "supersedes",
// holds its new hash in "cells", and its "written_by" names the commit
// whose engine wrote them. TestEngineEquivalenceGoldenV2 checks a
// superseded cell against it instead of v2, and fails if it names a cell
// v2 does not pin. The first change it records is the power rule of
// rjms's settle with the planning rule of reservation.Book.Holes: the 22
// SHUT and MIX two-window cells.
const goldenFingerprintFileV3 = "testdata/golden_fingerprints_v3.json"

type goldenFingerprintsV3 struct {
	WrittenBy  string            `json:"written_by"`
	Supersedes []string          `json:"supersedes"`
	Cells      map[string]string `json:"cells"`
}

type optionVariantV2 struct {
	name string
	opts rjms.Options
}

// optionVariantsV2 is each rjms.Options field on alone, then all of
// them together.
func optionVariantsV2() []optionVariantV2 {
	all := rjms.Options{
		KillOnOverrun: true, Scattered: true, ReservationLeadSec: -1, PlanningHorizonSec: 7200,
		DynamicDVFS: true, Compact: true, MeasuredNoise: 0.02, SampleEverySec: 60, BackfillDepth: 10,
	}
	return []optionVariantV2{
		{"defaults", rjms.Options{}},
		{"kill_on_overrun", rjms.Options{KillOnOverrun: all.KillOnOverrun}},
		{"scattered", rjms.Options{Scattered: all.Scattered}},
		{"reservation_lead_sec", rjms.Options{ReservationLeadSec: all.ReservationLeadSec}},
		{"planning_horizon_sec", rjms.Options{PlanningHorizonSec: all.PlanningHorizonSec}},
		{"dynamic_dvfs", rjms.Options{DynamicDVFS: all.DynamicDVFS}},
		{"compact", rjms.Options{Compact: all.Compact}},
		{"measured_noise", rjms.Options{MeasuredNoise: all.MeasuredNoise}},
		{"sample_every_sec", rjms.Options{SampleEverySec: all.SampleEverySec}},
		{"backfill_depth", rjms.Options{BackfillDepth: all.BackfillDepth}},
		{"all", all},
	}
}

// fingerprintRunV2 hashes everything a run reports: the summary and
// the whole sample series, field by field, so the hash moves only when
// a reported number does.
func fingerprintRunV2(sum metrics.Summary, samples []metrics.Sample) string {
	h := sha256.New()
	byFreq := func(m map[dvfs.Freq]int) {
		freqs := make([]int, 0, len(m))
		for f := range m {
			freqs = append(freqs, int(f))
		}
		sort.Ints(freqs)
		for _, f := range freqs {
			fmt.Fprintf(h, " %d:%d", f, m[dvfs.Freq(f)])
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintln(h, sum.Start, sum.End, float64(sum.EnergyJ), sum.WorkCoreSec, float64(sum.PeakPower), float64(sum.MeanPower),
		sum.JobsSubmitted, sum.JobsLaunched, sum.JobsCompleted, sum.JobsKilled, sum.Rescales,
		sum.MeanWaitSec, sum.MeanBSLD, sum.MaxBSLD, sum.NormEnergy, sum.NormWork, sum.NormLaunched)
	byFreq(sum.LaunchedByFreq)
	ladder := dvfs.CurieLadder()
	for _, s := range samples {
		fmt.Fprint(h, s.T, s.BusyNodes, s.IdleNodes, s.OffNodes, s.OffCores, float64(s.Power), float64(s.Cap), float64(s.Bonus))
		for i, n := range s.CoresByFreq { // ascending, zero slots skipped: the bytes the sorted map wrote
			if n != 0 {
				fmt.Fprintf(h, " %d:%d", int(ladder[i]), n)
			}
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runCellV2 replays the bursty workload on 2 racks under one cap window
// (the hour centred in the interval, at 50 %) or two overlapping ones
// (a second, 35 % window opening half-way through the first).
func runCellV2(t *testing.T, name string, opts rjms.Options, policy core.Policy, windows int) string {
	t.Helper()
	s := replay.Scenario{Workload: trace.Config{Kind: trace.Bursty, Seed: 1006}, Policy: policy, ScaleRacks: 2, Options: opts}
	ctl, cleanup, err := replay.Build(s)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer cleanup()
	start, end := s.Window()
	for w, frac := range []float64{0.5, 0.35}[:windows] {
		shift := int64(w) * 1800
		if _, err := ctl.ReservePowerCap(start+shift, end+shift, power.CapFraction(frac, ctl.Cluster().MaxPower())); err != nil {
			t.Fatalf("%s: window %d: %v", name, w, err)
		}
	}
	if err := ctl.Start(s.Duration()); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := ctl.Advance(s.Duration()); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return fingerprintRunV2(ctl.Finish(), ctl.Samples())
}

// hashSink fingerprints a twin's telemetry as the stream of points it
// appends, independent of how a store would lay them out.
type hashSink struct{ h hash.Hash }

func (s hashSink) Append(name string, t int64, v float64) error {
	fmt.Fprintln(s.h, name, t, v)
	return nil
}

// runTwinV2 drives a two-member twin under a sinusoidal site budget
// through a mutation log that re-budgets, fails and repairs a node, and
// adds and removes a member, and hashes its telemetry and applied log.
func runTwinV2(t *testing.T) string {
	t.Helper()
	spec := twin.Spec{
		Name: "golden-v2",
		Members: []twin.MemberSpec{
			{Name: "alpha", Workload: sim.WorkloadSpec{Kind: "bursty", Seed: 11, DurationSec: 1800, LoadFactor: 0.8}, Policy: "MIX", Racks: 1},
			{Name: "beta", Workload: sim.WorkloadSpec{Kind: "smalljob", Seed: 12, DurationSec: 1800, LoadFactor: 0.4}, Racks: 1},
		},
		GlobalCapFraction: 0.6,
		EpochSec:          900,
		HorizonSec:        7200,
		Signal:            &signal.Spec{Kind: "sinusoid", Mean: 1, Amplitude: 0.2, PeriodSec: 3600},
	}
	sink := hashSink{sha256.New()}
	s, err := twin.New(spec, twin.Config{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	gamma := twin.MemberSpec{Name: "gamma", Workload: sim.WorkloadSpec{Kind: "smalljob", Seed: 13, DurationSec: 1800, LoadFactor: 0.3}, Racks: 1}
	for _, m := range []twin.Mutation{
		{Op: twin.OpSetBudget, AtSec: 900, BudgetFraction: 0.4},
		{Op: twin.OpFailNode, AtSec: 900, Name: "alpha", Node: 3},
		{Op: twin.OpAddMember, AtSec: 2700, Member: &gamma},
		{Op: twin.OpRepairNode, AtSec: 3600, Name: "alpha", Node: 3},
		{Op: twin.OpRemoveMember, AtSec: 4500, Name: "beta"},
	} {
		if err := s.Mutate(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, a := range s.Log() {
		if a.Err != "" {
			t.Fatalf("twin mutation %d (%s) failed: %s", a.Seq, a.Mutation.Op, a.Err)
		}
		fmt.Fprintln(sink.h, a.Seq, a.AtEpoch, a.Mutation.Op)
	}
	return hex.EncodeToString(sink.h.Sum(nil))
}

// TestEngineEquivalenceGoldenV2 holds the engine to the second tier.
func TestEngineEquivalenceGoldenV2(t *testing.T) {
	if testing.Short() {
		t.Skip("option-matrix equivalence sweep in -short mode")
	}
	got := map[string]string{}
	for _, v := range optionVariantsV2() {
		for _, p := range []core.Policy{core.PolicyNone, core.PolicyShut, core.PolicyDvfs, core.PolicyMix, core.PolicyIdle} {
			for windows := 1; windows <= 2; windows++ {
				name := fmt.Sprintf("2racks/%s/%s/%dwin", v.name, p, windows)
				got[name] = runCellV2(t, name, v.opts, p, windows)
			}
		}
	}
	got["twin/mutation-log"] = runTwinV2(t)
	for _, s := range replay.Claims24hScenarios(0) {
		res := replay.RunContextWith(context.Background(), s, nil)
		if res.Err != nil {
			t.Fatalf("%s: %v", s.Name, res.Err)
		}
		got["curie/"+s.Name] = fingerprintRunV2(res.Summary, res.Samples)
	}

	var want goldenFingerprintsV2
	var v3 goldenFingerprintsV3
	readGolden(t, goldenFingerprintFileV2, &want)
	readGolden(t, goldenFingerprintFileV3, &v3)
	if len(got) != len(want.Cells) {
		t.Errorf("%d cells run, %d in %s", len(got), len(want.Cells), goldenFingerprintFileV2)
	}
	if len(v3.Supersedes) != len(v3.Cells) {
		t.Errorf("%s supersedes %d cells and pins %d", goldenFingerprintFileV3, len(v3.Supersedes), len(v3.Cells))
	}
	superseded := map[string]bool{}
	for _, name := range v3.Supersedes {
		_, inV2 := want.Cells[name]
		_, inV3 := v3.Cells[name]
		if !inV2 || !inV3 {
			t.Errorf("%s supersedes %s, which is pinned in v2: %v, in v3: %v", goldenFingerprintFileV3, name, inV2, inV3)
		}
		superseded[name] = true
	}
	for name, fp := range got {
		pin, by := want.Cells[name], want.WrittenBy
		if superseded[name] {
			pin, by = v3.Cells[name], v3.WrittenBy
		}
		if fp != pin {
			t.Errorf("%s diverges from the engine of %s:\n got  %s\n want %s", name, by, fp, pin)
		}
	}
}

func readGolden(t *testing.T, path string, into any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, into); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
}
