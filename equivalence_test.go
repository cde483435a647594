// Engine-equivalence golden test: the committed fingerprints in
// testdata/golden_fingerprints.json were generated with the pre-PR-7
// engine (binary container/heap event queue, full scheduling pass per
// event, unmemoized power projections). Any rewrite of the hot path —
// the 4-ary event queue, the incremental backfill pass, the projection
// memo — must reproduce them byte-identically at every worker count.
//
// Regenerate (only when an intentional semantic change lands) with:
//
//	UPDATE_GOLDEN=1 go test -run TestEngineEquivalenceGolden .
package repro_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/invariant"
	"repro/internal/replay"
	"repro/internal/rjms"
	"repro/internal/trace"
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
	update := os.Getenv("UPDATE_GOLDEN") != ""

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

	if update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFingerprintFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFingerprintFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden fingerprints updated: %+v", got)
		return
	}

	b, err := os.ReadFile(goldenFingerprintFile)
	if err != nil {
		t.Fatalf("reading golden file (run with UPDATE_GOLDEN=1 to create it): %v", err)
	}
	var want goldenFingerprints
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("decoding golden file: %v", err)
	}
	if got != want {
		t.Errorf("fingerprints diverge from the committed old-engine goldens:\n got  %+v\n want %+v", got, want)
	}
}
