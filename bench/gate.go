package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiment"
	"repro/internal/replay"
)

// expectedJSON holds the fingerprint of every entry of the three fixed
// operation pools, captured when the benchmark was written. A replay,
// sweep or federation operation whose report fingerprints differently
// is a failed operation.
//
//go:embed expected.json
var expectedJSON []byte

// expectations maps a workload name to its pool's fingerprints, in pool
// order.
type expectations map[string][]string

func loadExpectations(data []byte) (expectations, error) {
	var e expectations
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("decoding expected.json: %w", err)
	}
	return e, nil
}

// check reports whether pool entry k of the workload fingerprinted as
// committed.
func (e expectations) check(workload string, k int, got string) bool {
	fps := e[workload]
	return k < len(fps) && fps[k] != "" && fps[k] == got
}

// goldenFile is the repository's engine-equivalence golden, generated
// with the pre-rewrite engine. The benchmark only ever reads it.
const goldenFile = "testdata/golden_fingerprints.json"

type goldens struct {
	Library    string `json:"library"`
	Federation string `json:"federation"`
}

func loadGoldens(root string) (goldens, error) {
	var g goldens
	b, err := os.ReadFile(filepath.Join(root, goldenFile))
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(b, &g); err != nil {
		return g, fmt.Errorf("decoding %s: %w", goldenFile, err)
	}
	return g, nil
}

// libraryGate runs the scenario-library sweep exactly as
// equivalence_test.go builds it and compares its fingerprint with the
// golden.
func libraryGate(want goldens, workers int) error {
	tab := experiment.Runner{Workers: workers}.Run("equivalence-library", replay.LibraryScenarios(2))
	if errs := tab.Errs(); len(errs) > 0 {
		return fmt.Errorf("library gate: %w", errs[0])
	}
	if got := tab.Fingerprint(); got != want.Library {
		return fmt.Errorf("library gate: fingerprint %s, golden %s", got, want.Library)
	}
	return nil
}

// federationGate does the same for the federated sweep.
func federationGate(want goldens, workers int) error {
	fed := experiment.RunFederation(experiment.FederationGrid{
		Name:         "equivalence-federation",
		MemberCounts: []int{2, 3},
		CapFractions: []float64{0.5},
		Divisions:    []replay.Division{replay.DivideProRata, replay.DivideDemand},
		ScaleRacks:   2,
	}, workers)
	if errs := fed.Errs(); len(errs) > 0 {
		return fmt.Errorf("federation gate: %w", errs[0])
	}
	if got := fed.Fingerprint(); got != want.Federation {
		return fmt.Errorf("federation gate: fingerprint %s, golden %s", got, want.Federation)
	}
	return nil
}
