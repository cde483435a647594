package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/replay"
	"repro/internal/trace"
)

// TestSingleMatchesDirectReplay: the facade path must reproduce a
// direct replay.RunContextWith bit for bit (same scenario, same export bytes).
func TestSingleMatchesDirectReplay(t *testing.T) {
	spec := RunSpec{
		Workload:     WorkloadSpec{Kind: "smalljob", Seed: 1002},
		Racks:        2,
		Policies:     []string{"SHUT"},
		CapFractions: []float64{0.6},
	}
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeSingle || rep.Single == nil {
		t.Fatalf("mode %q, single=%v", rep.Mode, rep.Single != nil)
	}

	direct := replay.RunContextWith(context.Background(), replay.Scenario{
		Name:        "smalljob/60%/SHUT",
		Workload:    trace.Config{Kind: trace.SmallJob, Seed: 1002},
		Policy:      core.PolicyShut,
		CapFraction: 0.6,
		ScaleRacks:  2,
	}, nil)
	if direct.Err != nil {
		t.Fatal(direct.Err)
	}

	var a, b bytes.Buffer
	if err := replay.WriteJSON(&a, []replay.Result{*rep.Single}); err != nil {
		t.Fatal(err)
	}
	if err := replay.WriteJSON(&b, []replay.Result{direct}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("facade single run drifted from direct replay:\nfacade: %s\ndirect: %s", a.String(), b.String())
	}
}

// TestSpecPathMatchesLiteralSpec is the facade half of the
// flag-vs-spec parity criterion: a spec described in Go and the same
// spec round-tripped through its JSON file form produce bit-identical
// sweep results at any worker count.
func TestSpecPathMatchesLiteralSpec(t *testing.T) {
	literal := RunSpec{
		Workload:     WorkloadSpec{Kind: "smalljob", Seed: 1002},
		Racks:        2,
		Policies:     []string{"SHUT", "DVFS"},
		CapFractions: []float64{0, 0.6},
		Workers:      2,
	}
	var buf bytes.Buffer
	if err := literal.Normalize().EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := DecodeJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	repA, err := Run(context.Background(), literal)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := Run(context.Background(), fromJSON)
	if err != nil {
		t.Fatal(err)
	}
	fpA, err := repA.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := repB.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Errorf("literal vs JSON-loaded spec fingerprints differ: %s vs %s", fpA, fpB)
	}
}

// TestSweepMatchesDirectExperiment: the facade sweep equals the same
// grid run straight through internal/experiment.
func TestSweepMatchesDirectExperiment(t *testing.T) {
	spec := RunSpec{
		Name:         "parity",
		Workload:     WorkloadSpec{Kind: "medianjob", Seed: 1001},
		Racks:        2,
		Policies:     []string{"SHUT", "DVFS"},
		CapFractions: []float64{0.6},
		Workers:      2,
	}
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	grid := experiment.Grid{
		Name:         "parity",
		Workloads:    []trace.Config{{Kind: trace.MedianJob, Seed: 1001}},
		CapFractions: []float64{0.6},
		Policies:     []core.Policy{core.PolicyShut, core.PolicyDvfs},
		Base:         replay.Scenario{ScaleRacks: 2},
	}
	direct := experiment.Runner{Workers: 2}.Run("parity", grid.Scenarios())
	if rep.Table.Fingerprint() != direct.Fingerprint() {
		t.Error("facade sweep drifted from direct experiment run")
	}
}

// TestRunCancelledContext: the facade acceptance criterion — a
// cancelled context returns promptly with partial results and no
// leaked goroutines (the -race job watches the latter).
func TestRunCancelledContext(t *testing.T) {
	spec := RunSpec{
		Workload:     WorkloadSpec{Kind: "smalljob", Seed: 1002},
		Racks:        2,
		Policies:     []string{"SHUT", "DVFS", "MIX"},
		CapFractions: []float64{0, 0.8, 0.6, 0.4},
		Workers:      2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if rep.Table == nil {
		t.Fatal("cancelled sweep returned no partial table")
	}
	for i, row := range rep.Table.Rows {
		if row.Scenario.Name == "" {
			t.Errorf("row %d lost its scenario", i)
		}
		if !errors.Is(row.Err, context.Canceled) {
			t.Errorf("row %d err = %v, want context.Canceled", i, row.Err)
		}
	}
}

// TestRunFederationSingle pins the one-cell federation path: the raw
// result is exposed alongside the one-row table.
func TestRunFederationSingle(t *testing.T) {
	spec := RunSpec{
		Racks:        1,
		CapFractions: []float64{0.5},
		Federation:   &FederationSpec{MemberCounts: []int{2}, Divisions: []string{"demand"}},
	}
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeFederation || rep.FederationTable == nil || rep.Federation == nil {
		t.Fatalf("federation payloads missing: table=%v raw=%v", rep.FederationTable != nil, rep.Federation != nil)
	}
	if rep.Federation.Err != nil {
		t.Fatal(rep.Federation.Err)
	}
	if got := len(rep.Federation.Members); got != 2 {
		t.Errorf("members = %d, want 2", got)
	}
}

// TestRunInvalidSpecFailsFast: Run validates before executing.
func TestRunInvalidSpecFailsFast(t *testing.T) {
	_, err := Run(context.Background(), RunSpec{Policies: []string{"TURBO"}})
	if err == nil {
		t.Fatal("invalid spec ran")
	}
}

// TestProbeSWFFailsFast: a missing trace file surfaces before any
// controller is built, like the historical CLI probe.
func TestProbeSWFFailsFast(t *testing.T) {
	spec := RunSpec{
		Workload:     WorkloadSpec{SWF: &SWFSpec{Path: "testdata/definitely-missing.swf"}},
		Policies:     []string{"SHUT"},
		CapFractions: []float64{0.6},
	}
	_, err := Run(context.Background(), spec)
	if err == nil {
		t.Fatal("missing SWF file ran")
	}
}
