package main

import (
	"context"
	"testing"

	"repro/internal/sim"
)

// The committed expectations accept what this build computes, and a
// tampered copy rejects it: the check fails closed.
func TestExpectationsGate(t *testing.T) {
	expect, err := loadExpectations(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"replay_curie", "sweep_grid", "federation_epochs"} {
		if len(expect[w]) != 4 {
			t.Errorf("expected.json holds %d fingerprints for %s, want one per pool entry (4)", len(expect[w]), w)
		}
	}
	pool := federationPool()
	r := &replayInst{name: "federation_epochs", pool: pool, order: shuffled(1, len(pool)), expect: expect, procs: 1}
	if _, ok := r.run(context.Background(), 0, 0, nil); !ok {
		t.Fatal("federation pool entry 0 does not fingerprint as committed")
	}
	// The decomposed operation must reproduce the same fingerprint.
	tr := newTracer()
	if _, ok := r.run(context.Background(), 0, 0, tr); !ok {
		t.Fatal("decomposed federation operation does not fingerprint as committed")
	}
	if spans, _ := tr.snapshot(); len(perOp(spans, "federation.run")) != 1 {
		t.Error("the decomposed operation recorded no federation.run span")
	}

	tampered := expectations{"federation_epochs": append([]string(nil), expect["federation_epochs"]...)}
	tampered["federation_epochs"][0] = "0" + tampered["federation_epochs"][0][1:]
	r.expect = tampered
	if _, ok := r.run(context.Background(), 0, 0, nil); ok {
		t.Error("a tampered expected.json passed the gate")
	}
	r.expect = expectations{}
	if _, ok := r.run(context.Background(), 0, 0, nil); ok {
		t.Error("an empty expected.json passed the gate")
	}
	if _, err := loadExpectations([]byte("{")); err == nil {
		t.Error("truncated expected.json decoded")
	}
}

// The harness's own decomposition of a run — trace.Generate,
// replay.Build, ReservePowerCap, Start/Advance/Finish, sim.Export — must
// produce the report sim.Run produces, for single runs and sweeps.
func TestDecomposeMatchesSimRun(t *testing.T) {
	single := serviceSpec("cold-0", "SHUT", 42)
	sweep := sim.RunSpec{
		Racks:        1,
		Workload:     sim.WorkloadSpec{Kind: "smalljob", Seed: 42, DurationSec: 3600},
		Policies:     []string{"SHUT", "MIX"},
		CapFractions: []float64{0, 0.5},
		Workers:      1,
	}
	for name, spec := range map[string]sim.RunSpec{"single": single, "sweep": sweep} {
		want, err := sim.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, err := decompose(tr, 0, spec)
		if err != nil {
			t.Fatal(err)
		}
		wantFP, _ := want.Fingerprint()
		gotFP, _ := got.Fingerprint()
		if wantFP != gotFP {
			t.Errorf("%s: decomposed fingerprint %s, sim.Run %s", name, gotFP, wantFP)
		}
		spans, counts := tr.snapshot()
		for _, layer := range []string{"trace.generate", "replay.build", "core.plan_offline", "rjms.advance", "sim.export_json"} {
			if len(perOp(spans, layer)) != 1 {
				t.Errorf("%s: no %s span", name, layer)
			}
		}
		if ev := countPerOp(counts, "simengine.events"); len(ev) != 1 || ev[0] <= 0 {
			t.Errorf("%s: engine events = %v", name, ev)
		}
	}
}
