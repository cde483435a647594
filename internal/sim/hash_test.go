package sim

import (
	"bytes"
	"reflect"
	"testing"
)

// hashSpecs is the spec corpus the normalization/hashing properties are
// checked over: every mode, terse and fully spelled forms, aliased
// names, and the equivalent-spelling corners cache keying surfaced.
func hashSpecs() map[string]RunSpec {
	return map[string]RunSpec{
		"zero":        {},
		"lower-names": {Workload: WorkloadSpec{Kind: "medianjob"}, Policies: []string{"shut"}},
		"upper-names": {Workload: WorkloadSpec{Kind: "MEDIANJOB"}, Policies: []string{"SHUT"}},
		"explicit-mode": {
			Mode:         ModeSweep,
			Workload:     WorkloadSpec{Kind: "24h", Seed: 1004},
			Policies:     []string{"shut", "dvfs"},
			CapFractions: []float64{0.6, 0.4},
		},
		"cells": {
			Cells: []CellSpec{
				{Policy: "mix", CapFraction: 0.4, Workload: &WorkloadSpec{Kind: "smalljob"}},
				{Policy: "SHUT", CapFraction: 0.6},
			},
		},
		"federation": {
			Racks:        2,
			CapFractions: []float64{0.5},
			Federation:   &FederationSpec{Divisions: []string{"PRORATA"}},
		},
		"swf-timescale-one": {
			Workload: WorkloadSpec{SWF: &SWFSpec{Path: "trace.swf", TimeScale: 1}},
		},
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	for name, spec := range hashSpecs() {
		once := spec.Normalize()
		twice := once.Normalize()
		if !reflect.DeepEqual(once, twice) {
			t.Errorf("%s: Normalize not idempotent:\nonce:  %+v\ntwice: %+v", name, once, twice)
		}
	}
}

func TestNormalizeDoesNotMutateInput(t *testing.T) {
	spec := RunSpec{
		Policies: []string{"shut"},
		Cells:    []CellSpec{{Policy: "mix", Workload: &WorkloadSpec{Kind: "smalljob"}}},
		Workload: WorkloadSpec{SWF: &SWFSpec{Path: "t.swf", TimeScale: 1}},
	}
	spec.Normalize()
	if spec.Policies[0] != "shut" || spec.Cells[0].Policy != "mix" || spec.Workload.SWF.TimeScale != 1 {
		t.Fatalf("Normalize mutated its input: %+v", spec)
	}
}

// TestSpecHashStableAcrossJSONRoundTrip pins the cache-key property:
// hashing a spec, its normalized form, and its decode(encode(...))
// round trip all yield the same address.
func TestSpecHashStableAcrossJSONRoundTrip(t *testing.T) {
	for name, spec := range hashSpecs() {
		h0, err := SpecHash(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hNorm, err := SpecHash(spec.Normalize())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h0 != hNorm {
			t.Errorf("%s: hash(spec) %s != hash(Normalize(spec)) %s", name, h0, hNorm)
		}
		var buf bytes.Buffer
		if err := spec.Normalize().EncodeJSON(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		decoded, err := DecodeJSON(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hRT, err := SpecHash(decoded)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h0 != hRT {
			t.Errorf("%s: hash drifted across JSON round trip: %s != %s", name, h0, hRT)
		}
	}
}

// TestSpecHashCollapsesEquivalentSpellings pins that the spellings
// Normalize declares equivalent content-address identically, and that
// result-changing fields do not collapse.
func TestSpecHashCollapsesEquivalentSpellings(t *testing.T) {
	hash := func(s RunSpec) string {
		t.Helper()
		h, err := SpecHash(s)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	terse := hash(RunSpec{})
	spelled := hash(RunSpec{
		Mode:         ModeSingle,
		Workload:     WorkloadSpec{Kind: "MedianJob"},
		Policies:     []string{"shut"},
		CapFractions: []float64{0.6},
	})
	if terse != spelled {
		t.Errorf("zero spec and its spelled-out default hash differently: %s vs %s", terse, spelled)
	}

	if a, b := hash(RunSpec{Workers: 0}), hash(RunSpec{Workers: 8}); a != b {
		t.Errorf("worker count changed the hash: %s vs %s (pool size never changes results)", a, b)
	}
	one := RunSpec{Workload: WorkloadSpec{SWF: &SWFSpec{Path: "t.swf", TimeScale: 1}}}
	zeroTS := RunSpec{Workload: WorkloadSpec{SWF: &SWFSpec{Path: "t.swf"}}}
	if a, b := hash(one), hash(zeroTS); a != b {
		t.Errorf("TimeScale 1 and 0 hash differently: %s vs %s", a, b)
	}

	if a, b := hash(RunSpec{}), hash(RunSpec{CapFractions: []float64{0.4}}); a == b {
		t.Error("different cap fractions hashed identically")
	}
	if a, b := hash(RunSpec{}), hash(RunSpec{Name: "labelled"}); a == b {
		t.Error("different names hashed identically (names label exports and belong in the address)")
	}
}

func TestRegistryCanonical(t *testing.T) {
	for _, in := range []string{"shut", "SHUT", " Shut "} {
		c, err := Policies.Canonical(in)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", in, err)
		}
		if c != "SHUT" {
			t.Errorf("Canonical(%q) = %q, want SHUT", in, c)
		}
	}
	if _, err := Policies.Canonical("nope"); err == nil {
		t.Error("Canonical of an unknown name succeeded")
	}
}

// TestCheckedInSpecHashesPinned pins the content address of every
// checked-in spec as a literal. An archive on disk is keyed by these
// hashes (FSStore names each envelope "<hash>.json" and DecodeEnvelope
// recomputes the address), so a renamed, retagged or reordered RunSpec
// field — rjms.Options' and replay.CapWindow's included — would orphan
// every stored result without failing anything else. The literals are
// what the binary that predates the shared Options struct computes; a
// new spec file pins its hash here when it is added, and an existing
// literal never changes.
func TestCheckedInSpecHashesPinned(t *testing.T) {
	pinned := map[string]string{
		"../../examples/specs/dynamic_dvfs.json":     "ea9ab3a23d4fadb16a650124e52626232df9171d59cf469a6f18b18b0ef8b3bb",
		"../../examples/specs/federation_sweep.json": "d78475bb6321952cf2ba6b078803d6485554d093c04efca7e5c780f4e67ec773",
		"../../examples/specs/fig8.json":             "4d884a2d7600fabb3bd6dfbe40a129a743fce35426214276c31131633ed06266",
		"../../examples/specs/policy_cap_sweep.json": "da03e10b603c213e3f4e6a1b8c9270d55a53610051746b13206be8acc61efd81",
		"../../examples/specs/quick_single.json":     "08f7cb038cae86aa01b77ca60b2afdbd42f8c8e6e02405ced55026f4a597a0cb",
		"../../examples/specs/quick_sweep.json":      "3886d98e7a153c2242096292f76c4176035be601e699e943daaf980556de0bf6",
		"../../examples/quickstart/spec.json":        "4369076cd08b16757e076667c1ae48b54d2dfc050921a3593ffa5b57a386c893",
	}
	files := specFiles(t)
	if len(files) != len(pinned) {
		t.Errorf("%d checked-in spec files, %d pinned hashes", len(files), len(pinned))
	}
	for _, path := range files {
		spec, err := LoadSpec(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		got, err := SpecHash(spec)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if want, ok := pinned[path]; !ok {
			t.Errorf("%s: no pinned hash; add %q", path, got)
		} else if got != want {
			t.Errorf("%s: SpecHash = %s, pinned %s — the spec encoding drifted; stored archives would be orphaned", path, got, want)
		}
	}
}
