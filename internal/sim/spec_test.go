package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/replay"
	"repro/internal/signal"
)

func f64(v float64) *float64 { return &v }

// complexSpec exercises every RunSpec field at once.
func complexSpec() RunSpec {
	return RunSpec{
		Name: "everything",
		Workload: WorkloadSpec{
			Kind: "bursty", Seed: 42, DurationSec: 7200, LoadFactor: 0.8,
			BacklogFraction: 0.1, Users: 12,
			SWF: &SWFSpec{Path: "trace.swf", WindowStartSec: 100, WindowEndSec: 200, TimeScale: 0.5, Cores: 80640, MaxJobs: 1000},
		},
		Racks:        4,
		Policies:     []string{"SHUT", "MIX"},
		CapFractions: []float64{0, 0.6, 0.4},
		Cap:          CapSpec{StartSec: 1800, DurationSec: 900, OpenEnded: false},
		Options: OptionSpec{
			KillOnOverrun: true, Scattered: true, ReservationLeadSec: 60,
			PlanningHorizonSec: 1800, DynamicDVFS: true, Compact: true,
			MeasuredNoise: 0.01, SampleEverySec: 120, BackfillDepth: 7,
		},
		Workers: 3,
	}
}

func TestSpecJSONRoundTripExact(t *testing.T) {
	for name, spec := range map[string]RunSpec{
		"zero":       {},
		"normalized": RunSpec{}.Normalize(),
		"complex":    complexSpec(),
		"cells": {
			Name: "cells",
			Cells: []CellSpec{
				{Policy: "SHUT", CapFraction: 0.6},
				{Name: "x", Workload: &WorkloadSpec{Kind: "bigjob", Seed: 7},
					Policy: "DVFS", CapFraction: 0.4,
					Cap:     &CapSpec{OpenEnded: true, StartSec: 10},
					Options: &OptionSpec{Scattered: true}},
			},
		},
		"federation": {
			CapFractions: []float64{0.5},
			Federation:   &FederationSpec{MemberCounts: []int{2, 3}, Divisions: []string{"prorata"}, EpochSec: 600},
		},
		"federation-signal": {
			CapFractions: []float64{0.5},
			Federation: &FederationSpec{EpochSec: 600, Signal: &signal.Spec{
				Kind: "clamp", Min: f64(0.5), Max: f64(1.0),
				Input: &signal.Spec{Kind: "compose", Inputs: []*signal.Spec{
					{Kind: "diurnal", Mean: 1, Amplitude: 0.3},
					{Kind: "step", Times: []int64{0, 43200}, Values: []float64{1, 0.8}},
				}},
			}},
		},
	} {
		var buf bytes.Buffer
		if err := spec.EncodeJSON(&buf); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := DecodeJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, spec) {
			t.Errorf("%s: round trip drifted:\nin:  %+v\nout: %+v", name, spec, got)
		}
		// And the byte-level property CI checks on spec files.
		if err := roundTrips(buf.Bytes()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := DecodeJSON(strings.NewReader(`{"workolad": {"kind": "bigjob"}}`))
	if err == nil {
		t.Fatal("typo field decoded silently")
	}
}

func TestEffectiveModeDerivation(t *testing.T) {
	cases := []struct {
		spec RunSpec
		want Mode
	}{
		{RunSpec{}, ModeSingle},
		{RunSpec{Policies: []string{"SHUT"}, CapFractions: []float64{0.6}}, ModeSingle},
		{RunSpec{Policies: []string{"SHUT", "DVFS"}, CapFractions: []float64{0.6}}, ModeSweep},
		{RunSpec{Policies: []string{"SHUT"}, CapFractions: []float64{0.6, 0.4}}, ModeSweep},
		{RunSpec{Cells: []CellSpec{{Policy: "SHUT"}}}, ModeSweep},
		{RunSpec{Federation: &FederationSpec{}}, ModeFederation},
	}
	for i, tc := range cases {
		if got := tc.spec.EffectiveMode(); got != tc.want {
			t.Errorf("case %d: mode %q, want %q", i, got, tc.want)
		}
	}
}

func TestNormalizeFillsDefaults(t *testing.T) {
	n := RunSpec{}.Normalize()
	if n.Mode != ModeSingle || n.Workload.Kind != "medianjob" ||
		len(n.Policies) != 1 || n.Policies[0] != "SHUT" ||
		len(n.CapFractions) != 1 || n.CapFractions[0] != 0.6 {
		t.Errorf("zero-spec defaults wrong: %+v", n)
	}

	f := RunSpec{Federation: &FederationSpec{}, CapFractions: []float64{0.5}}.Normalize()
	if f.Mode != ModeFederation || len(f.Federation.MemberCounts) != 1 ||
		f.Federation.MemberCounts[0] != 3 || f.Federation.Divisions[0] != "demand" {
		t.Errorf("federation defaults wrong: %+v", f)
	}
	if f.Workload.Kind != "" {
		t.Errorf("federation spec grew a workload: %+v", f.Workload)
	}
}

func TestValidateEnumeratesRegisteredNames(t *testing.T) {
	cases := []struct {
		spec    RunSpec
		mention string
	}{
		{RunSpec{Policies: []string{"TURBO"}}, "SHUT"},
		{RunSpec{Workload: WorkloadSpec{Kind: "mystery"}}, "medianjob"},
		{RunSpec{CapFractions: []float64{0.5},
			Federation: &FederationSpec{Divisions: []string{"fair"}}}, "prorata"},
		{RunSpec{Cells: []CellSpec{{Policy: "TURBO"}}}, "SHUT"},
	}
	for i, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
			continue
		}
		if !strings.Contains(err.Error(), tc.mention) {
			t.Errorf("case %d: error %q does not enumerate registered names (want %q)", i, err, tc.mention)
		}
	}
}

func TestValidateRejectsStructuralProblems(t *testing.T) {
	bad := []RunSpec{
		{Mode: ModeSweep}, // mode contradicts fields
		{Racks: -1},       // negative machine
		{Workers: -2},     // negative pool
		{Workload: WorkloadSpec{SWF: &SWFSpec{}}},                                                        // SWF without path
		{Workload: WorkloadSpec{SWF: &SWFSpec{Path: "x", WindowStartSec: 10, WindowEndSec: 5}}},          // empty window
		{CapFractions: []float64{1.5}, Federation: &FederationSpec{}},                                    // fed cap outside (0,1)
		{CapFractions: []float64{0.5}, Federation: &FederationSpec{MemberCounts: []int{0}}},              // zero members
		{CapFractions: []float64{0.5}, Federation: &FederationSpec{EpochSec: -1}},                        // negative epoch
		{CapFractions: []float64{0.5}, Federation: &FederationSpec{Signal: &signal.Spec{Kind: "bogus"}}}, // unknown signal kind
		{CapFractions: []float64{0.5}, Federation: &FederationSpec{Signal: &signal.Spec{Kind: "step"}}},  // step without breakpoints
		{Cap: CapSpec{StartSec: -5}}, // negative window
		// Option values rjms.New would refuse, spec-level and per cell.
		{Options: OptionSpec{BackfillDepth: -1}},
		{Options: OptionSpec{SampleEverySec: -1}},
		{Options: OptionSpec{MeasuredNoise: -0.1}},
		{Cells: []CellSpec{{Policy: "SHUT", Options: &OptionSpec{BackfillDepth: -1}}}},
		{Cells: []CellSpec{{Policy: "SHUT", Options: &OptionSpec{SampleEverySec: -1}}}},
		{Cells: []CellSpec{{Policy: "SHUT", Options: &OptionSpec{MeasuredNoise: -0.1}}}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, spec)
		}
	}
	if err := complexSpec().Validate(); err != nil {
		t.Errorf("complex-but-valid spec rejected: %v", err)
	}
}

// TestFederationEpochValidation pins the epoch contract: a negative
// epoch is rejected with an error naming the positive-duration
// requirement and the default, zero keeps meaning "default 900 s"
// (every checked-in federation spec omits the field), and an explicit
// epoch survives the JSON round trip exactly.
func TestFederationEpochValidation(t *testing.T) {
	neg := RunSpec{CapFractions: []float64{0.5}, Federation: &FederationSpec{EpochSec: -900}}
	err := neg.Validate()
	if err == nil {
		t.Fatal("negative federation epoch accepted")
	}
	if !strings.Contains(err.Error(), "positive") || !strings.Contains(err.Error(), "900") {
		t.Errorf("epoch error %q does not explain the contract", err)
	}

	zero := RunSpec{CapFractions: []float64{0.5}, Federation: &FederationSpec{}}
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero (defaulted) federation epoch rejected: %v", err)
	}
	scens, err := zero.Normalize().FederationScenarios()
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range scens {
		if fs.Epoch() != 900 {
			t.Errorf("defaulted epoch lowered to %d, want 900", fs.Epoch())
		}
	}

	var buf bytes.Buffer
	explicit := RunSpec{CapFractions: []float64{0.5}, Federation: &FederationSpec{EpochSec: 600}}
	if err := explicit.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Federation.EpochSec != 600 {
		t.Errorf("explicit epoch drifted through the round trip: %d", got.Federation.EpochSec)
	}
	if err := roundTrips(buf.Bytes()); err != nil {
		t.Error(err)
	}
}

// TestFacadeRegistriesExposeEntries pins the facade surface: the
// re-exported registries list the expected vocabulary.
func TestFacadeRegistriesExposeEntries(t *testing.T) {
	if got := Policies.Join("|"); got != "NONE|SHUT|DVFS|MIX|IDLE" {
		t.Errorf("Policies = %q", got)
	}
	if got := Workloads.Join("|"); got != "medianjob|smalljob|bigjob|24h|diurnal|bursty|heavytail" {
		t.Errorf("Workloads = %q", got)
	}
	if got := Divisions.Join("|"); got != "prorata|demand" {
		t.Errorf("Divisions = %q", got)
	}
	if got := Sinks.Join("|"); got != "json|csv|ascii" {
		t.Errorf("Sinks = %q", got)
	}
}

// TestEveryOptionReachesTheController walks rjms.Options by reflection:
// each field, set alone to a non-zero value in a RunSpec — spec-level,
// then as a cell override — must be in the Options the spec's scenario
// hands rjms.New (replay.Build passes them whole), and the controller
// must build. Nothing is listed by hand, so an option added to the
// struct and dropped somewhere between the spec and rjms.New fails here.
func TestEveryOptionReachesTheController(t *testing.T) {
	typ := reflect.TypeOf(OptionSpec{})
	for i := 0; i < typ.NumField(); i++ {
		var opt OptionSpec
		field := reflect.ValueOf(&opt).Elem().Field(i)
		switch field.Kind() {
		case reflect.Bool:
			field.SetBool(true)
		case reflect.Int, reflect.Int64:
			field.SetInt(7)
		case reflect.Float64:
			field.SetFloat(0.25)
		default:
			t.Fatalf("option %s has kind %s; teach this test to set it", typ.Field(i).Name, field.Kind())
		}
		base := RunSpec{Workload: WorkloadSpec{Kind: "smalljob", DurationSec: 600}, Racks: 1}
		specLevel, cellLevel := base, base
		specLevel.Options = opt
		cellLevel.Cells = []CellSpec{{Policy: "SHUT", CapFraction: 0.6, Options: &opt}}
		for name, spec := range map[string]RunSpec{"spec-level": specLevel, "cell override": cellLevel} {
			if err := spec.Validate(); err != nil {
				t.Fatalf("%s %s: %v", typ.Field(i).Name, name, err)
			}
			scens, err := spec.Scenarios()
			if err != nil {
				t.Fatalf("%s %s: %v", typ.Field(i).Name, name, err)
			}
			_, cleanup, err := replay.Build(scens[0])
			if err != nil {
				t.Fatalf("%s %s: %v", typ.Field(i).Name, name, err)
			}
			cleanup()
			got := reflect.ValueOf(scens[0].Options).Field(i).Interface()
			if got != field.Interface() {
				t.Errorf("%s set %s to %v, the controller is built with %v", name, typ.Field(i).Name, field.Interface(), got)
			}
		}
	}
}

// roundTrips checks the exact-encoding property on one spec's JSON
// form: decode, re-encode, compare bytes. TestCheckedInSpecsRoundTrip runs
// this over every checked-in spec file.
func roundTrips(data []byte) error {
	s, err := DecodeJSON(bytes.NewReader(data))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := s.EncodeJSON(&buf); err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(data), bytes.TrimSpace(buf.Bytes())) {
		return fmt.Errorf("sim: spec does not round-trip: re-encoding drifted\ngot:\n%s", buf.String())
	}
	return nil
}
