package twin

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/invariant"
	"repro/internal/replay"
	"repro/internal/rjms"
	"repro/internal/signal"
	"repro/internal/sim"
	"repro/internal/tsdb"
)

// smallSpec is a twin small enough to drive through many epochs in a
// unit test: two one-rack members, an hour of virtual time, 900 s
// epochs, as fast as possible.
func smallSpec() Spec {
	return Spec{
		Name: "test-twin",
		Members: []MemberSpec{
			{Name: "alpha", Workload: sim.WorkloadSpec{Kind: "bursty", Seed: 11, DurationSec: 1800, LoadFactor: 0.8}, Racks: 1},
			{Name: "beta", Workload: sim.WorkloadSpec{Kind: "smalljob", Seed: 12, DurationSec: 1800, LoadFactor: 0.4}, Racks: 1},
		},
		GlobalCapFraction: 0.6,
		EpochSec:          900,
		HorizonSec:        3600,
	}
}

func f64(v float64) *float64 { return &v }

func TestSpecValidate(t *testing.T) {
	if err := smallSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no members", func(s *Spec) { s.Members = nil }, "no members"},
		{"cap too low", func(s *Spec) { s.GlobalCapFraction = 0 }, "outside (0, 1)"},
		{"cap too high", func(s *Spec) { s.GlobalCapFraction = 1 }, "outside (0, 1)"},
		{"bad division", func(s *Spec) { s.Division = "fair" }, "prorata"},
		{"negative epoch", func(s *Spec) { s.EpochSec = -900 }, "positive"},
		{"negative horizon", func(s *Spec) { s.HorizonSec = -1 }, "horizon"},
		{"horizon under epoch", func(s *Spec) { s.HorizonSec = 600 }, "shorter than epoch"},
		{"negative ratio", func(s *Spec) { s.RealTimeRatio = -1 }, "ratio"},
		{"dup member names", func(s *Spec) { s.Members[1].Name = "alpha" }, "duplicate"},
		{"bad workload kind", func(s *Spec) { s.Members[0].Workload.Kind = "mystery" }, "medianjob"},
		{"bad policy", func(s *Spec) { s.Members[0].Policy = "TURBO" }, "SHUT"},
		{"bad signal", func(s *Spec) { s.Signal = &signal.Spec{Kind: "bogus"} }, "signal"},
	}
	for _, tc := range bad {
		s := smallSpec()
		tc.mut(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestSpecNormalizeDefaultsAndRoundTrip(t *testing.T) {
	n := Spec{
		Members:           []MemberSpec{{Workload: sim.WorkloadSpec{Kind: "BURSTY"}}},
		GlobalCapFraction: 0.5,
		Division:          "DYNAMIC",
	}.Normalize()
	if n.Division != "demand" || n.EpochSec != DefaultEpoch || n.HorizonSec != DefaultHorizon {
		t.Errorf("defaults wrong: %+v", n)
	}
	if n.Members[0].Name != "member0" || n.Members[0].Policy != "DVFS" || n.Members[0].Workload.Kind != "bursty" {
		t.Errorf("member defaults wrong: %+v", n.Members[0])
	}
	if again := n.Normalize(); !reflect.DeepEqual(again, n) {
		t.Errorf("Normalize not idempotent:\nonce:  %+v\ntwice: %+v", n, again)
	}

	// JSON round trip is exact for a normalized spec.
	n.Signal = &signal.Spec{Kind: "clamp", Min: f64(0.5), Input: &signal.Spec{Kind: "diurnal", Mean: 1, Amplitude: 0.2}}
	n = n.Normalize()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(n); err != nil {
		t.Fatal(err)
	}
	var got Spec
	if err := json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, n) {
		t.Errorf("round trip drifted:\nin:  %+v\nout: %+v", n, got)
	}
}

// runTwin drives a session to its horizon with the given mutation
// schedule and returns the telemetry snapshot and the mutation log.
func runTwin(t *testing.T, spec Spec, mutate func(s *Session)) (*tsdb.Snapshot, []Applied) {
	t.Helper()
	store := tsdb.New(tsdb.Options{})
	run := store.Run("live")
	s, err := New(spec, Config{Sink: run})
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(s)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return run.Snapshot(), s.Log()
}

// TestReplayByteIdentical pins the determinism guardrail: a twin fed a
// recorded mutation log — budget change, member add and removal, node
// failure and repair — replays to byte-identical telemetry.
func TestReplayByteIdentical(t *testing.T) {
	spec := smallSpec()
	spec.HorizonSec = 7200
	spec.Signal = &signal.Spec{Kind: "sinusoid", Mean: 1, Amplitude: 0.2, PeriodSec: 3600}
	gamma := MemberSpec{Name: "gamma", Workload: sim.WorkloadSpec{Kind: "smalljob", Seed: 13, DurationSec: 1800, LoadFactor: 0.3}, Racks: 1}
	liveSnap, log := runTwin(t, spec, func(s *Session) {
		for _, m := range []Mutation{
			{Op: OpSetBudget, AtSec: 900, BudgetFraction: 0.4},
			{Op: OpFailNode, AtSec: 1800, Name: "alpha", Node: 3},
			{Op: OpAddMember, AtSec: 2700, Member: &gamma},
			{Op: OpRepairNode, AtSec: 3600, Name: "alpha", Node: 3},
			{Op: OpRemoveMember, AtSec: 4500, Name: "beta"},
		} {
			if err := s.Mutate(m); err != nil {
				t.Fatal(err)
			}
		}
	})
	if len(log) != 5 {
		t.Fatalf("applied log has %d entries, want 5: %+v", len(log), log)
	}
	for _, a := range log {
		if a.Err != "" {
			t.Fatalf("mutation %d (%s) failed: %s", a.Seq, a.Mutation.Op, a.Err)
		}
	}

	store := tsdb.New(tsdb.Options{})
	run := store.Run("replay")
	if err := replaySession(context.Background(), smallSpecLike(spec), log, Config{Sink: run}); err != nil {
		t.Fatal(err)
	}
	live, err := json.Marshal(liveSnap)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := json.Marshal(run.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, replayed) {
		t.Fatalf("replay diverged from live telemetry:\nlive:   %d bytes\nreplay: %d bytes", len(live), len(replayed))
	}
}

// smallSpecLike deep-copies a spec through JSON, proving Replay needs
// nothing but the serialized spec and log.
func smallSpecLike(s Spec) Spec {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		panic(err)
	}
	return out
}

// TestMutationsChangeTelemetry sanity-checks that mutations actually
// bite: a budget cut shows up in the budget series, a removed member's
// series stop growing.
func TestMutationsChangeTelemetry(t *testing.T) {
	spec := smallSpec()
	snap, log := runTwin(t, spec, func(s *Session) {
		if err := s.Mutate(Mutation{Op: OpSetBudget, AtSec: 1800, BudgetFraction: 0.3}); err != nil {
			t.Fatal(err)
		}
	})
	if len(log) != 1 || log[0].AtEpoch != 1800 || log[0].Err != "" {
		t.Fatalf("log = %+v", log)
	}
	run, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	pts, _, err := run.Query("budget", 0, spec.HorizonSec, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after float64
	for _, p := range pts {
		if p.T < 1800 {
			before = p.Mean
		}
		if p.T == 1800 {
			after = p.Mean
		}
	}
	if before <= 0 || after <= 0 || after >= before {
		t.Fatalf("budget cut invisible: before=%v after=%v", before, after)
	}
	if want := before * 0.3 / 0.6; after < want*0.99 || after > want*1.01 {
		t.Fatalf("budget after cut %v, want about %v", after, want)
	}
}

// TestFailureKeepsInvariants attaches the invariant checker to every
// member and drives failures and repairs through it: killed jobs
// requeue legally and failed nodes hold no cores.
func TestFailureKeepsInvariants(t *testing.T) {
	spec := smallSpec()
	checkers := map[string]*invariant.Checker{}
	store := tsdb.New(tsdb.Options{})
	s, err := New(spec, Config{
		Sink: store.Run("inv"),
		observe: func(name string, ctl *rjms.Controller) {
			checkers[name] = invariant.Attach(ctl, name)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Mutation{
		{Op: OpFailNode, AtSec: 900, Name: "alpha", Node: 0},
		{Op: OpFailNode, AtSec: 900, Name: "alpha", Node: 1},
		{Op: OpRepairNode, AtSec: 2700, Name: "alpha", Node: 0},
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
			t.Fatalf("mutation %+v failed: %s", a.Mutation, a.Err)
		}
	}
	if len(checkers) != 2 {
		t.Fatalf("observed %d members, want 2", len(checkers))
	}
	for name, k := range checkers {
		if vs := k.Violations(); len(vs) != 0 {
			t.Errorf("%s: invariant violations: %v", name, vs)
		}
	}
	st := s.Status()
	if !st.Finished || st.VirtualTime != spec.HorizonSec {
		t.Errorf("final status: %+v", st)
	}
}

// TestFailedMutationsAreRecordedNoOps pins the log contract for bad
// mutations: they land in the log with an error and change nothing,
// so replaying the log reproduces the same no-op.
func TestFailedMutationsAreRecordedNoOps(t *testing.T) {
	spec := smallSpec()
	_, log := runTwin(t, spec, func(s *Session) {
		for _, m := range []Mutation{
			{Op: OpSetBudget, AtSec: 900, BudgetFraction: 1.5},
			{Op: OpRemoveMember, AtSec: 900, Name: "nobody"},
			{Op: OpFailNode, AtSec: 900, Name: "alpha", Node: 1 << 30},
		} {
			if err := s.Mutate(m); err != nil {
				t.Fatal(err)
			}
		}
	})
	if len(log) != 3 {
		t.Fatalf("log = %+v", log)
	}
	for _, a := range log {
		if a.Err == "" {
			t.Errorf("bad mutation %+v recorded without error", a.Mutation)
		}
	}
}

func TestMutateRejectsUnknownOp(t *testing.T) {
	s, err := New(smallSpec(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.fleet.Close()
	if err := s.Mutate(Mutation{Op: "explode"}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// TestRemoveLastMemberRefused pins that a twin never runs empty.
func TestRemoveLastMemberRefused(t *testing.T) {
	spec := smallSpec()
	spec.Members = spec.Members[:1]
	_, log := runTwin(t, spec, func(s *Session) {
		if err := s.Mutate(Mutation{Op: OpRemoveMember, AtSec: 900, Name: "alpha"}); err != nil {
			t.Fatal(err)
		}
	})
	if len(log) != 1 || log[0].Err == "" || !strings.Contains(log[0].Err, "last member") {
		t.Fatalf("log = %+v", log)
	}
}

// TestPacingHonorsContext checks a real-time-paced twin stops promptly
// on cancellation instead of sleeping out its horizon.
func TestPacingHonorsContext(t *testing.T) {
	spec := smallSpec()
	spec.RealTimeRatio = 1 // 900 wall seconds per epoch: must not elapse
	s, err := New(spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled twin did not stop")
	}
}

// TestStatusDuringRun reads Status and Log concurrently with Run —
// the -race guardrail for the session's cross-goroutine surface.
func TestStatusDuringRun(t *testing.T) {
	spec := smallSpec()
	spec.HorizonSec = 7200
	s, err := New(spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Run(context.Background()) }()
	deadline := time.After(30 * time.Second)
	for {
		st := s.Status()
		_ = s.Log()
		if st.Finished {
			break
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if st = s.Status(); !st.Finished {
				t.Fatalf("run returned without finishing: %+v", st)
			}
			return
		case <-deadline:
			t.Fatal("twin did not finish")
		default:
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// A horizon that is not a multiple of the epoch is still reached: the
// last boundary is clamped to it, as a federation run's last stretch is.
func TestRunReachesHorizonBetweenEpochs(t *testing.T) {
	spec := smallSpec()
	spec.HorizonSec = 1000
	s, err := New(spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); !st.Finished || st.VirtualTime != 1000 {
		t.Fatalf("status after Run = finished %v at t=%d, want finished at the horizon, t=1000", st.Finished, st.VirtualTime)
	}
}

// TestCheckedInTwinSpecs is the twin half of the examples gate: every
// checked-in twin_*.json must decode strictly, validate, and be stored
// normalized (loading is a fixed point).
func TestCheckedInTwinSpecs(t *testing.T) {
	paths, err := filepath.Glob("../../examples/specs/twin_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in twin specs found; the gate is running against nothing")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if norm := spec.Normalize(); !reflect.DeepEqual(norm, spec) {
			t.Errorf("%s: stored spec is not normalized:\n stored %+v\n normal %+v", path, spec, norm)
		}
	}
}

// pointSink records every appended point by series name and time.
type pointSink map[string]map[int64]float64

func (p pointSink) Append(name string, t int64, v float64) error {
	if p[name] == nil {
		p[name] = map[int64]float64{}
	}
	p[name][t] = v
	return nil
}

// TestTwinMatchesFederationWhereTheyOverlap is the differential between
// the two brokers over one Fleet: a twin with no mutations, running as
// fast as possible, divides exactly like a batch federation over the
// same members, division, epoch and budget signal — every boundary's
// budget and per-member shares are equal.
func TestTwinMatchesFederationWhereTheyOverlap(t *testing.T) {
	for _, div := range []replay.Division{replay.DivideProRata, replay.DivideDemand} {
		t.Run(div.String(), func(t *testing.T) {
			spec := smallSpec()
			spec.Division = div.String()
			spec.Signal = &signal.Spec{Kind: "sinusoid", Mean: 1, Amplitude: 0.2, PeriodSec: 3600}

			fs := replay.FederationScenario{
				GlobalCapFraction: spec.GlobalCapFraction,
				Division:          div,
				EpochSec:          spec.EpochSec,
				DurationSec:       spec.HorizonSec,
				BudgetSignal:      spec.Signal,
			}
			for _, ms := range spec.Members {
				sc, err := sim.MemberScenario(ms.Name, ms.Workload, "DVFS", ms.Racks)
				if err != nil {
					t.Fatal(err)
				}
				fs.Members = append(fs.Members, sc)
			}
			want := federation.RunWith(fs, nil)
			if want.Err != nil {
				t.Fatal(want.Err)
			}
			if len(want.Epochs) != 3 {
				t.Fatalf("federation recorded %d boundaries, want 3", len(want.Epochs))
			}

			sink := pointSink{}
			s, err := New(spec, Config{Sink: sink})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			for _, ep := range want.Epochs {
				if got, ok := sink["budget"][ep.T]; !ok || got != float64(ep.BudgetW) {
					t.Errorf("t=%d: twin budget %v, federation %v", ep.T, got, ep.BudgetW)
				}
				for i, ms := range spec.Members {
					if got, ok := sink[ms.Name+"/cap"][ep.T]; !ok || got != float64(ep.CapW[i]) {
						t.Errorf("t=%d: twin %s cap %v, federation %v", ep.T, ms.Name, got, ep.CapW[i])
					}
				}
			}
		})
	}
}

// TestRebudgetErrorFailsSession: a member whose reservation the broker
// cannot re-budget fails the session instead of letting the twin
// diverge silently from its own mutation log. The reservation id is
// invalidated by swapping in a started controller that never reserved.
func TestRebudgetErrorFailsSession(t *testing.T) {
	spec := smallSpec()
	s, err := New(spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	alpha := spec.Members[0]
	sc, err := sim.MemberScenario(alpha.Name, alpha.Workload, "DVFS", alpha.Racks)
	if err != nil {
		t.Fatal(err)
	}
	ctl, cleanup, err := replay.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if err := ctl.Start(spec.HorizonSec); err != nil {
		t.Fatal(err)
	}
	s.fleet.Member("alpha").Ctl = ctl

	err = s.Run(context.Background())
	if err == nil || !strings.HasPrefix(err.Error(), "twin: member alpha at t=900: ") {
		t.Fatalf("Run error = %v, want the re-budget failure of member alpha at t=900", err)
	}
}

// replaySession reconstructs a session from a spec plus a recorded mutation
// log and runs it to the log's horizon as fast as possible: every
// logged mutation re-applies at its recorded boundary, so the
// telemetry streamed into cfg.Sink is byte-identical to the original
// session's (the determinism guardrail, pinned by test). The replayed
// session ignores the spec's real-time ratio.
func replaySession(ctx context.Context, spec Spec, log []Applied, cfg Config) error {
	spec.RealTimeRatio = 0
	s, err := New(spec, cfg)
	if err != nil {
		return err
	}
	for _, a := range log {
		m := a.Mutation
		m.AtSec = a.AtEpoch
		if err := s.Mutate(m); err != nil {
			return fmt.Errorf("twin: replay: %w", err)
		}
	}
	return s.Run(ctx)
}
