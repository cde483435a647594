package rjms

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/reservation"
	"repro/internal/sched"
	"repro/internal/trace"
)

// memoMachines are the machines a drawn scenario runs on: one to three
// Curie racks, and two whose node counts straddle bitset words.
var memoMachines = []cluster.Topology{
	{Racks: 1, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16},
	{Racks: 2, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16},
	{Racks: 3, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16},
	{Racks: 3, ChassisPerRack: 3, NodesPerChassis: 7, CoresPerNode: 4},  // 63 nodes
	{Racks: 2, ChassisPerRack: 5, NodesPerChassis: 13, CoresPerNode: 8}, // 130 nodes
}

// memoScenario is one drawn run: a machine, a workload, the controller's
// policy and options, the cap windows reserved before the clock starts,
// and what the operator does between Advance calls.
type memoScenario struct {
	cfg     Config
	jobs    []*job.Job
	horizon int64
	windows []memoWindow
	actions []memoAction // in time order
}

type memoWindow struct {
	start, end int64
	frac       float64
}

// memoAction is one between-Advance call at time at: a re-budget of
// window (by index), a node failure or a repair.
type memoAction struct {
	at     int64
	op     int // 0 AdjustPowerCap, 1 FailNode, 2 RepairNode
	window int
	frac   float64
	node   cluster.NodeID
}

// drawMemoScenario derives everything from the seed, the action script
// included, so both runs of a scenario are driven alike.
func drawMemoScenario(seed int64, machine uint8) (memoScenario, error) {
	rng := rand.New(rand.NewSource(seed))
	topo := memoMachines[int(machine)%len(memoMachines)]
	pick := func(vs ...int64) int64 { return vs[rng.Intn(len(vs))] }
	sc := memoScenario{horizon: 3600 * (1 + int64(rng.Intn(3)))}
	sc.cfg = Config{
		Topology: topo,
		Policy:   core.Policy(rng.Intn(5)),
		Options: Options{
			KillOnOverrun:      rng.Intn(4) == 0,
			Scattered:          rng.Intn(4) == 0,
			ReservationLeadSec: pick(0, -1, 300, 7200),
			PlanningHorizonSec: pick(0, -1, 600, 7200),
			DynamicDVFS:        rng.Intn(3) == 0,
			Compact:            rng.Intn(4) == 0,
			SampleEverySec:     pick(0, 30, 300),
			BackfillDepth:      int(pick(0, 1, 5, 20)),
		},
	}
	if rng.Intn(5) == 0 {
		sc.cfg.MeasuredNoise = 0.02
	}
	var err error
	sc.jobs, err = trace.Generate(trace.Config{
		Kind: trace.Kind(rng.Intn(7)), Seed: 1 + rng.Int63n(1<<20), DurationSec: sc.horizon,
		Cores: topo.Cores(), LoadFactor: 0.5 + 2*rng.Float64(),
	})
	if err != nil {
		return sc, err
	}
	for n := rng.Intn(4); n > 0; n-- {
		w := memoWindow{start: rng.Int63n(sc.horizon), frac: 0.3 + 0.6*rng.Float64()}
		w.end = w.start + 300 + rng.Int63n(5400)
		if rng.Intn(5) == 0 {
			w.end = reservation.Horizon
		}
		sc.windows = append(sc.windows, w)
	}
	var failed []cluster.NodeID
	for at := int64(300); at < sc.horizon; at += 300 {
		switch op := rng.Intn(12); {
		case op < 3 && len(sc.windows) > 0:
			sc.actions = append(sc.actions, memoAction{at: at, op: 0, window: rng.Intn(len(sc.windows)), frac: 0.3 + 0.6*rng.Float64()})
		case op == 3 && len(failed) < 4:
			id := cluster.NodeID(rng.Intn(topo.Nodes()))
			sc.actions = append(sc.actions, memoAction{at: at, op: 1, node: id})
			failed = append(failed, id) // a second failure of one node is refused alike in both runs
		case op == 4 && len(failed) > 0:
			k := rng.Intn(len(failed))
			sc.actions = append(sc.actions, memoAction{at: at, op: 2, node: failed[k]})
			failed = append(failed[:k], failed[k+1:]...)
		}
	}
	return sc, nil
}

// memoOutcome is everything a run reports that the pass memo must not
// move.
type memoOutcome struct {
	summary  metrics.Summary
	samples  []metrics.Sample
	refusals []string // errors of the scripted calls, in order
	counters SchedCounters
}

func runMemoScenario(sc memoScenario, noPassMemo bool) (memoOutcome, error) {
	var out memoOutcome
	ctl, err := New(sc.cfg)
	if err != nil {
		return out, err
	}
	ctl.noPassMemo = noPassMemo
	if err := ctl.LoadWorkload(sc.jobs); err != nil {
		return out, err
	}
	ids := make([]int, len(sc.windows))
	for i, w := range sc.windows {
		if ids[i], _, err = ctl.ReservePowerCapID(w.start, w.end, power.CapFraction(w.frac, ctl.Cluster().MaxPower())); err != nil {
			return out, err
		}
	}
	if err := ctl.Start(sc.horizon); err != nil {
		return out, err
	}
	for _, a := range sc.actions {
		if err := ctl.Advance(a.at); err != nil {
			return out, err
		}
		switch a.op {
		case 0:
			err = ctl.AdjustPowerCap(ids[a.window], power.CapFraction(a.frac, ctl.Cluster().MaxPower()))
		case 1:
			err = ctl.FailNode(a.node)
		case 2:
			err = ctl.RepairNode(a.node)
		}
		out.refusals = append(out.refusals, fmt.Sprint(err))
	}
	if err := ctl.Advance(sc.horizon); err != nil {
		return out, err
	}
	out.summary, out.samples, out.counters = ctl.Finish(), ctl.Samples(), ctl.SchedCounters()
	return out, nil
}

// passMemoDiff runs one drawn scenario as shipped and again with the
// pass memo never holding, and reports the first thing that differs. It
// returns how many passes the shipped run skipped.
func passMemoDiff(seed int64, machine uint8) (skipped uint64, err error) {
	sc, err := drawMemoScenario(seed, machine)
	if err != nil {
		return 0, err
	}
	memo, err := runMemoScenario(sc, false)
	if err != nil {
		return 0, err
	}
	full, err := runMemoScenario(sc, true)
	if err != nil {
		return 0, err
	}
	what := fmt.Sprintf("%s on %d nodes, %d windows, %d actions, options %+v",
		sc.cfg.Policy, sc.cfg.Topology.Nodes(), len(sc.windows), len(sc.actions), sc.cfg.Options)
	switch {
	case full.counters.PassesSkipped != 0:
		return 0, fmt.Errorf("%s: %d passes skipped with the memo off", what, full.counters.PassesSkipped)
	case !reflect.DeepEqual(memo.summary, full.summary):
		return 0, fmt.Errorf("%s: summary with the memo\n %+v\nwith every pass run in full\n %+v", what, memo.summary, full.summary)
	case memo.counters.EventsFired != full.counters.EventsFired || memo.counters.Starts != full.counters.Starts:
		return 0, fmt.Errorf("%s: %d events and %d starts with the memo, %d and %d with every pass run in full", what,
			memo.counters.EventsFired, memo.counters.Starts, full.counters.EventsFired, full.counters.Starts)
	case !reflect.DeepEqual(memo.refusals, full.refusals):
		return 0, fmt.Errorf("%s: scripted calls answered %v with the memo, %v without", what, memo.refusals, full.refusals)
	case len(memo.samples) != len(full.samples):
		return 0, fmt.Errorf("%s: %d samples with the memo, %d without", what, len(memo.samples), len(full.samples))
	}
	for i := range memo.samples {
		if !reflect.DeepEqual(memo.samples[i], full.samples[i]) {
			return 0, fmt.Errorf("%s: sample %d with the memo\n %+v\nwith every pass run in full\n %+v", what, i, memo.samples[i], full.samples[i])
		}
	}
	return memo.counters.PassesSkipped, nil
}

// FuzzPassMemoMatchesFullPasses is the differential test of the one
// cache the controller keeps by key: a skipped pass must be a pass that
// would have started nothing. Each seed draws a small scenario — machine,
// workload kind and load, policy, every option, up to three cap windows
// (overlapping, open-ended), and a script of re-budgets, node failures
// and repairs between Advance calls — and runs it twice, as shipped and
// with passMemoHolds forced false: same samples, same summary, same
// event and start counts. The checked-in seeds run with every `go test`.
func FuzzPassMemoMatchesFullPasses(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, machine uint8) {
		if _, err := passMemoDiff(seed, machine); err != nil {
			t.Fatal(err)
		}
	})
}

// The differential test proves nothing on scenarios that never skip; the
// checked-in corpus must hold some that do (this is seed_1_machine0).
func TestPassMemoCorpusSkipsPasses(t *testing.T) {
	skipped, err := passMemoDiff(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if skipped == 0 {
		t.Fatal("seed 1 on machine 0 skipped no pass: the corpus no longer exercises the memo")
	}
}

// Each of the view's two mutators moves its generation. The differential
// test cannot tell one missing count from none — a start or a finish
// also moves the cluster generation, a re-clock calls both mutators —
// so this holds each to it directly.
func TestViewGenCountsBothMutators(t *testing.T) {
	c, err := New(Config{Topology: memoMachines[0], Policy: core.PolicyDvfs})
	if err != nil {
		t.Fatal(err)
	}
	r := c.viewKey(&job.Job{Cores: 4, Walltime: 100})
	gen := c.viewGen
	c.viewInsert(r)
	if c.viewGen == gen {
		t.Error("viewInsert left the view generation where it was")
	}
	gen = c.viewGen
	c.viewRemove(r)
	if c.viewGen == gen {
		t.Error("viewRemove left the view generation where it was")
	}
}

// A job re-clocked up under DynamicDVFS can outlive its entry in the
// backfill view. Once the clock passes that entry's expected end, the
// EASY shadow is clamped to now and the cores free at it grow with the
// clock, so a pass can start what an earlier one refused while nothing
// else changed. Here jobs 1 and 2 start at the ladder minimum ahead of a
// window and are boosted when it closes at t=600: their view entries end
// at 1000 and 1050, their runs at 1232 and 1282. The pass at 600 refuses
// job 4 behind the blocked head, job 3. Job 5 arrives at 1100 asking no
// fewer cores than the head, so no key but the clock's breaks the memo,
// and a pass at 1100 must start job 4, as one run in full does.
func TestPassMemoBreaksOnPassedExpectedEnd(t *testing.T) {
	for _, noPassMemo := range []bool{false, true} {
		cfg := tinyConfig(core.PolicyDvfs)
		cfg.DynamicDVFS = true
		c := mustNew(t, cfg)
		c.noPassMemo = noPassMemo
		if _, err := c.ReservePowerCap(100, 600, power.CapFraction(0.1, c.clus.MaxPower())); err != nil {
			t.Fatal(err)
		}
		if err := c.LoadWorkload([]*job.Job{
			{ID: 1, User: "a", Cores: 16, Submit: 0, Runtime: 1000, Walltime: 1000},
			{ID: 2, User: "b", Cores: 16, Submit: 0, Runtime: 1050, Walltime: 1050},
			{ID: 3, User: "c", Cores: 28, Submit: 0, Runtime: 100, Walltime: 100},  // head: 16 cores free
			{ID: 4, User: "d", Cores: 8, Submit: 0, Runtime: 4000, Walltime: 5000}, // needs both ends passed
			{ID: 5, User: "e", Cores: 48, Submit: 1100, Runtime: 10, Walltime: 10},
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.Start(5000); err != nil {
			t.Fatal(err)
		}
		if err := c.Advance(600); err != nil {
			t.Fatal(err)
		}
		want := []sched.RunningJob{{Cores: 16, ExpectedEnd: 1000}, {Cores: 16, ExpectedEnd: 1050}}
		if !reflect.DeepEqual(c.viewBuf, want) || len(c.pending) != 2 {
			t.Fatalf("at t=600: view %v with %d pending, want %v with jobs 3 and 4", c.viewBuf, len(c.pending), want)
		}
		if err := c.Advance(1100); err != nil {
			t.Fatal(err)
		}
		if len(c.running) != 3 || c.running[4].j == nil || c.running[4].j.StartTime != 1100 {
			t.Errorf("noPassMemo=%v: at t=1100 running %v, want jobs 1 and 2 still and job 4 started at 1100", noPassMemo, c.running)
		}
	}
}
