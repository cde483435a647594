package rjms

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
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
// window (by index), a node failure, a repair, or a new cap window.
type memoAction struct {
	at     int64
	op     int // 0 AdjustPowerCap, 1 FailNode, 2 RepairNode, 3 ReservePowerCapID
	window int
	frac   float64
	node   cluster.NodeID
	add    memoWindow // op 3
}

// drawMemoScenario derives everything from the seed, the action script
// included, so both runs of a scenario are driven alike. The mid-run
// windows are drawn last, so a seed keeps the scenario it drew before
// they existed as a prefix.
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
	drawWindow := func(from, span int64) memoWindow {
		w := memoWindow{start: from + rng.Int63n(span), frac: 0.3 + 0.6*rng.Float64()}
		w.end = w.start + 300 + rng.Int63n(5400)
		if rng.Intn(5) == 0 {
			w.end = reservation.Horizon
		}
		return w
	}
	for n := rng.Intn(4); n > 0; n-- {
		sc.windows = append(sc.windows, drawWindow(0, sc.horizon))
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
	for n := rng.Intn(3); n > 0; n-- {
		at := 300 * (1 + rng.Int63n(sc.horizon/300-1))
		sc.actions = append(sc.actions, memoAction{at: at, op: 3, add: drawWindow(at, 1200)})
	}
	sort.SliceStable(sc.actions, func(a, b int) bool { return sc.actions[a].at < sc.actions[b].at })
	return sc, nil
}

// overlapsOpen reports whether action k reserves a window that overlaps
// one already open when it is made — ROADMAP item 1's case.
func (sc memoScenario) overlapsOpen(k int) bool {
	a := sc.actions[k]
	if a.op != 3 {
		return false
	}
	open := append([]memoWindow{}, sc.windows...)
	for _, b := range sc.actions[:k] {
		if b.op == 3 {
			open = append(open, b.add)
		}
	}
	for _, w := range open {
		if w.start <= a.at && a.at < w.end && a.add.start < w.end && w.start < a.add.end {
			return true
		}
	}
	return false
}

// snapJob is what SnapshotJobs shows of one job at a sample.
type snapJob struct {
	id     job.ID
	state  job.State
	freq   dvfs.Freq
	start  int64
	allocs []job.Alloc
}

func snapOf(jobs []JobView) []snapJob {
	out := make([]snapJob, len(jobs))
	for i, j := range jobs {
		out[i] = snapJob{id: j.ID, state: j.State, freq: j.Freq, start: j.Start, allocs: append([]job.Alloc(nil), j.Allocs...)}
	}
	return out
}

// jobEnd is how a workload job stands at the horizon: how it ended, or
// since when and at what frequency it runs; the zero value is a job
// still waiting, or never submitted.
type jobEnd struct {
	state      job.State
	start, end int64
	freq       dvfs.Freq
}

// scenarioOutcome is everything one run of a scenario reports.
type scenarioOutcome struct {
	summary  metrics.Summary
	samples  []metrics.Sample
	snaps    [][]snapJob
	jobs     []jobEnd
	refusals []string // errors of the scripted calls, in order
	starts   uint64
	counters SchedCounters // the shipped controller's only
}

// scenarioCalls is how a scenario drives one controller.
type scenarioCalls struct {
	maxPower       power.Watts
	reserve        func(start, end int64, budget power.Cap) (int, error)
	adjust         func(id int, budget power.Cap) error
	fail, repair   func(cluster.NodeID) error
	start, advance func(until int64) error
}

// drive reserves the scenario's windows, then plays its script.
func (sc memoScenario) drive(c scenarioCalls) ([]string, error) {
	ids := make([]int, len(sc.windows))
	for i, w := range sc.windows {
		var err error
		if ids[i], err = c.reserve(w.start, w.end, power.CapFraction(w.frac, c.maxPower)); err != nil {
			return nil, err
		}
	}
	if err := c.start(sc.horizon); err != nil {
		return nil, err
	}
	var refusals []string
	for _, a := range sc.actions {
		if err := c.advance(a.at); err != nil {
			return nil, err
		}
		var err error
		switch a.op {
		case 0:
			err = c.adjust(ids[a.window], power.CapFraction(a.frac, c.maxPower))
		case 1:
			err = c.fail(a.node)
		case 2:
			err = c.repair(a.node)
		case 3:
			_, err = c.reserve(a.add.start, a.add.end, power.CapFraction(a.add.frac, c.maxPower))
		}
		refusals = append(refusals, fmt.Sprint(err))
	}
	return refusals, c.advance(sc.horizon)
}

// endLog collects how the shipped controller's jobs end from outside
// it, since it keeps no record of an ended job. A job ends in one of
// three places: its end event, which the log wraps; a cap boundary's
// kills, in the boundary event, which it also wraps, or in
// AdjustPowerCap; a failed node's kills, in FailNode. Around a call that
// kills, a job gone from the running table was killed, and its freed
// slot still holds its launch time and last frequency: nothing commits
// inside such a call.
type endLog struct {
	c    *Controller
	ends map[job.ID]jobEnd
}

func newEndLog(c *Controller) *endLog {
	l := &endLog{c: c, ends: map[job.ID]jobEnd{}}
	end, boundary := c.endFn, c.capBoundaryFn
	c.endFn = func(t int64, arg any) {
		if r := c.runOf(arg.(*job.Job).ID); r != nil {
			l.ends[r.j.ID] = jobEnd{state: job.StateCompleted, start: r.start, end: t, freq: r.freq}
		}
		end(t, arg)
	}
	c.capBoundaryFn = func(t int64, arg any) { l.around(func() error { boundary(t, arg); return nil }) }
	return l
}

// around runs call and logs the jobs it killed.
func (l *endLog) around(call func() error) error {
	before := maps.Clone(l.c.running)
	err := call()
	for id, k := range before {
		if _, ok := l.c.running[id]; !ok {
			r := *l.c.slot(k)
			l.ends[id] = jobEnd{state: job.StateKilled, start: r.start, end: l.c.eng.Now(), freq: r.freq}
		}
	}
	return err
}

// outcome is how job j stands.
func (l *endLog) outcome(j *job.Job) jobEnd {
	if r := l.c.runOf(j.ID); r != nil {
		return jobEnd{state: job.StateRunning, start: r.start, freq: r.freq}
	}
	return l.ends[j.ID]
}

func jobEnds(jobs []*job.Job, outcome func(*job.Job) jobEnd) []jobEnd {
	out := make([]jobEnd, len(jobs))
	for i, j := range jobs {
		out[i] = outcome(j)
	}
	return out
}

// runShipped runs the scenario on the shipped controller.
func runShipped(sc memoScenario) (out scenarioOutcome, err error) {
	ctl, err := New(sc.cfg)
	if err != nil {
		return out, err
	}
	log := newEndLog(ctl)
	if err := ctl.LoadWorkloadStream(trace.FromSlice(sc.jobs)); err != nil {
		return out, err
	}
	ctl.AddObserver(func(int64) { out.snaps = append(out.snaps, snapOf(ctl.SnapshotJobs(nil))) })
	out.refusals, err = sc.drive(scenarioCalls{
		maxPower: ctl.Cluster().MaxPower(),
		reserve: func(start, end int64, budget power.Cap) (int, error) {
			id, _, err := ctl.ReservePowerCapID(start, end, budget)
			return id, err
		},
		adjust: func(id int, budget power.Cap) error {
			return log.around(func() error { return ctl.AdjustPowerCap(id, budget) })
		},
		fail:   func(id cluster.NodeID) error { return log.around(func() error { return ctl.FailNode(id) }) },
		repair: ctl.RepairNode, start: ctl.Start, advance: ctl.Advance,
	})
	if err != nil {
		return out, err
	}
	out.summary, out.samples, out.counters = ctl.Finish(), ctl.Samples(), ctl.SchedCounters()
	out.starts, out.jobs = out.counters.Starts, jobEnds(sc.jobs, log.outcome)
	return out, nil
}

// runReference runs the scenario on the reference controller.
func runReference(sc memoScenario) (out scenarioOutcome, err error) {
	r, err := newRef(sc.cfg)
	if err != nil {
		return out, err
	}
	r.load(sc.jobs)
	r.observer = func(int64) { out.snaps = append(out.snaps, snapOf(r.snapshot())) }
	out.refusals, err = sc.drive(scenarioCalls{
		maxPower: r.clus.MaxPower(), reserve: r.reserve, adjust: r.adjust,
		fail: r.failNode, repair: r.repairNode, start: r.start, advance: r.eng.Run,
	})
	if err != nil {
		return out, err
	}
	out.summary, out.samples, out.starts, out.jobs = r.finishRun(), r.rec.Samples(), r.starts, jobEnds(sc.jobs, r.outcome)
	return out, nil
}

// referenceDiff draws a scenario, runs it on the shipped controller and
// on the reference — over the one job list, which neither writes — and
// reports the first thing that differs. It returns the scenario and the
// shipped run.
func referenceDiff(seed int64, machine uint8) (memoScenario, scenarioOutcome, error) {
	sc, err := drawMemoScenario(seed, machine)
	if err != nil {
		return sc, scenarioOutcome{}, err
	}
	got, err := runShipped(sc)
	if err != nil {
		return sc, got, err
	}
	want, err := runReference(sc)
	if err != nil {
		return sc, got, err
	}
	what := fmt.Sprintf("%s on %d nodes, %d jobs, %d windows, %d actions, options %+v",
		sc.cfg.Policy, sc.cfg.Topology.Nodes(), len(sc.jobs), len(sc.windows), len(sc.actions), sc.cfg.Options)
	switch {
	case !reflect.DeepEqual(got.refusals, want.refusals):
		return sc, got, fmt.Errorf("%s: scripted calls answered %v, the reference %v", what, got.refusals, want.refusals)
	case got.starts != want.starts:
		return sc, got, fmt.Errorf("%s: %d starts, the reference %d", what, got.starts, want.starts)
	case len(got.samples) != len(want.samples) || len(got.snaps) != len(want.snaps):
		return sc, got, fmt.Errorf("%s: %d samples and %d snapshots, the reference %d and %d", what,
			len(got.samples), len(got.snaps), len(want.samples), len(want.snaps))
	}
	for i := range got.samples {
		if !reflect.DeepEqual(got.snaps[i], want.snaps[i]) {
			return sc, got, fmt.Errorf("%s: jobs at t=%d\n %+v\nthe reference\n %+v", what, got.samples[i].T, got.snaps[i], want.snaps[i])
		}
		if !reflect.DeepEqual(got.samples[i], want.samples[i]) {
			return sc, got, fmt.Errorf("%s: sample %d\n %+v\nthe reference\n %+v", what, i, got.samples[i], want.samples[i])
		}
	}
	for i := range got.jobs {
		if got.jobs[i] != want.jobs[i] {
			return sc, got, fmt.Errorf("%s: job %d ended %+v, the reference %+v", what, sc.jobs[i].ID, got.jobs[i], want.jobs[i])
		}
	}
	if !reflect.DeepEqual(got.summary, want.summary) {
		return sc, got, fmt.Errorf("%s: summary\n %+v\nthe reference\n %+v", what, got.summary, want.summary)
	}
	return sc, got, nil
}

// FuzzControllerAgainstReference is the oracle of the whole composition:
// the shipped controller, with every optimisation it keeps, against
// refController, the same contract written plainly. Each seed draws a
// small scenario — machine, workload kind and load, policy, every option,
// up to three cap windows (overlapping, open-ended), and a script of
// re-budgets, node failures, repairs and windows reserved mid-run between
// Advance calls — and runs it on both: the same answers to the scripted
// calls, the same starts, the same jobs queued and running with the same
// frequencies and allocations at every sample, the same samples, the same
// final job states and the same summary. The checked-in seeds run with
// every `go test`.
func FuzzControllerAgainstReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, machine uint8) {
		if _, _, err := referenceDiff(seed, machine); err != nil {
			t.Fatal(err)
		}
	})
}

// A skipped pass is one the reference runs in full; the checked-in corpus
// must hold scenarios that skip (this is seed_1_machine0).
func TestPassMemoCorpusSkipsPasses(t *testing.T) {
	_, got, err := referenceDiff(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.counters.PassesSkipped == 0 {
		t.Fatal("seed 1 on machine 0 skipped no pass: the corpus no longer exercises the memo")
	}
}

// TestReferenceCorpusExercises keeps the checked-in seeds worth running:
// between them the shipped controller must skip a pass, re-clock a job,
// requeue a failed node's victim, kill a job on overrun and reserve a
// window mid-run that overlaps one already open.
func TestReferenceCorpusExercises(t *testing.T) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzControllerAgainstReference/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checked-in seeds: %v", err)
	}
	want := []string{"skipped a pass", "re-clocked a job", "requeued a victim", "killed on overrun", "overlapped an open window"}
	seen := map[string]string{}
	for _, p := range paths {
		seed, machine := readFuzzSeed(t, p)
		sc, err := drawMemoScenario(seed, machine)
		if err != nil {
			t.Fatal(err)
		}
		n := len(sc.jobs)
		out, err := runShipped(sc)
		if err != nil {
			t.Fatal(err)
		}
		requeued := out.summary.JobsSubmitted - n
		did := map[string]bool{
			want[0]: out.counters.PassesSkipped > 0,
			want[1]: out.summary.Rescales > 0,
			want[2]: requeued > 0,
			want[3]: out.summary.JobsKilled > requeued, // every victim is killed once and requeued once
		}
		for k := range sc.actions {
			if sc.overlapsOpen(k) && out.refusals[k] == "<nil>" {
				did[want[4]] = true
			}
		}
		for what, ok := range did {
			if ok && seen[what] == "" {
				seen[what] = filepath.Base(p)
			}
		}
	}
	for _, what := range want {
		if seen[what] == "" {
			t.Errorf("no checked-in seed %s", what)
		} else {
			t.Logf("%s: %s", what, seen[what])
		}
	}
}

// readFuzzSeed parses a checked-in input of FuzzControllerAgainstReference.
func readFuzzSeed(t *testing.T, path string) (int64, uint8) {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var seed int64
	var machine string
	if _, err := fmt.Sscanf(string(b), "go test fuzz v1\nint64(%d)\nbyte(%s", &seed, &machine); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	m, err := strconv.Unquote(strings.TrimSuffix(machine, ")"))
	if err != nil || len(m) != 1 {
		t.Fatalf("%s: machine %s: %v", path, machine, err)
	}
	return seed, m[0]
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
	r := c.viewKey(&run{j: &job.Job{Cores: 4, Walltime: 100}})
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

// Two terms of passMemoHolds guard paths no scenario takes today: a
// re-clock away from a cap boundary moves only the view generation (every
// re-clock now runs at a cap start or end, or after a re-budget, which
// move the clock or book keys too), and a job leaving the queue without
// starting moves only the queue length (every start moves the cluster
// generation). The fuzz cannot tell either term from the other keys, so
// this holds each to its own case.
func TestPassMemoKeysViewAndQueueLength(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyDvfs)) // 12 nodes of 4 cores
	if err := c.LoadWorkload([]*job.Job{
		{ID: 1, User: "a", Cores: 40, Submit: 0, Runtime: 1000, Walltime: 1000},
		{ID: 2, User: "b", Cores: 48, Submit: 0, Runtime: 100, Walltime: 100}, // blocked head
		{ID: 3, User: "c", Cores: 44, Submit: 10, Runtime: 100, Walltime: 100},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(5000); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(10); err != nil {
		t.Fatal(err)
	}
	if !c.passMemoHolds(10) {
		t.Fatal("the pass at t=10 started nothing, yet its memo does not hold")
	}
	r := c.runOf(1)
	below, _ := c.pm.Ladder.Below(r.freq)
	c.reclock(r, 10, below)
	if c.passMemoHolds(10) {
		t.Error("the memo holds after a re-clock moved the running view")
	}
	c.pass(10)
	if !c.passMemoHolds(10) {
		t.Fatal("the pass after the re-clock started nothing, yet its memo does not hold")
	}
	c.pending = c.pending[:1]
	if c.passMemoHolds(10) {
		t.Error("the memo holds after a job left the queue it walked")
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
// and a pass at 1100 must start job 4, as the reference does.
func TestPassMemoBreaksOnPassedExpectedEnd(t *testing.T) {
	cfg := tinyConfig(core.PolicyDvfs)
	cfg.DynamicDVFS = true
	c := mustNew(t, cfg)
	ref, err := newRef(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capW := power.CapFraction(0.1, c.clus.MaxPower())
	if _, err := c.ReservePowerCap(100, 600, capW); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.reserve(100, 600, capW); err != nil {
		t.Fatal(err)
	}
	jobs := []*job.Job{
		{ID: 1, User: "a", Cores: 16, Submit: 0, Runtime: 1000, Walltime: 1000},
		{ID: 2, User: "b", Cores: 16, Submit: 0, Runtime: 1050, Walltime: 1050},
		{ID: 3, User: "c", Cores: 28, Submit: 0, Runtime: 100, Walltime: 100},  // head: 16 cores free
		{ID: 4, User: "d", Cores: 8, Submit: 0, Runtime: 4000, Walltime: 5000}, // needs both ends passed
		{ID: 5, User: "e", Cores: 48, Submit: 1100, Runtime: 10, Walltime: 10},
	}
	if err := c.LoadWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	ref.load(jobs)
	if err := c.Start(5000); err != nil {
		t.Fatal(err)
	}
	if err := ref.start(5000); err != nil {
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
	if err := ref.eng.Run(1100); err != nil {
		t.Fatal(err)
	}
	if got := ref.outcome(jobs[3]); got.state != job.StateRunning || got.start != 1100 {
		t.Fatalf("the reference has job 4 %+v, want it started at 1100", got)
	}
	if r := c.runOf(4); len(c.running) != 3 || r == nil || r.start != 1100 {
		t.Errorf("at t=1100 running %v, want jobs 1 and 2 still and job 4 started at 1100, as the reference", c.running)
	}
}
