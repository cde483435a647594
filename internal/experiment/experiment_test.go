package experiment

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/replay"
	"repro/internal/trace"
)

// testGrid is small enough for unit tests (one rack, one replayed hour)
// but still crosses every axis: 2 workloads x (baseline + 2 caps x 2
// policies) = 10 cells.
func testGrid() Grid {
	return Grid{
		Name: "unit",
		Workloads: []trace.Config{
			{Kind: trace.SmallJob, Seed: 1002, DurationSec: 3600},
			{Kind: trace.MedianJob, Seed: 1001, DurationSec: 3600},
		},
		CapFractions: []float64{0, 0.6, 0.4},
		Policies:     []core.Policy{core.PolicyShut, core.PolicyMix},
		Base:         replay.Scenario{ScaleRacks: 1},
	}
}

// run expands the grid and executes it with the given worker count.
func run(g Grid, workers int) Table {
	return Runner{Workers: workers}.Run(g.Name, g.Scenarios())
}

func TestGridExpansion(t *testing.T) {
	g := testGrid()
	scens := g.Scenarios()
	if len(scens) != 10 {
		t.Fatalf("cells = %d, want 10", len(scens))
	}
	// First cell per workload is the collapsed uncapped baseline.
	if scens[0].Name != "smalljob/100%/None" || scens[0].Policy != core.PolicyNone {
		t.Fatalf("baseline cell = %q/%v", scens[0].Name, scens[0].Policy)
	}
	if scens[1].Name != "smalljob/60%/SHUT" || scens[2].Name != "smalljob/60%/MIX" {
		t.Fatalf("cap cells = %q, %q", scens[1].Name, scens[2].Name)
	}
	if scens[5].Name != "medianjob/100%/None" || scens[5].Workload.Kind != trace.MedianJob {
		t.Fatalf("second workload starts at wrong cell: %q", scens[5].Name)
	}
	for _, s := range scens {
		if s.ScaleRacks != 1 {
			t.Fatalf("base option lost in cell %q", s.Name)
		}
	}
	// Multiple out-of-range fractions still collapse to one baseline.
	dup := g
	dup.CapFractions = []float64{0, 1.0, 2.5, 0.4}
	for _, s := range dup.Scenarios() {
		if !s.Capped() && s.Workload.Kind == trace.SmallJob && s.Name != "smalljob/100%/None" {
			t.Fatalf("unexpected extra baseline %q", s.Name)
		}
	}
	if n := len(dup.Scenarios()); n != 2*(1+2) {
		t.Fatalf("dedup grid cells = %d, want 6", n)
	}
	// Seed replicates of one kind get disambiguated names.
	rep := g
	rep.Workloads = []trace.Config{
		{Kind: trace.SmallJob, Seed: 1, DurationSec: 3600},
		{Kind: trace.SmallJob, Seed: 2, DurationSec: 3600},
	}
	repScens := rep.Scenarios()
	if repScens[0].Name != "smalljob#1/100%/None" || repScens[5].Name != "smalljob#2/100%/None" {
		t.Fatalf("replicate names = %q, %q", repScens[0].Name, repScens[5].Name)
	}
}

// TestSweepDeterministicAcrossWorkers is the engine's core contract:
// the aggregated table is identical at any worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	g := testGrid()
	ref := run(g, 1)
	if errs := ref.Errs(); len(errs) != 0 {
		t.Fatalf("serial sweep errors: %v", errs)
	}
	refFP := ref.Fingerprint()
	for _, workers := range []int{2, 3, 16} {
		got := run(g, workers)
		if errs := got.Errs(); len(errs) != 0 {
			t.Fatalf("%d-worker sweep errors: %v", workers, errs)
		}
		if fp := got.Fingerprint(); fp != refFP {
			t.Fatalf("fingerprint differs at %d workers:\n serial  %s\n workers %s", workers, refFP, fp)
		}
		for i, r := range got.Rows {
			if r.Index != i {
				t.Fatalf("row %d landed at index %d", i, r.Index)
			}
		}
	}
}

func TestTableOrderAndAccounting(t *testing.T) {
	g := testGrid()
	scens := g.Scenarios()
	tab := run(g, 4)
	if tab.Workers != 4 {
		t.Fatalf("workers = %d", tab.Workers)
	}
	if len(tab.Rows) != len(scens) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(scens))
	}
	for i, r := range tab.Rows {
		if r.Scenario.Name != scens[i].Name {
			t.Fatalf("row %d is %q, want %q", i, r.Scenario.Name, scens[i].Name)
		}
		if r.Elapsed <= 0 {
			t.Fatalf("row %d has no elapsed time", i)
		}
	}
	if tab.SerialCost() <= 0 || tab.Elapsed <= 0 {
		t.Fatalf("missing sweep accounting: serial=%v wall=%v", tab.SerialCost(), tab.Elapsed)
	}
	if tab.Speedup() <= 0 {
		t.Fatalf("speedup = %v", tab.Speedup())
	}
	out := tab.ASCII(40)
	for _, want := range []string{"unit: 10 configurations", "smalljob/60%/SHUT", "Energy (normalized)", "== workload medianjob =="} {
		if !strings.Contains(out, want) {
			t.Fatalf("ASCII output missing %q:\n%s", want, out)
		}
	}
}

func TestRunnerProgress(t *testing.T) {
	g := testGrid()
	scens := g.Scenarios()
	var (
		mu    sync.Mutex
		calls int
		last  int
	)
	tab := Runner{Workers: 3, OnResult: func(done, total int, r Result) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if total != len(scens) {
			t.Errorf("total = %d, want %d", total, len(scens))
		}
		if done != calls {
			t.Errorf("done = %d on call %d (callback not serialized)", done, calls)
		}
		last = done
	}}.Run("progress", scens)
	if calls != len(scens) || last != len(scens) {
		t.Fatalf("OnResult calls = %d, last done = %d, want %d", calls, last, len(scens))
	}
	if len(tab.Rows) != len(scens) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

// hashJobs hashes every field of every job in the list.
func hashJobs(jobs []*job.Job) string {
	h := sha256.New()
	for _, j := range jobs {
		fmt.Fprintf(h, "%+v\n", *j)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSweepSharesWorkloadsBitIdentical: cells that replay the same
// synthetic workload share one generated list, and every row is still
// the one its cell replayed alone would give — at any worker count, so
// whatever order the cells load the list in. The rows carry the caller's
// scenarios, and neither the shared lists nor a caller's explicit one
// are changed by the sweep.
func TestSweepSharesWorkloadsBitIdentical(t *testing.T) {
	g := testGrid()
	g.Policies = []core.Policy{core.PolicyShut, core.PolicyDvfs, core.PolicyMix}
	scens := g.Scenarios() // 2 workloads x 7 cells
	explicit, err := trace.Generate(trace.Config{Kind: trace.SmallJob, Seed: 1002, DurationSec: 3600, Cores: scens[0].Machine().Cores()})
	if err != nil {
		t.Fatal(err)
	}
	own := scens[3]
	own.Name += "/explicit"
	own.Jobs = explicit
	scens = append(scens, own)
	explicitHash := hashJobs(explicit)

	ref := Table{Name: "shared", Workers: 1}
	for i, sc := range scens {
		ref.Rows = append(ref.Rows, Result{Result: replay.RunContextWith(context.Background(), sc, nil), Index: i})
	}
	if errs := ref.Errs(); len(errs) != 0 {
		t.Fatalf("per-cell replays failed: %v", errs)
	}

	check := func(workers int, got Table) {
		t.Helper()
		if fp, want := got.Fingerprint(), ref.Fingerprint(); fp != want {
			t.Fatalf("%d workers: fingerprint %s, per-cell replays %s", workers, fp, want)
		}
		for i, row := range got.Rows {
			want := ref.Rows[i].Result
			if !reflect.DeepEqual(row.Summary, want.Summary) || !reflect.DeepEqual(row.Samples, want.Samples) ||
				!reflect.DeepEqual(row.Plan, want.Plan) {
				t.Errorf("%d workers, cell %d (%s): differs from its replay alone", workers, i, row.Scenario.Name)
			}
			if wantJobs := scens[i].Jobs; len(row.Scenario.Jobs) != len(wantJobs) || (wantJobs != nil && &row.Scenario.Jobs[0] != &wantJobs[0]) {
				t.Errorf("%d workers, cell %d (%s): row carries %d jobs, want the caller's %d", workers, i, row.Scenario.Name, len(row.Scenario.Jobs), len(wantJobs))
			}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		// The pool generates each shared workload in the first cell that
		// needs it...
		check(workers, Runner{Workers: workers}.Run("shared", scens))

		// ...and leaves the list as it found it: held here, outside the
		// sweep, it hashes the same afterwards.
		shared := shareWorkloads(singleCells(scens))
		lists := map[*sharedWorkload][]*job.Job{}
		for i, ws := range shared {
			if len(ws) != 1 {
				t.Fatalf("cell %d (%s): %d shared entries, want 1", i, scens[i].Name, len(ws))
			}
			w := ws[0]
			if (w == nil) != (i == len(scens)-1) {
				t.Fatalf("cell %d (%s): shared = %v", i, scens[i].Name, w != nil)
			}
			if w != nil && lists[w] == nil {
				if lists[w], err = w.get(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if len(lists) != 2 {
			t.Fatalf("%d shared workloads, want 2", len(lists))
		}
		hashes := map[*sharedWorkload]string{}
		for w, jobs := range lists {
			hashes[w] = hashJobs(jobs)
		}

		got, err := Runner{Workers: workers}.runShared(context.Background(), "shared", scens, shared)
		if err != nil {
			t.Fatal(err)
		}
		check(workers, got)
		for w, jobs := range lists {
			if hashJobs(jobs) != hashes[w] {
				t.Errorf("%d workers: the sweep changed the shared %v workload", workers, w.cfg.Kind)
			}
			if w.jobs != nil {
				t.Errorf("%d workers: the shared %v workload is still held after its last cell", workers, w.cfg.Kind)
			}
		}
		if hashJobs(explicit) != explicitHash {
			t.Errorf("%d workers: the sweep changed the caller's explicit list", workers)
		}
	}
}

// TestWorkerClamp: worker counts beyond the cell count or below 1 must
// still produce a full, ordered table.
func TestWorkerClamp(t *testing.T) {
	g := testGrid()
	g.Workloads = g.Workloads[:1]
	g.CapFractions = []float64{0.4}
	g.Policies = []core.Policy{core.PolicyShut}
	for _, workers := range []int{-1, 0, 1, 99} {
		tab := run(g, workers)
		if len(tab.Rows) != 1 || tab.Rows[0].Err != nil {
			t.Fatalf("workers=%d: rows=%d err=%v", workers, len(tab.Rows), tab.Rows[0].Err)
		}
		if tab.Workers < 1 || tab.Workers > 1 {
			t.Fatalf("workers=%d clamped to %d, want 1", workers, tab.Workers)
		}
	}
}
