package rjms

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/trace"
)

// TestLoadWorkloadStreamMatchesPreload replays the same workload loaded
// as a list and pulled from a source under an active powercap and
// requires identical summaries and time series — LoadWorkload's checks
// must not change a single scheduling decision. Both runs read the one
// list: the first leaves it as it found it.
func TestLoadWorkloadStreamMatchesPreload(t *testing.T) {
	wl, err := trace.Generate(trace.Config{Kind: trace.MedianJob, Seed: 77, Cores: 48, DurationSec: 3600})
	if err != nil {
		t.Fatal(err)
	}
	run := func(load func(*Controller) error) (interface{}, []interface{}) {
		t.Helper()
		c := mustNew(t, tinyConfig(core.PolicyShut))
		if err := load(c); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReservePowerCap(1200, 2400, power.CapFraction(0.6, c.Cluster().MaxPower())); err != nil {
			t.Fatal(err)
		}
		sum, err := runTo(c, 3600)
		if err != nil {
			t.Fatal(err)
		}
		var samples []interface{}
		for _, s := range c.Samples() {
			samples = append(samples, s)
		}
		return sum, samples
	}
	sumA, samplesA := run(func(c *Controller) error { return c.LoadWorkload(wl) })
	sumB, samplesB := run(func(c *Controller) error {
		return c.LoadWorkloadStream(trace.FromSlice(wl))
	})
	if !reflect.DeepEqual(sumA, sumB) {
		t.Fatalf("summaries differ:\n preload %+v\n stream  %+v", sumA, sumB)
	}
	if !reflect.DeepEqual(samplesA, samplesB) {
		t.Fatal("time series differ between preload and stream ingestion")
	}
}

// TestLoadWorkloadRejectsAnyJobUpfront pins what the list form must keep
// although it feeds the stream: a bad job anywhere in the list — not
// only the first, which is all a stream can see before the clock moves
// — is LoadWorkload's own error, and nothing was scheduled.
func TestLoadWorkloadRejectsAnyJobUpfront(t *testing.T) {
	ok := &job.Job{ID: 1, Cores: 4, Submit: 0, Runtime: 10, Walltime: 10}
	for name, bad := range map[string]*job.Job{
		"invalid":  {ID: 2, Cores: 0, Submit: 50, Runtime: 10, Walltime: 10},
		"too wide": {ID: 2, Cores: 49, Submit: 50, Runtime: 10, Walltime: 10},
	} {
		c := mustNew(t, tinyConfig(core.PolicyNone))
		if err := c.LoadWorkload([]*job.Job{ok, bad}); err == nil {
			t.Errorf("%s job at index 1 accepted by LoadWorkload", name)
		}
		sum, err := runTo(c, 1000)
		if err != nil {
			t.Errorf("%s: rejected load left an error for Run: %v", name, err)
		}
		if sum.JobsSubmitted != 0 {
			t.Errorf("%s: rejected load still submitted %d jobs", name, sum.JobsSubmitted)
		}
	}
}

// TestLoadWorkloadSortsBySubmit: a list need not be in submit order —
// the stream it feeds must be.
func TestLoadWorkloadSortsBySubmit(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyNone))
	err := c.LoadWorkload([]*job.Job{
		{ID: 1, Cores: 4, Submit: 100, Runtime: 10, Walltime: 10},
		{ID: 2, Cores: 4, Submit: 50, Runtime: 10, Walltime: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := runTo(c, 1000)
	if err != nil {
		t.Fatalf("unsorted list failed the replay: %v", err)
	}
	if sum.JobsCompleted != 2 {
		t.Errorf("completed %d of 2 jobs", sum.JobsCompleted)
	}
}

func TestLoadWorkloadStreamRejectsUpfront(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyNone))
	// First job invalid: error before the replay starts.
	err := c.LoadWorkloadStream(trace.FromSlice([]*job.Job{
		{ID: 1, Cores: 0, Submit: 0, Runtime: 10, Walltime: 10},
	}))
	if err == nil {
		t.Fatal("invalid first job accepted")
	}
	c = mustNew(t, tinyConfig(core.PolicyNone))
	err = c.LoadWorkloadStream(trace.FromSlice([]*job.Job{
		{ID: 1, Cores: 49, Submit: 0, Runtime: 10, Walltime: 10},
	}))
	if err == nil {
		t.Fatal("too-wide first job accepted")
	}
}

func TestLoadWorkloadStreamMidStreamErrors(t *testing.T) {
	// Out-of-order submission discovered mid-replay surfaces from Run.
	c := mustNew(t, tinyConfig(core.PolicyNone))
	err := c.LoadWorkloadStream(trace.FromSlice([]*job.Job{
		{ID: 1, Cores: 4, Submit: 100, Runtime: 10, Walltime: 10},
		{ID: 2, Cores: 4, Submit: 50, Runtime: 10, Walltime: 10},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 1000); err == nil {
		t.Fatal("out-of-order stream not reported")
	}
	// A job wider than the machine mid-stream likewise.
	c = mustNew(t, tinyConfig(core.PolicyNone))
	err = c.LoadWorkloadStream(trace.FromSlice([]*job.Job{
		{ID: 1, Cores: 4, Submit: 0, Runtime: 10, Walltime: 10},
		{ID: 2, Cores: 49, Submit: 10, Runtime: 10, Walltime: 10},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 1000); err == nil {
		t.Fatal("too-wide streamed job not reported")
	}
}

// errSource fails after a few records, as a truncated or corrupt trace
// file would.
type errSource struct{ n int }

func (s *errSource) Next() (*job.Job, error) {
	if s.n == 0 {
		return nil, fmt.Errorf("corrupt record")
	}
	s.n--
	return &job.Job{ID: job.ID(10 - s.n), Cores: 1, Submit: int64(10 - s.n), Runtime: 5, Walltime: 5}, nil
}

func TestLoadWorkloadStreamSourceError(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyNone))
	if err := c.LoadWorkloadStream(&errSource{n: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := runTo(c, 1000); err == nil {
		t.Fatal("source error not reported")
	}
}

// TestControllerNeverWritesAJob replays one generated list on four
// controllers at once — DVFS and MIX, each loaded through LoadWorkload
// (from a reversed copy of the pointers, so the list is sorted first)
// and through LoadWorkloadStream — with DynamicDVFS and KillOnOverrun
// under a cap that tightens inside its window, a node failure that
// requeues its jobs and the node's repair. Afterwards every job equals
// the copy taken before the runs and both lists keep their order. Under
// -race it also shows that controllers sharing a list only read it.
func TestControllerNeverWritesAJob(t *testing.T) {
	topo := cluster.Topology{Racks: 1, ChassisPerRack: 5, NodesPerChassis: 18, CoresPerNode: 16}
	jobs, err := trace.Generate(trace.Config{Kind: trace.SmallJob, Seed: 5, Cores: topo.Cores(), DurationSec: 7200, LoadFactor: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	before := make([]job.Job, len(jobs))
	for i, j := range jobs {
		before[i] = *j
	}
	reversed := slices.Clone(jobs)
	slices.Reverse(reversed)

	cells := []struct {
		policy core.Policy
		stream bool
	}{{core.PolicyDvfs, false}, {core.PolicyDvfs, true}, {core.PolicyMix, false}, {core.PolicyMix, true}}
	sums := make([]metrics.Summary, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, cell := range cells {
		i, cell := i, cell
		wg.Add(1)
		go func() {
			defer wg.Done()
			load := func(c *Controller) error { return c.LoadWorkload(reversed) }
			if cell.stream {
				load = func(c *Controller) error { return c.LoadWorkloadStream(trace.FromSlice(jobs)) }
			}
			sums[i], errs[i] = replayWithFailure(topo, cell.policy, load)
		}()
	}
	wg.Wait()
	for i, cell := range cells {
		if errs[i] != nil {
			t.Fatalf("%v, stream %v: %v", cell.policy, cell.stream, errs[i])
		}
		s := sums[i]
		t.Logf("%v, stream %v: %d submitted, %d completed, %d killed, %d re-clocks", cell.policy, cell.stream,
			s.JobsSubmitted, s.JobsCompleted, s.JobsKilled, s.Rescales)
		if s.Rescales == 0 || s.JobsKilled == 0 || s.JobsSubmitted <= len(jobs) {
			t.Errorf("%v, stream %v: %d re-clocks, %d kills, %d submitted of %d listed: the run does not re-clock, kill and requeue",
				cell.policy, cell.stream, s.Rescales, s.JobsKilled, s.JobsSubmitted, len(jobs))
		}
	}
	for i, j := range jobs {
		if !reflect.DeepEqual(*j, before[i]) {
			t.Errorf("job %d is %+v after the runs, was %+v", before[i].ID, *j, before[i])
		}
		if reversed[len(jobs)-1-i] != j {
			t.Fatalf("the reversed list lost its order at %d", len(jobs)-1-i)
		}
	}
}

// replayWithFailure runs 2 h under a 60 % cap over [1800, 5400) that
// tightens to 35 % at 2400; a busy node fails at 2100 and is repaired at
// 3600.
func replayWithFailure(topo cluster.Topology, policy core.Policy, load func(*Controller) error) (metrics.Summary, error) {
	c, err := New(Config{Topology: topo, Policy: policy, Options: Options{DynamicDVFS: true, KillOnOverrun: true}})
	if err != nil {
		return metrics.Summary{}, err
	}
	if err := load(c); err != nil {
		return metrics.Summary{}, err
	}
	max := c.Cluster().MaxPower()
	capID, _, err := c.ReservePowerCapID(1800, 5400, power.CapFraction(0.6, max))
	if err != nil {
		return metrics.Summary{}, err
	}
	failed := cluster.NodeID(-1)
	steps := []struct {
		at int64
		do func() error
	}{
		{2100, func() error {
			for id := cluster.NodeID(0); int(id) < topo.Nodes(); id++ {
				if c.Cluster().State(id) == cluster.StateBusy {
					failed = id
					return c.FailNode(id)
				}
			}
			return fmt.Errorf("no busy node at t=2100")
		}},
		{2400, func() error { return c.AdjustPowerCap(capID, power.CapFraction(0.35, max)) }},
		{3600, func() error { return c.RepairNode(failed) }},
	}
	if err := c.Start(7200); err != nil {
		return metrics.Summary{}, err
	}
	for _, s := range steps {
		if err := c.Advance(s.at); err != nil {
			return metrics.Summary{}, err
		}
		if err := s.do(); err != nil {
			return metrics.Summary{}, err
		}
	}
	if err := c.Advance(7200); err != nil {
		return metrics.Summary{}, err
	}
	return c.Finish(), nil
}
