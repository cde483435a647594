package rjms

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/power"
	"repro/internal/trace"
)

// TestLoadWorkloadStreamMatchesPreload replays the same workload loaded
// as a list and pulled from a source under an active powercap and
// requires identical summaries and time series — LoadWorkload's clone
// and sort must not change a single scheduling decision.
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
		sum, err := c.Run(3600)
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
	streamed := make([]*job.Job, len(wl))
	for i, j := range wl {
		streamed[i] = j.Clone()
	}
	sumB, samplesB := run(func(c *Controller) error {
		return c.LoadWorkloadStream(trace.FromSlice(streamed))
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
		sum, err := c.Run(1000)
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
	sum, err := c.Run(1000)
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
	if _, err := c.Run(1000); err == nil {
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
	if _, err := c.Run(1000); err == nil {
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
	if _, err := c.Run(1000); err == nil {
		t.Fatal("source error not reported")
	}
}
