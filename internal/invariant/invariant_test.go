package invariant

import (
	"context"
	"testing"

	"repro/internal/federation"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/rjms"
)

// TestLibraryScenariosHoldInvariants is the single-cluster property
// sweep: every workload kind of the scenario library, under the
// uncapped baseline and every {60%, 40%} x {SHUT, DVFS, MIX} cell,
// must hold the cap-safety, node and lifecycle invariants at every
// sample.
func TestLibraryScenariosHoldInvariants(t *testing.T) {
	scens := replay.LibraryScenarios(1)
	if testing.Short() {
		scens = scens[:7]
	}
	for _, s := range scens {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			var k *Checker
			r := replay.RunContextWith(context.Background(), s, func(ctl *rjms.Controller) {
				k = Attach(ctl, s.Name)
			})
			if r.Err != nil {
				t.Fatalf("replay failed: %v", r.Err)
			}
			reportViolations(t, k)
		})
	}
}

// TestFederationHoldsInvariants attaches one checker per member and
// runs both division policies: redistribution must never break a
// member's local contracts.
func TestFederationHoldsInvariants(t *testing.T) {
	for _, div := range []replay.Division{replay.DivideProRata, replay.DivideDemand} {
		div := div
		t.Run(div.String(), func(t *testing.T) {
			fs := replay.FederationLibraryScenario(3, 2, 0.5, div)
			var checkers []*Checker
			r := federation.RunWith(fs, func(i int, name string, ctl *rjms.Controller) {
				checkers = append(checkers, Attach(ctl, name))
			})
			if r.Err != nil {
				t.Fatalf("federation failed: %v", r.Err)
			}
			if len(checkers) != len(fs.Members) {
				t.Fatalf("attached %d checkers, want %d", len(checkers), len(fs.Members))
			}
			for _, k := range checkers {
				reportViolations(t, k)
			}
		})
	}
}

// TestKillOnOverrunHoldsInvariants covers the extreme-actions path:
// kills must keep the bookkeeping consistent too.
func TestKillOnOverrunHoldsInvariants(t *testing.T) {
	s := replay.Scenario{
		Name:        "killer",
		Workload:    replay.LibraryScenarios(2)[0].Workload,
		Policy:      replay.LibraryScenarios(2)[8].Policy, // a capped cell's policy
		CapFraction: 0.4,
		ScaleRacks:  2,
		Options:     rjms.Options{KillOnOverrun: true},
	}
	var k *Checker
	r := replay.RunContextWith(context.Background(), s, func(ctl *rjms.Controller) { k = Attach(ctl, s.Name) })
	if r.Err != nil {
		t.Fatalf("replay failed: %v", r.Err)
	}
	reportViolations(t, k)
}

func reportViolations(t *testing.T, k *Checker) {
	t.Helper()
	for _, v := range k.Violations() {
		t.Error(v)
	}
	if n := k.Dropped(); n > 0 {
		t.Errorf("%d further violations dropped", n)
	}
}

// TestLegalObserved pins the sampled-lifecycle relation.
func TestLegalObserved(t *testing.T) {
	cases := []struct {
		from, to job.State
		want     bool
	}{
		{job.StatePending, job.StatePending, true},
		{job.StatePending, job.StateRunning, true},
		{job.StatePending, job.StateCompleted, true}, // ran between samples
		{job.StatePending, job.StateKilled, true},
		{job.StateRunning, job.StateRunning, true},
		{job.StateRunning, job.StateCompleted, true},
		{job.StateRunning, job.StateKilled, true},
		{job.StateRunning, job.StatePending, false}, // regression
		{job.StateCompleted, job.StateRunning, false},
		{job.StateCompleted, job.StatePending, false},
		{job.StateCompleted, job.StateCompleted, true},
		{job.StateKilled, job.StateKilled, true},
		{job.StateKilled, job.StateCompleted, false},
	}
	for _, c := range cases {
		if got := LegalObserved(c.from, c.to); got != c.want {
			t.Errorf("LegalObserved(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

// TestCheckJobsTracksSightings drives checkJobs with crafted snapshots:
// legal moves pass, and a job shown twice in one sample, one moving back
// to pending, and one reappearing after it vanished (it ended) are each
// reported.
func TestCheckJobsTracksSightings(t *testing.T) {
	a, b := &job.Job{ID: 1, Cores: 4}, &job.Job{ID: 2, Cores: 4}
	pending := func(j *job.Job) rjms.JobView { return rjms.JobView{Job: j, State: job.StatePending} }
	running := func(j *job.Job) rjms.JobView {
		return rjms.JobView{Job: j, State: job.StateRunning, Allocs: []job.Alloc{{Node: 0, Cores: 4}}}
	}
	k := &Checker{name: "sightings", seen: map[job.ID]sighting{}}
	k.checkJobs(0, []rjms.JobView{pending(a), pending(b)})
	k.checkJobs(1, []rjms.JobView{running(a)}) // a started, b ran and ended in between
	if err := k.Err(); err != nil {
		t.Fatalf("legal moves reported: %v", err)
	}
	for _, bad := range []struct {
		what string
		jobs []rjms.JobView
	}{
		{"shown twice", []rjms.JobView{running(a), running(a)}},
		{"back to pending", []rjms.JobView{pending(a)}},
		{"back after it ended", []rjms.JobView{pending(b)}},
	} {
		n := len(k.Violations())
		k.checkJobs(2, bad.jobs)
		if len(k.Violations()) == n {
			t.Errorf("a job %s not reported", bad.what)
		}
	}
}

// TestCapRule drives checkCap directly with crafted samples to pin the
// monotone cap-approach rule, including the violations no healthy run
// produces.
func TestCapRule(t *testing.T) {
	feed := func(k *Checker, samples ...metrics.Sample) {
		for i, s := range samples {
			k.checkCap(int64(i)*120, s)
		}
	}
	cap := power.Watts(1000)

	k := &Checker{name: "rule", seen: map[job.ID]sighting{}}
	feed(k,
		metrics.Sample{Power: 800, Cap: cap},
		metrics.Sample{Power: 950, Cap: cap},  // rising under the cap: fine
		metrics.Sample{Power: 1200, Cap: cap}, // crossed above: violation
	)
	if k.Err() == nil {
		t.Error("crossing above the cap not reported")
	}

	k = &Checker{name: "drain", seen: map[job.ID]sighting{}}
	feed(k,
		metrics.Sample{Power: 1500, Cap: 0},   // uncapped
		metrics.Sample{Power: 1400, Cap: cap}, // window opened over running work: tolerated
		metrics.Sample{Power: 1200, Cap: cap}, // draining: fine
		metrics.Sample{Power: 1300, Cap: cap}, // rising while above: violation
	)
	if k.Err() == nil {
		t.Error("rising above the cap not reported")
	}

	k = &Checker{name: "tighten", seen: map[job.ID]sighting{}}
	feed(k,
		metrics.Sample{Power: 900, Cap: cap},
		metrics.Sample{Power: 900, Cap: 700}, // cap tightened over the draw: tolerated once
		metrics.Sample{Power: 650, Cap: 700},
		metrics.Sample{Power: 690, Cap: 700}, // re-launching under the new cap: fine
	)
	if err := k.Err(); err != nil {
		t.Errorf("legal tighten-and-drain reported: %v", err)
	}
}

func TestAllocatedCores(t *testing.T) {
	j := rjms.JobView{Allocs: []job.Alloc{{Node: 0, Cores: 16}, {Node: 1, Cores: 16}}}
	if got := allocatedCores(j); got != 32 {
		t.Errorf("allocatedCores = %d", got)
	}
}
