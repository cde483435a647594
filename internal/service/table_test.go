package service

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// tableSpec is the spec the run-table tests hold runs of; they never
// execute it.
func tableSpec(name string) sim.RunSpec {
	return sim.RunSpec{
		Name:         name,
		Mode:         sim.ModeSweep,
		Workload:     sim.WorkloadSpec{Kind: "smalljob", Seed: 1, DurationSec: 3600},
		Racks:        1,
		Policies:     []string{"SHUT", "MIX"},
		CapFractions: []float64{0.6},
	}
}

// holdRun registers a run of the spec hash in the server's table, as a
// submission does, without queueing it.
func holdRun(s *Server, seq int, hash string, spec sim.RunSpec) *run {
	ctx, cancel := context.WithCancel(context.Background())
	r := &run{Record: newRecord(fmt.Sprintf("r%06d", seq+1), seq, "", hash, spec), ctx: ctx, cancel: cancel}
	r.init()
	r.mu.Lock()
	r.appendLocked("queued", Event{})
	r.mu.Unlock()
	s.mu.Lock()
	s.runs[r.ID] = r
	s.byHash[hash] = r
	s.mu.Unlock()
	return r
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRetireOutOfOrderKeepsBothRuns pins that the order in which runs
// retire changes nothing a reader sees: two cancelled runs of one spec,
// the newer retired first, both answer by id afterwards. A daemon that
// handed retired runs to a store upserting by spec hash lost the newer
// one here ("unknown run"), which is how a cancel-and-resubmit of one
// spec, whose first run's retire landed late, lost its second run.
func TestRetireOutOfOrderKeepsBothRuns(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownServer(t, s)
	const hash = "0f0f"
	older := holdRun(s, 0, hash, tableSpec("twice"))
	newer := holdRun(s, 1, hash, tableSpec("twice"))
	for _, r := range []*run{older, newer} {
		r.cancel()
		r.mu.Lock()
		r.State, r.Finished, r.Error = StateCancelled, time.Now(), context.Canceled.Error()
		r.appendLocked("cancelled", Event{Error: r.Error})
		r.mu.Unlock()
	}
	s.retire(newer)
	s.retire(older)
	for _, r := range []*run{older, newer} {
		v, err := s.GetAs(TenantConfig{}, r.ID, false)
		if err != nil {
			t.Errorf("GetAs(%s) after out-of-order retires: %v", r.ID, err)
			continue
		}
		if v.State != StateCancelled {
			t.Errorf("GetAs(%s) = %s, want cancelled", r.ID, v.State)
		}
	}
}

// TestListAllocCeiling pins that a listing costs its page, not the
// table: Server.List with Limit 50 over 2 048 held runs keys the
// matching rows (a sequence number and an id each) and copies out only
// the page's records. It measured 95 kB a call, half of it the keys;
// copying every matching held record before cutting the page cost
// 4.5 MB.
func TestListAllocCeiling(t *testing.T) {
	const (
		held      = 2048
		ceilingKB = 150
	)
	s := New(Config{Workers: 1, MaxRuns: held})
	defer shutdownServer(t, s)
	for seq := 0; seq < held; seq++ {
		r := holdRun(s, seq, fmt.Sprintf("%04x", seq), tableSpec(fmt.Sprintf("run-%d", seq)))
		r.State = []State{StateDone, StateFailed, StateCancelled, StateRunning, StateQueued}[seq%5]
	}
	f := ListFilter{Limit: 50}
	const lists = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < lists; i++ {
		page, next, err := s.List(f)
		if err != nil || len(page) != f.Limit || next == "" {
			t.Fatalf("List = %d rows, next %q, err %v; want a full page", len(page), next, err)
		}
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / lists / 1e3
	t.Logf("a page of %d over %d held runs allocates %.1f kB (ceiling %d kB)", f.Limit, held, kb, ceilingKB)
	if kb > ceilingKB {
		t.Errorf("a page of %d over %d held runs allocates %.1f kB, ceiling %d kB", f.Limit, held, kb, ceilingKB)
	}
}
