package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/federation"
	"repro/internal/job"
	"repro/internal/replay"
	"repro/internal/trace"
)

// testFedGrid is a small (member-count x cap x division) grid: every
// axis of the federated sweep exercised at minimal cost.
func testFedGrid() FederationGrid {
	return FederationGrid{
		Name:         "fedtest",
		MemberCounts: []int{2, 3},
		CapFractions: []float64{0.5},
		Divisions:    []replay.Division{replay.DivideProRata, replay.DivideDemand},
		ScaleRacks:   2,
	}
}

func TestFederationGridExpansion(t *testing.T) {
	g := testFedGrid()
	scens := g.Scenarios()
	if want := len(g.MemberCounts) * len(g.CapFractions) * len(g.Divisions); len(scens) != want {
		t.Fatalf("expanded %d cells, want %d", len(scens), want)
	}
	wantNames := []string{
		"fed2/50%/prorata", "fed2/50%/demand",
		"fed3/50%/prorata", "fed3/50%/demand",
	}
	for i, s := range scens {
		if s.Name != wantNames[i] {
			t.Errorf("cell %d = %q, want %q", i, s.Name, wantNames[i])
		}
		if err := s.Validate(); err != nil {
			t.Errorf("cell %d invalid: %v", i, err)
		}
	}
}

// TestFederationFingerprintWorkerIndependence is the federation
// determinism gate: the same grid must fingerprint bit-identically at
// 1, 4 and max workers.
func TestFederationFingerprintWorkerIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker federated sweep in -short mode")
	}
	g := testFedGrid()
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var want string
	for _, workers := range counts {
		tab := RunFederation(g, workers)
		if errs := tab.Errs(); len(errs) > 0 {
			t.Fatalf("workers=%d: %v", workers, errs[0])
		}
		fp := tab.Fingerprint()
		if want == "" {
			want = fp
			continue
		}
		if fp != want {
			t.Errorf("workers=%d fingerprint %s, want %s (workers=%d)", workers, fp, want, counts[0])
		}
	}
}

func TestFederationExports(t *testing.T) {
	tab := RunFederation(FederationGrid{
		MemberCounts: []int{2},
		CapFractions: []float64{0.5},
		Divisions:    []replay.Division{replay.DivideDemand},
		ScaleRacks:   2,
	}, 0)
	if errs := tab.Errs(); len(errs) > 0 {
		t.Fatal(errs[0])
	}

	var csvBuf bytes.Buffer
	if err := tab.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d, want header + 1 row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "index,name,members,cap_fraction,division") {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "fed2/50%/demand") {
		t.Errorf("CSV row = %q, want cell name in it", lines[1])
	}

	var jsonBuf bytes.Buffer
	if err := tab.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Cells int `json:"cells"`
		Rows  []struct {
			Division   string `json:"division"`
			MemberRows []struct {
				Name string `json:"name"`
			} `json:"member_rows"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Cells != 1 || len(decoded.Rows) != 1 {
		t.Fatalf("JSON cells = %d rows = %d, want 1/1", decoded.Cells, len(decoded.Rows))
	}
	if decoded.Rows[0].Division != "demand" || len(decoded.Rows[0].MemberRows) != 2 {
		t.Errorf("JSON row = %+v, want demand division with 2 member rows", decoded.Rows[0])
	}

	ascii := tab.ASCII(80)
	if !strings.Contains(ascii, "fed2/50%/demand") || !strings.Contains(ascii, "bsld") {
		t.Errorf("ASCII missing cell or header:\n%s", ascii)
	}
}

// TestFederationSharesMemberWorkloadsBitIdentical: members that replay
// the same synthetic workload — the same slot of federations of other
// sizes or divisions — share one generated list across the sweep's
// cells, and every row is still the one its federation run alone would
// give, at any worker count. The rows carry the caller's scenarios, a
// member with an explicit list keeps its own, and neither the shared
// lists nor the explicit one are changed by the sweep.
func TestFederationSharesMemberWorkloadsBitIdentical(t *testing.T) {
	scens := testFedGrid().Scenarios() // {2, 3} members x 2 divisions
	m1 := scens[0].Members[1]
	cfg := m1.Workload
	cfg.Cores = m1.Machine().Cores()
	explicit, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	own := scens[0]
	own.Name += "/explicit"
	own.Members = slices.Clone(own.Members)
	own.Members[1].Jobs = explicit
	scens = append(scens, own)
	explicitHash := hashJobs(explicit)
	// Member slots 0 and 1 run in every cell, slot 2 in the two
	// three-member ones; the explicit member shares nothing.
	wantShared := [][]bool{{true, true}, {true, true}, {true, true, true}, {true, true, true}, {true, false}}

	ref := FederationTable{Name: "shared", Workers: 1}
	for i, fs := range scens {
		res := federation.RunContext(context.Background(), fs, nil)
		if res.Err != nil {
			t.Fatalf("cell %d (%s) alone: %v", i, fs.Name, res.Err)
		}
		ref.Rows = append(ref.Rows, FederationResult{Result: res, Index: i})
	}

	check := func(workers int, got FederationTable) {
		t.Helper()
		if fp, want := got.Fingerprint(), ref.Fingerprint(); fp != want {
			t.Fatalf("%d workers: fingerprint %s, per-cell runs %s", workers, fp, want)
		}
		for i, row := range got.Rows {
			if !reflect.DeepEqual(row.Result, ref.Rows[i].Result) {
				t.Errorf("%d workers, cell %d (%s): differs from its run alone", workers, i, row.Scenario.Name)
			}
			if &row.Scenario.Members[0] != &scens[i].Members[0] {
				t.Errorf("%d workers, cell %d (%s): row carries a copy of its members, want the caller's", workers, i, row.Scenario.Name)
			}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		// The pool generates each shared member workload in the first
		// cell that needs it...
		check(workers, FederationRunner{Workers: workers}.Run("shared", scens))

		// ...and leaves the list as it found it: held here, outside the
		// sweep, it hashes the same afterwards.
		shared := shareWorkloads(memberCells(scens))
		lists := map[*sharedWorkload][]*job.Job{}
		for i, ws := range shared {
			for m, w := range ws {
				if (w != nil) != wantShared[i][m] {
					t.Fatalf("cell %d (%s) member %d: shared = %v", i, scens[i].Name, m, w != nil)
				}
				if w != nil && lists[w] == nil {
					if lists[w], err = w.get(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if len(lists) != 3 {
			t.Fatalf("%d shared member workloads, want 3", len(lists))
		}
		hashes := map[*sharedWorkload]string{}
		for w, jobs := range lists {
			hashes[w] = hashJobs(jobs)
		}

		got, err := FederationRunner{Workers: workers}.runShared(context.Background(), "shared", scens, shared)
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
