package experiment

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"repro/internal/replay"
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
