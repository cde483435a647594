package replay

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rjms"
	"repro/internal/trace"
)

func TestWriteJSON(t *testing.T) {
	s := Scenario{
		Name:     "json-test",
		Workload: shortWorkload(trace.MedianJob, 5),
		Policy:   core.PolicyShut, CapFraction: 0.6, ScaleRacks: testRacks,
	}
	results := []Result{run(s)}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(back) != 1 {
		t.Fatalf("entries = %d", len(back))
	}
	e := back[0]
	if e["name"] != "json-test" || e["policy"] != "SHUT" {
		t.Errorf("identity fields wrong: %v %v", e["name"], e["policy"])
	}
	if e["cap_fraction"].(float64) != 0.6 {
		t.Errorf("cap_fraction = %v", e["cap_fraction"])
	}
	if e["energy_j"].(float64) <= 0 || e["work_core_sec"].(float64) <= 0 {
		t.Errorf("integrals missing: %v %v", e["energy_j"], e["work_core_sec"])
	}
	if e["plan_off_nodes"].(float64) <= 0 {
		t.Errorf("plan_off_nodes = %v", e["plan_off_nodes"])
	}
	if _, ok := e["launched_by_freq"].(map[string]any); !ok {
		t.Errorf("launched_by_freq missing")
	}
	if _, ok := e["error"]; ok {
		t.Error("error field present on success")
	}
}

func TestWriteJSONError(t *testing.T) {
	bad := run(Scenario{Workload: trace.Config{Kind: trace.MedianJob, DurationSec: -1}})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []Result{bad}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"error"`) {
		t.Errorf("error not exported:\n%s", buf.String())
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	s := Scenario{
		Workload: shortWorkload(trace.MedianJob, 5),
		Policy:   core.PolicyDvfs, CapFraction: 0.5, ScaleRacks: testRacks,
		Options: rjms.Options{SampleEverySec: 300},
	}
	r := run(s)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, r.Samples); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(r.Samples)+1 {
		t.Fatalf("rows = %d, want %d", len(rows), len(r.Samples)+1)
	}
	header := rows[0]
	for _, want := range []string{"t_sec", "power_w", "cap_w", "off_nodes"} {
		found := false
		for _, h := range header {
			if h == want {
				found = true
			}
		}
		if !found {
			t.Errorf("header missing %q: %v", want, header)
		}
	}
	freqCols := 0
	for _, h := range header {
		if strings.HasPrefix(h, "cores_") {
			freqCols++
		}
	}
	if freqCols == 0 {
		t.Error("no per-frequency columns")
	}
	for i, row := range rows {
		if len(row) != len(header) {
			t.Fatalf("row %d has %d cells, want %d", i, len(row), len(header))
		}
	}
}
