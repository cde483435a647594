package repro_test

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// BENCH_e2e.json is the committed performance trajectory: one row per
// set of alternating parent/change pairs (bench/run.sh, one workload),
// per set of pairs of one commit against itself (the box's noise floor
// on that workload), or per set of tier-1 wall-time pairs. A row records
// what was measured
// — medians and quartiles per metric, how many pairs the change won —
// and never a ratio: ratios are computed from the medians, here.
type trajectory struct {
	About string `json:"about"`
	// SameCode maps a commit that differs from another only in
	// documents to that commit, so a row measured on it chains on.
	SameCode map[string]string `json:"same_code"`
	Rows     []trajectoryRow   `json:"rows"`
}

type trajectoryRow struct {
	PR          int    `json:"pr"`
	Kind        string `json:"kind"` // "pairs", "noise" or "tier1_wall"
	FromChanges bool   `json:"from_changes"`
	// StartsChain says why the row's parent is no earlier row's change.
	StartsChain string `json:"starts_chain"`
	// Parent and Change are commit ids; "this" names the commit that
	// adds the row, until the next row replaces it with the id.
	Parent   string                      `json:"parent"`
	Change   string                      `json:"change"`
	Go       string                      `json:"go"`
	Cores    int                         `json:"cores"`
	Seconds  int                         `json:"seconds"`
	Seeds    string                      `json:"seeds"`
	Workload string                      `json:"workload"`
	Claim    string                      `json:"claim"`
	Pairs    int                         `json:"pairs"`
	Metrics  map[string]trajectoryMetric `json:"metrics"`
	Note     string                      `json:"note"`
}

type trajectoryMetric struct {
	Parent       trajectorySide `json:"parent"`
	Change       trajectorySide `json:"change"`
	ChangeBetter *int           `json:"change_better"`
}

// trajectorySide is one side's median and quartiles; the quartiles are
// null only where a row copied from CHANGES.md had none.
type trajectorySide struct {
	Median float64  `json:"median"`
	Q1     *float64 `json:"q1"`
	Q3     *float64 `json:"q3"`
}

// TestBenchTrajectoryChains holds BENCH_e2e.json to its rules: each
// row's parent is an earlier row's change (through same_code), or an
// earlier row measured the same two commits, or the row says why it
// starts a chain; a pairs or tier-1 row measures two commits and a noise
// row one commit against itself, with no claim; a change-better count
// never exceeds the pairs; every metric is one BENCHMARK.json names; no
// row carries a ratio; and every number on a README line citing the
// file is in it. It logs the ratios, per claim and chained along each
// workload's rows, noise rows left out.
func TestBenchTrajectoryChains(t *testing.T) {
	raw, err := os.ReadFile("BENCH_e2e.json")
	if err != nil {
		t.Fatal(err)
	}
	var tr trajectory
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Rows) == 0 {
		t.Fatal("no rows")
	}
	assertNoTypedRatio(t, raw)

	bench := benchmarkNames(t)
	last := tr.Rows[len(tr.Rows)-1].PR
	changes, measured := map[string]bool{}, map[[2]string]bool{}
	for i, r := range tr.Rows {
		where := "row " + strconv.Itoa(i) + " (PR " + strconv.Itoa(r.PR) + " " + r.Kind + " " + r.Workload + ")"
		if r.Parent == "" || r.Change == "" || r.Parent == "this" || (r.Parent == r.Change) != (r.Kind == "noise") {
			t.Errorf("%s: parent %q, change %q", where, r.Parent, r.Change)
		}
		if r.Change == "this" && r.PR != last {
			t.Errorf("%s: only the last PR's rows may name their change \"this\"", where)
		}
		if i > 0 && r.PR < tr.Rows[i-1].PR {
			t.Errorf("%s: rows go in PR order", where)
		}
		parent := r.Parent
		if code, ok := tr.SameCode[parent]; ok {
			parent = code
		}
		pair := [2]string{r.Parent, r.Change}
		if !changes[parent] && !measured[pair] && strings.TrimSpace(r.StartsChain) == "" {
			t.Errorf("%s: parent %s is no earlier row's change, and the row does not say why it starts a chain", where, r.Parent)
		}
		changes[r.Change], measured[pair] = true, true
		if r.Go == "" || r.Cores <= 0 || r.Pairs <= 0 || len(r.Metrics) == 0 {
			t.Errorf("%s: go %q, cores %d, pairs %d, %d metrics", where, r.Go, r.Cores, r.Pairs, len(r.Metrics))
		}
		switch r.Kind {
		case "pairs", "noise":
			if !bench.workloads[r.Workload] {
				t.Errorf("%s: workload %q is not in BENCHMARK.json", where, r.Workload)
			}
			if r.Kind == "noise" && r.Claim != "" {
				t.Errorf("%s: a noise row claims nothing", where)
			}
		case "tier1_wall":
		default:
			t.Errorf("%s: kind %q", where, r.Kind)
		}
		if _, ok := r.Metrics[r.Claim]; r.Claim != "" && !ok {
			t.Errorf("%s: claimed metric %q not measured", where, r.Claim)
		}
		for name, m := range r.Metrics {
			if r.Kind != "tier1_wall" && bench.better[name] == "" || r.Kind == "tier1_wall" && !strings.HasSuffix(name, "_s") {
				t.Errorf("%s: metric %q is not a %s metric", where, name, r.Kind)
			}
			if m.ChangeBetter != nil && (*m.ChangeBetter < 0 || *m.ChangeBetter > r.Pairs) {
				t.Errorf("%s %s: the change won %d of %d pairs", where, name, *m.ChangeBetter, r.Pairs)
			}
			for side, s := range map[string]trajectorySide{"parent": m.Parent, "change": m.Change} {
				if (s.Q1 == nil) != (s.Q3 == nil) || s.Q1 != nil && !(*s.Q1 <= s.Median && s.Median <= *s.Q3) {
					t.Errorf("%s %s %s: median %v outside its quartiles %v, %v", where, name, side, s.Median, s.Q1, s.Q3)
				}
				if !r.FromChanges && s.Q1 == nil {
					t.Errorf("%s %s %s: a measured row records its quartiles", where, name, side)
				}
			}
			if !r.FromChanges && m.ChangeBetter == nil {
				t.Errorf("%s %s: a measured row records how many pairs the change won", where, name)
			}
		}
		if r.Claim != "" {
			m := r.Metrics[r.Claim]
			t.Logf("PR %d claims %s %s: %v → %v, ×%.3f, change better in %s of %d pairs",
				r.PR, r.Workload, r.Claim, m.Parent.Median, m.Change.Median, m.Change.Median/m.Parent.Median, better(m), r.Pairs)
		}
	}

	// Chained ratios: per workload and metric, the product over the PRs
	// of change/parent median, each PR by its row with the most pairs.
	type step struct {
		pairs int
		ratio float64
	}
	steps := map[string]map[int]step{}
	for _, r := range tr.Rows {
		if r.Kind == "noise" {
			continue
		}
		for name, m := range r.Metrics {
			key := r.Kind + " " + r.Workload + " " + name
			if steps[key] == nil {
				steps[key] = map[int]step{}
			}
			if s, ok := steps[key][r.PR]; !ok || r.Pairs > s.pairs {
				steps[key][r.PR] = step{r.Pairs, m.Change.Median / m.Parent.Median}
			}
		}
	}
	chained := map[string]float64{}
	for key, byPR := range steps {
		chained[key] = 1
		for _, s := range byPR {
			chained[key] *= s.ratio
		}
	}
	for key, x := range chained {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("%s: chained ratio %v", key, x)
		}
	}
	for _, key := range []string{"pairs replay_curie ops_per_s", "pairs federation_epochs ops_per_s", "pairs sweep_grid op_ms_p50"} {
		t.Logf("chained %s: ×%.3f", key, chained[key])
	}

	checkReadmeCitesTrajectory(t, raw)
}

func better(m trajectoryMetric) string {
	if m.ChangeBetter == nil {
		return "an unrecorded number"
	}
	return strconv.Itoa(*m.ChangeBetter)
}

// assertNoTypedRatio fails on any key that would hold a ratio typed in
// rather than computed.
func assertNoTypedRatio(t *testing.T, raw []byte) {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	var walk func(any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				for _, word := range []string{"ratio", "speedup", "gain", "factor", "percent"} {
					if strings.Contains(strings.ToLower(k), word) {
						t.Errorf("key %q holds a typed %s; compute it from the medians", k, word)
					}
				}
				walk(x)
			}
		case []any:
			for _, x := range v {
				walk(x)
			}
		}
	}
	walk(v)
}

type benchmarkSpec struct {
	workloads map[string]bool
	better    map[string]string
}

// benchmarkNames reads the workloads and metrics BENCHMARK.json declares.
func benchmarkNames(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	s := benchmarkSpec{workloads: map[string]bool{}, better: map[string]string{}}
	for _, w := range b.Workloads {
		s.workloads[w.Name] = true
	}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		s.better[m.Name] = m.Better
	}
	return s
}

// checkReadmeCitesTrajectory requires every number on a README line
// that cites BENCH_e2e.json — outside code spans — to be a number the
// file holds.
func checkReadmeCitesTrajectory(t *testing.T, raw []byte) {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	held := map[float64]bool{}
	for _, tok := range regexp.MustCompile(`-?\d+(\.\d+)?`).FindAllString(string(raw), -1) {
		if x, err := strconv.ParseFloat(tok, 64); err == nil {
			held[x] = true
		}
	}
	code, number := regexp.MustCompile("`[^`]*`"), regexp.MustCompile(`\b\d+(\.\d+)?\b`)
	cited := 0
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.Contains(line, "BENCH_e2e.json") {
			continue
		}
		cited++
		for _, tok := range number.FindAllString(code.ReplaceAllString(line, ""), -1) {
			if x, _ := strconv.ParseFloat(tok, 64); !held[x] {
				t.Errorf("README cites BENCH_e2e.json with %s, which the file does not hold: %s", tok, line)
			}
		}
	}
	if cited == 0 {
		t.Error("no README line cites BENCH_e2e.json")
	}
}
