package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	wide := []float64{100, 130, 80, 120, 70, 125, 90, 110, 75, 128}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same runs", lower, tight, tight, verdictOK},
		{"5% slower, inside the bound", lower, tight, scale(tight, 1.05), verdictOK},
		{"15% slower", lower, tight, scale(tight, 1.15), verdictRegressed},
		{"15% faster is not a regression", lower, tight, scale(tight, 0.85), verdictOK},
		{"throughput down 15%", higher, tight, scale(tight, 0.85), verdictRegressed},
		{"throughput up 15%", higher, tight, scale(tight, 1.15), verdictOK},
		{"base spread wider than the bound", lower, wide, wide, verdictUnresolved},
		{"wide base, but every run of b beats every run of a", lower, wide, scale(tight, 0.5), verdictOK},
		{"wide base and regressed", lower, wide, scale(wide, 1.5), verdictRegressed},
		{"one run each cannot show a spread", lower, []float64{100}, []float64{104}, verdictOK},
	} {
		if _, _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opMS float64, failed int) string {
		f := suiteFile{Seconds: 10}
		for i := 0; i < 3; i++ {
			f.Runs = append(f.Runs, suiteRun{Workload: "service_cold", Seed: 1, result: result{
				Correct: true, Attempted: 100, Failed: failed,
				Metrics: map[string]metricValue{
					"setup_s":         {0.1, "s"},
					"op_ms_p50":       {opMS + float64(i)*0.01, "ms"},
					"ops_per_s":       {1000 / opMS, "1/s"},
					"alloc_mb_per_op": {4.2, "MB"},
				},
			}})
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow, failing := write("a.json", 10, 0), write("b.json", 10.2, 0), write("c.json", 14, 0), write("d.json", 10, 2)
	var out, errOut bytes.Buffer
	if code := compareFiles(base, same, &out, &errOut); code != 0 {
		t.Errorf("A/A comparison exited %d:\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := compareFiles(base, slow, &out, &errOut); code != 1 || !strings.Contains(out.String(), string(verdictRegressed)) {
		t.Errorf("40%% slower exited %d:\n%s", code, out.String())
	}
	if code := compareFiles(base, failing, &out, &errOut); code != 1 {
		t.Errorf("failed operations in b exited %d", code)
	}
	if code := compareFiles(base, filepath.Join(dir, "missing.json"), &out, &errOut); code != 2 {
		t.Errorf("a missing file exited %d", code)
	}
}
