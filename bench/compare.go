package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is the outcome of comparing one end-to-end metric on one
// workload between two sets of runs.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge compares the runs of a metric at a base commit (a) and a changed
// one (b), by the rule of the choosing-metrics guide: the change's median
// may be worse than the base's by at most the bound. Where the base's own
// run-to-run spread (the distance between its quartiles, as a share of
// its median) is wider than the bound, the benchmark cannot tell: the
// metric is unresolved, unless every run of the change reads better than
// every run of the base. It returns the ratio median(b)/median(a) and
// the base's spread with the verdict.
func judge(d metricDef, a, b []float64) (ratio, spread float64, v verdict) {
	q1, ma, q3 := quartiles(a)
	mb := median(b)
	ratio = mb / ma
	spread = (q3 - q1) / ma
	worse := ratio - 1
	if d.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case worse > d.Bound:
		return ratio, spread, verdictRegressed
	case len(a) > 1 && spread > d.Bound && !allBetter(d, a, b):
		return ratio, spread, verdictUnresolved
	}
	return ratio, spread, verdictOK
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if d.Better == "higher" && y <= x || d.Better != "higher" && y >= x {
				return false
			}
		}
	}
	return true
}

func readSuite(path string) (suiteFile, error) {
	var f suiteFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return f, fmt.Errorf("%s: no runs", path)
	}
	return f, nil
}

// values collects one metric's untraced values for one workload, and the
// failures counted there.
func (f suiteFile) values(workload, metric string) (vals []float64, failed int) {
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
		}
		failed += r.Failed
		if !r.Correct {
			failed++
		}
	}
	return vals, failed
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their ratio with its base, the bound and the verdict, and returns 1 if
// anything regressed or any operation failed in b.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSuite(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readSuite(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-18s %-16s %12s %12s  %-22s %7s %7s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "b/a", "spread", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, _ := a.values(w.name, d.Name)
			vb, failed := b.values(w.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, spread, v := judge(d, va, vb)
			if v == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(stdout, "%-18s %-16s %12.4f %12.4f  %6.3f of %-12.4f %6.1f%% %6.1f%%  %s (n=%d/%d)\n",
				w.name, d.Name, median(va), median(vb), ratio, median(va), spread*100, d.Bound*100, v, len(va), len(vb))
			if d.Name == endToEnd[0].Name && failed > 0 {
				fmt.Fprintf(stdout, "%-18s %d failed operations or checks in b\n", w.name, failed)
				code = 1
			}
		}
	}
	return code
}
