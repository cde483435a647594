package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root is what the driver reads; the
// tables in metrics.go and bench.go are what the program prints. They
// must name the same workloads and metrics.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if seen[d.Name] || d.Moves == "" {
			t.Errorf("per-layer metric %s is repeated or has no prediction", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestPromValue(t *testing.T) {
	body := []byte(`# HELP simd_cache_tier_hits_total Hits.
# TYPE simd_cache_tier_hits_total counter
simd_cache_tier_hits_total{tier="live"} 1
simd_cache_tier_hits_total{tier="hot"} 6
simd_cache_tier_hits_total{tier="archive"} 3
simd_cache_tier_hits_total_extra 100
simd_gateway_dispatches_total 42
`)
	if got := promValue(body, "simd_cache_tier_hits_total", ""); got != 10 {
		t.Errorf("all tiers = %v, want 10", got)
	}
	if got := promValue(body, "simd_cache_tier_hits_total", `tier="archive"`); got != 3 {
		t.Errorf("archive tier = %v, want 3", got)
	}
	if got := promValue(body, "simd_gateway_dispatches_total", ""); got != 42 {
		t.Errorf("unlabelled counter = %v, want 42", got)
	}
	if got := promValue(body, "simd_absent_total", ""); got != 0 {
		t.Errorf("absent family = %v, want 0", got)
	}
}
