package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/replay"
	"repro/internal/sim"
)

// Golden-file regression tests for expfig's artifacts: the static
// hardware tables, a replayed time-series figure, the sweep CSV/JSON
// exports and the federation sweep figure. Output drift — a changed
// metric, a reordered column, a float formatting change — fails tier-1
// instead of waiting for someone to eyeball a figure.
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/expfig -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files")

// checkGolden compares got against testdata/<name>.golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden file (run with -update if intentional)\ngot:\n%s\nwant:\n%s",
			name, clip(got), clip(want))
	}
}

func clip(b []byte) []byte {
	const max = 2000
	if len(b) > max {
		return append(append([]byte{}, b[:max]...), []byte("...")...)
	}
	return b
}

// stripTimings zeroes the wall-clock fields of a sweep table so its
// exports are bit-stable run to run.
func stripTimings(t *experiment.Table) {
	t.Elapsed = 0
	for i := range t.Rows {
		t.Rows[i].Elapsed = 0
	}
}

func stripFedTimings(t *experiment.FederationTable) {
	t.Elapsed = 0
	for i := range t.Rows {
		t.Rows[i].Elapsed = 0
	}
}

// figureText renders one registered figure through sim.RunFigure.
func figureText(t *testing.T, name string, opt sim.FigureOptions) string {
	t.Helper()
	text, _, err := sim.RunFigure(context.Background(), name, opt)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

func TestGoldenStaticFigures(t *testing.T) {
	for _, name := range []string{"2", "3", "4", "5"} {
		checkGolden(t, "fig"+name, []byte(figureText(t, name, sim.FigureOptions{})))
	}
}

func TestGoldenTimeSeriesFigure(t *testing.T) {
	text := figureText(t, "7b", sim.FigureOptions{Racks: 2, Width: 96, Height: 14})
	// The golden is the chart alone, below the figure's header line.
	_, chart, ok := strings.Cut(text, "\n\n")
	if !ok {
		t.Fatalf("figure 7b has no header paragraph:\n%s", text)
	}
	checkGolden(t, "fig7b_2racks", []byte(chart))
}

// TestGoldenSweepExports pins the single-cluster sweep artifacts: the
// ASCII comparison and the CSV/JSON exports of a small deterministic
// grid.
func TestGoldenSweepExports(t *testing.T) {
	tab := experiment.Runner{Workers: 2}.Run("golden", replay.AblationGroupingScenarios(2))
	if errs := tab.Errs(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	stripTimings(&tab)

	checkGolden(t, "sweep_ascii", []byte(tab.ASCII(40)))
	var csvBuf bytes.Buffer
	if err := tab.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep_csv", csvBuf.Bytes())
	var jsonBuf bytes.Buffer
	if err := tab.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep_json", jsonBuf.Bytes())
	checkGolden(t, "sweep_fingerprint", []byte(tab.Fingerprint()+"\n"))
}

// TestGoldenFederationExports pins the federation sweep figure and its
// exports — the -fig federation artifact at reduced scale.
func TestGoldenFederationExports(t *testing.T) {
	grid := experiment.FederationGrid{
		Name:         "federation",
		MemberCounts: []int{2},
		CapFractions: []float64{0.5},
		Divisions:    []replay.Division{replay.DivideProRata, replay.DivideDemand},
		ScaleRacks:   2,
	}
	tab := experiment.RunFederation(grid, 2)
	if errs := tab.Errs(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	stripFedTimings(&tab)

	checkGolden(t, "federation_ascii", []byte(tab.ASCII(96)))
	var csvBuf bytes.Buffer
	if err := tab.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "federation_csv", csvBuf.Bytes())
	var jsonBuf bytes.Buffer
	if err := tab.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "federation_json", jsonBuf.Bytes())
	checkGolden(t, "federation_fingerprint", []byte(tab.Fingerprint()+"\n"))
}

// TestGoldenHelp keeps the flag surface documented: a removed or
// renamed flag is an interface break someone must notice.
func TestGoldenFlagDefaults(t *testing.T) {
	var buf bytes.Buffer
	fs := flag.NewFlagSet("expfig", flag.ContinueOnError)
	fs.SetOutput(&buf)
	// Mirror main's flag set; the -fig description is registry-derived,
	// so a newly registered figure updates the golden too.
	fs.String("fig", "all", "which artifact: "+sim.Figures.Join("|")+"|all")
	fs.Int("racks", 56, "machine size in racks for the replayed figures")
	fs.Int("workers", 0, "parallel scenario workers (0 = GOMAXPROCS)")
	fs.Int("width", 96, "chart width")
	fs.Int("height", 14, "chart height")
	fs.String("csv", "", "write the sweep summary table as CSV to this file")
	fs.String("json", "", "write the sweep results as JSON to this file")
	fs.String("spec", "", "run this sim.RunSpec JSON file instead of a named figure")
	fs.String("dumpspec", "", "write the selected -fig's sim.RunSpec as JSON and exit")
	fs.PrintDefaults()
	fmt.Fprintln(&buf)
	checkGolden(t, "flags", buf.Bytes())
}
