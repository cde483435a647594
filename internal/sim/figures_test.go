package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/replay"
)

// TestFigureRegistryOrder pins the catalogue and the "all" subset (the
// presentation order of expfig -fig all).
func TestFigureRegistryOrder(t *testing.T) {
	want := []string{"2", "3", "4", "5", "6", "7a", "7b", "8", "claims", "ablation", "sweep", "scenarios", "federation"}
	if got := Figures.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Figures.Names() = %v, want %v", got, want)
	}
	wantAll := []string{"2", "3", "4", "5", "6", "7a", "7b", "8", "claims", "ablation"}
	if got := FigureNamesInAll(); !reflect.DeepEqual(got, wantAll) {
		t.Errorf("FigureNamesInAll() = %v, want %v", got, wantAll)
	}
}

func TestStaticFigureRendersWithoutRunning(t *testing.T) {
	text, rep, err := RunFigure(context.Background(), "2", FigureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Error("static figure produced a report")
	}
	if text != fig2() {
		t.Error("figure 2 drifted from fig2")
	}
}

// TestReplayedFigureMatchesDirectPath: the registry path (scenario ->
// spec -> facade -> render) reproduces the direct replay rendering
// byte for byte.
func TestReplayedFigureMatchesDirectPath(t *testing.T) {
	opt := FigureOptions{Racks: 2, Workers: 2, Width: 96, Height: 14}
	text, rep, err := RunFigure(context.Background(), "7b", opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Single == nil {
		t.Fatal("figure 7b produced no single-run report")
	}

	direct := replay.RunContextWith(context.Background(), replay.Fig7bScenario(2), nil)
	if direct.Err != nil {
		t.Fatal(direct.Err)
	}
	want := "Figure 7b: smalljob workload, DVFS policy, 40% cap\n\n" +
		timeSeries(direct, 96, 14)
	if text != want {
		t.Error("figure 7b rendering drifted from the direct replay path")
	}
}

// TestFigureSpecsValidateAndDump: every replayed figure's spec
// validates, normalizes and round-trips — the property that keeps
// `expfig -dumpspec` output loadable.
func TestFigureSpecsValidateAndDump(t *testing.T) {
	opt := FigureOptions{Racks: 2}
	for _, name := range Figures.Names() {
		fig, err := Figures.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if fig.Static != nil {
			continue
		}
		spec, err := fig.Spec(opt)
		if err != nil {
			t.Errorf("figure %s: spec build: %v", name, err)
			continue
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("figure %s: spec invalid: %v", name, err)
			continue
		}
		n := spec.Normalize()
		var buf strings.Builder
		if err := n.EncodeJSON(&buf); err != nil {
			t.Errorf("figure %s: encode: %v", name, err)
			continue
		}
		if err := roundTrips([]byte(buf.String())); err != nil {
			t.Errorf("figure %s: %v", name, err)
		}
	}
}

// TestFigureSpecCellsMatchBuilders: the cell-list specs expand to
// exactly the scenario lists the predefined builders produce — the
// declarative form loses nothing.
func TestFigureSpecCellsMatchBuilders(t *testing.T) {
	cases := map[string]func(int) []replay.Scenario{
		"8":      replay.Fig8Scenarios,
		"claims": replay.Claims24hScenarios,
		"scenarios": func(scale int) []replay.Scenario {
			return replay.LibraryScenarios(scale)
		},
	}
	for name, build := range cases {
		fig, err := Figures.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := fig.Spec(FigureOptions{Racks: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.Scenarios()
		if err != nil {
			t.Fatalf("figure %s: %v", name, err)
		}
		want := build(2)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("figure %s: spec cells expand to different scenarios than the builder", name)
		}
	}
}
