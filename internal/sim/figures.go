package sim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/registry"
	"repro/internal/replay"
	"repro/internal/trace"
)

// FigureOptions parameterize figure builds.
type FigureOptions struct {
	// Racks shrinks the replayed machine (0 = full 56-rack Curie).
	Racks int
	// Workers bounds the sweep pool (0 = GOMAXPROCS).
	Workers int
	// Width/Height size the ASCII charts.
	Width, Height int
}

// Figure is one registered paper artifact: either a static table
// derived from the hardware model (Static), or a replayed figure
// described by a RunSpec and rendered from its Report. Figures
// self-register into the Figures registry; cmd/expfig is a thin
// iteration over it.
type Figure struct {
	// Name is the registry name ("2", "7a", "claims", ...).
	Name string
	// Desc is the one-line description shown in help.
	Desc string
	// InAll includes the figure in the "all" set (the cheap paper
	// artifacts; the big sweeps stay opt-in by name).
	InAll bool
	// Static renders without running anything (figures 2-5).
	Static func() string
	// Spec builds the RunSpec replayed for the figure.
	Spec func(opt FigureOptions) (RunSpec, error)
	// Render turns the finished report into the figure text.
	Render func(rep Report, opt FigureOptions) string
}

// Figures is the artifact registry keyed by figure name, in the paper's
// presentation order.
var Figures = registry.New[Figure]("figure")

// FigureNamesInAll returns the names the "all" set renders, in order.
func FigureNamesInAll() []string {
	var out []string
	for _, name := range Figures.Names() {
		f, err := Figures.Lookup(name)
		if err == nil && f.InAll {
			out = append(out, name)
		}
	}
	return out
}

// RunFigure builds one registered figure: static figures render
// immediately; replayed ones run their spec through Run (with ctx
// cancellation and the worker/scale options applied) and fail fast on
// any cell error, matching the historical expfig behavior. The Report
// is returned alongside the rendering so callers can export the
// underlying table through the sink pipeline.
func RunFigure(ctx context.Context, name string, opt FigureOptions) (string, *Report, error) {
	fig, err := Figures.Lookup(name)
	if err != nil {
		return "", nil, fmt.Errorf("sim: %w", err)
	}
	if fig.Static != nil {
		return fig.Static(), nil, nil
	}
	spec, err := fig.Spec(opt)
	if err != nil {
		return "", nil, err
	}
	spec.Workers = opt.Workers
	rep, err := RunWith(ctx, spec, nil)
	if err != nil {
		return "", &rep, err
	}
	if errs := rep.Errs(); len(errs) > 0 {
		return "", &rep, errs[0]
	}
	return fig.Render(rep, opt), &rep, nil
}

// SpecFromScenario converts one replay scenario into the equivalent
// single-mode RunSpec — the bridge from the predefined scenario
// builders to the declarative form.
func SpecFromScenario(sc replay.Scenario) (RunSpec, error) {
	cells, err := CellsFromScenarios([]replay.Scenario{sc})
	if err != nil {
		return RunSpec{}, err
	}
	c := cells[0]
	spec := RunSpec{
		Name:         c.Name,
		Workload:     *c.Workload,
		Racks:        sc.ScaleRacks,
		Policies:     []string{c.Policy},
		CapFractions: []float64{c.CapFraction},
	}
	if c.Cap != nil {
		spec.Cap = *c.Cap
	}
	if c.Options != nil {
		spec.Options = *c.Options
	}
	return spec, nil
}

// specFromList wraps a scenario-builder output as a named cell-list
// sweep spec.
func specFromList(name string, racks int, scens []replay.Scenario) (RunSpec, error) {
	cells, err := CellsFromScenarios(scens)
	if err != nil {
		return RunSpec{}, err
	}
	return RunSpec{Name: name, Racks: racks, Cells: cells}, nil
}

// singleFigure registers a one-scenario replayed figure with a header
// line over the standard time-series chart.
func singleFigure(name, desc, header string, scen func(scaleRacks int) replay.Scenario) {
	Figures.Register(name, Figure{
		Name:  name,
		Desc:  desc,
		InAll: true,
		Spec: func(opt FigureOptions) (RunSpec, error) {
			return SpecFromScenario(scen(opt.Racks))
		},
		Render: func(rep Report, opt FigureOptions) string {
			return header + "\n\n" + timeSeries(*rep.Single, opt.Width, opt.Height)
		},
	})
}

// summaryFigure registers a cell-list sweep rendered as a header plus
// the normalized summary table.
func summaryFigure(name, desc, header string, inAll bool, scens func(scaleRacks int) []replay.Scenario) {
	Figures.Register(name, Figure{
		Name:  name,
		Desc:  desc,
		InAll: inAll,
		Spec: func(opt FigureOptions) (RunSpec, error) {
			return specFromList(name, opt.Racks, scens(opt.Racks))
		},
		Render: func(rep Report, opt FigureOptions) string {
			return header + summaryTable(rep.Table.Results())
		},
	})
}

func init() {
	staticFigs := []struct {
		name, desc string
		fn         func() string
	}{
		{"2", "power consumption and switch-off bonus per hierarchy level", fig2},
		{"3", "max power vs normalized execution time per app and frequency", fig3},
		{"4", "the measured Curie power table", fig4},
		{"5", "the rho mechanism-selection criterion", fig5},
	}
	for _, f := range staticFigs {
		fn := f.fn
		Figures.Register(f.name, Figure{Name: f.name, Desc: f.desc, InAll: true, Static: fn})
	}

	singleFigure("6", "24 h workload under MIX with a 1 h 40% reservation",
		"Figure 6: 24 h workload, MIX policy, 1 h reservation at 40%", replay.Fig6Scenario)
	singleFigure("7a", "bigjob workload under SHUT at a 60% cap",
		"Figure 7a: bigjob workload, SHUT policy, 60% cap", replay.Fig7aScenario)
	singleFigure("7b", "smalljob workload under DVFS at a 40% cap",
		"Figure 7b: smalljob workload, DVFS policy, 40% cap", replay.Fig7bScenario)

	Figures.Register("8", Figure{
		Name:  "8",
		Desc:  "the Figure 8 grid: workloads x caps x policies, normalized bars",
		InAll: true,
		Spec: func(opt FigureOptions) (RunSpec, error) {
			return specFromList("fig8", opt.Racks, replay.Fig8Scenarios(opt.Racks))
		},
		Render: func(rep Report, opt FigureOptions) string {
			rs := rep.Table.Results()
			return fig8(rs) + "\n" + summaryTable(rs)
		},
	})

	summaryFigure("claims", "the Section VII-C 24 h policy comparison",
		"Section VII-C 24 h claims (SHUT vs DVFS vs MIX vs IDLE at 40%)\n\n",
		true, replay.Claims24hScenarios)
	summaryFigure("ablation", "grouping, MIX-floor and dynamic-DVFS ablations",
		"Ablations: grouped vs scattered shutdown; MIX floor vs full-range DVFS;\nstatic vs dynamic DVFS\n\n",
		true, func(scale int) []replay.Scenario {
			scens := append(replay.AblationGroupingScenarios(scale), replay.AblationMixFloorScenarios(scale)...)
			return append(scens, replay.AblationDynamicDVFSScenarios(scale)...)
		})

	Figures.Register("sweep", Figure{
		Name: "sweep",
		Desc: "the full evaluation grid: every interval x cap x policy",
		Spec: func(opt FigureOptions) (RunSpec, error) {
			grid := experiment.Grid{
				Name: "full-sweep",
				Workloads: []trace.Config{
					{Kind: trace.BigJob, Seed: 1003},
					{Kind: trace.MedianJob, Seed: 1001},
					{Kind: trace.SmallJob, Seed: 1002},
					{Kind: trace.Day24h, Seed: 1004},
				},
				CapFractions: []float64{0, 0.8, 0.6, 0.4},
				Policies:     []core.Policy{core.PolicyShut, core.PolicyDvfs, core.PolicyMix},
				Base:         replay.Scenario{ScaleRacks: opt.Racks},
			}
			return specFromList("full-sweep", opt.Racks, grid.Scenarios())
		},
		Render: func(rep Report, opt FigureOptions) string {
			return rep.Table.ASCII(40)
		},
	})

	Figures.Register("scenarios", Figure{
		Name: "scenarios",
		Desc: "the extended workload library swept across caps and policies",
		Spec: func(opt FigureOptions) (RunSpec, error) {
			return specFromList("scenarios", opt.Racks, replay.LibraryScenarios(opt.Racks))
		},
		Render: func(rep Report, opt FigureOptions) string {
			return "Scenario library: paper intervals + diurnal/bursty/heavytail\n\n" + rep.Table.ASCII(40)
		},
	})

	Figures.Register("federation", Figure{
		Name: "federation",
		Desc: "the federated multi-cluster sweep: fleet x budget x division",
		Spec: func(opt FigureOptions) (RunSpec, error) {
			return RunSpec{
				Name:         "federation",
				Racks:        opt.Racks,
				CapFractions: []float64{0.5, 0.6},
				Federation: &FederationSpec{
					MemberCounts: []int{2, 3},
					Divisions:    []string{replay.DivideProRata.String(), replay.DivideDemand.String()},
				},
			}, nil
		},
		Render: func(rep Report, opt FigureOptions) string {
			return "Federated multi-cluster sweep: fleet size x site budget x division policy\n\n" +
				rep.FederationTable.ASCII(opt.Width)
		},
	})
}
