package experiment

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/federation"
	"repro/internal/replay"
	"repro/internal/rjms"
)

// FederationGrid is the declarative form of a federated sweep: the
// cross product of fleet sizes x global cap fractions x division
// policies, each cell a full multi-cluster federation run built from
// the workload scenario library (replay.FederationLibraryScenario).
type FederationGrid struct {
	// Name labels the sweep in exports; empty means "federation".
	Name string
	// MemberCounts is the fleet-size axis.
	MemberCounts []int
	// CapFractions is the global site-budget axis, as fractions of the
	// summed member maximum draws; values must be in (0, 1) — a
	// federation without a budget is just independent clusters.
	CapFractions []float64
	// Divisions is the redistribution-policy axis.
	Divisions []replay.Division
	// ScaleRacks sizes every member machine (0 = full Curie — large;
	// sweeps usually shrink it).
	ScaleRacks int
}

func (g FederationGrid) name() string {
	if g.Name != "" {
		return g.Name
	}
	return "federation"
}

// Scenarios expands the grid in deterministic cell order: member
// counts outermost, then caps, then divisions — the federated
// counterpart of replay.SweepScenarios.
func (g FederationGrid) Scenarios() []replay.FederationScenario {
	var out []replay.FederationScenario
	for _, n := range g.MemberCounts {
		for _, frac := range g.CapFractions {
			for _, div := range g.Divisions {
				out = append(out, replay.FederationLibraryScenario(n, g.ScaleRacks, frac, div))
			}
		}
	}
	return out
}

// FederationResult is one federated sweep cell's outcome plus its
// position and wall-clock cost.
type FederationResult struct {
	federation.Result
	Index   int
	Elapsed time.Duration
}

// FederationTable is an aggregated federated sweep: one row per cell
// in grid order.
type FederationTable struct {
	Name    string
	Rows    []FederationResult
	Workers int
	Elapsed time.Duration
}

// FederationRunner executes federated sweeps on the bounded worker
// pool shared with the single-cluster sweeps. One worker drives one
// whole federation (its N member engines stay single-goroutine); the
// pool parallelism is across cells.
type FederationRunner struct {
	// Workers bounds the pool; <= 0 means GOMAXPROCS.
	Workers int
	// OnResult, when set, observes each finished cell (serialized
	// across workers).
	OnResult func(done, total int, r FederationResult)
	// Observe, when set, sees every member controller of every cell as
	// it is assembled (the federation.Observer contract), tagged with
	// the cell's grid index. Called concurrently across cells; each
	// member controller itself stays single-goroutine.
	Observe func(cell int, memberIndex int, member string, ctl *rjms.Controller)
}

// Run executes the federation scenario list and aggregates the table.
// Rows land at their grid index regardless of scheduling, so the table
// — and its Fingerprint — is identical at any worker count.
func (r FederationRunner) Run(name string, scenarios []replay.FederationScenario) FederationTable {
	t, _ := r.RunContext(context.Background(), name, scenarios)
	return t
}

// RunContext is Run with cancellation, mirroring Runner.RunContext:
// cancelled cells carry their scenario and ctx.Err(), finished cells
// are identical to an uncancelled run's, and the pool is fully drained
// before it returns.
//
// A member workload several cells replay is generated once per sweep,
// by the first of its cells to run, the way Runner shares a sweep's
// workloads; the rows are bit-identical to cells that each generate
// their own, and carry the caller's scenario, not the shared lists.
func (r FederationRunner) RunContext(ctx context.Context, name string, scenarios []replay.FederationScenario) (FederationTable, error) {
	return r.runShared(ctx, name, scenarios, shareWorkloads(memberCells(scenarios)))
}

// memberCells lists a federated sweep's cells for shareWorkloads, each
// as its members.
func memberCells(scenarios []replay.FederationScenario) [][]replay.Scenario {
	cells := make([][]replay.Scenario, len(scenarios))
	for i, fs := range scenarios {
		cells[i] = fs.Members
	}
	return cells
}

// runShared is RunContext over the given shareWorkloads entries, one
// list per cell.
func (r FederationRunner) runShared(ctx context.Context, name string, scenarios []replay.FederationScenario, shared [][]*sharedWorkload) (FederationTable, error) {
	start := time.Now()
	workers := poolSize(r.Workers, len(scenarios))
	rows, err := runCells(ctx, len(scenarios), workers, r.OnResult,
		func(i int) FederationResult {
			t0 := time.Now()
			var observe federation.Observer
			if r.Observe != nil {
				observe = func(mi int, name string, ctl *rjms.Controller) { r.Observe(i, mi, name, ctl) }
			}
			return loadShared(ctx, scenarios[i].Members, shared[i],
				func(members []replay.Scenario) FederationResult {
					fs := scenarios[i]
					fs.Members = members
					res := federation.RunContext(ctx, fs, observe)
					res.Scenario = scenarios[i]
					return FederationResult{Result: res, Index: i, Elapsed: time.Since(t0)}
				},
				func(err error) FederationResult {
					return FederationResult{Result: federation.Result{Scenario: scenarios[i], Err: err}, Index: i, Elapsed: time.Since(t0)}
				})
		},
		func(i int, err error) FederationResult {
			return FederationResult{Result: federation.Result{Scenario: scenarios[i], Err: err}, Index: i}
		})
	return FederationTable{Name: name, Rows: rows, Workers: workers, Elapsed: time.Since(start)}, err
}

// RunFederation expands the grid and executes it with the given worker
// count.
func RunFederation(g FederationGrid, workers int) FederationTable {
	return FederationRunner{Workers: workers}.Run(g.name(), g.Scenarios())
}

// --- export ---------------------------------------------------------

// fedMemberRow is the nested per-member export of one federation cell.
type fedMemberRow struct {
	Name        string  `json:"name"`
	MaxPowerW   float64 `json:"max_power_w"`
	FinalCapW   float64 `json:"final_cap_w"`
	EnergyJ     float64 `json:"energy_j"`
	Launched    int     `json:"jobs_launched"`
	Completed   int     `json:"jobs_completed"`
	MeanBSLD    float64 `json:"mean_bsld"`
	MeanWaitSec float64 `json:"mean_wait_sec"`
}

// fedRow is the stable export form of one federated sweep cell.
type fedRow struct {
	Index         int            `json:"index"`
	Name          string         `json:"name"`
	Members       int            `json:"members"`
	CapFraction   float64        `json:"cap_fraction"`
	Division      string         `json:"division"`
	EpochSec      int64          `json:"epoch_sec"`
	GlobalBudgetW float64        `json:"global_budget_w"`
	PeakGlobalW   float64        `json:"peak_global_w"`
	EnergyJ       float64        `json:"energy_j"`
	WorkCoreSec   float64        `json:"work_core_sec"`
	Submitted     int            `json:"jobs_submitted"`
	Launched      int            `json:"jobs_launched"`
	Completed     int            `json:"jobs_completed"`
	Killed        int            `json:"jobs_killed"`
	MeanBSLD      float64        `json:"mean_bsld"`
	MaxBSLD       float64        `json:"max_bsld"`
	MeanWaitSec   float64        `json:"mean_wait_sec"`
	MemberRows    []fedMemberRow `json:"member_rows"`
	ElapsedMS     float64        `json:"elapsed_ms"`
	Error         string         `json:"error,omitempty"`
}

func exportFedRow(r FederationResult) fedRow {
	e := fedRow{
		Index:       r.Index,
		Name:        r.Scenario.Name,
		Members:     len(r.Scenario.Members),
		CapFraction: r.Scenario.GlobalCapFraction,
		Division:    r.Scenario.Division.String(),
		EpochSec:    r.Scenario.Epoch(),
		ElapsedMS:   float64(r.Elapsed.Microseconds()) / 1000,
	}
	if r.Err != nil {
		e.Error = r.Err.Error()
		return e
	}
	e.GlobalBudgetW = float64(r.GlobalBudgetW)
	e.PeakGlobalW = float64(r.PeakGlobalW)
	e.EnergyJ = float64(r.EnergyJ)
	e.WorkCoreSec = r.WorkCoreSec
	e.Submitted = r.JobsSubmitted
	e.Launched = r.JobsLaunched
	e.Completed = r.JobsCompleted
	e.Killed = r.JobsKilled
	e.MeanBSLD = r.MeanBSLD
	e.MaxBSLD = r.MaxBSLD
	e.MeanWaitSec = r.MeanWaitSec
	for _, m := range r.Members {
		e.MemberRows = append(e.MemberRows, fedMemberRow{
			Name:        m.Name,
			MaxPowerW:   float64(m.MaxPower),
			FinalCapW:   float64(m.FinalCapW),
			EnergyJ:     float64(m.Summary.EnergyJ),
			Launched:    m.Summary.JobsLaunched,
			Completed:   m.Summary.JobsCompleted,
			MeanBSLD:    m.Summary.MeanBSLD,
			MeanWaitSec: m.Summary.MeanWaitSec,
		})
	}
	return e
}

func (e fedRow) index() int { return e.Index }

func (e fedRow) untimed() fedRow {
	e.ElapsedMS = 0
	return e
}

// fedCSVHeader is the fixed column order of WriteCSV (cell-level only;
// member breakdowns live in the JSON export).
var fedCSVHeader = []string{
	"index", "name", "members", "cap_fraction", "division", "epoch_sec",
	"global_budget_w", "peak_global_w", "energy_j", "work_core_sec",
	"jobs_submitted", "jobs_launched", "jobs_completed", "jobs_killed",
	"mean_bsld", "max_bsld", "mean_wait_sec", "elapsed_ms", "error",
}

func (e fedRow) record() []string {
	return []string{
		strconv.Itoa(e.Index), e.Name, strconv.Itoa(e.Members),
		csvFloat(e.CapFraction), e.Division, strconv.FormatInt(e.EpochSec, 10),
		csvFloat(e.GlobalBudgetW), csvFloat(e.PeakGlobalW), csvFloat(e.EnergyJ), csvFloat(e.WorkCoreSec),
		strconv.Itoa(e.Submitted), strconv.Itoa(e.Launched),
		strconv.Itoa(e.Completed), strconv.Itoa(e.Killed),
		csvFloat(e.MeanBSLD), csvFloat(e.MaxBSLD), csvFloat(e.MeanWaitSec),
		csvFloat(e.ElapsedMS), e.Error,
	}
}

func (t FederationTable) cells() sweepCells[FederationResult, fedRow] {
	return sweepCells[FederationResult, fedRow]{t.Rows, exportFedRow, fedCSVHeader,
		func(r FederationResult) (string, error) { return r.Scenario.Name, r.Err }}
}

// Errs collects the per-cell errors (nil entries omitted).
func (t FederationTable) Errs() []error { return t.cells().errs() }

// WriteJSON serializes the federated sweep as indented JSON (cells in
// grid order, nested member rows included).
func (t FederationTable) WriteJSON(w io.Writer) error {
	return t.cells().writeJSON(w, envelope[fedRow]{
		Name:      t.Name,
		Workers:   t.Workers,
		ElapsedMS: float64(t.Elapsed.Microseconds()) / 1000,
	})
}

// WriteCSV writes the cell-level summary table in grid order.
func (t FederationTable) WriteCSV(w io.Writer) error { return t.cells().writeCSV(w) }

// Fingerprint hashes the federated sweep's aggregated metrics with the
// timing fields zeroed — identical for the same grid at any worker
// count (the determinism gate of the federation sweeps).
func (t FederationTable) Fingerprint() string { return t.cells().fingerprint() }

// ASCII renders the federated comparison: one line per cell with the
// headline metrics, followed by a stretch-comparison bar block (mean
// BSLD per cell, width columns wide) — the division-policy contrast at
// a glance.
func (t FederationTable) ASCII(width int) string {
	if width <= 0 {
		width = 40
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d federations, %d workers, %v wall clock\n\n",
		t.Name, len(t.Rows), t.Workers, t.Elapsed.Round(1e6))
	fmt.Fprintf(&b, "%-22s %8s %10s %10s %10s %8s %9s %10s\n",
		"federation", "members", "budget", "peak", "energy", "bsld", "wait(s)", "launched")
	maxBSLD := 0.0
	for _, r := range t.Rows {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-22s ERROR: %v\n", r.Scenario.Name, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-22s %8d %10.3g %10.3g %10.3g %8.2f %9.0f %5d/%-4d\n",
			r.Scenario.Name, len(r.Scenario.Members),
			float64(r.GlobalBudgetW), float64(r.PeakGlobalW), float64(r.EnergyJ),
			r.MeanBSLD, r.MeanWaitSec, r.JobsLaunched, r.JobsSubmitted)
		if r.MeanBSLD > maxBSLD {
			maxBSLD = r.MeanBSLD
		}
	}
	if maxBSLD > 0 {
		fmt.Fprintf(&b, "\nmean bounded slowdown (lower is better)\n")
		for _, r := range t.Rows {
			if r.Err != nil {
				continue
			}
			n := int(r.MeanBSLD / maxBSLD * float64(width))
			fmt.Fprintf(&b, "%-22s %s %.2f\n", r.Scenario.Name, strings.Repeat("#", n), r.MeanBSLD)
		}
	}
	return b.String()
}
