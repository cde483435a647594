package experiment

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// row is the stable export form of one sweep cell: scenario identity,
// headline metrics, and the cell's wall-clock cost. Field names are the
// CSV header and the JSON keys.
type row struct {
	Index        int     `json:"index"`
	Name         string  `json:"name"`
	Workload     string  `json:"workload"`
	Policy       string  `json:"policy"`
	CapFraction  float64 `json:"cap_fraction"`
	Racks        int     `json:"racks"`
	Cores        int     `json:"cores"`
	EnergyJ      float64 `json:"energy_j"`
	WorkCoreSec  float64 `json:"work_core_sec"`
	PeakPowerW   float64 `json:"peak_power_w"`
	MeanPowerW   float64 `json:"mean_power_w"`
	Submitted    int     `json:"jobs_submitted"`
	Launched     int     `json:"jobs_launched"`
	Completed    int     `json:"jobs_completed"`
	Killed       int     `json:"jobs_killed"`
	Rescales     int     `json:"rescales"`
	MeanWaitSec  float64 `json:"mean_wait_sec"`
	MeanBSLD     float64 `json:"mean_bsld"`
	NormEnergy   float64 `json:"norm_energy"`
	NormWork     float64 `json:"norm_work"`
	NormLaunched float64 `json:"norm_launched"`
	PlanOffNodes int     `json:"plan_off_nodes"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	Error        string  `json:"error,omitempty"`
}

func exportRow(r Result) row {
	e := row{
		Index:       r.Index,
		Name:        r.Scenario.Name,
		Workload:    r.Scenario.Workload.Kind.String(),
		Policy:      r.Scenario.Policy.String(),
		CapFraction: r.Scenario.CapFraction,
		Racks:       r.Scenario.Machine().Racks,
		Cores:       r.Cores,
		ElapsedMS:   float64(r.Elapsed.Microseconds()) / 1000,
	}
	if r.Err != nil {
		e.Error = r.Err.Error()
		return e
	}
	s := r.Summary
	e.EnergyJ = float64(s.EnergyJ)
	e.WorkCoreSec = s.WorkCoreSec
	e.PeakPowerW = float64(s.PeakPower)
	e.MeanPowerW = float64(s.MeanPower)
	e.Submitted = s.JobsSubmitted
	e.Launched = s.JobsLaunched
	e.Completed = s.JobsCompleted
	e.Killed = s.JobsKilled
	e.Rescales = s.Rescales
	e.MeanWaitSec = s.MeanWaitSec
	e.MeanBSLD = s.MeanBSLD
	e.NormEnergy = s.NormEnergy
	e.NormWork = s.NormWork
	e.NormLaunched = s.NormLaunched
	e.PlanOffNodes = len(r.Plan.OffNodes)
	return e
}

func (e row) index() int { return e.Index }

func (e row) untimed() row {
	e.ElapsedMS = 0
	return e
}

// csvHeader is the fixed column order of WriteCSV.
var csvHeader = []string{
	"index", "name", "workload", "policy", "cap_fraction", "racks", "cores",
	"energy_j", "work_core_sec", "peak_power_w", "mean_power_w",
	"jobs_submitted", "jobs_launched", "jobs_completed", "jobs_killed",
	"rescales", "mean_wait_sec", "mean_bsld",
	"norm_energy", "norm_work", "norm_launched", "plan_off_nodes",
	"elapsed_ms", "error",
}

func (e row) record() []string {
	return []string{
		strconv.Itoa(e.Index), e.Name, e.Workload, e.Policy,
		csvFloat(e.CapFraction), strconv.Itoa(e.Racks), strconv.Itoa(e.Cores),
		csvFloat(e.EnergyJ), csvFloat(e.WorkCoreSec), csvFloat(e.PeakPowerW), csvFloat(e.MeanPowerW),
		strconv.Itoa(e.Submitted), strconv.Itoa(e.Launched),
		strconv.Itoa(e.Completed), strconv.Itoa(e.Killed),
		strconv.Itoa(e.Rescales), csvFloat(e.MeanWaitSec), csvFloat(e.MeanBSLD),
		csvFloat(e.NormEnergy), csvFloat(e.NormWork), csvFloat(e.NormLaunched),
		strconv.Itoa(e.PlanOffNodes), csvFloat(e.ElapsedMS), e.Error,
	}
}

func csvFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func (t Table) cells() sweepCells[Result, row] {
	return sweepCells[Result, row]{t.Rows, exportRow, csvHeader,
		func(r Result) (string, error) { return r.Scenario.Name, r.Err }}
}

// Errs collects the per-cell errors (nil entries omitted).
func (t Table) Errs() []error { return t.cells().errs() }

// WriteJSON serializes the sweep (cells in grid order, sweep timing
// included) as indented JSON.
func (t Table) WriteJSON(w io.Writer) error {
	serial, speedup := float64(t.SerialCost().Microseconds())/1000, t.Speedup()
	return t.cells().writeJSON(w, envelope[row]{
		Name:         t.Name,
		Workers:      t.Workers,
		ElapsedMS:    float64(t.Elapsed.Microseconds()) / 1000,
		SerialCostMS: &serial,
		Speedup:      &speedup,
	})
}

// WriteCSV writes the summary table — one line per cell in grid order.
// (Per-run time series stay with replay.WriteSeriesCSV; this file is
// the cross-scenario comparison.)
func (t Table) WriteCSV(w io.Writer) error { return t.cells().writeCSV(w) }

// Fingerprint hashes the sweep's aggregated metrics — everything except
// the timing fields, which legitimately vary run to run. Two sweeps of
// the same grid must fingerprint identically at any worker count; the
// sweep benchmark and the determinism tests rely on this.
func (t Table) Fingerprint() string { return t.cells().fingerprint() }

// exportedRow is what the shared table code needs from the stable
// export form of one cell (row, fedRow).
type exportedRow[E any] interface {
	index() int
	// untimed returns the row with its wall-clock field zeroed.
	untimed() E
	// record is the row's CSV line, in header order.
	record() []string
}

// sweepCells is the half Table and FederationTable share — error
// collection, the JSON envelope, the CSV loop and the fingerprint —
// over sweep cells of type R, parameterised by the row exporter.
type sweepCells[R any, E exportedRow[E]] struct {
	rows   []R
	export func(R) E
	header []string
	// failed names the cell's scenario and returns its error, if any.
	failed func(R) (scenario string, err error)
}

func (c sweepCells[R, E]) errs() []error {
	var errs []error
	for _, r := range c.rows {
		if name, err := c.failed(r); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
	}
	return errs
}

// envelope is the JSON form of a sweep. Only single-cluster sweeps set
// the serial-cost accounting; federated ones omit both keys.
type envelope[E any] struct {
	Name         string   `json:"name"`
	Cells        int      `json:"cells"`
	Workers      int      `json:"workers"`
	ElapsedMS    float64  `json:"elapsed_ms"`
	SerialCostMS *float64 `json:"serial_cost_ms,omitempty"`
	Speedup      *float64 `json:"speedup,omitempty"`
	Rows         []E      `json:"rows"`
}

func (c sweepCells[R, E]) writeJSON(w io.Writer, env envelope[E]) error {
	env.Cells = len(c.rows)
	env.Rows = make([]E, len(c.rows))
	for i, r := range c.rows {
		env.Rows[i] = c.export(r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}

func (c sweepCells[R, E]) writeCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(c.header); err != nil {
		return err
	}
	for _, r := range c.rows {
		if err := cw.Write(c.export(r).record()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func (c sweepCells[R, E]) fingerprint() string {
	rows := make([]E, len(c.rows))
	for i, r := range c.rows {
		rows[i] = c.export(r).untimed()
	}
	// Rows are already in grid order, but guard against callers that
	// assembled a table by hand.
	sort.Slice(rows, func(i, j int) bool { return rows[i].index() < rows[j].index() })
	b, err := json.Marshal(rows)
	if err != nil {
		// row marshaling cannot fail on these field types
		panic(fmt.Sprintf("experiment: fingerprint marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
