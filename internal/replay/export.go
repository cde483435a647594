package replay

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/metrics"
)

// exported mirrors Result with stable JSON field names and without
// unexported machinery; the samples stay in their compact struct form.
type exported struct {
	Name         string         `json:"name"`
	Workload     string         `json:"workload"`
	Policy       string         `json:"policy"`
	CapFraction  float64        `json:"cap_fraction"`
	WindowStart  int64          `json:"window_start,omitempty"`
	WindowEnd    int64          `json:"window_end,omitempty"`
	Racks        int            `json:"racks"`
	Nodes        int            `json:"nodes"`
	Cores        int            `json:"cores"`
	MaxPowerW    float64        `json:"max_power_w"`
	PlanOffNodes int            `json:"plan_off_nodes"`
	PlanSavingW  float64        `json:"plan_saving_w"`
	EnergyJ      float64        `json:"energy_j"`
	WorkCoreSec  float64        `json:"work_core_sec"`
	PeakPowerW   float64        `json:"peak_power_w"`
	MeanPowerW   float64        `json:"mean_power_w"`
	Submitted    int            `json:"jobs_submitted"`
	Launched     int            `json:"jobs_launched"`
	Completed    int            `json:"jobs_completed"`
	Killed       int            `json:"jobs_killed"`
	Rescales     int            `json:"rescales"`
	MeanWaitSec  float64        `json:"mean_wait_sec"`
	NormEnergy   float64        `json:"norm_energy"`
	NormWork     float64        `json:"norm_work"`
	NormLaunched float64        `json:"norm_launched"`
	ByFreq       map[string]int `json:"launched_by_freq"`
	Error        string         `json:"error,omitempty"`
}

func export(r Result) exported {
	e := exported{
		Name:        r.Scenario.Name,
		Workload:    r.Scenario.Workload.Kind.String(),
		Policy:      r.Scenario.Policy.String(),
		CapFraction: r.Scenario.CapFraction,
		Racks:       r.Scenario.Machine().Racks,
		Nodes:       r.Scenario.Machine().Nodes(),
		Cores:       r.Cores,
		MaxPowerW:   float64(r.MaxPower),
		ByFreq:      map[string]int{},
	}
	if r.Scenario.Capped() {
		e.WindowStart, e.WindowEnd = r.Scenario.Window()
	}
	if r.Err != nil {
		e.Error = r.Err.Error()
		return e
	}
	s := r.Summary
	e.PlanOffNodes = len(r.Plan.OffNodes)
	e.PlanSavingW = float64(r.Plan.PlannedSaving)
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
	e.NormEnergy = s.NormEnergy
	e.NormWork = s.NormWork
	e.NormLaunched = s.NormLaunched
	for f, n := range s.LaunchedByFreq {
		e.ByFreq[f.String()] = n
	}
	return e
}

// WriteJSON serializes results (without their sample series) as indented
// JSON, suitable for archiving sweep outcomes.
func WriteJSON(w io.Writer, results []Result) error {
	out := make([]exported, len(results))
	for i, r := range results {
		out[i] = export(r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteSeriesCSV writes one run's time series as CSV: a fixed prefix of
// columns followed by one busy-cores column per frequency that appears in
// the series (ascending). The file plots directly with any tool.
func WriteSeriesCSV(w io.Writer, samples []metrics.Sample) error {
	cw := csv.NewWriter(w)
	freqs := metrics.FreqsUsed(samples)
	header := []string{"t_sec", "power_w", "cap_w", "bonus_w", "busy_nodes", "idle_nodes", "off_nodes", "off_cores"}
	for _, f := range freqs {
		header = append(header, fmt.Sprintf("cores_%dmhz", int(f)))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(header))
	for _, s := range samples {
		row = row[:0]
		row = append(row,
			strconv.FormatInt(s.T, 10),
			strconv.FormatFloat(float64(s.Power), 'f', 1, 64),
			strconv.FormatFloat(float64(s.Cap), 'f', 1, 64),
			strconv.FormatFloat(float64(s.Bonus), 'f', 1, 64),
			strconv.Itoa(s.BusyNodes),
			strconv.Itoa(s.IdleNodes),
			strconv.Itoa(s.OffNodes),
			strconv.Itoa(s.OffCores),
		)
		for _, f := range freqs {
			row = append(row, strconv.Itoa(s.CoresByFreq.At(f)))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
