package sim

// The text renderers behind the figure registry and the ascii sink: the
// Figure 2 power-bonus table, the Figure 3 power/time trade-off scatter,
// the Figure 4 node power table, the Figure 5 rho table, the Figure 6/7
// utilization and power time series, and the Figure 8 policy comparison
// bars. Each returns a self-contained string.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/ascii"
	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/replay"
)

// fig2 renders the per-level power consumption and bonus table of
// Figure 2 for the Curie hierarchy, deriving every value from the
// cluster model rather than hard-coding the paper's numbers.
func fig2() string {
	c := cluster.NewCurie()
	topo := c.Topology()
	prof := c.Profile()
	ov := c.Overhead()

	nodeSave := float64(prof.Max() - prof.Down())
	chassisBonus := ov.ChassisWatts + float64(prof.Down())*float64(topo.NodesPerChassis)
	chassisAccum := nodeSave*float64(topo.NodesPerChassis) + chassisBonus
	rackBonus := ov.RackWatts + chassisBonus*float64(topo.ChassisPerRack)
	rackAccum := chassisAccum*float64(topo.ChassisPerRack) + ov.RackWatts

	var b strings.Builder
	b.WriteString("Figure 2: power consumption and saved watts per switch-off level (Curie)\n\n")
	fmt.Fprintf(&b, "%-22s %-18s %-14s %s\n", "Level", "Power consumption", "Power bonus", "Accumulated saving")
	fmt.Fprintf(&b, "%-22s %-18s %-14s %s\n", "Node (down)", fmt.Sprintf("%.0f W", float64(prof.Down())), "-", "-")
	fmt.Fprintf(&b, "%-22s %-18s %-14s %.0f W\n", "Node (max)", fmt.Sprintf("%.0f W", float64(prof.Max())), "-", nodeSave)
	fmt.Fprintf(&b, "%-22s %-18s %-14s %.0f W\n",
		fmt.Sprintf("Chassis (%d nodes)", topo.NodesPerChassis),
		fmt.Sprintf("%.0f W", ov.ChassisWatts),
		fmt.Sprintf("%.0f W", chassisBonus), chassisAccum)
	fmt.Fprintf(&b, "%-22s %-18s %-14s %.0f W\n",
		fmt.Sprintf("Rack (%d chassis)", topo.ChassisPerRack),
		fmt.Sprintf("%.0f W", ov.RackWatts),
		fmt.Sprintf("%.0f W", rackBonus), rackAccum)
	fmt.Fprintf(&b, "\nWorked example (Section VI-A): saving 6600 W needs 20 scattered nodes (6880 W)\n")
	fmt.Fprintf(&b, "but one full chassis of %d nodes saves %.0f W — 2 nodes kept available.\n",
		topo.NodesPerChassis, chassisAccum)
	return b.String()
}

// fig3 renders the maximum power versus normalized execution time
// trade-off of the four measured applications across the frequency
// ladder.
func fig3() string {
	prof := power.CurieProfile()
	pts := apps.Figure3Points(prof)

	var b strings.Builder
	b.WriteString("Figure 3: maximum power vs normalized execution time per CPU frequency\n\n")
	fmt.Fprintf(&b, "%-10s %-9s %-12s %s\n", "App", "Freq", "Max power", "Normalized time")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-10s %-9s %-12s %.3f\n", p.App, p.Freq, p.Watts, p.NormTime)
	}
	sp := make([]ascii.ScatterPoint, len(pts))
	for i, p := range pts {
		sp[i] = ascii.ScatterPoint{X: p.NormTime, Y: float64(p.Watts), Tag: p.App}
	}
	b.WriteByte('\n')
	b.WriteString(ascii.ScatterPlot(sp, 64, 18, 1, 2.4, 100, 400,
		"max watts per node (y) vs normalized execution time (x); marker = first letter of app"))
	return b.String()
}

// fig4 renders the node power table.
func fig4() string {
	prof := power.CurieProfile()
	var b strings.Builder
	b.WriteString("Figure 4: maximum power consumption of a Curie node per state\n\n")
	fmt.Fprintf(&b, "%-16s %s\n", "Node state", "Max power")
	fmt.Fprintf(&b, "%-16s %.0f W\n", "Switch-off", float64(prof.Down()))
	fmt.Fprintf(&b, "%-16s %.0f W\n", "Idle", float64(prof.Idle()))
	for _, f := range prof.Frequencies() {
		fmt.Fprintf(&b, "DVFS %-11s %.0f W\n", f, float64(prof.Busy(f)))
	}
	return b.String()
}

// fig5 renders the degradation/rho/mechanism table.
func fig5() string {
	prof := power.CurieProfile()
	var b strings.Builder
	b.WriteString("Figure 5: DVFS vs switch-off comparison on Curie per benchmark\n\n")
	fmt.Fprintf(&b, "%-14s %-8s %-8s %-12s %s\n", "Benchmark", "degmin", "rho", "Best", "Source")
	for _, r := range apps.Figure5Rows() {
		best := "-"
		if r.Name != "NA" {
			best = r.BestMechanism(prof).String()
		}
		fmt.Fprintf(&b, "%-14s %-8.2f %-+8.3f %-12s %s\n", r.Name, r.DegMin, r.Rho(prof), best, r.Source)
	}
	return b.String()
}

// timeSeries renders the Figure 6/7 style stacked plots for a run: cores
// by frequency (plus switched-off cores) and the cluster power draw,
// with the cap overlaid.
func timeSeries(r replay.Result, width, height int) string {
	samples := r.Samples
	if len(samples) == 0 {
		return "no samples recorded\n"
	}
	freqs := metrics.FreqsUsed(samples)
	// Ascending frequency bands.
	runeFor := map[dvfs.Freq]rune{
		dvfs.F1200: '1', dvfs.F1400: '2', dvfs.F1600: '3', dvfs.F1800: '4',
		dvfs.F2000: 'o', dvfs.F2200: '5', dvfs.F2400: '6', dvfs.F2700: '#',
	}

	var coreSeries []ascii.Series
	for _, f := range freqs {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = float64(s.CoresByFreq.At(f))
		}
		rn, ok := runeFor[f]
		if !ok {
			rn = '?'
		}
		coreSeries = append(coreSeries, ascii.Series{Label: f.String(), Values: vals, Rune: rn})
	}
	offVals := make([]float64, len(samples))
	for i, s := range samples {
		offVals[i] = float64(s.OffCores)
	}
	coreSeries = append(coreSeries, ascii.Series{Label: "switched-off", Values: offVals, Rune: 'x'})

	var b strings.Builder
	fmt.Fprintf(&b, "%s — %d s replayed, %d samples\n\n", r.Scenario.Name,
		r.Summary.End-r.Summary.Start, len(samples))
	b.WriteString(ascii.StackedArea(coreSeries, width, height, float64(r.Cores), 0,
		"cores by CPU frequency (top plot of the paper's figure)", "cores"))
	b.WriteByte('\n')

	// Power plot: the cluster draw, cap as ref.
	draw := make([]float64, len(samples))
	var capLine float64
	for i, s := range samples {
		draw[i] = float64(s.Power)
		if s.Cap > 0 {
			capLine = float64(s.Cap)
		}
	}
	powerSeries := []ascii.Series{{Label: "cluster draw", Values: draw, Rune: '#'}}
	b.WriteString(ascii.StackedArea(powerSeries, width, height, float64(r.MaxPower), capLine,
		"cluster power draw (bottom plot; == marks the reserved cap)", "watts"))
	return b.String()
}

// fig8 renders the normalized energy / launched jobs / work bars for a
// scenario sweep, grouped by workload the way Figure 8 stacks its rows.
func fig8(results []replay.Result) string {
	byWorkload := map[string][]replay.Result{}
	var order []string
	for _, r := range results {
		k := r.Scenario.Workload.Kind.String()
		if _, ok := byWorkload[k]; !ok {
			order = append(order, k)
		}
		byWorkload[k] = append(byWorkload[k], r)
	}
	sort.Strings(order)

	var b strings.Builder
	b.WriteString("Figure 8: normalized energy, launched jobs and work per scenario\n")
	for _, wl := range order {
		rs := byWorkload[wl]
		fmt.Fprintf(&b, "\n== workload %s ==\n", wl)
		var energy, launched, work []ascii.Bar
		for _, r := range rs {
			label := r.Scenario.Label()
			energy = append(energy, ascii.Bar{Label: label, Value: r.Summary.NormEnergy})
			launched = append(launched, ascii.Bar{Label: label, Value: r.Summary.NormLaunched})
			work = append(work, ascii.Bar{Label: label, Value: r.Summary.NormWork})
		}
		b.WriteString(ascii.BarChart(energy, 40, 1, "Energy (normalized)"))
		b.WriteString(ascii.BarChart(launched, 40, 1, "Jobs launched (fraction of submitted)"))
		b.WriteString(ascii.BarChart(work, 40, 1, "Work (fraction of cores x duration)"))
	}
	return b.String()
}

// summaryTable renders one row per result with the headline metrics.
func summaryTable(results []replay.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %10s %10s %8s %8s %7s\n",
		"scenario", "energy", "work", "launched", "normE", "normW", "killed")
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-28s ERROR: %v\n", r.Scenario.Name, r.Err)
			continue
		}
		s := r.Summary
		fmt.Fprintf(&b, "%-28s %10.3g %10.3g %6d/%-4d %8.3f %8.3f %7d\n",
			r.Scenario.Name, float64(s.EnergyJ), s.WorkCoreSec,
			s.JobsLaunched, s.JobsSubmitted, s.NormEnergy, s.NormWork, s.JobsKilled)
	}
	return b.String()
}
