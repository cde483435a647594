// Command powersched replays workload scenarios end to end: it
// generates (or loads) a Curie-like workload, runs the powercap-aware
// RJMS under the chosen policy and cap, and prints the Figure 6/7 style
// utilization and power charts plus the run summary.
//
// The command is a thin adapter over the internal/sim facade: flags
// translate into a declarative sim.RunSpec, sim.Run executes it, and
// the -json/-csv exports flow through the shared sink pipeline. The
// same spec can be loaded from (or dumped to) a JSON file:
//
//	powersched -dumpspec run.json -kind 24h -policy MIX -cap 0.4
//	powersched -spec run.json
//
// runs the identical configuration — flag-driven and spec-driven
// invocations of the same RunSpec produce bit-identical results.
//
// -policy and -cap accept comma-separated lists; more than one
// combination switches to sweep mode, where every (policy x cap) cell
// runs in parallel through the internal/experiment engine and the
// result is the aggregated comparison table instead of a single run's
// charts.
//
// With -swf the workload streams from a Standard Workload Format trace
// instead: the file is scanned lazily through the trace pipeline
// (optionally windowed with -window START:END, arrival-rescaled with
// -timescale, and width-rescaled from its native -swfcores machine), so
// archive traces of any size replay in bounded memory. Streaming
// requires the trace to be submit-sorted (the Parallel Workloads
// Archive convention; equal-timestamp records replay in file order) —
// an out-of-order record aborts the replay with a clear error rather
// than reordering causality.
//
// Usage:
//
//	powersched -kind 24h -policy MIX -cap 0.4 [-racks 56] [-seed 1004] \
//	           [-kill] [-scattered] [-lead 0] [-width 100]
//	powersched -kind 24h -policy SHUT,DVFS,MIX -cap 0.4,0.6,0.8 -workers 4
//	powersched -swf curie.swf -window 86400:104400 -swfcores 80640 \
//	           -duration 18000 -policy SHUT -cap 0.6
//	powersched -federate -members 2,3 -division prorata,demand -cap 0.5
//	powersched -spec run.json
//	powersched -remote http://localhost:8080 -policy MIX -cap 0.4
//	powersched -twin examples/specs/twin_demo.json
//
// With -twin the file is a twin.Spec instead: the member clusters run
// as a live digital twin — a signal-driven site budget redistributed at
// every epoch boundary — and each boundary prints one status line.
// This is the in-process demo of the subsystem simd serves over
// /v1/twin.
//
// With -remote the built RunSpec is submitted to a running simd daemon
// instead of executing in-process: the client polls for the report and
// the output (terminal rendering, -json/-csv exports) streams back
// through the daemon's sink pipeline — identical specs submitted by
// many clients execute once, served from the daemon's spec-hash cache.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/replay"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/twin"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the testable entry point: parse flags into a sim.RunSpec (or
// load one), execute through the facade, present the report.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("powersched", flag.ExitOnError)
	var (
		kind      = fs.String("kind", "medianjob", "workload kind: "+sim.Workloads.Join("|"))
		policy    = fs.String("policy", "SHUT", "powercap policies, comma separated: "+sim.Policies.Join("|"))
		capList   = fs.String("cap", "0.6", "powercap fractions of max power, comma separated (>=1 disables)")
		racks     = fs.Int("racks", 56, "machine size in racks (56 = full Curie)")
		seed      = fs.Int64("seed", 1001, "workload seed")
		kill      = fs.Bool("kill", false, "kill jobs when the cap activates above the draw")
		scattered = fs.Bool("scattered", false, "disable bonus-aware grouped shutdown")
		lead      = fs.Int64("lead", 0, "seconds before the window reserved nodes stop taking jobs")
		horizon   = fs.Int64("horizon", 0, "cap planning horizon seconds (0 = default 3600)")
		width     = fs.Int("width", 96, "chart width")
		height    = fs.Int("height", 16, "chart height")
		dynamic   = fs.Bool("dynamic", false, "re-clock running jobs at cap boundaries (Section VIII extension)")
		workers   = fs.Int("workers", 0, "sweep mode: parallel workers (0 = GOMAXPROCS)")
		jsonOut   = fs.String("json", "", "write the run summary (or the sweep results) as JSON to this file")
		csvOut    = fs.String("csv", "", "write the time series (or the sweep summary table) as CSV to this file")
		swfPath   = fs.String("swf", "", "stream this SWF trace instead of the synthetic workload (bounded memory at any trace size; must be submit-sorted, the archive convention)")
		swfWindow = fs.String("window", "", "with -swf: replay the submit window START:END (seconds), re-based to t=0")
		timeScale = fs.Float64("timescale", 0, "with -swf: multiply submit times (0.5 = double the arrival rate)")
		swfCores  = fs.Int("swfcores", 0, "with -swf: the trace's native machine size; job widths are rescaled onto the replayed machine")
		duration  = fs.Int64("duration", 0, "replayed interval seconds (default: the workload kind's length)")
		federate  = fs.Bool("federate", false, "federated mode: run member clusters from the scenario library under a shared site budget")
		members   = fs.String("members", "3", "with -federate: member-cluster counts, comma separated")
		division  = fs.String("division", "demand", "with -federate: budget division policies, comma separated: "+sim.Divisions.Join("|"))
		epoch     = fs.Int64("epoch", 0, "with -federate: redistribution period seconds (0 = 900)")
		specPath  = fs.String("spec", "", "load the run description from this sim.RunSpec JSON file instead of the scenario flags")
		dumpSpec  = fs.String("dumpspec", "", "write the run description as a sim.RunSpec JSON file and exit (start of a scenario library)")
		remote    = fs.String("remote", "", "submit the run to a simd daemon at this base URL (http://host:port) instead of executing locally")
		twinPath  = fs.String("twin", "", "run this twin.Spec JSON file as an in-process live digital twin and print one status line per epoch")
	)
	fs.Parse(args)

	if *twinPath != "" {
		return runTwin(*twinPath, out)
	}

	var spec sim.RunSpec
	if *specPath != "" {
		loaded, err := sim.LoadSpec(*specPath)
		if err != nil {
			return err
		}
		spec = loaded
		if *workers != 0 {
			spec.Workers = *workers
		}
	} else {
		built, err := specFromFlags(*kind, *policy, *capList, *racks, *seed, *kill,
			*scattered, *lead, *horizon, *dynamic, *workers, *swfPath, *swfWindow,
			*timeScale, *swfCores, *duration, *federate, *members, *division, *epoch)
		if err != nil {
			return err
		}
		spec = built
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	spec = spec.Normalize()

	if *dumpSpec != "" {
		if err := sim.WriteSpecFile(*dumpSpec, spec); err != nil {
			return err
		}
		fmt.Fprintf(out, "run spec written to %s\n", *dumpSpec)
		return nil
	}

	if *remote != "" {
		return runRemote(*remote, spec, *width, *height, *csvOut, *jsonOut, out)
	}

	switch spec.Mode {
	case sim.ModeFederation:
		return runFederate(spec, *width, *csvOut, *jsonOut, out)
	case sim.ModeSweep:
		return runSweep(spec, *csvOut, *jsonOut, out)
	default:
		return runSingle(spec, *width, *height, *csvOut, *jsonOut, out)
	}
}

// specFromFlags translates the scenario flag surface into the
// equivalent declarative RunSpec — the whole flag grammar in one place.
func specFromFlags(kind, policy, capList string, racks int, seed int64,
	kill, scattered bool, lead, horizon int64, dynamic bool, workers int,
	swfPath, swfWindow string, timeScale float64, swfCores int, duration int64,
	federate bool, members, division string, epoch int64) (sim.RunSpec, error) {

	caps, err := parseCaps(capList)
	if err != nil {
		return sim.RunSpec{}, err
	}
	scaleRacks := 0
	if racks != 56 {
		scaleRacks = racks
	}
	spec := sim.RunSpec{
		Racks:        scaleRacks,
		CapFractions: caps,
		Workers:      workers,
	}

	if federate {
		counts, err := parseInts(members)
		if err != nil {
			return sim.RunSpec{}, err
		}
		spec.Federation = &sim.FederationSpec{
			MemberCounts: counts,
			Divisions:    splitList(division),
			EpochSec:     epoch,
		}
		return spec, nil
	}

	spec.Workload = sim.WorkloadSpec{Kind: kind, Seed: seed, DurationSec: duration}
	spec.Policies = splitList(policy)
	spec.Options = sim.OptionSpec{
		KillOnOverrun:      kill,
		Scattered:          scattered,
		ReservationLeadSec: lead,
		PlanningHorizonSec: horizon,
		DynamicDVFS:        dynamic,
	}
	if swfPath != "" {
		swf := &sim.SWFSpec{Path: swfPath, TimeScale: timeScale, Cores: swfCores}
		if swfWindow != "" {
			start, end, err := parseWindow(swfWindow)
			if err != nil {
				return sim.RunSpec{}, err
			}
			swf.WindowStartSec, swf.WindowEndSec = start, end
		}
		spec.Workload.SWF = swf
	}
	return spec, nil
}

// export writes the report through the named sink when path is set.
func export(path, format, what string, rep sim.Report, out io.Writer) error {
	if path == "" {
		return nil
	}
	if err := sim.WriteReportFile(path, format, rep, sim.SinkOptions{}); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s written to %s\n", what, path)
	return nil
}

// runSweep fans the (policy x cap) grid out across the worker pool and
// prints the aggregated comparison. -csv/-json switch meaning here:
// they export the sweep table, not a single run's series.
func runSweep(spec sim.RunSpec, csvOut, jsonOut string, out io.Writer) error {
	machine := replay.Scenario{ScaleRacks: spec.Racks}.Machine()
	if spec.Workload.SWF != nil {
		fmt.Fprintf(out, "streaming %s (window %q, timescale %v)\n",
			spec.Workload.SWF.Path, windowLabel(*spec.Workload.SWF), spec.Workload.SWF.TimeScale)
	}
	scens, err := spec.Scenarios()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sweeping %d scenarios on %d racks (%d nodes)...\n",
		len(scens), machine.Racks, machine.Nodes())
	rep, err := sim.RunWith(context.Background(), spec, func(done, total int, cell string, elapsed time.Duration, cellErr error) {
		status := "ok"
		if cellErr != nil {
			status = "FAILED: " + cellErr.Error()
		}
		fmt.Fprintf(out, "  [%d/%d] %-28s %v (%s)\n", done, total, cell, elapsed.Round(1e6), status)
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, rep.Table.ASCII(40))
	if err := export(csvOut, "csv", "sweep summary CSV", rep, out); err != nil {
		return err
	}
	if err := export(jsonOut, "json", "sweep JSON", rep, out); err != nil {
		return err
	}
	if errs := rep.Errs(); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// runSingle is the classic one-scenario replay with the full chart
// output.
func runSingle(spec sim.RunSpec, width, height int, csvOut, jsonOut string, out io.Writer) error {
	machine := replay.Scenario{ScaleRacks: spec.Racks}.Machine()
	if spec.Workload.SWF != nil {
		fmt.Fprintf(out, "streaming %s (window %q, timescale %v)\n",
			spec.Workload.SWF.Path, windowLabel(*spec.Workload.SWF), spec.Workload.SWF.TimeScale)
	}
	scens, err := spec.Scenarios()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replaying %s on %d racks (%d nodes)...\n", scens[0].Name, machine.Racks, machine.Nodes())
	rep, err := sim.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	r := *rep.Single
	if r.Err != nil {
		return r.Err
	}
	if r.Scenario.Capped() {
		start, end := r.Scenario.Window()
		fmt.Fprintf(out, "powercap window: [%d, %d) at %.0f%% of %v\n",
			start, end, r.Scenario.CapFraction*100, r.MaxPower)
		fmt.Fprintf(out, "offline plan: %v, %d nodes reserved for switch-off (saving %v, needed %v)\n",
			r.Plan.Mechanism, len(r.Plan.OffNodes), r.Plan.PlannedSaving, r.Plan.NeededSaving)
	}
	fmt.Fprintln(out)
	if err := sim.Export(out, "ascii", rep, sim.SinkOptions{Width: width, Height: height}); err != nil {
		return err
	}
	fmt.Fprintf(out, "launch frequencies: %v\n", r.Summary.LaunchedByFreq)
	if r.Summary.Rescales > 0 {
		fmt.Fprintf(out, "dynamic re-clocks: %d\n", r.Summary.Rescales)
	}
	if err := export(jsonOut, "json", "summary JSON", rep, out); err != nil {
		return err
	}
	return export(csvOut, "csv", "time series CSV", rep, out)
}

// runFederate runs federated specs: a single (members x cap x
// division) combination replays one federation with the full
// per-member breakdown; any multi-valued axis switches to sweep mode
// over the federated grid.
func runFederate(spec sim.RunSpec, width int, csvOut, jsonOut string, out io.Writer) error {
	single := len(spec.Federation.MemberCounts)*len(spec.CapFractions)*len(spec.Federation.Divisions) == 1

	if single {
		rep, err := sim.Run(context.Background(), spec)
		if err != nil {
			return err
		}
		r := *rep.Federation
		fs := r.Scenario
		fmt.Fprintf(out, "federating %d member clusters (%d racks each) under a %d%% site budget, %s division, %ds epochs...\n",
			len(fs.Members), fs.Members[0].Machine().Racks, int(fs.GlobalCapFraction*100+0.5), fs.Division, fs.Epoch())
		if r.Err != nil {
			return r.Err
		}
		fmt.Fprintf(out, "site budget %v, peak site draw %v, energy %v\n", r.GlobalBudgetW, r.PeakGlobalW, r.EnergyJ)
		fmt.Fprintf(out, "aggregate: launched %d/%d completed %d killed %d mean BSLD %.2f mean wait %.0fs\n\n",
			r.JobsLaunched, r.JobsSubmitted, r.JobsCompleted, r.JobsKilled, r.MeanBSLD, r.MeanWaitSec)
		fmt.Fprintf(out, "%-24s %10s %10s %8s %9s %12s\n", "member", "maxpower", "finalcap", "bsld", "wait(s)", "launched")
		for _, m := range r.Members {
			s := m.Summary
			fmt.Fprintf(out, "%-24s %10.3g %10.3g %8.2f %9.0f %6d/%-5d\n",
				m.Name, float64(m.MaxPower), float64(m.FinalCapW), s.MeanBSLD, s.MeanWaitSec, s.JobsLaunched, s.JobsSubmitted)
		}
		if len(r.Epochs) > 0 {
			fmt.Fprintf(out, "\nshare timeline (%d epochs):\n", len(r.Epochs))
			step := (len(r.Epochs) + 9) / 10 // at most ~10 lines
			for i := 0; i < len(r.Epochs); i += step {
				ep := r.Epochs[i]
				fmt.Fprintf(out, "  t=%6d  caps:", ep.T)
				for _, c := range ep.CapW {
					fmt.Fprintf(out, " %8.3g", float64(c))
				}
				fmt.Fprintf(out, "  pending:")
				for _, p := range ep.PendingCores {
					fmt.Fprintf(out, " %6d", p)
				}
				fmt.Fprintln(out)
			}
		}
		// -csv/-json export the run as a one-cell federation table, the
		// same formats sweep mode writes.
		if err := export(csvOut, "csv", "federation CSV", rep, out); err != nil {
			return err
		}
		return export(jsonOut, "json", "federation JSON", rep, out)
	}

	fscens, err := spec.FederationScenarios()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sweeping %d federations...\n", len(fscens))
	rep, err := sim.RunWith(context.Background(), spec, func(done, total int, cell string, elapsed time.Duration, cellErr error) {
		status := "ok"
		if cellErr != nil {
			status = "FAILED: " + cellErr.Error()
		}
		fmt.Fprintf(out, "  [%d/%d] %-22s %v (%s)\n", done, total, cell, elapsed.Round(1e6), status)
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, rep.FederationTable.ASCII(width))
	if err := export(csvOut, "csv", "federation sweep CSV", rep, out); err != nil {
		return err
	}
	if err := export(jsonOut, "json", "federation sweep JSON", rep, out); err != nil {
		return err
	}
	if errs := rep.Errs(); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// runRemote is the thin-client mode: the built RunSpec goes to a simd
// daemon, the client polls for completion, and every byte of output —
// the terminal rendering and the -json/-csv exports — streams back
// through the daemon's sink pipeline, the same encoders a local run
// uses. No result decoding happens on this side: the API is
// CLI-complete.
func runRemote(base string, spec sim.RunSpec, width, height int, csvOut, jsonOut string, out io.Writer) error {
	return service.NewClient(base).RunAndRender(context.Background(), spec,
		sim.SinkOptions{Width: width, Height: height}, out,
		service.Export{Path: jsonOut, Format: "json", Label: "summary JSON"},
		service.Export{Path: csvOut, Format: "csv", Label: "time series CSV"},
	)
}

// runTwin is the in-process digital-twin demo: load a twin.Spec, run
// the session to its horizon (paced only if the spec says so), print
// one line per epoch boundary and a per-member summary at the end. The
// same spec started through simd's POST /v1/twin streams the identical
// telemetry into the series API.
func runTwin(path string, out io.Writer) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec twin.Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	session, err := twin.New(spec, twin.Config{OnEpoch: func(st twin.Status) {
		fmt.Fprintf(out, "  t=%6d  signal=%.3f  budget=%10.4g W  draw=%10.4g W  caps:",
			st.VirtualTime, st.SignalValue, st.BudgetW, st.PowerW)
		for _, m := range st.Members {
			fmt.Fprintf(out, " %s=%.4g", m.Name, m.CapW)
		}
		fmt.Fprintln(out)
	}})
	if err != nil {
		return err
	}
	st := session.Status()
	fmt.Fprintf(out, "twin %s: %d members, %ds epochs to horizon %ds (real-time ratio %g)\n",
		spec.Name, len(st.Members), st.EpochSec, st.HorizonSec, st.RealTimeRatio)
	if err := session.Run(context.Background()); err != nil {
		return err
	}
	final := session.Status()
	fmt.Fprintf(out, "\n%-24s %12s %12s %8s %8s\n", "member", "final cap W", "max power W", "pending", "running")
	for _, m := range final.Members {
		fmt.Fprintf(out, "%-24s %12.4g %12.4g %8d %8d\n", m.Name, m.CapW, m.MaxPowerW, m.PendingCores, m.RunningJobs)
	}
	return nil
}

// windowLabel reconstructs the -window flag spelling of a spec window.
func windowLabel(s sim.SWFSpec) string {
	if s.WindowStartSec == 0 && s.WindowEndSec == 0 {
		return ""
	}
	return fmt.Sprintf("%d:%d", s.WindowStartSec, s.WindowEndSec)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(part))
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad member count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no member counts given")
	}
	return out, nil
}

func parseWindow(s string) (start, end int64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -window %q, want START:END seconds", s)
	}
	start, err = strconv.ParseInt(parts[0], 10, 64)
	if err == nil {
		end, err = strconv.ParseInt(parts[1], 10, 64)
	}
	if err != nil || start < 0 || end <= start {
		return 0, 0, fmt.Errorf("bad -window %q, want 0 <= START < END", s)
	}
	return start, end, nil
}

func parseCaps(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad cap fraction %q: %v", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no cap fractions given")
	}
	return out, nil
}
