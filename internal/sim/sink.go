package sim

import (
	"fmt"
	"io"
	"os"

	"repro/internal/registry"
	"repro/internal/replay"
)

// SinkOptions parameterize rendering; zero values pick the historical
// defaults (96x16 charts, 40-column comparison bars).
type SinkOptions struct {
	// Width/Height size ASCII charts.
	Width, Height int
}

func (o SinkOptions) withDefaults() SinkOptions {
	if o.Width <= 0 {
		o.Width = 96
	}
	if o.Height <= 0 {
		o.Height = 16
	}
	return o
}

// Sink encodes a Report into one output format. Sinks must handle
// every mode: single results, sweep tables and federation tables all
// flow through the same pipeline, so a CLI (or service) asks for a
// format by name and never dispatches on what kind of run it was.
type Sink func(w io.Writer, rep Report, opt SinkOptions) error

// SinksRegistry holds the output formats: json, csv, ascii. Register
// new encoders here (e.g. a metrics-push or parquet sink) and every
// CLI -json/-csv-style flag surface can name them.
var Sinks = registry.New[Sink]("sink")

func init() {
	Sinks.Register("json", encodeJSON)   // machine-readable results (summaries, tables; no sample series)
	Sinks.Register("csv", encodeCSV)     // time-series CSV for single runs, the summary table for sweeps
	Sinks.Register("ascii", encodeASCII) // the terminal rendering: charts and comparison tables
}

// Export encodes the report in the named format (a Sinks registry
// lookup, so errors enumerate the registered formats).
func Export(w io.Writer, format string, rep Report, opt SinkOptions) error {
	sink, err := Sinks.Lookup(format)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return sink(w, rep, opt)
}

// WriteReportFile encodes the report into a freshly created file — the
// shared backing of every CLI's -json/-csv flags.
func WriteReportFile(path, format string, rep Report, opt SinkOptions) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Export(f, format, rep, opt); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// errEmptyReport makes an unpopulated report a loud error instead of
// silent empty output.
func errEmptyReport() error {
	return fmt.Errorf("sim: report carries no result to encode (run not executed?)")
}

// encodeJSON writes the historical JSON forms: the single-run result
// array, the sweep table envelope, or the federation table envelope —
// byte-identical to what the CLIs wrote before the facade.
func encodeJSON(w io.Writer, rep Report, opt SinkOptions) error {
	switch {
	case rep.Single != nil:
		return replay.WriteJSON(w, []replay.Result{*rep.Single})
	case rep.Table != nil:
		return rep.Table.WriteJSON(w)
	case rep.FederationTable != nil:
		return rep.FederationTable.WriteJSON(w)
	}
	return errEmptyReport()
}

// encodeCSV writes the time series of a single run, or the summary
// table of a sweep — the historical meaning of each CLI's -csv flag.
func encodeCSV(w io.Writer, rep Report, opt SinkOptions) error {
	switch {
	case rep.Single != nil:
		return replay.WriteSeriesCSV(w, rep.Single.Samples)
	case rep.Table != nil:
		return rep.Table.WriteCSV(w)
	case rep.FederationTable != nil:
		return rep.FederationTable.WriteCSV(w)
	}
	return errEmptyReport()
}

// encodeASCII renders the terminal form: the stacked time-series chart
// plus summary for single runs, the comparison tables for sweeps.
func encodeASCII(w io.Writer, rep Report, opt SinkOptions) error {
	opt = opt.withDefaults()
	switch {
	case rep.Single != nil:
		r := *rep.Single
		if r.Err != nil {
			_, err := fmt.Fprintf(w, "%s: ERROR: %v\n", r.Scenario.Name, r.Err)
			return err
		}
		if _, err := io.WriteString(w, timeSeries(r, opt.Width, opt.Height)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "\nsummary: %v\nnormalized: energy=%.3f work=%.3f launched=%.3f mean-wait=%.0fs\n",
			r.Summary, r.Summary.NormEnergy, r.Summary.NormWork, r.Summary.NormLaunched, r.Summary.MeanWaitSec)
		return err
	case rep.Table != nil:
		_, err := io.WriteString(w, rep.Table.ASCII(40))
		return err
	case rep.FederationTable != nil:
		_, err := io.WriteString(w, rep.FederationTable.ASCII(opt.Width))
		return err
	}
	return errEmptyReport()
}

// Fingerprint hashes the report's deterministic content — the sweep
// table fingerprints, or the single run's JSON export — so tests can
// assert that two invocation paths (flags vs a spec file) produced the
// same results bit for bit.
func (r Report) Fingerprint() (string, error) {
	switch {
	case r.Table != nil:
		return r.Table.Fingerprint(), nil
	case r.FederationTable != nil:
		return r.FederationTable.Fingerprint(), nil
	case r.Single != nil:
		h := fingerprintWriter{}
		if err := replay.WriteJSON(&h, []replay.Result{*r.Single}); err != nil {
			return "", err
		}
		return h.Sum(), nil
	}
	return "", errEmptyReport()
}
