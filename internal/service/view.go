package service

import (
	"bytes"
	"encoding/json"
	"time"

	"repro/internal/sim"
)

// StageTimings breaks a run's wall-clock into pipeline stages, all in
// milliseconds: queued (submission to worker pickup), setup
// (validation + normalization + hashing), execute (sim.RunObserved),
// render (sink renderings at retire) and archive (the durable
// write-through; 0 with no archive). Queued, setup and execute are
// recorded as the run turns terminal, render and archive as it retires.
type StageTimings struct {
	QueuedMS  float64 `json:"queued_ms"`
	SetupMS   float64 `json:"setup_ms"`
	ExecuteMS float64 `json:"execute_ms"`
	RenderMS  float64 `json:"render_ms"`
	ArchiveMS float64 `json:"archive_ms,omitempty"`
}

// RunView is the wire form of one run: everything a client needs to
// poll, plus (on demand) the report payload encoded through the json
// sink — the same bytes the CLIs' -json flag writes.
type RunView struct {
	ID       string   `json:"id"`
	SpecHash string   `json:"spec_hash"`
	Name     string   `json:"name,omitempty"`
	Mode     sim.Mode `json:"mode"`
	State    State    `json:"state"`
	Error    string   `json:"error,omitempty"`
	// Tenant is the submitting tenant's name (empty on open daemons).
	Tenant string `json:"tenant,omitempty"`
	// Spec is the normalized spec the run executes. Only the single-run
	// GET carries it: cell-list specs can be megabytes, and a listing
	// of a thousand runs must not amplify every submitted byte back out
	// on each poll.
	Spec *sim.RunSpec `json:"spec,omitempty"`

	// CacheHits counts identical submissions deduped into this run
	// after the first — the heavy-traffic observable.
	CacheHits int `json:"cache_hits"`

	// CellsDone/CellsTotal track sweep progress (0/0 before the first
	// cell finishes).
	CellsDone  int `json:"cells_done"`
	CellsTotal int `json:"cells_total"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// ElapsedMS is the wall-clock execution time so far (or total, once
	// terminal); 0 while queued.
	ElapsedMS float64 `json:"elapsed_ms"`

	// Stages is the per-stage timing breakdown, present on every
	// terminal view: queued, setup and execute from the moment the run
	// turns terminal, render and archive once it has retired.
	Stages *StageTimings `json:"stages,omitempty"`

	// Report carries the json-sink encoding of the finished run's
	// sim.Report; populated only when requested and terminal.
	Report json.RawMessage `json:"report,omitempty"`
}

// Terminal reports whether the viewed run is finished.
func (v RunView) Terminal() bool { return v.State.Terminal() }

// viewLocked renders the run; r.mu must be held. withSpec embeds the
// full normalized spec (the single-run GET), withReport the encoded
// report payload — present only once the run is terminal.
func (r *run) viewLocked(withReport, withSpec bool) RunView {
	return viewFromRecord(r.Record, time.Now(), withReport, withSpec)
}

// viewFromRecord is the one Record -> RunView renderer: live daemon
// runs, gateway routing entries and stored records all render through
// it, so clients cannot tell which tier (or which front) answered. now
// closes the elapsed-time interval of a run still executing. The report
// payload comes from the json rendering when present (stored, or cached
// on a live run as it retires), else is rendered from the live Report.
func viewFromRecord(rec Record, now time.Time, withReport, withSpec bool) RunView {
	v := RunView{
		ID:          rec.ID,
		SpecHash:    rec.SpecHash,
		Name:        rec.Name,
		Mode:        rec.Mode,
		State:       rec.State,
		Error:       rec.Error,
		Tenant:      rec.Tenant,
		CacheHits:   rec.CacheHits,
		CellsDone:   rec.CellsDone,
		CellsTotal:  rec.CellsTotal,
		SubmittedAt: rec.Submitted,
	}
	if withSpec {
		sp := rec.Spec
		v.Spec = &sp
	}
	if !rec.Started.IsZero() {
		t := rec.Started
		v.StartedAt = &t
		end := rec.Finished
		if end.IsZero() {
			end = now
		}
		// Wall readings on both ends: a held run's record keeps the
		// monotonic clock, the archive's decoded one does not, and the
		// two must render the same elapsed time.
		v.ElapsedMS = float64(end.Round(0).Sub(rec.Started.Round(0)).Microseconds()) / 1000
	}
	if !rec.Finished.IsZero() {
		t := rec.Finished
		v.FinishedAt = &t
	}
	if rec.Stages != nil {
		st := *rec.Stages
		v.Stages = &st
	}
	if withReport {
		if b, ok := rec.Renders["json"]; ok {
			v.Report = json.RawMessage(b)
		} else if rec.Report != nil {
			var buf bytes.Buffer
			if err := sim.Export(&buf, "json", *rec.Report, sim.SinkOptions{}); err == nil {
				v.Report = json.RawMessage(buf.Bytes())
			}
		}
	}
	return v
}

// viewsFromRecords renders one listing page (no spec, no report) at a
// single instant.
func viewsFromRecords(page []Record) []RunView {
	now := time.Now()
	views := make([]RunView, 0, len(page))
	for _, rec := range page {
		views = append(views, viewFromRecord(rec, now, false, false))
	}
	return views
}
