package replay

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/trace"
)

// writeBigSWF streams n synthetic submit-sorted jobs to an SWF file
// without ever materializing them: 1-4 core jobs, 20-60 s runtimes,
// arrivals spread over spanSec.
func writeBigSWF(t *testing.T, path string, n int, spanSec int64) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := trace.NewWriter(f, "synthetic big trace")
	for i := 0; i < n; i++ {
		j := &job.Job{
			ID:     job.ID(i + 1),
			User:   "user" + string(rune('0'+i%10)),
			Cores:  1 + i%4,
			Submit: int64(i) * spanSec / int64(n),
			// A deterministic runtime mix; walltime over-requested as on
			// Curie.
			Runtime:  20 + int64(i*7%41),
			Walltime: 3600,
		}
		if err := w.Write(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamedSWFReplayBoundedMemory replays a 120k-job SWF trace
// through the streaming scenario path on a one-rack machine and checks
// that the replay (a) ingests every job and (b) never materializes the
// trace: the retained-heap growth must stay far below the ~18 MB a
// full-trace job slice would pin.
func TestStreamedSWFReplayBoundedMemory(t *testing.T) {
	const n = 120000
	const duration = 14400
	path := filepath.Join(t.TempDir(), "big.swf")
	writeBigSWF(t, path, n, duration-400)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	s := Scenario{
		Name:       "big/100%/None",
		Workload:   trace.Config{DurationSec: duration},
		Policy:     core.PolicyNone,
		ScaleRacks: 1,
		SWF:        &trace.SWFSource{Path: path},
	}
	r := run(s)
	if r.Err != nil {
		t.Fatal(r.Err)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)

	if r.Summary.JobsSubmitted != n {
		t.Fatalf("submitted %d jobs, want %d", r.Summary.JobsSubmitted, n)
	}
	if r.Summary.JobsCompleted < n*9/10 {
		t.Fatalf("only %d/%d jobs completed; workload should drain", r.Summary.JobsCompleted, n)
	}
	// Retained heap after the run: the time series and scratch buffers,
	// never the trace. 10 MB is a loose ceiling well below one job slice.
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 10<<20 {
		t.Fatalf("retained heap grew by %d bytes; streaming path must not materialize the trace", growth)
	}
}

// TestStreamedSWFMatchesMaterialized runs the same windowed, rescaled
// SWF interval through the streaming path and through a materialized
// Jobs list and requires identical results.
func TestStreamedSWFMatchesMaterialized(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.swf")
	writeBigSWF(t, path, 5000, 6800)
	src := trace.SWFSource{
		Path:        path,
		WindowStart: 600, WindowEnd: 6600,
		CoresFrom: 4, CoresTo: 2,
	}
	base := Scenario{
		Name:        "swf/60%/SHUT",
		Workload:    trace.Config{DurationSec: 7200},
		Policy:      core.PolicyShut,
		CapFraction: 0.6,
		ScaleRacks:  1,
	}
	streamed := base
	streamed.SWF = &src
	fs, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var jobs []*job.Job
	for {
		j, err := fs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if j == nil {
			break
		}
		jobs = append(jobs, j)
	}
	materialized := base
	materialized.Jobs = jobs

	a, b := run(streamed), run(materialized)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("runs failed: %v / %v", a.Err, b.Err)
	}
	if !reflect.DeepEqual(a.Summary, b.Summary) {
		t.Fatalf("summaries differ:\n stream       %+v\n materialized %+v", a.Summary, b.Summary)
	}
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Fatal("time series differ between streamed and materialized replay")
	}
}

// TestFromSWFScenario runs an SWF-backed scenario end to end.
func TestFromSWFScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.swf")
	writeBigSWF(t, path, 800, 1700)
	s := Scenario{
		Name:        "swf/40%/DVFS",
		Workload:    trace.Config{DurationSec: 1800},
		Policy:      core.PolicyDvfs,
		CapFraction: 0.4,
		SWF:         &trace.SWFSource{Path: path},
		ScaleRacks:  1,
	}
	if got := s.Duration(); got != 1800 {
		t.Fatalf("Duration = %d, want 1800", got)
	}
	r := run(s)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Summary.JobsSubmitted != 800 {
		t.Fatalf("submitted %d, want 800", r.Summary.JobsSubmitted)
	}
}
