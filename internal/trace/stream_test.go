package trace

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/job"
)

// countingStream wraps a Stream and counts Next calls, so tests can
// prove a transform stops pulling early.
type countingStream struct {
	src   Stream
	pulls int
}

func (c *countingStream) Next() (*job.Job, error) {
	c.pulls++
	return c.src.Next()
}

func seqJobs(n int, submitStep int64) []*job.Job {
	out := make([]*job.Job, n)
	for i := range out {
		out[i] = &job.Job{
			ID: job.ID(i + 1), User: "user1", Cores: 2,
			Submit: int64(i) * submitStep, Runtime: 30, Walltime: 300,
		}
	}
	return out
}

// clonedStream yields copies of the given jobs in slice order: the
// transforms under test rewrite what they are handed in place.
func clonedStream(jobs []*job.Job) Stream {
	owned := make([]*job.Job, len(jobs))
	for i, j := range jobs {
		cp := *j
		owned[i] = &cp
	}
	return FromSlice(owned)
}

func TestScannerStreamsInFileOrder(t *testing.T) {
	in := `; header comment
3 20 -1 50 8 -1 -1 8 100 -1 1 2 -1 -1 -1 -1 -1 -1
1 5 -1 10 4 -1 -1 4 20 -1 1 1 -1 -1 -1 -1 -1 -1
2 5 -1 -1 4 -1 -1 4 20 -1 0 1 -1 -1 -1 -1 -1 -1
`
	sc := NewScanner(strings.NewReader(in))
	var ids []job.ID
	for {
		j, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if j == nil {
			break
		}
		ids = append(ids, j.ID)
	}
	// File order, not submit order — and the -1-runtime record dropped.
	if !reflect.DeepEqual(ids, []job.ID{3, 1}) {
		t.Fatalf("ids = %v, want [3 1]", ids)
	}
	if j, err := sc.Next(); j != nil || err != nil {
		t.Errorf("post-end Next = %v, %v", j, err)
	}
}

func TestScannerStickyError(t *testing.T) {
	sc := NewScanner(strings.NewReader("1 2 3\n4 5 6\n"))
	if _, err := sc.Next(); err == nil {
		t.Fatal("short line accepted")
	}
	if _, err := sc.Next(); err == nil {
		t.Fatal("error not sticky")
	}
}

func TestWindowExtractsRebasesAndStopsEarly(t *testing.T) {
	src := &countingStream{src: clonedStream(seqJobs(100, 10))}
	got, err := collect(Window(src, 200, 400))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("window kept %d jobs, want 20", len(got))
	}
	if got[0].ID != 21 || got[0].Submit != 0 {
		t.Errorf("first windowed job = id %d submit %d, want id 21 submit 0", got[0].ID, got[0].Submit)
	}
	if last := got[len(got)-1]; last.Submit != 190 {
		t.Errorf("last rebased submit = %d, want 190", last.Submit)
	}
	// Jobs 1..40 pulled before submit 400 appears at job 41; beyond
	// that the source must never be touched again — the bounded-memory
	// guarantee for windowing a huge archive trace.
	if src.pulls != 41 {
		t.Errorf("source pulled %d times, want 41 (early stop)", src.pulls)
	}
}

func TestWindowKeepsSourceErrorSticky(t *testing.T) {
	// A corrupt record inside the window must keep erroring on every
	// Next, never degrade into a clean EOF.
	sc := NewScanner(strings.NewReader("1 5 -1 10 4 -1 -1 4 20 -1 1 1 -1 -1 -1 -1 -1 -1\nbad line\n"))
	w := Window(sc, 0, 100)
	if j, err := w.Next(); err != nil || j == nil {
		t.Fatalf("first Next = %v, %v", j, err)
	}
	if _, err := w.Next(); err == nil {
		t.Fatal("corrupt record not reported")
	}
	if j, err := w.Next(); err == nil {
		t.Fatalf("window error not sticky: got %v, nil", j)
	}
}

func TestWindowRejectsEmpty(t *testing.T) {
	if _, err := collect(Window(clonedStream(nil), 10, 10)); err == nil {
		t.Error("empty window accepted")
	}
}

func TestScaleTimeAndCores(t *testing.T) {
	jobs := seqJobs(4, 100)
	jobs[3].Cores = 1000
	src := ScaleCores(ScaleTime(clonedStream(jobs), 0.5), 1000, 100)
	got, err := collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if got[2].Submit != 100 {
		t.Errorf("scaled submit = %d, want 100", got[2].Submit)
	}
	if got[0].Cores != 1 {
		t.Errorf("narrow job rescaled to %d cores, want 1 (floor)", got[0].Cores)
	}
	if got[3].Cores != 100 {
		t.Errorf("full-width job rescaled to %d cores, want 100", got[3].Cores)
	}
	if _, err := collect(ScaleTime(clonedStream(nil), 0)); err == nil {
		t.Error("zero time scale accepted")
	}
	if _, err := collect(ScaleCores(clonedStream(nil), 0, 5)); err == nil {
		t.Error("zero machine size accepted")
	}
}

func TestLimit(t *testing.T) {
	got, err := collect(Limit(clonedStream(seqJobs(50, 1)), 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0].ID != 1 || got[9].ID != 10 {
		t.Fatalf("limit yielded %d jobs, first %v last %v", len(got), got[0].ID, got[len(got)-1].ID)
	}
}

// TestStreamingRoundTrip is the Scanner -> Writer -> Scanner golden
// test: a generated workload streamed out and back must survive
// unchanged, and the streaming Writer must produce byte-identical SWF to
// the materialized WriteSWF.
func TestStreamingRoundTrip(t *testing.T) {
	jobs, err := Generate(Config{Kind: SmallJob, Seed: 33, Cores: 2048, DurationSec: 1800})
	if err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	w := NewWriter(&streamed, "round trip")
	n, err := Copy(w, clonedStream(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(jobs) {
		t.Fatalf("Copy wrote %d records, want %d", n, len(jobs))
	}
	var whole bytes.Buffer
	if err := WriteSWF(&whole, jobs, "round trip"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), whole.Bytes()) {
		t.Fatal("streaming Writer output differs from WriteSWF")
	}
	back, err := collect(NewScanner(&streamed))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(jobs) {
		t.Fatalf("round trip lost jobs: %d vs %d", len(back), len(jobs))
	}
	for i := range jobs {
		if !sameJob(jobs[i], back[i]) {
			t.Fatalf("job %d mismatch:\n  wrote %+v\n  read  %+v", i, jobs[i], back[i])
		}
	}
}

func TestSWFEdgeCases(t *testing.T) {
	in := strings.Join([]string{
		"; Version: 2.2",
		"; Computer: test",
		"",
		"  ; indented comment",
		// zero-duration job: kept, walltime falls back to the request
		"1 0 -1 0 4 -1 -1 4 600 -1 1 7 -1 -1 -1 -1 -1 -1",
		// -1 sentinels everywhere they are allowed: procs falls back to
		// requested, walltime to runtime, submit clamps to 0
		"2 -3 -1 42 -1 -1 -1 16 -1 -1 1 -1 -1 -1 -1 -1 -1 -1",
		// truncated record (7 fields >= 5): missing trailing fields read
		// as -1
		"3 50 -1 10 2 -1 -1",
		// unknown runtime and unknown procs: both dropped
		"4 60 -1 -1 8 -1 -1 8 100 -1 0 1 -1 -1 -1 -1 -1 -1",
		"5 70 -1 10 -1 -1 -1 -1 100 -1 1 1 -1 -1 -1 -1 -1 -1",
	}, "\n") + "\n"
	sc := NewScanner(strings.NewReader(in))
	jobs, err := collect(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("got %d jobs, want 3: %+v", len(jobs), jobs)
	}
	if jobs[0].Runtime != 0 || jobs[0].Walltime != 600 {
		t.Errorf("zero-duration job parsed wrong: %+v", jobs[0])
	}
	if jobs[1].Cores != 16 || jobs[1].Walltime != 42 || jobs[1].Submit != 0 || jobs[1].User != "user-1" {
		t.Errorf("sentinel job parsed wrong: %+v", jobs[1])
	}
	if jobs[2].Cores != 2 || jobs[2].Walltime != 10 {
		t.Errorf("truncated record parsed wrong: %+v", jobs[2])
	}
	// The zero-duration job must also flow through the summary path.
	s := Summarize(jobs, 1000)
	if s.ZeroRuntimeJobs != 1 {
		t.Errorf("ZeroRuntimeJobs = %d, want 1", s.ZeroRuntimeJobs)
	}
}

func TestSummarizeStreamMatchesSummarize(t *testing.T) {
	jobs, err := Generate(Config{Kind: MedianJob, Seed: 11, Cores: 4096, DurationSec: 3600})
	if err != nil {
		t.Fatal(err)
	}
	want := Summarize(jobs, int64(4096)*3600)
	got, err := SummarizeStream(clonedStream(jobs), int64(4096)*3600)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming summary differs:\n got %+v\nwant %+v", got, want)
	}
}

// collect drains a stream into a slice.
func collect(src Stream) ([]*job.Job, error) {
	var out []*job.Job
	for {
		j, err := src.Next()
		if err != nil {
			return nil, err
		}
		if j == nil {
			return out, nil
		}
		out = append(out, j)
	}
}

// load materializes src's transformed stream.
func load(src SWFSource) ([]*job.Job, error) {
	fs, err := src.Open()
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	return collect(fs)
}

func TestSWFSourceLoadAppliesTransforms(t *testing.T) {
	jobs := seqJobs(100, 60) // submits 0, 60, ..., 5940
	for _, j := range jobs {
		j.Cores = 512
	}
	dir := t.TempDir()
	path := dir + "/trace.swf"
	var buf bytes.Buffer
	if err := WriteSWF(&buf, jobs, "source test"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	src := SWFSource{
		Path:        path,
		WindowStart: 600, WindowEnd: 3600,
		TimeScale: 0.5,
		CoresFrom: 1024, CoresTo: 128,
		MaxJobs: 20,
	}
	got, err := load(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("loaded %d jobs, want 20 (limit)", len(got))
	}
	if got[0].Submit != 0 || got[1].Submit != 30 {
		t.Errorf("windowed+rescaled submits = %d, %d, want 0, 30", got[0].Submit, got[1].Submit)
	}
	if got[0].Cores != 64 {
		t.Errorf("rescaled cores = %d, want 64", got[0].Cores)
	}
	if _, err := load(SWFSource{Path: dir + "/missing.swf"}); err == nil {
		t.Error("missing file accepted")
	}
	// Open-ended window: from 3000 to the end of the trace.
	open, err := load(SWFSource{Path: path, WindowStart: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if len(open) != 50 || open[0].Submit != 0 {
		t.Errorf("open-ended window loaded %d jobs (first submit %d), want 50 re-based to 0",
			len(open), open[0].Submit)
	}
	// Configured-but-invalid transforms must error, not silently no-op.
	if _, err := load(SWFSource{Path: path, TimeScale: -2}); err == nil {
		t.Error("negative TimeScale silently ignored")
	}
	if _, err := load(SWFSource{Path: path, CoresFrom: 1024}); err == nil {
		t.Error("half-configured core rescale silently ignored")
	}
}

// TestScannerBoundedOnHugeTrace scans a 150k-record synthetic trace
// produced lazily (no backing slice or file) and windows its first 5%,
// proving the pipeline touches only the prefix it needs.
func TestScannerBoundedOnHugeTrace(t *testing.T) {
	const n = 150000
	gen := &swfGenReader{n: n}
	sc := NewScanner(gen)
	got, err := collect(Window(sc, 0, 7500)) // submits are 1/s: first 5%
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7500 {
		t.Fatalf("windowed %d jobs, want 7500", len(got))
	}
	if gen.produced >= n {
		t.Fatalf("window drained the whole %d-record trace (early stop failed)", n)
	}
}

// swfGenReader produces SWF lines on demand: record i submits at second
// i. It never holds more than one line in memory.
type swfGenReader struct {
	n        int
	produced int
	buf      []byte
}

func (g *swfGenReader) Read(p []byte) (int, error) {
	for len(g.buf) == 0 {
		if g.produced >= g.n {
			return 0, fmt.Errorf("swfGenReader: read past end") // Scanner must stop before EOF
		}
		i := g.produced
		g.produced++
		g.buf = []byte(fmt.Sprintf("%d %d -1 %d %d -1 -1 %d %d -1 1 %d -1 -1 -1 -1 -1 -1\n",
			i+1, i, 20+i%40, 1+i%4, 1+i%4, 3600, i%97))
	}
	n := copy(p, g.buf)
	g.buf = g.buf[n:]
	return n, nil
}
