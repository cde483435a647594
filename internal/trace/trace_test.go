package trace

import (
	"bytes"
	"io"
	"sort"
	"strings"
	"testing"

	"repro/internal/job"
)

func sameJob(a, b *job.Job) bool {
	return a.ID == b.ID && a.User == b.User && a.Cores == b.Cores &&
		a.Submit == b.Submit && a.Runtime == b.Runtime && a.Walltime == b.Walltime
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Kind: MedianJob, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Kind: MedianJob, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !sameJob(a[i], b[i]) {
			t.Fatalf("job %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, err := Generate(Config{Kind: MedianJob, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if !sameJob(a[i], c[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGenerateMedianShape(t *testing.T) {
	jobs, err := Generate(Config{Kind: MedianJob, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(jobs, 80640*3600)
	// Section VII-B: 69% small-short, 0.1% huge, overloaded queue,
	// walltimes overestimated by ~4 orders of magnitude.
	if s.SmallShort < 0.55 || s.SmallShort > 0.82 {
		t.Errorf("small-short fraction = %.3f, want near 0.69", s.SmallShort)
	}
	if s.Huge > 0.02 {
		t.Errorf("huge fraction = %.4f, want about 0.001", s.Huge)
	}
	capacity := int64(80640) * MedianJob.Duration()
	if s.TotalCoreSec < capacity*3/2 {
		t.Errorf("total work %d core-sec < 1.5x capacity %d: not overloaded", s.TotalCoreSec, capacity)
	}
	if s.MedianOverEst < 500 {
		t.Errorf("median walltime overestimation = %.0fx, want >> 500x", s.MedianOverEst)
	}
	if s.BacklogAtuZero == 0 {
		t.Error("no backlog at t=0")
	}
	if s.MaxCores > 80640 {
		t.Errorf("a job exceeds the machine: %d cores", s.MaxCores)
	}
	if s.DistinctUsers < 10 {
		t.Errorf("only %d distinct users", s.DistinctUsers)
	}
}

func TestGenerateKindContrast(t *testing.T) {
	small, err := Generate(Config{Kind: SmallJob, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Generate(Config{Kind: BigJob, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ss := Summarize(small, 80640*3600)
	bs := Summarize(big, 80640*3600)
	if ss.SmallShort <= bs.SmallShort {
		t.Errorf("smalljob small fraction %.3f <= bigjob %.3f", ss.SmallShort, bs.SmallShort)
	}
	if len(small) <= len(big) {
		t.Errorf("smalljob has %d jobs, bigjob %d: small-dominated interval should need more jobs",
			len(small), len(big))
	}
}

func TestGenerate24h(t *testing.T) {
	jobs, err := Generate(Config{Kind: Day24h, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(jobs, 80640*3600)
	if s.HorizonSec > 24*3600 {
		t.Errorf("submissions beyond the 24 h interval: %d", s.HorizonSec)
	}
	capacity := int64(80640) * Day24h.Duration()
	if s.TotalCoreSec < capacity*3/2 {
		t.Errorf("24 h interval underloaded: %d < %d", s.TotalCoreSec, capacity*3/2)
	}
}

func TestGenerateSortedAndValid(t *testing.T) {
	jobs, err := Generate(Config{Kind: BigJob, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
		if i > 0 && jobs[i-1].Submit > j.Submit {
			t.Fatalf("jobs not sorted by submit at %d", i)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{Kind: MedianJob, DurationSec: -5}); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := Generate(Config{Kind: MedianJob, Cores: -1}); err == nil {
		t.Error("negative cores accepted")
	}
	if _, err := Generate(Config{Kind: MedianJob, BacklogFraction: 2}); err == nil {
		t.Error("backlog > 1 accepted")
	}
	if _, err := Generate(Config{Kind: MedianJob, LoadFactor: -1}); err == nil {
		t.Error("negative load accepted")
	}
}

func TestGenerateSmallMachine(t *testing.T) {
	jobs, err := Generate(Config{Kind: MedianJob, Seed: 3, Cores: 192, DurationSec: 3600})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("no jobs for small machine")
	}
	for _, j := range jobs {
		if j.Cores > 192 {
			t.Fatalf("job wider than machine: %d cores", j.Cores)
		}
	}
}

func TestKindParseAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"medianjob", MedianJob}, {"median", MedianJob},
		{"smalljob", SmallJob}, {"small", SmallJob},
		{"bigjob", BigJob}, {"big", BigJob},
		{"24h", Day24h}, {"day", Day24h},
	} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v,%v", tc.in, got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("unknown kind accepted")
	}
	if MedianJob.String() != "medianjob" || Day24h.String() != "24h" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown Kind string wrong")
	}
	if MedianJob.Duration() != 5*3600 || Day24h.Duration() != 24*3600 {
		t.Error("durations wrong")
	}
}

// readSWF parses an SWF stream into jobs sorted by (submit, id): what
// SWFSource.Load does for a file.
func readSWF(r io.Reader) ([]*job.Job, error) {
	out, err := Collect(NewScanner(r))
	if err != nil {
		return nil, err
	}
	SortBySubmit(out)
	return out, nil
}

func TestSWFRoundTrip(t *testing.T) {
	jobs, err := Generate(Config{Kind: SmallJob, Seed: 21, Cores: 1024, DurationSec: 1800})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSWF(&buf, jobs, "synthetic test trace\nline two"); err != nil {
		t.Fatal(err)
	}
	back, err := readSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(jobs) {
		t.Fatalf("round trip lost jobs: %d vs %d", len(back), len(jobs))
	}
	for i := range jobs {
		a, b := jobs[i], back[i]
		if a.ID != b.ID || a.Cores != b.Cores || a.Submit != b.Submit ||
			a.Runtime != b.Runtime || a.Walltime != b.Walltime || a.User != b.User {
			t.Fatalf("job %d mismatch:\n  wrote %+v\n  read  %+v", i, a, b)
		}
	}
}

func TestReadSWFSkipsAndFilters(t *testing.T) {
	in := `; Comment header
; Another comment

1 0 -1 100 64 -1 -1 64 3600 -1 1 5 -1 -1 -1 -1 -1 -1
2 10 -1 -1 64 -1 -1 64 3600 -1 0 5 -1 -1 -1 -1 -1 -1
3 20 -1 50 -1 -1 -1 32 -1 -1 1 6 -1 -1 -1 -1 -1 -1
4 -5 -1 50 0 -1 -1 -1 3600 -1 1 6 -1 -1 -1 -1 -1 -1
`
	jobs, err := readSWF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Job 2 has unknown runtime (skipped), job 4 has no procs (skipped).
	if len(jobs) != 2 {
		t.Fatalf("got %d jobs, want 2: %+v", len(jobs), jobs)
	}
	if jobs[0].ID != 1 || jobs[0].Cores != 64 || jobs[0].Runtime != 100 || jobs[0].Walltime != 3600 {
		t.Errorf("job 1 parsed wrong: %+v", jobs[0])
	}
	// Job 3: procs falls back to requested, walltime clamps up to runtime.
	if jobs[1].Cores != 32 || jobs[1].Walltime != 50 {
		t.Errorf("job 3 parsed wrong: %+v", jobs[1])
	}
	if jobs[0].User != "user5" {
		t.Errorf("user parsed wrong: %q", jobs[0].User)
	}
}

func TestReadSWFErrors(t *testing.T) {
	if _, err := readSWF(strings.NewReader("1 2 3\n")); err == nil {
		t.Error("short line accepted")
	}
	if _, err := readSWF(strings.NewReader("a b c d e f g h i j k l m n o p q r\n")); err == nil {
		t.Error("non-numeric line accepted")
	}
}

func TestReadSWFSortsBySubmit(t *testing.T) {
	in := `2 100 -1 10 1 -1 -1 1 10 -1 1 1 -1 -1 -1 -1 -1 -1
1 50 -1 10 1 -1 -1 1 10 -1 1 1 -1 -1 -1 -1 -1 -1
`
	jobs, err := readSWF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].ID != 1 || jobs[1].ID != 2 {
		t.Errorf("not sorted by submit: %v %v", jobs[0].ID, jobs[1].ID)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, 1000)
	if s.Jobs != 0 || s.SmallShort != 0 || s.MedianOverEst != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeZeroRuntime(t *testing.T) {
	jobs := []*job.Job{{ID: 1, Cores: 4, Runtime: 0, Walltime: 100}}
	s := Summarize(jobs, 1000)
	if s.ZeroRuntimeJobs != 1 {
		t.Errorf("ZeroRuntimeJobs = %d", s.ZeroRuntimeJobs)
	}
}

func TestLibraryKindsParseAndDuration(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"diurnal", Diurnal}, {"bursty", Bursty}, {"burst", Bursty},
		{"heavytail", HeavyTail}, {"heavy", HeavyTail},
	} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v,%v", tc.in, got, err)
		}
	}
	if Diurnal.String() != "diurnal" || Bursty.String() != "bursty" || HeavyTail.String() != "heavytail" {
		t.Error("library Kind strings wrong")
	}
	if Diurnal.Duration() != 24*3600 {
		t.Error("diurnal interval must span a full day")
	}
	if Bursty.Duration() != 5*3600 || HeavyTail.Duration() != 5*3600 {
		t.Error("bursty/heavytail intervals must be 5 h")
	}
}

// submitHistogram buckets submit times into nBuckets over [0, dur).
func submitHistogram(jobs []*job.Job, dur int64, nBuckets int) []int {
	h := make([]int, nBuckets)
	for _, j := range jobs {
		i := int(j.Submit * int64(nBuckets) / dur)
		if i >= nBuckets {
			i = nBuckets - 1
		}
		h[i]++
	}
	return h
}

func TestGenerateDiurnalShape(t *testing.T) {
	cfg := Config{Kind: Diurnal, Seed: 1005, Cores: 1440}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || !sameJob(a[0], b[0]) || !sameJob(a[len(a)-1], b[len(b)-1]) {
		t.Fatal("diurnal generation not deterministic")
	}
	// Day/night contrast: mid-day (10h-14h) must out-submit the
	// midnight trough (22h-24h plus 0h-2h, excluding the t=0 backlog).
	var arrived []*job.Job
	for _, j := range a {
		if j.Submit > 0 {
			arrived = append(arrived, j)
		}
	}
	h := submitHistogram(arrived, Diurnal.Duration(), 12)
	day := h[5] + h[6]
	night := h[0] + h[11]
	if day < 3*night {
		t.Errorf("diurnal contrast too weak: day %d vs night %d", day, night)
	}
	for i, j := range a {
		if err := j.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
	}
}

func TestGenerateBurstyShape(t *testing.T) {
	jobs, err := Generate(Config{Kind: Bursty, Seed: 1006, Cores: 1440})
	if err != nil {
		t.Fatal(err)
	}
	// Storms: with >=70% of jobs inside bursts of ~6 min around at most
	// 7 centers, the busiest tenth of 1-minute buckets must hold well
	// over half the non-backlog jobs.
	dur := Bursty.Duration()
	h := submitHistogram(jobs, dur, int(dur/60))
	total := 0
	for _, n := range h[1:] { // bucket 0 holds the t=0 backlog
		total += n
	}
	sort.Ints(h[1:])
	top := 0
	for _, n := range h[len(h)-len(h)/10:] {
		top += n
	}
	if top < total/2 {
		t.Errorf("bursty arrivals too uniform: top decile holds %d of %d", top, total)
	}
}

func TestGenerateHeavyTailShape(t *testing.T) {
	jobs, err := Generate(Config{Kind: HeavyTail, Seed: 1007, Cores: 80640})
	if err != nil {
		t.Fatal(err)
	}
	ones, wide := 0, 0
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
		if j.Cores == 1 {
			ones++
		}
		if j.Cores >= 1000 {
			wide++
		}
	}
	// Pareto widths: single-core jobs dominate, yet a real tail of
	// >=1000-core jobs exists.
	if ones < len(jobs)/2 {
		t.Errorf("heavytail: only %d/%d single-core jobs", ones, len(jobs))
	}
	if wide == 0 {
		t.Error("heavytail: no wide-tail jobs at all")
	}
}

func TestLibraryWorkloads(t *testing.T) {
	lib := LibraryWorkloads()
	if len(lib) != 7 {
		t.Fatalf("LibraryWorkloads returned %d configs", len(lib))
	}
	seen := map[Kind]bool{}
	for _, w := range lib {
		seen[w.Kind] = true
	}
	for _, k := range []Kind{MedianJob, SmallJob, BigJob, Day24h, Diurnal, Bursty, HeavyTail} {
		if !seen[k] {
			t.Errorf("kind %v missing from LibraryWorkloads()", k)
		}
	}
}

func TestWorkloadsCoverAllKinds(t *testing.T) {
	ws := Workloads()
	if len(ws) != 4 {
		t.Fatalf("Workloads returned %d configs", len(ws))
	}
	seen := map[Kind]bool{}
	for _, w := range ws {
		seen[w.Kind] = true
	}
	for _, k := range []Kind{MedianJob, SmallJob, BigJob, Day24h} {
		if !seen[k] {
			t.Errorf("kind %v missing from Workloads()", k)
		}
	}
}
