package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
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

// TestGenerateBitIdentical pins every field of every generated job, for
// each library workload on a 2-rack and the 56-rack Curie machine, to
// the hashes the generator produced before its user names were interned
// and its sort stopped going through reflection. Every replay downstream
// starts from these lists, so a change here moves every fingerprint.
func TestGenerateBitIdentical(t *testing.T) {
	const coresPerRack = 80640 / 56
	want := map[Kind]map[int]struct {
		jobs int
		sha  string
	}{
		MedianJob: {2: {2085, "c314b902342736d12b83d4deae63de4c5a49ad0ac9de3c3b8a84a474ebe8b7d1"}, 56: {2085, "5250b5bbb4e851d8200e7994613166333e78fe0fad481957cadeab679e2a96a2"}},
		SmallJob:  {2: {6221, "545b1e95934c2952c8f6c6de30fe0399497e892c557e96121470e330054f3641"}, 56: {6221, "3534e7467a94b82a971a7416b431e841898aa4f01e4b80b65360068b4b689325"}},
		BigJob:    {2: {1002, "cd13676e1e4e1d003ca418ffe3b271df2c45f5704b9238c3d5452c1480fa0f0a"}, 56: {1002, "c7a9da8bfc4171e6f0aea02fe8c51074c51dd8b05ad9b7762333a427c00c6c58"}},
		Day24h:    {2: {12051, "3fd76d04045f08fba0453fbf775b83f89f1cdc92e4f39982d3d2afdc4835b9b9"}, 56: {11908, "dd3ac933c71cbecf06ab7dca9567f064ab59c3f9f75f9ec0f9129762be2be654"}},
		Diurnal:   {2: {11343, "2cd716b4d09239e3e0bade5c32d4d43a1adcf8f9a6c453f5e91bdaa160215723"}, 56: {11343, "a685bf87d3325fdfead448e43dc41a8de8473c9448ec55df164f3c0adecd3ae5"}},
		Bursty:    {2: {2506, "e40d84d30130d7b0ac31fa89f7030a7b93663703c2846abc6ae1a34ee416553f"}, 56: {2486, "f72d9da24d3b4edbcd7eb204a98f4d754b8b65e67ab9325bbcddaf508c3caafb"}},
		HeavyTail: {2: {6724, "042be6aac7209a11cb8dee8fc394d59811c532d24c02eee8d16a2203ccc0e9e3"}, 56: {176840, "04712847a3a1bc752a364c3a9e621cf2da0665d05a001bc3e97d381446c285ca"}},
	}
	for _, cfg := range LibraryWorkloads() {
		for _, racks := range []int{2, 56} {
			cfg.Cores = racks * coresPerRack
			jobs, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, j := range jobs {
				// The trailing zeros stand where a job once printed its
				// run state, unset in a generated job, so the pinned
				// hashes still hold.
				fmt.Fprintf(h, "%d|%s|%d|%d|%d|%d|0|0|0|0|[]\n", j.ID, j.User, j.Cores, j.Submit, j.Runtime, j.Walltime)
			}
			w := want[cfg.Kind][racks]
			if got := fmt.Sprintf("%x", h.Sum(nil)); len(jobs) != w.jobs || got != w.sha {
				t.Errorf("%v on %d racks: %d jobs hashing %s, want %d hashing %s", cfg.Kind, racks, len(jobs), got, w.jobs, w.sha)
			}
		}
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

// readSWF parses an SWF stream into jobs sorted by (submit, id).
func readSWF(r io.Reader) ([]*job.Job, error) {
	out, err := collect(NewScanner(r))
	if err != nil {
		return nil, err
	}
	slices.SortStableFunc(out, bySubmit)
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
