package trace

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/job"
	"repro/internal/registry"
)

// Kind selects one of the four replayed workload intervals of Section
// VII-B.
type Kind int

const (
	// MedianJob is the 5-hour interval with jobs representative of the
	// whole Curie workload.
	MedianJob Kind = iota
	// SmallJob is the 5-hour interval with more small jobs.
	SmallJob
	// BigJob is the 5-hour interval with more big jobs.
	BigJob
	// Day24h is the 24-hour representative interval.
	Day24h

	// The kinds below extend the paper's four intervals into a scenario
	// library; they share the Curie job mix machinery but exercise
	// arrival patterns and size distributions the paper does not.

	// Diurnal is a 24-hour interval whose arrivals follow a day/night
	// sinusoid: submission pressure peaks mid-day at about twelve times
	// the overnight trough, the shape production HPC ingest sees.
	Diurnal
	// Bursty is a 5-hour interval dominated by submission storms:
	// most jobs land in a handful of tight bursts (campaign submissions,
	// array jobs) over a thin uniform background.
	Bursty
	// HeavyTail is a 5-hour interval whose job widths are Pareto
	// distributed: many single-node jobs, a long tail of very wide ones,
	// with no small/medium/huge class structure.
	HeavyTail
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case MedianJob:
		return "medianjob"
	case SmallJob:
		return "smalljob"
	case BigJob:
		return "bigjob"
	case Day24h:
		return "24h"
	case Diurnal:
		return "diurnal"
	case Bursty:
		return "bursty"
	case HeavyTail:
		return "heavytail"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds is the workload-kind registry. The paper's four intervals and
// the library extensions self-register below; ParseKind, flag help and
// the sim facade all read this, so a new kind shows up everywhere at
// once.
var Kinds = registry.New[Kind]("workload kind")

func init() {
	Kinds.Register("medianjob", MedianJob, "median") // 5 h interval representative of the whole Curie mix
	Kinds.Register("smalljob", SmallJob, "small")    // 5 h interval skewed to small jobs
	Kinds.Register("bigjob", BigJob, "big")          // 5 h interval skewed to big jobs
	Kinds.Register("24h", Day24h, "day")             // the 24 h representative interval
	Kinds.Register("diurnal", Diurnal)               // 24 h day/night sinusoid arrivals
	Kinds.Register("bursty", Bursty, "burst")        // 5 h of submission storms over a thin background
	Kinds.Register("heavytail", HeavyTail, "heavy")  // 5 h with Pareto-distributed job widths
}

// ParseKind parses the interval names used on command lines — a
// registry lookup, so unknown-name errors enumerate what is registered.
func ParseKind(s string) (Kind, error) {
	k, err := Kinds.Lookup(s)
	if err != nil {
		return 0, fmt.Errorf("trace: %w", err)
	}
	return k, nil
}

// Duration returns the interval length in seconds (5 h, or 24 h for the
// day-scale kinds).
func (k Kind) Duration() int64 {
	if k == Day24h || k == Diurnal {
		return 24 * 3600
	}
	return 5 * 3600
}

// Config parameterizes the synthetic Curie workload generator.
type Config struct {
	Kind Kind
	Seed int64
	// DurationSec is the interval length; 0 means the kind's default.
	DurationSec int64
	// Cores is the machine size; 0 means Curie's 80640.
	Cores int
	// LoadFactor scales the submitted work relative to the machine's
	// capacity over the interval. The paper's intervals are overloaded:
	// "there are always at least enough jobs in the submission queues
	// to fill a second cluster of the same size", i.e. a factor of 2.
	// 0 means 2.0.
	LoadFactor float64
	// BacklogFraction is the fraction of jobs already queued at t=0
	// (the "interval initial state"); 0 means 0.3.
	BacklogFraction float64
	// Users is the distinct-user count for fairshare; 0 means 150.
	Users int
}

func (c Config) withDefaults() Config {
	if c.DurationSec == 0 {
		c.DurationSec = c.Kind.Duration()
	}
	if c.Cores == 0 {
		c.Cores = 80640
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = 2.0
	}
	if c.BacklogFraction == 0 {
		c.BacklogFraction = 0.3
	}
	if c.Users == 0 {
		c.Users = defaultUsers
	}
	return c
}

// class mix per workload kind; fractions are by job count.
type mix struct{ small, medium float64 } // huge = 1 - small - medium

func kindMix(k Kind) mix {
	switch k {
	case SmallJob:
		return mix{small: 0.85, medium: 0.1495}
	case BigJob:
		return mix{small: 0.52, medium: 0.475}
	default: // MedianJob, Day24h: the paper's whole-workload shape
		return mix{small: 0.69, medium: 0.309}
	}
}

// Generate synthesizes a deterministic workload interval. The same Config
// always yields the identical job list.
func Generate(cfg Config) ([]*job.Job, error) {
	c := cfg.withDefaults()
	if c.DurationSec <= 0 {
		return nil, fmt.Errorf("trace: non-positive duration %d", c.DurationSec)
	}
	if c.Cores <= 0 {
		return nil, fmt.Errorf("trace: non-positive machine size %d", c.Cores)
	}
	if c.LoadFactor < 0 || c.BacklogFraction < 0 || c.BacklogFraction > 1 {
		return nil, fmt.Errorf("trace: invalid load %v / backlog %v", c.LoadFactor, c.BacklogFraction)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	m := kindMix(c.Kind)
	targetWork := c.LoadFactor * float64(c.Cores) * float64(c.DurationSec)
	hugeThreshold := float64(c.Cores) * 3600

	// The library kinds hook in here; the four paper kinds keep the
	// exact sampler and RNG call sequence below, so their workloads (and
	// every downstream sweep fingerprint) are bit-identical across
	// library growth.
	sample := func() *job.Job { return sampleJob(rng, c, m, hugeThreshold) }
	if c.Kind == HeavyTail {
		sample = func() *job.Job { return sampleHeavyTail(rng, c) }
	}

	var jobs []*job.Job
	var work float64
	id := job.ID(1)
	// Hard safety bound against runaway sampling. Sized so every library
	// kind reaches its work target at full Curie scale (heavytail needs
	// the most jobs: its width distribution is dominated by single-core
	// jobs); Generate errors below if a config exhausts it short of the
	// target rather than silently delivering an underloaded interval.
	const maxJobs = 600000
	for work < targetWork && len(jobs) < maxJobs {
		j := sample()
		j.ID = id
		id++
		work += float64(j.Cores) * float64(j.Runtime)
		jobs = append(jobs, j)
	}
	if work < targetWork {
		return nil, fmt.Errorf("trace: %s config needs more than %d jobs to reach load %.2f (got %.2f)",
			c.Kind, maxJobs, c.LoadFactor, c.LoadFactor*work/targetWork)
	}

	// Arrival process: by default a backlog at t=0 plus uniform arrivals
	// over the first 90% of the interval so the queue never drains; the
	// diurnal and bursty kinds substitute their own processes.
	arrive := func(j *job.Job) {
		if rng.Float64() < c.BacklogFraction {
			j.Submit = 0
		} else {
			j.Submit = int64(rng.Float64() * 0.9 * float64(c.DurationSec))
		}
	}
	switch c.Kind {
	case Diurnal:
		arrive = diurnalArrivals(rng, c)
	case Bursty:
		arrive = burstyArrivals(rng, c)
	}
	for _, j := range jobs {
		arrive(j)
	}
	// IDs are unique, so (Submit, ID) orders totally and needs no stable
	// sort.
	slices.SortFunc(jobs, bySubmit)
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("trace: generator produced invalid job: %v", err)
		}
	}
	return jobs, nil
}

// logUniform samples exp(U(ln lo, ln hi)).
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// bits16 returns how many power-of-two size buckets fit below n
// (1 -> 1, 256..511 -> 9), capped at 9 to mirror the 1..256 ladder.
func bits16(n int) int {
	b := 1
	for v := 2; v <= n && b < 9; v *= 2 {
		b++
	}
	return b
}

var walltimeMenu = []int64{1800, 3600, 7200, 14400, 43200, 86400}

// pickWalltime returns a requested time from the common menu, at least
// min, biased towards 24 h — the source of the four-orders-of-magnitude
// overestimation of Section VII-B.
func pickWalltime(rng *rand.Rand, min int64) int64 {
	if rng.Float64() < 0.55 {
		if min <= 86400 {
			return 86400
		}
		return min
	}
	for _, w := range walltimeMenu {
		if w >= min && rng.Float64() < 0.5 {
			return w
		}
	}
	if min < 86400 {
		return 86400
	}
	return min
}

// defaultUsers is Config.Users' default.
const defaultUsers = 150

// userTable holds the "userN" names of the default users, built once,
// so every Generate call hands the jobs of a user one shared string. It
// is never written after init.
var userTable = func() []string {
	t := make([]string, defaultUsers)
	for i := range t {
		t[i] = "user" + strconv.Itoa(i)
	}
	return t
}()

// drawUser draws a job's user; a draw past the table builds its name.
func drawUser(rng *rand.Rand, users int) string {
	i := rng.Intn(users)
	if i < len(userTable) {
		return userTable[i]
	}
	return "user" + strconv.Itoa(i)
}

func sampleJob(rng *rand.Rand, c Config, m mix, hugeThreshold float64) *job.Job {
	u := rng.Float64()
	j := &job.Job{User: drawUser(rng, c.Users)}
	// Size classes scale with the machine so reduced-scale replays keep
	// the Curie shape: "small" tops out at 512 cores of 80640 (0.64%),
	// "medium" spans roughly 0.64%-10% of the machine.
	smallMax := c.Cores * 512 / 80640
	if smallMax < 1 {
		smallMax = 1
	}
	switch {
	case u < m.small:
		// Small and short: <512-equivalent cores, <2 minutes.
		j.Cores = 1 << rng.Intn(bits16(smallMax))
		if rng.Float64() < 0.2 {
			j.Cores = smallMax - smallMax/50
		}
		j.Runtime = int64(logUniform(rng, 2, 115))
	case u < m.small+m.medium:
		// Medium: fractions of a percent to ~10% of the machine.
		// Runtimes stay short — the Curie trace is dominated by jobs of
		// seconds to minutes (median walltime overestimation of 12000x
		// against mostly 24 h requests), with a thin tail up to an
		// hour.
		j.Cores = smallMax << rng.Intn(5)
		j.Runtime = int64(logUniform(rng, 30, 3600))
	default:
		// Huge: "more than the equivalent of the whole cluster for 1
		// hour" — cores x runtime above the cluster-hour. These are
		// wide-and-long rather than machine-wide: a tenth to a third
		// of the machine for many hours.
		width := 10 - rng.Intn(8) // machine/10 .. machine/3
		j.Cores = c.Cores / width
		j.Cores -= j.Cores % 16
		if j.Cores <= 0 {
			j.Cores = 16
		}
		minRun := hugeThreshold/float64(j.Cores) + 1
		j.Runtime = int64(minRun * (1.05 + rng.Float64()))
	}
	if j.Cores > c.Cores {
		j.Cores = c.Cores
	}
	if j.Runtime < 1 {
		j.Runtime = 1
	}
	j.Walltime = pickWalltime(rng, j.Runtime)
	if j.Walltime < j.Runtime {
		j.Walltime = j.Runtime
	}
	return j
}

// sampleHeavyTail draws a HeavyTail job: width from a bounded Pareto
// (alpha ~1.2, so single-core jobs dominate but the widest jobs span a
// large machine fraction), runtime log-uniform from seconds to hours, and
// the usual over-requested walltime menu.
func sampleHeavyTail(rng *rand.Rand, c Config) *job.Job {
	j := &job.Job{User: drawUser(rng, c.Users)}
	const alpha = 1.2
	u := rng.Float64()
	// Clip the unbounded tail exactly where the machine cap sits, so the
	// widest draws reach a machine-wide job on any cluster size.
	if uMax := 1 - math.Pow(float64(c.Cores), -alpha); u > uMax {
		u = uMax
	}
	j.Cores = int(math.Pow(1-u, -1/alpha))
	if j.Cores > c.Cores {
		j.Cores = c.Cores
	}
	if j.Cores < 1 {
		j.Cores = 1
	}
	// Runtimes are heavy-tailed too: minutes to a quarter day,
	// log-uniform, so the width and duration tails compound.
	j.Runtime = int64(logUniform(rng, 30, 6*3600))
	if j.Runtime < 1 {
		j.Runtime = 1
	}
	j.Walltime = pickWalltime(rng, j.Runtime)
	if j.Walltime < j.Runtime {
		j.Walltime = j.Runtime
	}
	return j
}

// diurnalArrivals assigns submit times from a day/night sinusoid: the
// submission intensity is 1 + A*sin(...) with its peak at mid-day and
// its trough at midnight, sampled by rejection so the same seed always
// yields the same trace. A third of the configured backlog still queues
// at t=0 as the interval's initial state.
func diurnalArrivals(rng *rand.Rand, c Config) func(*job.Job) {
	const amplitude = 0.85
	day := float64(86400)
	span := 0.95 * float64(c.DurationSec)
	return func(j *job.Job) {
		if rng.Float64() < c.BacklogFraction/3 {
			j.Submit = 0
			return
		}
		for {
			t := rng.Float64() * span
			// Peak at t = day/2 (mid-day), trough at t = 0 (midnight).
			intensity := 1 + amplitude*math.Sin(2*math.Pi*t/day-math.Pi/2)
			if rng.Float64()*(1+amplitude) < intensity {
				j.Submit = int64(t)
				return
			}
		}
	}
}

// burstyArrivals assigns most submit times to a handful of tight
// submission storms (campaign or array submissions) over a thin uniform
// background.
func burstyArrivals(rng *rand.Rand, c Config) func(*job.Job) {
	nBursts := 4 + rng.Intn(4)
	centers := make([]float64, nBursts)
	span := 0.9 * float64(c.DurationSec)
	for i := range centers {
		centers[i] = rng.Float64() * span
	}
	const burstSpread = 180.0 // seconds of jitter around a storm center
	return func(j *job.Job) {
		switch u := rng.Float64(); {
		case u < c.BacklogFraction/3:
			j.Submit = 0
		case u < 0.8:
			t := centers[rng.Intn(nBursts)] + rng.NormFloat64()*burstSpread
			if t < 0 {
				t = 0
			}
			if t > span {
				t = span
			}
			j.Submit = int64(t)
		default:
			j.Submit = int64(rng.Float64() * span)
		}
	}
}

// Workloads returns the four paper intervals with deterministic seeds.
func Workloads() []Config {
	return []Config{
		{Kind: MedianJob, Seed: 1001},
		{Kind: SmallJob, Seed: 1002},
		{Kind: BigJob, Seed: 1003},
		{Kind: Day24h, Seed: 1004},
	}
}

// LibraryWorkloads returns the full scenario library: the paper's four
// intervals plus the extended arrival/size patterns, all with fixed
// seeds.
func LibraryWorkloads() []Config {
	return append(Workloads(),
		Config{Kind: Diurnal, Seed: 1005},
		Config{Kind: Bursty, Seed: 1006},
		Config{Kind: HeavyTail, Seed: 1007},
	)
}
