// Package sched provides the generic scheduling building blocks of the
// RJMS the powercapping algorithm plugs into (Section IV-A): job
// prioritization (FCFS and a SLURM-style multifactor blend of age, size
// and fairshare), core-level node allocation that prefers filling
// partially used nodes, and the shadow-time computation of EASY
// backfilling.
//
// The package holds no state of its own — everything operates on the
// caller's cluster and job slices — so it is safe for the parallel
// sweeps of internal/experiment, where each worker drives its own
// controller. The scratch-reusing variants (Orderer, Frontiers,
// AllocateInto, ShadowTimeSorted) exist for the controller's hot
// scheduling pass: they let one event loop reuse its buffers instead of
// allocating per probe.
package sched

import (
	"math"
	"sort"

	"repro/internal/job"
)

// PriorityPolicy orders the pending queue.
type PriorityPolicy int

const (
	// FCFS orders strictly by submission time (ties by job ID).
	FCFS PriorityPolicy = iota
	// Multifactor blends job age, job size and user fairshare the way
	// SLURM's priority/multifactor plugin does.
	Multifactor
)

// MultifactorWeights tunes the Multifactor policy. The priority of a job
// is AgeWeight*normalizedAge + SizeWeight*normalizedSize +
// FairshareWeight*(1-normalizedUsage(user)).
type MultifactorWeights struct {
	AgeWeight       float64
	SizeWeight      float64
	FairshareWeight float64
	// AgeSaturation is the queue age (seconds) at which the age factor
	// reaches 1.
	AgeSaturation int64
	// MaxCores normalizes the size factor.
	MaxCores int
}

// DefaultMultifactor mirrors a common production configuration: fairshare
// dominates, age breaks starvation, size mildly favors big jobs (as Curie
// did).
func DefaultMultifactor(maxCores int) MultifactorWeights {
	return MultifactorWeights{
		AgeWeight:       1000,
		SizeWeight:      500,
		FairshareWeight: 2000,
		AgeSaturation:   7 * 24 * 3600,
		MaxCores:        maxCores,
	}
}

// Fairshare tracks decayed per-user usage in core-seconds. The zero value
// is ready to use with no decay; use NewFairshare for a half-life.
type Fairshare struct {
	halfLife float64 // seconds; 0 = no decay
	usage    map[string]float64
	lastAt   map[string]int64
	total    float64
}

// NewFairshare returns a tracker whose usage halves every halfLife
// seconds (0 disables decay).
func NewFairshare(halfLife int64) *Fairshare {
	return &Fairshare{
		halfLife: float64(halfLife),
		usage:    map[string]float64{},
		lastAt:   map[string]int64{},
	}
}

func (f *Fairshare) ensure() {
	if f.usage == nil {
		f.usage = map[string]float64{}
		f.lastAt = map[string]int64{}
	}
}

func (f *Fairshare) decayed(user string, now int64) float64 {
	u := f.usage[user]
	if f.halfLife > 0 {
		dt := float64(now - f.lastAt[user])
		if dt > 0 {
			u *= math.Exp2(-dt / f.halfLife)
		}
	}
	return u
}

// Charge adds coreSeconds of usage for user at time now.
func (f *Fairshare) Charge(user string, coreSeconds float64, now int64) {
	f.ensure()
	u := f.decayed(user, now) + coreSeconds
	f.usage[user] = u
	f.lastAt[user] = now
}

// Usage returns the decayed usage of user at time now.
func (f *Fairshare) Usage(user string, now int64) float64 {
	f.ensure()
	return f.decayed(user, now)
}

// MaxUsage returns the highest decayed usage across users (>= 1 to avoid
// division by zero).
func (f *Fairshare) MaxUsage(now int64) float64 {
	f.ensure()
	max := 1.0
	for user := range f.usage {
		if u := f.decayed(user, now); u > max {
			max = u
		}
	}
	return max
}

// Order sorts pending jobs by descending priority under the given policy.
// The input slice is not modified; a newly ordered slice is returned.
// Sorting is deterministic: ties break by submit time then job ID.
func Order(pending []*job.Job, policy PriorityPolicy, w MultifactorWeights, fs *Fairshare, now int64) []*job.Job {
	var o Orderer
	return o.Order(pending, policy, w, fs, now)
}

// Orderer is Order with reusable scratch buffers: a scheduling loop
// that orders its queue at every event holds one Orderer and allocates
// nothing per pass (neither the ordered slice nor the priority keys).
// The zero value is ready to use.
type Orderer struct {
	jobs []*job.Job
	keys []float64
}

// Order returns pending sorted by descending priority. The returned
// slice is the Orderer's internal buffer — valid until the next call.
// pending itself is never modified.
func (o *Orderer) Order(pending []*job.Job, policy PriorityPolicy, w MultifactorWeights, fs *Fairshare, now int64) []*job.Job {
	out := append(o.jobs[:0], pending...)
	o.jobs = out[:0]
	if policy == FCFS {
		fcfsLess := func(i, j int) bool {
			if out[i].Submit != out[j].Submit {
				return out[i].Submit < out[j].Submit
			}
			return out[i].ID < out[j].ID
		}
		// The pending queue is usually already in submission order
		// (jobs arrive through time-ordered submit events); skip the
		// sort entirely then.
		if !sort.SliceIsSorted(out, fcfsLess) {
			sort.SliceStable(out, fcfsLess)
		}
		return out
	}
	maxUse := 1.0
	if fs != nil {
		maxUse = fs.MaxUsage(now)
	}
	// Compute each job's priority once up front: the comparator runs
	// O(n log n) times and the fairshare lookup behind prio is the
	// expensive part of a pass over a deep queue.
	prio := func(j *job.Job) float64 {
		p := 0.0
		if w.AgeSaturation > 0 {
			age := float64(now-j.Submit) / float64(w.AgeSaturation)
			if age > 1 {
				age = 1
			}
			if age < 0 {
				age = 0
			}
			p += w.AgeWeight * age
		}
		if w.MaxCores > 0 {
			p += w.SizeWeight * float64(j.Cores) / float64(w.MaxCores)
		}
		if fs != nil {
			p += w.FairshareWeight * (1 - fs.Usage(j.User, now)/maxUse)
		}
		return p
	}
	if cap(o.keys) < len(out) {
		o.keys = make([]float64, len(out))
	}
	keys := o.keys[:len(out)]
	for i, j := range out {
		keys[i] = prio(j)
	}
	sort.Stable(keyedJobs{jobs: out, keys: keys})
	return out
}

// keyedJobs sorts a job slice by precomputed descending priority keys,
// swapping jobs and keys in lockstep; ties break by submit time then ID.
type keyedJobs struct {
	jobs []*job.Job
	keys []float64
}

func (k keyedJobs) Len() int { return len(k.jobs) }
func (k keyedJobs) Swap(i, j int) {
	k.jobs[i], k.jobs[j] = k.jobs[j], k.jobs[i]
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
}
func (k keyedJobs) Less(i, j int) bool {
	if k.keys[i] != k.keys[j] {
		return k.keys[i] > k.keys[j]
	}
	if k.jobs[i].Submit != k.jobs[j].Submit {
		return k.jobs[i].Submit < k.jobs[j].Submit
	}
	return k.jobs[i].ID < k.jobs[j].ID
}
