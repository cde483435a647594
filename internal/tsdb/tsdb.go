// Package tsdb is the simulation service's in-memory telemetry store: a
// per-run, multi-series time-series database with ring-buffer levels
// and RRD-style downsampling, built for bounded memory under unbounded
// append streams.
//
// Every run owns a set of named series ("power", "cap",
// "pending_cores", ...). A series is a pyramid of levels: level 0 holds
// the raw appended points in a fixed-capacity ring; every fanout
// appends cascade one aggregated point (mean/min/max over the batch)
// into the next level's ring, recursively. Memory per series is
// therefore exactly Levels x PointsPerLevel points however long the run
// streams, while the pyramid retains recent history at full resolution
// and the whole run at progressively coarser ones — the classic
// round-robin-database shape (cc-backend's metric store follows the
// same discipline, persistently; this one is deliberately in-memory,
// matching the service's cache lifetime).
//
// Appends must be time-monotone per series (the simulator's virtual
// clock guarantees it); concurrent appends to different runs or series
// of one store are safe.
package tsdb

import (
	"fmt"
	"sort"
	"sync"
)

// fanout is how many level-i points aggregate into one level-i+1
// point.
const fanout = 4

// Options bound a store. The zero value picks the defaults.
type Options struct {
	// PointsPerLevel is each ring's capacity (default 512).
	PointsPerLevel int
	// Levels is the pyramid depth (default 4).
	Levels int
	// MaxSeriesPerRun caps the distinct series one run may create
	// (default 128 — room for a ~30-cell sweep's four series per
	// cell); appends beyond it are dropped with an error rather than
	// growing without bound, and Dropped reports the refused names.
	MaxSeriesPerRun int
}

func (o Options) withDefaults() Options {
	if o.PointsPerLevel <= 0 {
		o.PointsPerLevel = 512
	}
	if o.Levels <= 0 {
		o.Levels = 4
	}
	if o.MaxSeriesPerRun <= 0 {
		o.MaxSeriesPerRun = 128
	}
	return o
}

// Point is one stored sample: raw at level 0 (Count 1, Mean==Min==Max),
// an aggregate of Count raw points at higher levels. T is the time of
// the aggregate's first raw point.
type Point struct {
	T     int64   `json:"t"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Count int     `json:"count"`
}

// ring is a fixed-capacity circular buffer of points.
type ring struct {
	buf   []Point
	start int // index of the oldest point
	n     int // live point count
}

func (r *ring) push(p Point) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = p
		r.n++
		return
	}
	r.buf[r.start] = p
	r.start = (r.start + 1) % len(r.buf)
}

func (r *ring) at(i int) Point { return r.buf[(r.start+i)%len(r.buf)] }

// series is one named metric's level pyramid.
type series struct {
	levels []ring
	// pending accumulates the raw points of the current cascade batch
	// per level; when a level's batch reaches fanout, its aggregate is
	// pushed one level up.
	pending []Point
	lastT   int64
	any     bool
}

// newSeries returns an empty series at o: one from free, the store's
// pool of dropped series, when it holds one, else a new one.
func newSeries(o Options, free *sync.Pool) *series {
	if free != nil {
		if s, ok := free.Get().(*series); ok {
			return s
		}
	}
	s := &series{levels: make([]ring, o.Levels), pending: make([]Point, o.Levels)}
	for i := range s.levels {
		s.levels[i] = ring{buf: make([]Point, o.PointsPerLevel)}
	}
	return s
}

// compact returns a copy of s whose rings hold exactly its live points,
// oldest first, in one allocation with its pending batches. The copy
// shares nothing with s and answers every read as s does; it is never
// appended to.
func (s *series) compact() *series {
	total := len(s.pending)
	for i := range s.levels {
		total += s.levels[i].n
	}
	pts := make([]Point, total)
	c := &series{levels: make([]ring, len(s.levels)), lastT: s.lastT, any: s.any}
	c.pending, pts = pts[:len(s.pending):len(s.pending)], pts[len(s.pending):]
	copy(c.pending, s.pending)
	for i := range s.levels {
		lv := &s.levels[i]
		buf := pts[:lv.n:lv.n]
		pts = pts[lv.n:]
		for j := range buf {
			buf[j] = lv.at(j)
		}
		c.levels[i] = ring{buf: buf, n: lv.n}
	}
	return c
}

// reset empties s in place, keeping its rings for the next run.
func (s *series) reset() {
	for i := range s.levels {
		s.levels[i].start, s.levels[i].n = 0, 0
	}
	clear(s.pending)
	s.lastT, s.any = 0, false
}

// Run is the series set of one simulation run. All methods are safe for
// concurrent use.
type Run struct {
	opt Options
	// free is the pool of the store whose options this run shares: its
	// series come from there and go back on Drop. Nil for a run built
	// at other options.
	free *sync.Pool

	mu       sync.RWMutex
	series   map[string]*series
	dropped  map[string]bool // series refused by the per-run cap
	released bool            // Drop let the run go: appends are refused
}

// Store holds the runs. The zero value is not usable; construct with
// New.
type Store struct {
	opt Options

	mu   sync.RWMutex
	runs map[string]*Run
	// free holds the emptied series of dropped runs, all built at opt,
	// for the next run to fill. A sync.Pool, so what it keeps is the
	// collector's to bound.
	free sync.Pool
}

// New builds an empty store.
func New(opt Options) *Store {
	return &Store{opt: opt.withDefaults(), runs: map[string]*Run{}}
}

// Run returns the named run's series set, creating it on first use.
func (st *Store) Run(id string) *Run {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.runs[id]
	if r == nil {
		r = &Run{opt: st.opt, free: &st.free, series: map[string]*series{}}
		st.runs[id] = r
	}
	return r
}

// Lookup returns the named run's series set, or nil when the run never
// recorded telemetry.
func (st *Store) Lookup(id string) *Run {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.runs[id]
}

// Drop releases a run's telemetry (a cache eviction or cancelled run)
// and recycles its rings. A reader that still holds the run answers as
// before: each series is swapped for a compact copy of its live points,
// and the full series, emptied, goes back to the store for the next run
// to fill. Appends to a dropped run are refused.
func (st *Store) Drop(id string) {
	st.mu.Lock()
	r := st.runs[id]
	delete(st.runs, id)
	st.mu.Unlock()
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.released = true
	if r.free == nil {
		return
	}
	for name, s := range r.series {
		r.series[name] = s.compact()
		s.reset()
		r.free.Put(s)
	}
}

// Append records one raw sample. Appends must be nondecreasing in t per
// series; an out-of-order append is rejected (the virtual clock never
// goes backwards — a violation is a wiring bug worth surfacing).
func (r *Run) Append(name string, t int64, v float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.released {
		return fmt.Errorf("tsdb: run dropped; %q not recorded", name)
	}
	s := r.series[name]
	if s == nil {
		if len(r.series) >= r.opt.MaxSeriesPerRun {
			if r.dropped == nil {
				r.dropped = map[string]bool{}
			}
			r.dropped[name] = true
			return fmt.Errorf("tsdb: run already holds %d series; %q dropped", len(r.series), name)
		}
		s = newSeries(r.opt, r.free)
		r.series[name] = s
	}
	if s.any && t < s.lastT {
		return fmt.Errorf("tsdb: out-of-order append to %q: t=%d after t=%d", name, t, s.lastT)
	}
	s.lastT, s.any = t, true
	s.cascade(0, Point{T: t, Mean: v, Min: v, Max: v, Count: 1})
	return nil
}

// cascade pushes p into level l and folds it into the level's pending
// aggregate; every fanout-th point the aggregate moves one level up.
func (s *series) cascade(l int, p Point) {
	s.levels[l].push(p)
	if l == len(s.levels)-1 {
		return
	}
	agg := &s.pending[l]
	if agg.Count == 0 {
		*agg = p
	} else {
		total := agg.Count + p.Count
		agg.Mean = (agg.Mean*float64(agg.Count) + p.Mean*float64(p.Count)) / float64(total)
		if p.Min < agg.Min {
			agg.Min = p.Min
		}
		if p.Max > agg.Max {
			agg.Max = p.Max
		}
		agg.Count = total
	}
	// Count tallies raw points, and one level-l point holds fanout^l of
	// them, so a level-l batch is full at fanout^(l+1) raw points —
	// i.e. after fanout pushes of its own.
	full := 1
	for i := 0; i <= l; i++ {
		full *= fanout
	}
	if agg.Count >= full {
		up := *agg
		*agg = Point{}
		s.cascade(l+1, up)
	}
}

// Series returns the run's series names, sorted.
func (r *Run) Series() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.series))
	for name := range r.series {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Dropped returns the names refused by the per-run series cap, sorted —
// the signal that a sweep was too wide for the configured store and its
// telemetry is partial (the metrics API surfaces it).
func (r *Run) Dropped() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.dropped))
	for name := range r.dropped {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Query returns the points of one series overlapping [from, to] (to <= 0
// means "to the end"), downsampled to roughly the requested resolution:
// res is the desired seconds-per-point; the query picks the coarsest
// level whose point spacing does not exceed it (res <= 0 means the
// finest), then steps up to coarser levels when the fine rings have
// already evicted the window's start — the level trade the pyramid
// exists for. The chosen level's raw-per-point factor is returned so
// callers can label the resolution they got.
func (r *Run) Query(name string, from, to int64, res int64) ([]Point, int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := r.series[name]
	if s == nil {
		names := make([]string, 0, len(r.series))
		for n := range r.series {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, 0, fmt.Errorf("tsdb: unknown series %q (stored: %v)", name, names)
	}
	if to <= 0 {
		to = s.lastT
	}

	// Point spacing per level is the raw sample interval times
	// fanout^level; estimate the raw interval from level 0's content.
	rawStep := int64(1)
	if l0 := &s.levels[0]; l0.n > 1 {
		if d := (l0.at(l0.n-1).T - l0.at(0).T) / int64(l0.n-1); d > 0 {
			rawStep = d
		}
	}

	pick := 0
	if res > 0 {
		spacing := rawStep
		for l := 0; l < len(s.levels); l++ {
			if spacing > res {
				break
			}
			pick = l
			spacing *= fanout
		}
	}
	// A short series may not have cascaded anything into the picked
	// level yet — step finer until there are points to answer with.
	for pick > 0 && s.levels[pick].n == 0 {
		pick--
	}
	// Step coarser while the picked level has already evicted `from`
	// and a coarser, still-populated level reaches further back.
	for pick < len(s.levels)-1 {
		cur := &s.levels[pick]
		if cur.n > 0 && cur.at(0).T <= from {
			break
		}
		next := &s.levels[pick+1]
		if next.n == 0 {
			break
		}
		if cur.n > 0 && next.at(0).T >= cur.at(0).T {
			break
		}
		pick++
	}

	lv := &s.levels[pick]
	out := make([]Point, 0, lv.n)
	for i := 0; i < lv.n; i++ {
		p := lv.at(i)
		if p.T < from || p.T > to {
			continue
		}
		out = append(out, p)
	}
	per := 1
	for i := 0; i < pick; i++ {
		per *= fanout
	}
	return out, per, nil
}
