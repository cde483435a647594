package tsdb

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Snapshot is one run's whole series set in its archive form: the JSON
// the service's durable run archive stores next to a report so
// downsampled telemetry survives daemon restarts. It holds the encoded
// bytes and nothing else — an archived run is read far more often for
// its report than for its telemetry, so only Restore pays to decode it.
// Series are sorted by name, so a run's snapshot is deterministic.
type Snapshot struct {
	data []byte
	// err is why the run did not encode (a NaN or infinite sample):
	// MarshalJSON and Restore return it.
	err error
}

// snapshotJSON is a snapshot's wire form.
type snapshotJSON struct {
	Options Options      `json:"options"`
	Series  []seriesJSON `json:"series"`
	Dropped []string     `json:"dropped,omitempty"`
}

// seriesJSON is one series' level pyramid on the wire: every retained
// point per level (level 0 first, oldest point first), the in-flight
// cascade aggregates (zero-Count entries are idle) and the monotonicity
// watermark — exactly the state Restore needs to continue appending
// where the snapshot left off.
type seriesJSON struct {
	Name    string    `json:"name"`
	Levels  [][]Point `json:"levels"`
	Pending []Point   `json:"pending,omitempty"`
	LastT   int64     `json:"last_t"`
	Any     bool      `json:"any"`
}

// maxRestorePoints bounds the ring points one Restore allocates across
// all series: 16 times what a run at the default options (128 series of
// 4 x 512 points) can hold. A snapshot is untrusted input, and its
// options size the rings before a single point is read. Store.Restore
// raises the bound to what the store itself is configured to hold.
const maxRestorePoints = 1 << 22

// Snapshot captures the run's current state, encoded once. The
// snapshot shares nothing with the live run, so it stays valid however
// the run is appended to afterwards.
func (r *Run) Snapshot() *Snapshot {
	r.mu.RLock()
	wire := snapshotJSON{Options: r.opt}
	if len(r.series) > 0 {
		wire.Series = make([]seriesJSON, 0, len(r.series))
	}
	for _, name := range r.seriesNamesLocked() {
		s := r.series[name]
		ss := seriesJSON{
			Name:    name,
			Levels:  make([][]Point, len(s.levels)),
			Pending: s.pending,
			LastT:   s.lastT,
			Any:     s.any,
		}
		for i := range s.levels {
			lv := &s.levels[i]
			pts := make([]Point, lv.n)
			for j := range pts {
				pts[j] = lv.at(j)
			}
			ss.Levels[i] = pts
		}
		wire.Series = append(wire.Series, ss)
	}
	for name := range r.dropped {
		wire.Dropped = append(wire.Dropped, name)
	}
	sort.Strings(wire.Dropped)
	// The pending slices are the live ones: encode before unlocking.
	data, err := json.Marshal(wire)
	r.mu.RUnlock()
	if err != nil {
		return &Snapshot{err: fmt.Errorf("tsdb: encoding snapshot: %w", err)}
	}
	return &Snapshot{data: data}
}

// MarshalJSON returns the snapshot's encoded bytes; the zero Snapshot
// encodes as the snapshot of an empty run.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	if s.err != nil {
		return nil, s.err
	}
	if len(s.data) == 0 {
		return json.Marshal(snapshotJSON{})
	}
	return s.data, nil
}

// UnmarshalJSON keeps a copy of the encoded snapshot. Nothing is
// checked until Restore decodes it.
func (s *Snapshot) UnmarshalJSON(b []byte) error {
	s.data, s.err = append([]byte(nil), b...), nil
	return nil
}

// SnapshotFromJSON wraps a snapshot's encoded bytes without copying
// them: the snapshot owns data from then on, and the caller must not
// modify it. Like UnmarshalJSON, it checks nothing until Restore.
func SnapshotFromJSON(data []byte) *Snapshot { return &Snapshot{data: data} }

// Restore rebuilds a live Run from the snapshot: ring contents, cascade
// state and watermarks land exactly where Snapshot captured them, so
// queries answer identically and later appends continue the cascade
// seamlessly. Snapshots from an archive may be hostile or truncated;
// Restore validates shape and returns errors, never panics. Points
// beyond a level's ring capacity keep only the newest (the ring's own
// overwrite rule).
func (s *Snapshot) Restore() (*Run, error) { return s.restore(maxRestorePoints, nil) }

// restore is Restore with its bound on the ring points allocated. A
// snapshot taken at home's options restores into series of home's pool
// and returns them there on Drop; one at other options touches no pool.
func (s *Snapshot) restore(limit int, home *Store) (*Run, error) {
	if s == nil {
		return nil, fmt.Errorf("tsdb: nil snapshot")
	}
	if s.err != nil {
		return nil, s.err
	}
	var wire snapshotJSON
	if len(s.data) > 0 {
		if err := json.Unmarshal(s.data, &wire); err != nil {
			return nil, fmt.Errorf("tsdb: decoding snapshot: %w", err)
		}
	}
	opt := wire.Options.withDefaults()
	run := &Run{opt: opt, series: map[string]*series{}}
	if home != nil && opt == home.opt {
		run.free = &home.free
	}
	if opt.Levels > limit || opt.PointsPerLevel > limit/opt.Levels ||
		len(wire.Series) > limit/(opt.Levels*opt.PointsPerLevel) {
		return nil, fmt.Errorf("tsdb: snapshot of %d series at %d levels of %d points exceeds %d restored points",
			len(wire.Series), opt.Levels, opt.PointsPerLevel, limit)
	}
	for i, ss := range wire.Series {
		if ss.Name == "" {
			return nil, fmt.Errorf("tsdb: snapshot series %d has no name", i)
		}
		if run.series[ss.Name] != nil {
			return nil, fmt.Errorf("tsdb: snapshot repeats series %q", ss.Name)
		}
		if len(ss.Levels) > opt.Levels {
			return nil, fmt.Errorf("tsdb: series %q snapshots %d levels, store holds %d",
				ss.Name, len(ss.Levels), opt.Levels)
		}
		if len(ss.Pending) > opt.Levels {
			return nil, fmt.Errorf("tsdb: series %q snapshots %d pending batches, store holds %d levels",
				ss.Name, len(ss.Pending), opt.Levels)
		}
		sr := newSeries(opt, run.free)
		for l, pts := range ss.Levels {
			for _, p := range pts {
				sr.levels[l].push(p)
			}
		}
		copy(sr.pending, ss.Pending)
		sr.lastT, sr.any = ss.LastT, ss.Any
		run.series[ss.Name] = sr
	}
	for _, name := range wire.Dropped {
		if run.dropped == nil {
			run.dropped = map[string]bool{}
		}
		run.dropped[name] = true
	}
	return run, nil
}

// Restore installs a run restored from the snapshot under the given id,
// replacing any prior entry — the store-level hook the service uses
// when an archived run's telemetry is queried after a restart. A run
// as large as the store's own options allow always restores, whatever
// the fixed bound. A snapshot taken at the store's options fills the
// rings of dropped runs before it allocates any.
func (st *Store) Restore(id string, snap *Snapshot) (*Run, error) {
	held := st.opt.Levels * st.opt.PointsPerLevel * st.opt.MaxSeriesPerRun
	r, err := snap.restore(max(maxRestorePoints, held), st)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.runs[id] = r
	return r, nil
}

// seriesNamesLocked returns the sorted series names; r.mu must be held.
func (r *Run) seriesNamesLocked() []string {
	out := make([]string, 0, len(r.series))
	for name := range r.series {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
