package tsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestSnapshotRestoreRoundtrip pins the archive contract: a restored
// run answers every query identically to the original, at every level,
// and later appends continue the cascade as if nothing happened.
func TestSnapshotRestoreRoundtrip(t *testing.T) {
	st := New(smallOpts())
	orig := st.Run("run1")
	// Mid-batch at both cascades: one level-2 point, fanout+1 level-1
	// points (one pending toward level 2) and fanout-1 raw points
	// pending toward level 1.
	n := fanout*fanout + 2*fanout - 1
	appendRamp(t, orig, "power", n, 10)
	appendRamp(t, orig, "cap", fanout+1, 10)

	snap := orig.Snapshot()
	// The snapshot must survive the same JSON round-trip the archive
	// envelope puts it through.
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := decoded.Restore()
	if err != nil {
		t.Fatal(err)
	}

	queries := []struct {
		series string
		res    int64
	}{{"power", 0}, {"power", 10 * fanout}, {"power", 10 * fanout * fanout}, {"cap", 0}, {"cap", 10 * fanout}}
	for _, q := range queries {
		wantPts, wantPer, wantErr := orig.Query(q.series, 0, 0, q.res)
		gotPts, gotPer, gotErr := restored.Query(q.series, 0, 0, q.res)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s res=%d: err %v vs %v", q.series, q.res, wantErr, gotErr)
		}
		if gotPer != wantPer || !reflect.DeepEqual(gotPts, wantPts) {
			t.Errorf("%s res=%d: restored (%v, per=%d), original (%v, per=%d)",
				q.series, q.res, gotPts, gotPer, wantPts, wantPer)
		}
	}
	if !reflect.DeepEqual(restored.Series(), orig.Series()) {
		t.Errorf("series names = %v, want %v", restored.Series(), orig.Series())
	}

	// Continuing the cascade: the same appends to both runs must keep
	// them identical — pending batches and watermarks restored exactly.
	for i := n; i < 2*fanout*fanout; i++ {
		if err := orig.Append("power", int64(i)*10, float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := restored.Append("power", int64(i)*10, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, res := range []int64{0, 10 * fanout, 10 * fanout * fanout} {
		wantPts, _, _ := orig.Query("power", 0, 0, res)
		gotPts, _, _ := restored.Query("power", 0, 0, res)
		if !reflect.DeepEqual(gotPts, wantPts) {
			t.Errorf("post-restore appends diverged at res=%d:\n got %v\nwant %v", res, gotPts, wantPts)
		}
	}

	// Out-of-order appends are still refused: the watermark survived.
	if err := restored.Append("power", 0, 1); err == nil {
		t.Error("restored run accepted an out-of-order append")
	}
}

// TestSnapshotIsolated pins that a snapshot shares no state with the
// live run: appends after the snapshot must not leak into it.
func TestSnapshotIsolated(t *testing.T) {
	st := New(smallOpts())
	r := st.Run("run1")
	appendRamp(t, r, "power", 4, 10)
	snap := r.Snapshot()
	before, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	before = append([]byte(nil), before...)

	appendRamp(t, r, "more", 4, 10)
	if err := r.Append("power", 100, 99); err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Errorf("snapshot mutated by later appends:\n%s\nwas\n%s", after, before)
	}
}

// TestSnapshotBytes pins a snapshot's archive bytes: the encoding the
// format's first encoder wrote for the same run, series sorted and
// dropped names listed; the zero Snapshot and an empty run encode as
// the same snapshot of no series.
func TestSnapshotBytes(t *testing.T) {
	st := New(smallOpts())
	r := st.Run("run1")
	appendRamp(t, r, "power", 6, 10)
	for _, a := range []struct {
		name string
		t    int64
		v    float64
	}{{"cap", 5, 2.5}, {"a", 0, 1}, {"b", 0, 1}} {
		_ = r.Append(a.name, a.t, a.v) // "b" is the fourth series: dropped
	}
	const want = `{"options":{"PointsPerLevel":4,"Levels":3,"MaxSeriesPerRun":3},"series":[` +
		`{"name":"a","levels":[[{"t":0,"mean":1,"min":1,"max":1,"count":1}],[],[]],` +
		`"pending":[{"t":0,"mean":1,"min":1,"max":1,"count":1},{"t":0,"mean":0,"min":0,"max":0,"count":0},{"t":0,"mean":0,"min":0,"max":0,"count":0}],"last_t":0,"any":true},` +
		`{"name":"cap","levels":[[{"t":5,"mean":2.5,"min":2.5,"max":2.5,"count":1}],[],[]],` +
		`"pending":[{"t":5,"mean":2.5,"min":2.5,"max":2.5,"count":1},{"t":0,"mean":0,"min":0,"max":0,"count":0},{"t":0,"mean":0,"min":0,"max":0,"count":0}],"last_t":5,"any":true},` +
		`{"name":"power","levels":[[{"t":20,"mean":2,"min":2,"max":2,"count":1},{"t":30,"mean":3,"min":3,"max":3,"count":1},{"t":40,"mean":4,"min":4,"max":4,"count":1},{"t":50,"mean":5,"min":5,"max":5,"count":1}],` +
		`[{"t":0,"mean":1.5,"min":0,"max":3,"count":4}],[]],` +
		`"pending":[{"t":40,"mean":4.5,"min":4,"max":5,"count":2},{"t":0,"mean":1.5,"min":0,"max":3,"count":4},{"t":0,"mean":0,"min":0,"max":0,"count":0}],"last_t":50,"any":true}],` +
		`"dropped":["b"]}`
	for _, c := range []struct {
		name string
		snap *Snapshot
		want string
	}{
		{"run", r.Snapshot(), want},
		{"zero", &Snapshot{}, `{"options":{"PointsPerLevel":0,"Levels":0,"MaxSeriesPerRun":0},"series":null}`},
		{"empty run", New(Options{}).Run("x").Snapshot(), `{"options":{"PointsPerLevel":512,"Levels":4,"MaxSeriesPerRun":128},"series":null}`},
	} {
		got, err := json.Marshal(c.snap)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%s encodes as\n%s\nwant\n%s", c.name, got, c.want)
		}
	}
}

// TestSnapshotUnmarshalKeepsCopy pins the json.Unmarshaler contract: the
// bytes UnmarshalJSON is handed belong to the caller, who may reuse them
// (a json.Decoder does), so the snapshot keeps its own copy.
func TestSnapshotUnmarshalKeepsCopy(t *testing.T) {
	buf := []byte(validSnapshot)
	var snap Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'x'
	}
	if _, err := snap.Restore(); err != nil {
		t.Errorf("the snapshot shares the caller's bytes: %v", err)
	}
}

// TestSnapshotCarriesEncodeError pins that a run which does not encode
// (a NaN sample has no JSON form) fails where the snapshot is written
// or restored, not silently.
func TestSnapshotCarriesEncodeError(t *testing.T) {
	r := New(smallOpts()).Run("run1")
	if err := r.Append("power", 0, math.NaN()); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if _, err := json.Marshal(snap); err == nil {
		t.Error("a NaN sample encoded")
	}
	if _, err := snap.Restore(); err == nil {
		t.Error("a snapshot that did not encode restored")
	}
}

// TestSnapshotDropped pins that the per-run series-cap marker list
// survives the round trip (partial telemetry must stay labeled partial).
func TestSnapshotDropped(t *testing.T) {
	st := New(smallOpts()) // MaxSeriesPerRun: 3
	r := st.Run("run1")
	for _, name := range []string{"a", "b", "c"} {
		if err := r.Append(name, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Append("overflow", 0, 1); err == nil {
		t.Fatal("series cap did not refuse the 4th series")
	}
	restored, err := r.Snapshot().Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Dropped(); !reflect.DeepEqual(got, []string{"overflow"}) {
		t.Errorf("restored Dropped() = %v, want [overflow]", got)
	}
}

// validSnapshot is the JSON of a run at smallOpts with four raw
// points of one series — the payload the malformed cases are cut from.
const validSnapshot = `{"options":{"PointsPerLevel":4,"Levels":3,"MaxSeriesPerRun":3},"series":[` +
	`{"name":"power","levels":[[{"t":0,"mean":0,"min":0,"max":0,"count":1},{"t":10,"mean":1,"min":1,"max":1,"count":1}],` +
	`[{"t":0,"mean":1.5,"min":0,"max":3,"count":4}],[]],` +
	`"pending":[{"t":0,"mean":0,"min":0,"max":0,"count":0},{"t":0,"mean":1.5,"min":0,"max":3,"count":4},{"t":0,"mean":0,"min":0,"max":0,"count":0}],` +
	`"last_t":30,"any":true}]}`

// TestRestoreRejectsMalformed pins the hostile-input contract: archived
// snapshots with impossible shapes, or that are not snapshots at all,
// error, never panic, never install.
func TestRestoreRejectsMalformed(t *testing.T) {
	var snap Snapshot
	if err := json.Unmarshal([]byte(validSnapshot), &snap); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Restore(); err != nil {
		t.Fatalf("the valid payload does not restore: %v", err)
	}
	level := `{"t":0,"mean":0,"min":0,"max":0,"count":1}`
	// An empty payload stands for no snapshot at all.
	cases := []struct{ name, payload string }{
		{"nil snapshot", ""},
		{"unnamed series", strings.Replace(validSnapshot, `"name":"power"`, `"name":""`, 1)},
		{"duplicate series", `{"series":[{"name":"power"},{"name":"power"}]}`},
		{"too many levels", `{"options":{"Levels":2},"series":[{"name":"power","levels":[[` + level + `],[],[]]}]}`},
		{"too many pending", `{"options":{"Levels":2},"series":[{"name":"power","pending":[` + level + `,` + level + `,` + level + `]}]}`},
		{"not JSON", `{"series":[{"name":"power",`},
		{"wrong-typed field", strings.Replace(validSnapshot, `"last_t":30`, `"last_t":"30"`, 1)},
		{"rings beyond the restore bound", `{"options":{"PointsPerLevel":1000000000},"series":[{"name":"power"}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var snap *Snapshot
			if tc.payload != "" {
				snap = new(Snapshot)
				if err := json.Unmarshal([]byte(tc.payload), snap); err != nil {
					// Only a payload that is not JSON at all fails before Restore.
					snap = &Snapshot{data: []byte(tc.payload)}
				}
			}
			if _, err := snap.Restore(); err == nil {
				t.Errorf("%s restored without error", tc.name)
			}
		})
	}
}

// FuzzSnapshotRestore pins Restore's hostile-input contract over any
// bytes an archive may hold: decoding never panics, and a run it does
// restore snapshots again to bytes that restore to the same answers —
// every series at every resolution, the dropped names and the options.
func FuzzSnapshotRestore(f *testing.F) {
	r := New(smallOpts()).Run("run1")
	for i := 0; i < fanout*fanout+3; i++ {
		_ = r.Append("power", int64(i)*10, float64(i%7))
	}
	_ = r.Append("cap", 0, 2)
	_ = r.Append("a", 0, 1)
	_ = r.Append("b", 0, 1) // dropped
	full, err := json.Marshal(r.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(full), validSnapshot, ``, `null`, `{}`, `[]`, `{"series":null}`,
		`{"options":{"Levels":-1,"PointsPerLevel":0},"series":[{"name":"x","levels":[[{"t":5,"count":1}]]}]}`,
		`{"series":[{"name":"x","levels":[[{"t":9},{"t":1},{"t":5}]],"pending":[{"count":-3}]}]}`,
		`{"dropped":["z","y"]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			snap = Snapshot{data: data}
		}
		run, err := snap.Restore()
		if err != nil {
			return
		}
		again, err := json.Marshal(run.Snapshot())
		if err != nil {
			t.Fatalf("a restored run does not snapshot: %v", err)
		}
		var snap2 Snapshot
		if err := json.Unmarshal(again, &snap2); err != nil {
			t.Fatalf("a restored run snapshots to invalid JSON: %v\n%s", err, again)
		}
		run2, err := snap2.Restore()
		if err != nil {
			t.Fatalf("a restored run's snapshot does not restore: %v\n%s", err, again)
		}
		if run2.opt != run.opt || !reflect.DeepEqual(run2.Series(), run.Series()) || !reflect.DeepEqual(run2.Dropped(), run.Dropped()) {
			t.Fatalf("second restore differs: %+v %v %v, want %+v %v %v",
				run2.opt, run2.Series(), run2.Dropped(), run.opt, run.Series(), run.Dropped())
		}
		for _, name := range run.Series() {
			for _, res := range []int64{0, 1, 40, 1 << 20} {
				want, wantPer, wantErr := run.Query(name, 0, 0, res)
				got, gotPer, gotErr := run2.Query(name, 0, 0, res)
				if (wantErr == nil) != (gotErr == nil) || gotPer != wantPer || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s res=%d: (%v, %d, %v), want (%v, %d, %v)", name, res, got, gotPer, gotErr, want, wantPer, wantErr)
				}
			}
		}
	})
}

// TestStoreRestoreInstalls pins the store-level hook: a restored run is
// reachable through Lookup under its id.
func TestStoreRestoreInstalls(t *testing.T) {
	src := New(smallOpts())
	r := src.Run("orig")
	appendRamp(t, r, "power", 4, 10)

	dst := New(smallOpts())
	if _, err := dst.Restore("copied", r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := dst.Lookup("copied")
	if got == nil {
		t.Fatal("restored run not installed")
	}
	wantPts, _, _ := r.Query("power", 0, 0, 0)
	gotPts, _, _ := got.Query("power", 0, 0, 0)
	if !reflect.DeepEqual(gotPts, wantPts) {
		t.Errorf("installed run answers %v, want %v", gotPts, wantPts)
	}
}

// TestStoreRestoresItsOwnOptions pins the restore bound to the store's
// configuration: a run filled to options past the fixed bound (a
// 17-cell sweep's 68 series at 16384 points per level) restores through
// a store configured alike, while the bare Restore and a store at the
// default options still refuse it, and a store still refuses a snapshot
// past its own options. The rings are allocated but barely written, so
// the test touches little memory.
func TestStoreRestoresItsOwnOptions(t *testing.T) {
	opts := Options{PointsPerLevel: 1 << 14, Levels: 4, MaxSeriesPerRun: 68}
	if held := opts.Levels * opts.PointsPerLevel * opts.MaxSeriesPerRun; held <= maxRestorePoints {
		t.Fatalf("options hold %d points, not past the bound %d", held, maxRestorePoints)
	}
	r := New(opts).Run("sweep")
	for i := 0; i < opts.MaxSeriesPerRun; i++ {
		appendRamp(t, r, fmt.Sprintf("cell%02d/power", i), fanout+1, 10)
	}
	snap := r.Snapshot()
	if _, err := snap.Restore(); err == nil {
		t.Fatal("the bare Restore accepted a snapshot past its fixed bound")
	}
	got, err := New(opts).Restore("sweep", snap)
	if err != nil {
		t.Fatalf("a store configured like the run refuses its snapshot: %v", err)
	}
	for _, name := range r.Series() {
		want, _, _ := r.Query(name, 0, 0, 0)
		pts, _, _ := got.Query(name, 0, 0, 0)
		if !reflect.DeepEqual(pts, want) {
			t.Fatalf("%s restores as %v, want %v", name, pts, want)
		}
	}
	if _, err := New(Options{}).Restore("sweep", snap); err == nil {
		t.Error("a store at the default options restored a snapshot past the fixed bound")
	}
	var hostile Snapshot
	if err := json.Unmarshal([]byte(`{"options":{"PointsPerLevel":1000000000},"series":[{"name":"power"}]}`), &hostile); err != nil {
		t.Fatal(err)
	}
	if _, err := New(opts).Restore("hostile", &hostile); err == nil {
		t.Error("a snapshot past the store's own options restored")
	}
}
