package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// archiveProbe is a daemon archive that counts the calls which read a
// run's file — Get and ByHash — and can park the reads of one run until
// released, standing in for a slow disk.
type archiveProbe struct {
	*service.FSStore

	mu           sync.Mutex
	gets, hashes int
	parkID       string
	parkHash     string
	gate         chan struct{} // closed by release
	parked       chan struct{} // signalled when a read parks
	releaseOnce  sync.Once
}

func newArchiveProbe(t *testing.T) *archiveProbe {
	t.Helper()
	st, err := service.OpenFSStore(t.TempDir(), service.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &archiveProbe{FSStore: st, gate: make(chan struct{}), parked: make(chan struct{}, 1)}
}

// park makes later reads of the run (by id or by spec hash) block until
// release.
func (a *archiveProbe) park(id, hash string) {
	a.mu.Lock()
	a.parkID, a.parkHash = id, hash
	a.mu.Unlock()
}

func (a *archiveProbe) release() { a.releaseOnce.Do(func() { close(a.gate) }) }

// wait parks the calling read when its key is the parked run's.
func (a *archiveProbe) wait(parkIt bool) {
	if parkIt {
		select {
		case a.parked <- struct{}{}:
		default: // a read already signalled; the test waits for one
		}
		<-a.gate
	}
}

// counts returns and resets the read counters.
func (a *archiveProbe) counts() (gets, hashes int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	gets, hashes = a.gets, a.hashes
	a.gets, a.hashes = 0, 0
	return gets, hashes
}

func (a *archiveProbe) Get(id string) (service.Record, bool, error) {
	a.mu.Lock()
	a.gets++
	parkIt := a.parkID != "" && id == a.parkID
	a.mu.Unlock()
	a.wait(parkIt)
	return a.FSStore.Get(id)
}

func (a *archiveProbe) ByHash(hash string) (service.Record, bool, error) {
	a.mu.Lock()
	a.hashes++
	parkIt := a.parkHash != "" && hash == a.parkHash
	a.mu.Unlock()
	a.wait(parkIt)
	return a.FSStore.ByHash(hash)
}

// finishRun submits a fresh spec and waits until the run is done and
// retired into the hot tier — with MaxRuns 1, the moment the previous run
// becomes archive-only.
func finishRun(t *testing.T, s *service.Server, c *service.Client, spec sim.RunSpec) service.RunView {
	t.Helper()
	ctx := context.Background()
	v, hit, err := c.Submit(ctx, spec)
	if err != nil || hit {
		t.Fatalf("submit %s = hit:%v err:%v, want a fresh run", spec.Name, hit, err)
	}
	if v, err = c.Wait(ctx, v.ID, nil); err != nil || v.State != service.StateDone {
		t.Fatalf("run %s = %s err:%v, want done", v.ID, v.State, err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if _, ok, _ := s.Store().Get(v.ID); ok {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never reached the hot tier", v.ID)
		}
	}
}

// fetch GETs a daemon path and returns status and body.
func fetch(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestArchiveReadNeverHoldsServerLock pins the rule that no archive read
// happens under the server lock: while a resubmission of an archive-only
// run is parked inside the archive's ByHash, counters, reads of hot runs,
// listings and fresh submissions all proceed. Released, the parked call
// is an ordinary archive cache hit.
func TestArchiveReadNeverHoldsServerLock(t *testing.T) {
	arch := newArchiveProbe(t)
	s, c := newTestServer(t, service.Config{Workers: 1, MaxRuns: 1, Archive: arch})
	t.Cleanup(arch.release) // runs before the server's shutdown

	archived := finishRun(t, s, c, fastSpec("lock-archived"))
	hot := finishRun(t, s, c, fastSpec("lock-hot")) // evicts archived from the hot tier
	arch.park(archived.ID, archived.SpecHash)
	hitsBefore := s.Stats().CacheHits

	type submitted struct {
		v   service.RunView
		hit bool
		err error
	}
	parkedCall := make(chan submitted, 1)
	go func() {
		v, hit, err := s.SubmitTraced(context.Background(), service.TenantConfig{}, fastSpec("lock-archived"))
		parkedCall <- submitted{v, hit, err}
	}()
	select {
	case <-arch.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the resubmission never reached the archive")
	}

	within := func(what string, fn func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- fn() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", what, err)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%s blocked behind the parked archive read", what)
		}
	}
	within("Stats", func() error { s.Stats(); return nil })
	within("GetAs of a hot run", func() error {
		_, err := s.GetAs(service.TenantConfig{Admin: true}, hot.ID, true)
		return err
	})
	within("List", func() error {
		_, _, err := s.List(service.ListFilter{})
		return err
	})
	within("Submit of another spec", func() error {
		_, _, err := s.SubmitTraced(context.Background(), service.TenantConfig{}, fastSpec("lock-fresh"))
		return err
	})

	arch.release()
	select {
	case got := <-parkedCall:
		if got.err != nil || !got.hit || got.v.ID != archived.ID || got.v.CacheHits != archived.CacheHits+1 {
			t.Errorf("released resubmission = %s hits:%d hit:%v err:%v, want a hit on %s with %d hits",
				got.v.ID, got.v.CacheHits, got.hit, got.err, archived.ID, archived.CacheHits+1)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the released resubmission never returned")
	}
	if n := s.Stats().CacheHits; n != hitsBefore+1 {
		t.Errorf("CacheHits = %d, want %d", n, hitsBefore+1)
	}
}

// TestArchiveReadsPerRoute pins how many times each route reads an
// archive-only run's file (archive Get + ByHash calls): status polls,
// ownership checks, cancels and listings answer from the index; a route
// that serves payload reads the file once. The reports it serves are the
// bytes the hot tier served before the run was evicted.
func TestArchiveReadsPerRoute(t *testing.T) {
	arch := newArchiveProbe(t)
	s, c := newTestServer(t, service.Config{Workers: 1, MaxRuns: 1, Archive: arch})
	ctx := context.Background()

	run := finishRun(t, s, c, fastSpec("routes-archived"))
	formats := []string{"json", "csv", "ascii"}
	hotReports := map[string][]byte{}
	for _, format := range formats {
		var buf bytes.Buffer
		if err := c.WriteReport(ctx, run.ID, format, sim.SinkOptions{}, &buf); err != nil {
			t.Fatal(err)
		}
		hotReports[format] = buf.Bytes()
	}
	finishRun(t, s, c, fastSpec("routes-evictor")) // run is archive-only from here on
	arch.counts()

	type route struct {
		name         string
		call         func() error
		gets, hashes int
	}
	var fromIndex service.RunView
	routes := []route{
		{"GET /v1/runs/{id}?report=0", func() error {
			var err error
			fromIndex, err = c.Get(ctx, run.ID)
			if err == nil && (fromIndex.State != service.StateDone || fromIndex.Spec == nil) {
				t.Errorf("status view = %+v, want the done run with its spec", fromIndex)
			}
			return err
		}, 0, 0},
		{"GET /v1/runs/{id}", func() error {
			status, body := fetch(t, c.Base, "/v1/runs/"+run.ID)
			var v service.RunView
			if err := json.Unmarshal(body, &v); status != 200 || err != nil || len(v.Report) == 0 {
				t.Errorf("status with report = %d (decode err %v, %d report bytes)", status, err, len(v.Report))
			}
			// The index answers the metadata the file holds.
			v.Report = nil
			if !reflect.DeepEqual(v, fromIndex) {
				t.Errorf("status from the index differs from the file's:\nindex: %+v\nfile:  %+v", fromIndex, v)
			}
			return nil
		}, 1, 0},
	}
	for _, format := range formats {
		format := format
		routes = append(routes, route{"GET /v1/runs/{id}/report?format=" + format, func() error {
			var buf bytes.Buffer
			err := c.WriteReport(ctx, run.ID, format, sim.SinkOptions{}, &buf)
			if err == nil && !bytes.Equal(buf.Bytes(), hotReports[format]) {
				t.Errorf("archived %s report differs from the hot tier's:\narchived: %.200s\nhot:      %.200s",
					format, buf.Bytes(), hotReports[format])
			}
			return err
		}, 1, 0})
	}
	series := func() error {
		sr, err := c.Series(ctx, run.ID, "power", service.SeriesQuery{Res: 300})
		if err == nil && len(sr.Points) == 0 {
			t.Error("restored series holds no points")
		}
		return err
	}
	routes = append(routes,
		route{"GET /v1/runs/{id}/events", func() error {
			if status, body := fetch(t, c.Base, "/v1/runs/"+run.ID+"/events"); status != 200 || !bytes.Contains(body, []byte("done")) {
				t.Errorf("events = %d %.200s, want the replayed log", status, body)
			}
			return nil
		}, 1, 0},
		route{"GET /v1/runs/{id}/series (telemetry dropped)", series, 1, 0},
		route{"GET /v1/runs/{id}/series (restored)", series, 0, 0},
		route{"DELETE /v1/runs/{id}", func() error {
			v, err := c.Cancel(ctx, run.ID)
			if err == nil && v.State != service.StateDone {
				t.Errorf("cancel of a done run = %s, want done", v.State)
			}
			return err
		}, 0, 0},
		route{"GET /v1/runs", func() error {
			views, _, err := c.List(ctx, service.ListFilter{})
			if err == nil && len(views) != 2 {
				t.Errorf("listed %d runs, want 2", len(views))
			}
			return err
		}, 0, 0},
		route{"POST /v1/runs (resubmit)", func() error {
			v, hit, err := c.Submit(ctx, fastSpec("routes-archived"))
			if err == nil && (!hit || v.ID != run.ID) {
				t.Errorf("resubmission = %s hit:%v, want a hit on %s", v.ID, hit, run.ID)
			}
			return err
		}, 0, 1},
	)
	for _, r := range routes {
		if err := r.call(); err != nil {
			t.Errorf("%s: %v", r.name, err)
			continue
		}
		if gets, hashes := arch.counts(); gets != r.gets || hashes != r.hashes {
			t.Errorf("%s read the archive %d Get + %d ByHash times, want %d + %d", r.name, gets, hashes, r.gets, r.hashes)
		}
	}
}
