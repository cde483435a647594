package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// TestSeriesEndpointLive pins the single-metric telemetry endpoint
// against the in-process tsdb query it fronts: identical points, the
// same downsampling verdict, discovery without parameters, and typed
// failures for unknown metrics and malformed time parameters.
func TestSeriesEndpointLive(t *testing.T) {
	s, c := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	v, _, err := c.Submit(ctx, fastSpec("series-live"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err = c.Wait(ctx, v.ID, nil); err != nil {
		t.Fatal(err)
	}
	rs := s.TSDB().Lookup(v.ID)
	if rs == nil {
		t.Fatal("run recorded no telemetry")
	}

	// Discovery: no ?metric= enumerates what the run recorded.
	enum, err := c.Series(ctx, v.ID, "", service.SeriesQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(enum.Metrics, rs.Series()) {
		t.Errorf("enumerated metrics = %v, store has %v", enum.Metrics, rs.Series())
	}
	if enum.Metric != "" || len(enum.Points) != 0 {
		t.Errorf("discovery response carries points: %+v", enum)
	}

	// Point-identity against the in-process query, raw and coarsened
	// through the client, and windowed through the from/to parameters.
	for _, q := range []struct{ from, to, res int64 }{
		{},
		{res: 600},
		{from: 600, to: 1800},
	} {
		var got service.SeriesResponse
		if q.from == 0 && q.to == 0 {
			got, err = c.Series(ctx, v.ID, "power", service.SeriesQuery{Res: q.res})
		} else {
			status, body := fetch(t, c.Base, fmt.Sprintf("/v1/runs/%s/series?metric=power&from=%d&to=%d", v.ID, q.from, q.to))
			if status != http.StatusOK {
				t.Fatalf("series %+v: status %d: %s", q, status, body)
			}
			err = json.Unmarshal(body, &got)
		}
		if err != nil {
			t.Fatalf("series %+v: %v", q, err)
		}
		want, per, err := rs.Query("power", q.from, q.to, q.res)
		if err != nil {
			t.Fatalf("tsdb query %+v: %v", q, err)
		}
		if got.RawPerPoint != per {
			t.Errorf("query %+v raw_per_point = %d, want %d", q, got.RawPerPoint, per)
		}
		if !reflect.DeepEqual(got.Points, want) {
			t.Errorf("query %+v points differ from in-process query (%d vs %d points)",
				q, len(got.Points), len(want))
		}
	}

	// An unknown metric is a 404, not an empty series.
	_, err = c.Series(ctx, v.ID, "no-such-metric", service.SeriesQuery{})
	if apiErr, ok := err.(*service.Error); !ok || apiErr.Status != 404 {
		t.Errorf("unknown metric error = %v, want 404", err)
	}
	// So is an unknown run.
	if _, err := c.Series(ctx, "nope", "power", service.SeriesQuery{}); err == nil {
		t.Error("series of unknown run succeeded")
	}

	// Malformed time parameters are 400s, never silent zeros.
	for _, bad := range []string{"res=300s", "from=abc", "to=1.5"} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/series?metric=power&%s", c.Base, v.ID, bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("series with %q status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestSeriesArchiveRestoredAfterRestart pins the lifecycle half of the
// endpoint: a run completed by one daemon process serves the identical
// series from a fresh process over the same archive — the snapshot is
// restored into the live store on first query.
func TestSeriesArchiveRestoredAfterRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st, err := service.OpenFSStore(dir, service.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := service.New(service.Config{Workers: 1, Archive: st})
	ts1 := httptest.NewServer(s1.Handler())
	c1 := service.NewClient(ts1.URL)
	c1.PollInterval = 20 * time.Millisecond

	v, _, err := c1.Submit(ctx, fastSpec("series-restart"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err = c1.Wait(ctx, v.ID, nil); err != nil {
		t.Fatal(err)
	}
	rs := s1.TSDB().Lookup(v.ID)
	if rs == nil {
		t.Fatal("run recorded no telemetry")
	}
	wantPts, wantPer, err := rs.Query("power", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantMetrics := rs.Series()

	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := s1.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	ts1.Close()

	// A fresh process over the same archive directory: no live runs, no
	// hot telemetry — everything must come back from the snapshot.
	st2, err := service.OpenFSStore(dir, service.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := service.New(service.Config{Workers: 1, Archive: st2})
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s2.Shutdown(sctx)
		ts2.Close()
	})
	c2 := service.NewClient(ts2.URL)

	enum, err := c2.Series(ctx, v.ID, "", service.SeriesQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(enum.Metrics, wantMetrics) {
		t.Errorf("restored metrics = %v, want %v", enum.Metrics, wantMetrics)
	}
	got, err := c2.Series(ctx, v.ID, "power", service.SeriesQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if got.RawPerPoint != wantPer {
		t.Errorf("restored raw_per_point = %d, want %d", got.RawPerPoint, wantPer)
	}
	if !reflect.DeepEqual(got.Points, wantPts) {
		t.Errorf("restored points differ from the pre-restart query (%d vs %d points)",
			len(got.Points), len(wantPts))
	}
}

// TestMetricsSeriesListBounded: every name in ?series= answers with a
// copy of its series, so a list longer than what the run recorded —
// one name repeated 2 000 times is a 12 kB query and was an 8.6 MB
// answer — is refused with the 400 JSON error, by a daemon and through
// a gateway, while a list of distinct recorded names still answers.
func TestMetricsSeriesListBounded(t *testing.T) {
	ctx := context.Background()
	_, daemon := newTestServer(t, service.Config{Workers: 1})
	_, gateway, _ := newFleet(t, 1, service.GatewayConfig{LeaseTTL: time.Hour})
	repeated := strings.TrimSuffix(strings.Repeat("power,", 2000), ",")
	for name, c := range map[string]*service.Client{"daemon": daemon, "gateway": gateway} {
		v, _, err := c.Submit(ctx, fastSpec("series-bound"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, v.ID, nil); err != nil {
			t.Fatal(err)
		}
		status, body := fetch(t, c.Base, "/v1/runs/"+v.ID+"/metrics?series="+repeated)
		var e struct{ Error string }
		if status != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, "2000 names") {
			t.Errorf("%s: repeated series answered %d with %d bytes (%.80s), want the 400 JSON error", name, status, len(body), body)
		}

		status, body = fetch(t, c.Base, "/v1/runs/"+v.ID+"/metrics?series=power,pending_cores")
		var resp struct {
			Run    string
			Series []struct{ Name string }
		}
		if err := json.Unmarshal(body, &resp); status != http.StatusOK || err != nil ||
			resp.Run != v.ID || len(resp.Series) != 2 || resp.Series[0].Name != "power" || resp.Series[1].Name != "pending_cores" {
			t.Errorf("%s: power,pending_cores answered %d: %+v (err %v), want both series", name, status, resp, err)
		}
	}
}

// TestGatewayRefusesOversizedWorkerBody: a metrics body past the relay
// bound is a 502, never a truncated 200 of invalid JSON.
func TestGatewayRefusesOversizedWorkerBody(t *testing.T) {
	worker := service.New(service.Config{Workers: 1})
	huge := []byte(`{"run":"x","pad":"` + strings.Repeat("a", 8<<20) + `"}`)
	wts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/metrics") {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(huge)
			return
		}
		worker.Handler().ServeHTTP(w, r)
	}))
	gw := service.NewGateway(service.GatewayConfig{
		PollInterval: 10 * time.Millisecond,
		RetryDelay:   10 * time.Millisecond,
		LeaseTTL:     time.Hour,
	})
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
		worker.Shutdown(ctx)
		gts.Close()
		wts.Close()
	})
	if _, err := gw.Register("w1", wts.URL); err != nil {
		t.Fatal(err)
	}
	c := service.NewClient(gts.URL)
	c.PollInterval = 10 * time.Millisecond
	ctx := context.Background()
	v, _, err := c.Submit(ctx, fastSpec("oversized"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, v.ID, nil); err != nil {
		t.Fatal(err)
	}
	status, body := fetch(t, c.Base, "/v1/runs/"+v.ID+"/metrics?series=power")
	if status != http.StatusBadGateway || !bytes.Contains(body, []byte("worker response exceeds")) {
		t.Errorf("oversized worker body relayed as %d with %d bytes (%.80s), want the 502 JSON error", status, len(body), body)
	}
}

// TestSeriesOfNonSnapshotTelemetry pins what an archived run whose
// telemetry is valid JSON but not a snapshot serves. The archive keeps
// the snapshot encoded until a series query restores it, so such a
// file opens like any other: its report and its cache hits are served,
// and only its series query fails, with the restore's 500.
func TestSeriesOfNonSnapshotTelemetry(t *testing.T) {
	const hash = "fb518e50d40b7acce493955d4212ff2a6694c974f1ae884ed98f7fa3773e0791"
	raw, err := os.ReadFile(filepath.Join("testdata", "archive", hash+".json"))
	if err != nil {
		t.Fatal(err)
	}
	env, err := sim.DecodeEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	env.Telemetry = []byte(`{"series":"not a list of series"}`)
	var meta struct{ ID string }
	if err := json.Unmarshal(env.Meta, &meta); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var file bytes.Buffer
	if err := env.Encode(&file); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, hash+".json"), file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := service.OpenFSStore(dir, service.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if skipped := st.Skipped(); len(skipped) != 0 {
		t.Fatalf("skipped at open: %v", skipped)
	}

	s, c := newTestServer(t, service.Config{Workers: 1, Archive: st})
	ctx := context.Background()
	v, hit, err := c.Submit(ctx, env.Spec)
	if err != nil || !hit || v.ID != meta.ID {
		t.Fatalf("resubmission = %s hit:%v err:%v, want a hit on %s", v.ID, hit, err, meta.ID)
	}
	if n := s.Stats().Executions; n != 0 {
		t.Errorf("serving the archived run executed %d runs", n)
	}
	var report bytes.Buffer
	if err := c.WriteReport(ctx, v.ID, "json", sim.SinkOptions{}, &report); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(report.Bytes(), env.Renders["json"]) {
		t.Errorf("report is not the archived rendering")
	}
	_, err = c.Series(ctx, v.ID, "power", service.SeriesQuery{})
	var apiErr *service.Error
	if !errors.As(err, &apiErr) || apiErr.Status != 500 || !strings.Contains(apiErr.Msg, "restoring archived telemetry") {
		t.Errorf("series query = %v, want the 500 of a failed restore", err)
	}
}
