package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/tsdb"
)

// storeRecords bounds how many of the workload's own records the direct
// store measurements copy.
const storeRecords = 128

// tsdbPoints is how many points the direct append measurement writes.
const tsdbPoints = 100_000

// storeLayers measures the persistence and telemetry layers directly,
// after the timed window: it copies the finished records of the
// workload's daemon into a fresh MemStore and a fresh FSStore and times
// Put, Get + ByHash and List on each, then times the tsdb calls on one of
// the workload's runs. A write-side gain that costs reads shows as these
// numbers moving apart.
func storeLayers(cfg *config, d *daemon, m map[string]float64) error {
	light, _, err := d.srv.Store().List(service.ListFilter{Limit: storeRecords})
	if err != nil {
		return err
	}
	var recs []service.Record
	for _, l := range light {
		rec, ok, err := d.srv.Store().Get(l.ID)
		if err != nil {
			return err
		}
		if ok {
			rec.Report = nil // process-local; an archive never holds it
			recs = append(recs, rec)
		}
	}
	if len(recs) == 0 {
		return fmt.Errorf("the daemon's hot tier holds no finished run")
	}
	dir, err := os.MkdirTemp(cfg.outDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := service.OpenFSStore(dir, service.FSOptions{})
	if err != nil {
		return err
	}
	defer fs.Close()
	n := float64(len(recs))
	for _, s := range []struct {
		store              service.RunStore
		put, get, list     string
		putScale, getScale float64
	}{
		{service.NewMemStore(0, nil), "store.mem_put_us", "store.mem_get_us", "store.mem_list_ms", 1000, 1000},
		{fs, "store.fs_put_ms", "store.fs_get_ms", "store.fs_list_ms", 1, 1},
	} {
		t0 := time.Now()
		for _, rec := range recs {
			if err := s.store.Put(rec); err != nil {
				return err
			}
		}
		m[s.put] = msSince(t0) * s.putScale / n
		t0 = time.Now()
		for _, rec := range recs {
			if _, ok, err := s.store.Get(rec.ID); err != nil || !ok {
				return fmt.Errorf("%s: record %s not read back: %v", s.get, rec.ID, err)
			}
			if _, ok, err := s.store.ByHash(rec.SpecHash); err != nil || !ok {
				return fmt.Errorf("%s: hash %.12s not read back: %v", s.get, rec.SpecHash, err)
			}
		}
		m[s.get] = msSince(t0) * s.getScale / n
		const lists = 10
		t0 = time.Now()
		for i := 0; i < lists; i++ {
			if got, _, err := s.store.List(service.ListFilter{}); err != nil || len(got) != len(recs) {
				return fmt.Errorf("%s: listed %d of %d records: %v", s.list, len(got), len(recs), err)
			}
		}
		m[s.list] = msSince(t0) / lists
	}

	run := tsdb.New(tsdb.Options{}).Run("bench")
	t0 := time.Now()
	for i := 0; i < tsdbPoints; i++ {
		if err := run.Append("power", int64(i)*60, float64(i%977)); err != nil {
			return err
		}
	}
	m["tsdb.append_ns"] = msSince(t0) * 1e6 / tsdbPoints

	var snap *tsdb.Snapshot
	for _, rec := range recs {
		if rec.Telemetry != nil {
			snap = rec.Telemetry
			break
		}
	}
	if snap == nil {
		return fmt.Errorf("no finished run carries telemetry")
	}
	const reps = 50
	t0 = time.Now()
	var restored *tsdb.Run
	for i := 0; i < reps; i++ {
		if restored, err = snap.Restore(); err != nil {
			return err
		}
	}
	m["tsdb.restore_ms"] = msSince(t0) / reps
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		restored.Snapshot()
	}
	m["tsdb.snapshot_ms"] = msSince(t0) / reps
	queries := 0
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		for _, res := range []int64{0, 300, 3600} {
			if pts, _, err := restored.Query("power", 0, 0, res); err != nil || len(pts) == 0 {
				return fmt.Errorf("tsdb query at res %d: %d points: %v", res, len(pts), err)
			}
			queries++
		}
	}
	m["tsdb.query_direct_us"] = msSince(t0) * 1000 / float64(queries)
	return nil
}

// scrape fetches one /metrics exposition, requires that it passes the
// repository's own exposition lint, and returns it with its fetch time.
func scrape(base string) ([]byte, float64, error) {
	t0 := time.Now()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	ms := msSince(t0)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	if problems := obs.Lint(bytes.NewReader(body)); len(problems) > 0 {
		return nil, 0, fmt.Errorf("/metrics fails obs.Lint: %s", problems[0])
	}
	return body, ms, nil
}

// promValue sums the samples of one metric family in a Prometheus text
// exposition, keeping only the samples whose label set contains label
// ("" keeps all).
func promValue(body []byte, name, label string) float64 {
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue // a longer name with this prefix
		}
		if label != "" && !strings.Contains(rest, label) {
			continue
		}
		fields := strings.Fields(rest[strings.LastIndex(rest, "}")+1:])
		if len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
			total += v
		}
	}
	return total
}

// scrapeLayers measures the daemon's metric exposition and reads the
// cache-tier counters out of it.
func scrapeLayers(base string, m map[string]float64) error {
	body, ms, err := scrape(base)
	if err != nil {
		return err
	}
	m["obs.metrics_scrape_ms"] = ms
	m["obs.metrics_bytes"] = float64(len(body))
	if all := promValue(body, "simd_cache_tier_hits_total", ""); all > 0 {
		m["service.tier_archive_share"] = promValue(body, "simd_cache_tier_hits_total", `tier="archive"`) / all
	}
	return nil
}

// gatewayLayers adds what only fleet_cold has: the gateway's own
// counters, its exposition, and what it adds to an operation's latency.
func gatewayLayers(f *fleet, spans []span, perDaemon []int, submitted int, m map[string]float64) error {
	body, ms, err := scrape(f.gwTS.URL)
	if err != nil {
		return err
	}
	m["obs.metrics_scrape_ms"] += ms
	m["obs.metrics_bytes"] += float64(len(body))
	m["gateway.dispatches_per_op"] = promValue(body, "simd_gateway_dispatches_total", "") / float64(submitted)
	m["gateway.dispatch_retries"] = promValue(body, "simd_gateway_dispatch_retries_total", "")
	m["gateway.proxy_errors"] = promValue(body, "simd_gateway_proxy_errors_total", "")
	m["gateway.requeues"] = promValue(body, "simd_gateway_requeues_total", "")

	// Per operation: the latency the client saw, minus what the assigned
	// worker spent in its stages, minus the report fetch.
	op := perOp(spans, "op")
	fetch := perOp(spans, "service.report_fetch")
	stages := make([]float64, len(op))
	for _, name := range []string{"stage.queued", "stage.setup", "stage.execute", "stage.render", "stage.archive"} {
		v := perOp(spans, name)
		if len(v) != len(op) {
			return fmt.Errorf("stage timings recorded for %d of %d operations", len(v), len(op))
		}
		for i := range v {
			stages[i] += v[i]
		}
	}
	over := make([]float64, len(op))
	for i := range op {
		over[i] = op[i] - stages[i] - fetch[i]
	}
	m["gateway.overhead_ms_p50"] = median(over)

	max, total := 0, 0
	for _, n := range perDaemon {
		total += n
		if n > max {
			max = n
		}
	}
	if total > 0 {
		m["gateway.member_balance"] = float64(max) * float64(len(perDaemon)) / float64(total)
	}
	return nil
}
