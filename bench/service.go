package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// Fixed knobs of the service workloads; README.md lists them.
const (
	clientPoll   = 2 * time.Millisecond  // service.Client.PollInterval
	gatewayPoll  = 5 * time.Millisecond  // GatewayConfig.PollInterval
	gatewayRetry = 10 * time.Millisecond // GatewayConfig.RetryDelay
	heartbeat    = time.Second           // lease renewals; the TTL stays at its 15 s default
	hotRuns      = 128                   // Config.MaxRuns of every daemon
	preloadRuns  = 256                   // finished runs service_read starts with: half are archive-only
	warmupOps    = 8                     // cold runs a set-up ends with: the fleet must answer before it counts as up
	warmCold     = servicePool           // untimed cold operations before the window: once over the pool
	readCycle    = 1024                  // reads per cycle of service_read: the mix repeats to within a percent
	warmReads    = readCycle             // untimed reads before the window
	sampleEvery  = 50                    // every 50th cold report is compared with a local sim.Run
)

// servicePool is how many job populations the service workloads draw
// their specs from. Like the replay pools they are fixed, not drawn from
// the seed: the engine time and the allocation of a one-rack run vary
// several-fold with the population, and the mean over a run's 1400
// seed-drawn populations still moved by 3 % from seed to seed — most of
// the 5 % bound on alloc_mb_per_op. The seed orders the pool and names
// the runs, so every submission is a spec the daemon has never seen.
const servicePool = 64

// poolSeed is the trace seed of pool entry k.
func poolSeed(k int) int64 { return 7001 + int64(k) }

// serviceSpec is the one-rack, one-hour smalljob run every service
// operation submits: about 10 ms of engine time, so the shell around it
// is a visible share of the latency.
func serviceSpec(name, policy string, traceSeed int64) sim.RunSpec {
	return sim.RunSpec{
		Name:         name,
		Workload:     sim.WorkloadSpec{Kind: "smalljob", Seed: traceSeed, DurationSec: 3600},
		Racks:        1,
		Policies:     []string{policy},
		CapFractions: []float64{0.6},
	}
}

// daemon is one in-process simd: the handler cmd/simd serves, behind a
// real loopback listener, archiving to a directory.
type daemon struct {
	srv  *service.Server
	ts   *httptest.Server
	arch *service.FSStore
}

func startDaemon(dir string, workers int) (*daemon, error) {
	arch, err := service.OpenFSStore(dir, service.FSOptions{})
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Config{Workers: workers, MaxRuns: hotRuns, Archive: arch})
	return &daemon{srv: srv, ts: httptest.NewServer(srv.Handler()), arch: arch}, nil
}

func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // drains the pool and closes the archive
	d.ts.Close()
}

// fleet is what a service workload talks to: one daemon, or a gateway in
// front of two.
type fleet struct {
	tmp     string
	daemons []*daemon
	gw      *service.Gateway
	gwTS    *httptest.Server
	stopHB  chan struct{}
	hbDone  chan struct{}

	transport *http.Transport
	client    *service.Client
}

// startFleet boots the daemons (and the gateway when gateway is set) and
// a client with its own connection pool.
func startFleet(cfg *config, gateway bool) (*fleet, error) {
	tmp, err := os.MkdirTemp(cfg.outDir, "archive-")
	if err != nil {
		return nil, err
	}
	f := &fleet{tmp: tmp, transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	httpc := &http.Client{Transport: &tracingTransport{base: f.transport}}
	members, workers := 1, cfg.procs
	if gateway {
		members, workers = 2, 1
	}
	for i := 0; i < members; i++ {
		d, err := startDaemon(fmt.Sprintf("%s/w%d", tmp, i), workers)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.daemons = append(f.daemons, d)
	}
	base := f.daemons[0].ts.URL
	if gateway {
		f.gw = service.NewGateway(service.GatewayConfig{PollInterval: gatewayPoll, RetryDelay: gatewayRetry})
		f.gwTS = httptest.NewServer(f.gw.Handler())
		for i, d := range f.daemons {
			if _, err := f.gw.Register(fmt.Sprintf("w%d", i), d.ts.URL); err != nil {
				f.stop()
				return nil, err
			}
		}
		f.stopHB, f.hbDone = make(chan struct{}), make(chan struct{})
		go f.heartbeats()
		base = f.gwTS.URL
	}
	f.client = service.NewClient(base)
	f.client.HTTPClient = httpc
	f.client.PollInterval = clientPoll
	return f, nil
}

// heartbeats renews the workers' leases until stop: the workers are
// registered by hand, so nothing else does.
func (f *fleet) heartbeats() {
	defer close(f.hbDone)
	t := time.NewTicker(heartbeat)
	defer t.Stop()
	for {
		select {
		case <-f.stopHB:
			return
		case <-t.C:
			for i := range f.daemons {
				_ = f.gw.Heartbeat(fmt.Sprintf("w%d", i)) // an unknown member cannot happen: all were registered above
			}
		}
	}
}

func (f *fleet) stop() {
	if f.gw != nil {
		close(f.stopHB)
		<-f.hbDone
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = f.gw.Shutdown(ctx)
		cancel()
		f.gwTS.Close()
	}
	for _, d := range f.daemons {
		d.stop()
	}
	f.transport.CloseIdleConnections()
	_ = os.RemoveAll(f.tmp) // scratch space under bench/out
}

// executions sums the fresh executions and archive errors of the
// daemons.
func (f *fleet) executions() (execs, archiveErrs int, perDaemon []int) {
	for _, d := range f.daemons {
		st := d.srv.Stats()
		execs += st.Executions
		archiveErrs += st.ArchiveErrors
		perDaemon = append(perDaemon, st.Executions)
	}
	return execs, archiveErrs, perDaemon
}

// coldRun submits a never-seen spec, waits for it and fetches its JSON
// report: the operation of service_cold and fleet_cold, and the way
// service_read preloads. With a tracer it records the client-side spans
// and, as children of the wait span, the stage timings the daemon
// persisted with the run.
func (f *fleet) coldRun(ctx context.Context, spec sim.RunSpec, op int, tr *tracer) (view service.RunView, report []byte, ms float64, ok bool) {
	root := tr.start("op", -1, op)
	t0 := time.Now()

	id := tr.start("service.submit", root, op)
	v, hit, err := f.client.Submit(withSpan(ctx, tr, id, op), spec)
	tr.end(id)
	if err != nil || hit {
		tr.end(root)
		return v, nil, msSince(t0), false
	}
	wait := tr.start("service.wait", root, op)
	v, err = f.client.Wait(withSpan(ctx, tr, wait, op), v.ID, nil)
	tr.end(wait)
	if err != nil || v.State != service.StateDone {
		tr.end(root)
		return v, nil, msSince(t0), false
	}
	var buf bytes.Buffer
	id = tr.start("service.report_fetch", root, op)
	err = f.client.WriteReport(withSpan(ctx, tr, id, op), v.ID, "json", sim.SinkOptions{}, &buf)
	tr.end(id)
	ms = msSince(t0)
	tr.end(root)
	if err != nil || buf.Len() == 0 {
		return v, nil, ms, false
	}
	if tr != nil {
		f.attachStages(ctx, tr, wait, op, v.ID)
	}
	return v, buf.Bytes(), ms, true
}

// attachStages reads the run's persisted stage timings — present once
// the daemon has retired the run, a moment after it reports done — and
// lays them end to end inside the wait span.
func (f *fleet) attachStages(ctx context.Context, tr *tracer, wait, op int, id string) {
	for try := 0; try < 200; try++ {
		v, err := f.client.Get(ctx, id)
		if err != nil {
			return
		}
		if st := v.Stages; st != nil {
			offset := int64(0)
			for _, stage := range []struct {
				name string
				ms   float64
			}{
				{"stage.setup", st.SetupMS}, {"stage.queued", st.QueuedMS}, {"stage.execute", st.ExecuteMS},
				{"stage.render", st.RenderMS}, {"stage.archive", st.ArchiveMS},
			} {
				dur := int64(stage.ms * 1e6)
				tr.add(stage.name, wait, op, offset, dur)
				offset += dur
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// coldInst is service_cold (one daemon) or fleet_cold (a gateway and two
// workers).
type coldInst struct {
	cfg   *config
	f     *fleet
	order []int
	first int // executions before the first timed operation
	ops   atomic.Int64

	mu      sync.Mutex
	sampled []sampledReport
}

type sampledReport struct {
	spec   sim.RunSpec
	report []byte
}

func (c *coldInst) spec(i int) sim.RunSpec {
	return serviceSpec(fmt.Sprintf("cold-s%d-%d", c.cfg.seed, i), "SHUT", poolSeed(c.order[i%servicePool]))
}

func newColdInst(cfg *config, gateway bool) (instance, error) {
	f, err := startFleet(cfg, gateway)
	if err != nil {
		return nil, err
	}
	c := &coldInst{cfg: cfg, f: f, order: shuffled(cfg.seed, servicePool)}
	for j := 0; j < warmupOps; j++ {
		spec := serviceSpec(fmt.Sprintf("warm-s%d-%d", cfg.seed, j), "SHUT", poolSeed(j))
		if _, _, _, ok := f.coldRun(context.Background(), spec, -1, nil); !ok {
			f.stop()
			return nil, fmt.Errorf("warm-up run %d failed", j)
		}
	}
	c.first, _, _ = f.executions()
	return c, nil
}

func (c *coldInst) clients() int { return c.cfg.procs }
func (c *coldInst) cycle() int   { return servicePool }
func (c *coldInst) warm() int    { return warmCold }
func (c *coldInst) close()       { c.f.stop() }

func (c *coldInst) op(ctx context.Context, i int, tr *tracer) (int, float64, bool) {
	spec := c.spec(i)
	_, report, ms, ok := c.f.coldRun(ctx, spec, i, tr)
	c.ops.Add(1)
	if ok && i%sampleEvery == 0 {
		c.mu.Lock()
		c.sampled = append(c.sampled, sampledReport{spec, report})
		c.mu.Unlock()
	}
	return 0, ms, ok
}

// verify compares every sampled report with the bytes a local sim.Run of
// the same spec exports, and requires exactly one execution per
// operation and no archive error.
func (c *coldInst) verify() (int, error) {
	failed := 0
	for _, s := range c.sampled {
		want, err := localRender(s.spec, "json")
		if err != nil || !bytes.Equal(want, s.report) {
			failed++
		}
	}
	execs, archiveErrs, _ := c.f.executions()
	if got, want := execs-c.first, int(c.ops.Load()); got != want {
		return failed, fmt.Errorf("%d executions for %d cold operations", got, want)
	}
	if archiveErrs != 0 {
		return failed, fmt.Errorf("%d archive writes failed", archiveErrs)
	}
	return failed, nil
}

// localRender runs the spec in-process and renders it through a sink.
func localRender(spec sim.RunSpec, format string) ([]byte, error) {
	rep, err := sim.Run(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sim.Export(&buf, format, rep, sim.SinkOptions{}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (c *coldInst) layers(cfg *config, tr *tracer, untraced, traced []opRec, m map[string]float64) error {
	// The engine's layers, from a local decomposition of every pool
	// entry: the daemon runs the same calls behind its execute stage.
	local := newTracer()
	for k := 0; k < servicePool; k++ {
		if _, err := decompose(local, k, serviceSpec("local", "SHUT", poolSeed(k))); err != nil {
			return err
		}
	}
	spans, counts := local.snapshot()
	engineLayers(spans, counts, m)

	spans, _ = tr.snapshot()
	clientLayers(spans, m)
	execs, archiveErrs, perDaemon := c.f.executions()
	m["service.executions_per_op"] = float64(execs-c.first) / float64(c.ops.Load())
	m["service.archive_errors"] = float64(archiveErrs)
	if err := storeLayers(cfg, c.f.daemons[0], m); err != nil {
		return err
	}
	if err := scrapeLayers(c.f.daemons[0].ts.URL, m); err != nil {
		return err
	}
	if c.f.gw != nil {
		return gatewayLayers(c.f, spans, perDaemon, int(c.ops.Load())+warmupOps, m)
	}
	return nil
}

// clientLayers turns the client-side spans of cold operations into the
// service metrics.
func clientLayers(spans []span, m map[string]float64) {
	m["service.submit_ms_p50"] = median(perOp(spans, "service.submit"))
	m["service.report_fetch_ms_p50"] = median(perOp(spans, "service.report_fetch"))
	m["service.wait_polls_per_run"] = mean(childCounts(spans, "service.wait", "http GET"))
	stages := 0.0
	for name, metric := range map[string]string{
		"stage.queued": "service.stage_queued_ms", "stage.setup": "service.stage_setup_ms",
		"stage.execute": "service.stage_execute_ms", "stage.render": "service.stage_render_ms",
		"stage.archive": "service.stage_archive_ms",
	} {
		v := mean(perOp(spans, name))
		m[metric] = v
		stages += v
	}
	m["service.http_overhead_ms"] = mean(perOp(spans, "op")) - stages - mean(perOp(spans, "service.report_fetch"))
}

// readInst is service_read: the daemon of service_cold, preloaded with
// finished runs, under a seeded mix of reads.
type readInst struct {
	cfg      *config
	f        *fleet
	runs     []preloaded
	schedule []readOp
	first    int // executions when set-up ended
}

type preloaded struct {
	spec   sim.RunSpec
	id     string
	csvSum [sha256.Size]byte
	points int
}

var readPolicies = []string{"SHUT", "DVFS", "MIX"}

func newReadInst(cfg *config) (instance, error) {
	f, err := startFleet(cfg, false)
	if err != nil {
		return nil, err
	}
	r := &readInst{cfg: cfg, f: f, runs: make([]preloaded, preloadRuns), schedule: readSchedule(cfg.seed, 1<<16, preloadRuns)}
	ctx := context.Background()
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		bad  atomic.Int64
	)
	for c := 0; c < cfg.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= preloadRuns {
					return
				}
				spec := serviceSpec(fmt.Sprintf("pre-s%d-%d", cfg.seed, j), readPolicies[j%len(readPolicies)], poolSeed(j%servicePool))
				v, _, _, ok := f.coldRun(ctx, spec, -1, nil)
				if !ok {
					bad.Add(1)
					continue
				}
				p := preloaded{spec: spec, id: v.ID}
				var csv bytes.Buffer
				if err := f.client.WriteReport(ctx, v.ID, "csv", sim.SinkOptions{}, &csv); err != nil {
					bad.Add(1)
					continue
				}
				p.csvSum = sha256.Sum256(csv.Bytes())
				sr, err := f.client.Series(ctx, v.ID, "power", service.SeriesQuery{Res: 300})
				if err != nil || len(sr.Points) == 0 {
					bad.Add(1)
					continue
				}
				p.points = len(sr.Points)
				r.runs[j] = p
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		f.stop()
		return nil, fmt.Errorf("%d of %d preload runs failed", n, preloadRuns)
	}
	r.first, _, _ = f.executions()
	return r, nil
}

func (r *readInst) clients() int { return r.cfg.procs }
func (r *readInst) cycle() int   { return readCycle }
func (r *readInst) warm() int    { return warmReads }
func (r *readInst) close()       { r.f.stop() }

func (r *readInst) op(ctx context.Context, i int, tr *tracer) (int, float64, bool) {
	s := r.schedule[i%len(r.schedule)]
	run := r.runs[s.target]
	root := tr.start("op", -1, i)
	ctx = withSpan(ctx, tr, root, i)
	c := r.f.client
	var (
		ok  bool
		csv bytes.Buffer
	)
	t0 := time.Now()
	switch s.kind {
	case readResubmit:
		v, hit, err := c.Submit(ctx, run.spec)
		ok = err == nil && hit && v.ID == run.id
	case readReport:
		v, err := c.Get(ctx, run.id)
		if err == nil && v.State == service.StateDone {
			err = c.WriteReport(ctx, run.id, "csv", sim.SinkOptions{}, &csv)
		}
		ok = err == nil
	case readSeries:
		sr, err := c.Series(ctx, run.id, "power", service.SeriesQuery{Res: 300})
		ok = err == nil && sr.Metric == "power" && len(sr.Points) == run.points
	case readList:
		views, _, err := c.List(ctx, service.ListFilter{Policy: "SHUT", Limit: 50})
		ok = err == nil && len(views) == 50
	}
	ms := msSince(t0)
	tr.end(root)
	if s.kind == readReport {
		ok = ok && sha256.Sum256(csv.Bytes()) == run.csvSum // hashed outside the timing
	}
	return s.kind, ms, ok
}

// verify requires that the engine executed nothing during the reads, and
// compares the CSV report of every 50th preloaded run with a local
// sim.Run of its spec.
func (r *readInst) verify() (int, error) {
	failed := 0
	for j := 0; j < len(r.runs); j += sampleEvery {
		want, err := localRender(r.runs[j].spec, "csv")
		if err != nil || sha256.Sum256(want) != r.runs[j].csvSum {
			failed++
		}
	}
	execs, archiveErrs, _ := r.f.executions()
	if execs != r.first {
		return failed, fmt.Errorf("the engine executed %d times during a read-only workload", execs-r.first)
	}
	if archiveErrs != 0 {
		return failed, fmt.Errorf("%d archive writes failed", archiveErrs)
	}
	return failed, nil
}

func (r *readInst) layers(cfg *config, tr *tracer, untraced, traced []opRec, m map[string]float64) error {
	byKind := make([][]float64, readKinds)
	for _, rec := range traced {
		byKind[rec.kind] = append(byKind[rec.kind], rec.ms)
	}
	m["service.cachehit_us_p50"] = median(byKind[readResubmit]) * 1000
	m["service.get_report_us_p50"] = median(byKind[readReport]) * 1000
	m["tsdb.query_http_us_p50"] = median(byKind[readSeries]) * 1000
	m["service.list_ms_p50"] = median(byKind[readList])
	// Nothing executes, so no stage runs: what is left of an operation
	// beside the store and tsdb calls is the HTTP shell.
	m["service.http_overhead_ms"] = mean(latencies(traced))
	// Every resubmission hashes its spec before the cache can answer.
	t0 := time.Now()
	for _, run := range r.runs {
		if _, err := sim.SpecHash(run.spec); err != nil {
			return err
		}
	}
	m["sim.spec_hash_us"] = msSince(t0) * 1000 / float64(len(r.runs))
	execs, archiveErrs, _ := r.f.executions()
	m["service.executions_per_op"] = float64(execs-r.first) / float64(len(untraced)+len(traced))
	m["service.archive_errors"] = float64(archiveErrs)
	if err := storeLayers(cfg, r.f.daemons[0], m); err != nil {
		return err
	}
	return scrapeLayers(r.f.daemons[0].ts.URL, m)
}
