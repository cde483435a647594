// Command simd serves the simulator as a long-running daemon: a JSON
// HTTP API accepting declarative sim.RunSpec submissions, executing
// them on a bounded worker scheduler with a content-addressed result
// cache (identical specs under load run once), per-run telemetry in an
// in-memory time-series store, SSE progress streams and graceful drain
// on SIGINT/SIGTERM.
//
//	simd -listen :8080
//	curl -s -X POST -d @examples/specs/quick_single.json localhost:8080/v1/runs
//	curl -s localhost:8080/v1/runs/r000001
//	curl -s 'localhost:8080/v1/runs/r000001/metrics?series=power&res=300'
//	curl -s localhost:8080/v1/runs/r000001/report?format=ascii
//
// The powersched and expfig commands speak this API through their
// -remote flag, so any locally expressible run can be executed by a
// shared daemon instead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/tsdb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the testable entry point: parse flags, serve until the context
// (or a termination signal) ends, drain, exit. When ready is non-nil it
// receives the bound address once the listener is up (tests bind
// ":0").
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("simd", flag.ExitOnError)
	var (
		listen       = fs.String("listen", ":8080", "HTTP listen address")
		workers      = fs.Int("workers", 2, "concurrent run executions")
		sweepWorkers = fs.Int("sweep-workers", 0, "per-run sweep pool clamp (0 = leave specs as submitted)")
		queueDepth   = fs.Int("queue", 256, "pending-submission queue bound")
		maxRuns      = fs.Int("max-runs", 1024, "retired runs held in memory before the oldest is evicted")
		points       = fs.Int("tsdb-points", 512, "telemetry ring capacity per series level")
		levels       = fs.Int("tsdb-levels", 4, "telemetry downsampling levels")
		maxSeries    = fs.Int("tsdb-series", 128, "telemetry series cap per run (4 per sweep cell; wider sweeps report dropped_series)")
		drainSecs    = fs.Int64("drain-timeout", 60, "seconds to wait for in-flight runs on shutdown before hard-cancelling them")
		archiveDir   = fs.String("archive-dir", "", "directory for the durable run archive (empty = in-memory only; results do not survive restarts)")
		archiveMax   = fs.Int("archive-max", 0, "archived run records before the oldest are pruned (0 = unbounded)")
		archiveAge   = fs.Duration("archive-max-age", 0, "archived run records older than this are pruned at boot and on store (0 = keep forever)")
		tokensFile   = fs.String("tokens-file", "", `JSON tenant/token file enabling bearer-token auth and per-tenant quotas ({"tenants":[{"name":...,"token":...,"max_queued":...,"rate_per_min":...}]})`)
		logLevel     = fs.String("log-level", "info", "structured log threshold on stderr: debug, info, warn or error")

		gateway   = fs.Bool("gateway", false, "run as a fleet gateway: route submissions to joined workers instead of executing locally")
		lease     = fs.Duration("lease", 15*time.Second, "gateway worker-lease TTL; a worker silent past it is dead and its runs requeue")
		join      = fs.String("join", "", "gateway URL to join as a worker (this daemon executes runs the gateway routes to it)")
		name      = fs.String("name", "", "stable worker name for fleet membership (default: the advertised address)")
		advertise = fs.String("advertise", "", "base URL the gateway should dial this worker at (default: derived from -listen)")
		heartbeat = fs.Duration("heartbeat", 0, "worker heartbeat cadence (default: a third of the gateway's lease TTL)")
		joinToken = fs.String("join-token", "", "bearer token for the gateway's fleet endpoints (admin token when the gateway authenticates)")
	)
	fs.Parse(args)

	if *gateway && *join != "" {
		return errors.New("simd: -gateway and -join are mutually exclusive")
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return fmt.Errorf("simd: %w", err)
	}
	logger := obs.NewLogger(os.Stderr, level)
	if *gateway {
		return runGateway(out, ready, gatewayFlags{
			listen: *listen, dispatchers: *workers, queueDepth: *queueDepth,
			lease: *lease, drainSecs: *drainSecs, tokensFile: *tokensFile,
			logger: logger,
		})
	}

	cfg := service.Config{
		Logger:       logger,
		Workers:      *workers,
		SweepWorkers: *sweepWorkers,
		QueueDepth:   *queueDepth,
		MaxRuns:      *maxRuns,
		TSDB:         tsdb.Options{PointsPerLevel: *points, Levels: *levels, MaxSeriesPerRun: *maxSeries},
	}
	if *archiveDir != "" {
		fsStore, err := service.OpenFSStore(*archiveDir, service.FSOptions{MaxRecords: *archiveMax, MaxAge: *archiveAge})
		if err != nil {
			return fmt.Errorf("opening archive: %w", err)
		}
		for _, f := range fsStore.Skipped() {
			fmt.Fprintf(out, "simd: archive: skipping unreadable %s\n", f)
		}
		cfg.Archive = fsStore
	}
	if *tokensFile != "" {
		tenants, err := service.LoadTokens(*tokensFile)
		if err != nil {
			return fmt.Errorf("loading tokens: %w", err)
		}
		auth, err := service.NewAuth(tenants)
		if err != nil {
			return err
		}
		cfg.Auth = auth
		fmt.Fprintf(out, "simd: auth enabled for %d tenants\n", len(tenants))
	}
	srv := service.New(cfg)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// Slow-client bounds: headers cannot trickle forever and idle
		// keep-alives are reaped. No ReadTimeout — it is an absolute
		// per-connection deadline that would sever long-lived SSE
		// /events streams mid-run; request bodies are bounded by size
		// (MaxBytesReader in the handler) instead of time.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(out, "simd listening on %s (%d workers, queue %d)\n", ln.Addr(), *workers, *queueDepth)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	if *join != "" {
		addr := advertiseURL(*advertise, ln.Addr().String())
		workerName := *name
		if workerName == "" {
			workerName = addr
		}
		fm := &service.FleetMember{
			Gateway:   *join,
			Name:      workerName,
			Advertise: addr,
			Token:     *joinToken,
			Interval:  *heartbeat,
		}
		fmt.Fprintf(out, "simd joining fleet %s as %s (%s)\n", *join, workerName, addr)
		go func() { _ = fm.Run(ctx) }()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections and submissions, let
	// in-flight runs finish (bounded by -drain-timeout), then exit 0.
	// The two shutdowns must overlap: SSE followers of queued runs hold
	// their connections open until those runs turn terminal, which is
	// exactly what the service drain's queued-run cancellation causes —
	// sequencing the HTTP shutdown first would let one follower burn
	// the whole budget and force a hard cancel of healthy runs.
	fmt.Fprintln(out, "simd draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSecs)*time.Second)
	defer cancel()
	svcDone := make(chan error, 1)
	go func() { svcDone <- srv.Shutdown(drainCtx) }()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		<-svcDone
		return err
	}
	if err := <-svcDone; err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(out, "simd drained: %d runs served, %d executions, %d cache hits\n",
		st.Runs, st.Executions, st.CacheHits)
	return nil
}

// gatewayFlags carries the subset of flags the gateway mode consumes.
type gatewayFlags struct {
	listen      string
	dispatchers int
	queueDepth  int
	lease       time.Duration
	drainSecs   int64
	tokensFile  string
	logger      *obs.Logger
}

// runGateway serves the fleet gateway: same /v1 surface, no local
// execution — submissions route to joined workers by rendezvous hashing
// on the spec hash, and a worker whose lease lapses has its in-flight
// runs requeued elsewhere.
func runGateway(out io.Writer, ready chan<- string, gf gatewayFlags) error {
	cfg := service.GatewayConfig{
		Dispatchers: gf.dispatchers,
		QueueDepth:  gf.queueDepth,
		LeaseTTL:    gf.lease,
		Logger:      gf.logger,
	}
	if gf.tokensFile != "" {
		tenants, err := service.LoadTokens(gf.tokensFile)
		if err != nil {
			return fmt.Errorf("loading tokens: %w", err)
		}
		auth, err := service.NewAuth(tenants)
		if err != nil {
			return err
		}
		cfg.Auth = auth
		fmt.Fprintf(out, "simd: auth enabled for %d tenants\n", len(tenants))
	}
	gw := service.NewGateway(cfg)

	ln, err := net.Listen("tcp", gf.listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(out, "simd gateway listening on %s (lease %s, queue %d)\n", ln.Addr(), cfg.LeaseTTL, gf.queueDepth)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(out, "simd gateway draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Duration(gf.drainSecs)*time.Second)
	defer cancel()
	gwDone := make(chan error, 1)
	go func() { gwDone <- gw.Shutdown(drainCtx) }()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		<-gwDone
		return err
	}
	if err := <-gwDone; err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	st := gw.Stats(context.Background()).Gateway
	fmt.Fprintf(out, "simd gateway drained: %d runs routed, %d cache hits, %d requeues\n",
		st.Runs, st.CacheHits, st.Requeues)
	return nil
}

// advertiseURL resolves the worker address the gateway dials: the
// explicit -advertise when given, else the bound listen address with
// unspecified hosts (":8080", "0.0.0.0", "[::]") rewritten to loopback
// — the single-machine default; multi-host fleets must advertise a
// reachable name explicitly.
func advertiseURL(advertise, bound string) string {
	if advertise != "" {
		if !strings.Contains(advertise, "://") {
			return "http://" + advertise
		}
		return advertise
	}
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return "http://" + bound
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}
