package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root repeats Name, Unit, Better and (for end-to-end metrics) Bound; a
// unit test keeps the two in step. Moves is the prediction written down
// before anything was measured: which end-to-end metric, on which
// workload, the layer metric should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd are the metrics a user of the system sees, printed by the
// untraced run for every workload. Failed operations are counted in the
// result line's "failed" against "attempted" rather than as a metric: a
// gate on a ratio that is 0 has no base.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.05},
}

// perLayer are the metrics of single layers, printed by the traced run.
// A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "trace.generate_ms", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on sweep_grid"},
	{Name: "replay.build_ms", Unit: "ms", Better: "lower", Moves: "op_ms_p50, alloc_mb_per_op on sweep_grid; little on replay_curie"},
	{Name: "core.plan_offline_ms", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on replay_curie"},
	{Name: "rjms.advance_ms", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on replay_curie, sweep_grid; via service.stage_execute_ms on service_cold, fleet_cold; none on service_read"},
	{Name: "rjms.host_us_per_event", Unit: "us", Better: "lower", Moves: "as rjms.advance_ms, and op_ms_p50 on federation_epochs; the number to quote for engine and pass work"},
	{Name: "simengine.events_per_op", Unit: "count", Better: "lower", Moves: "identical across commits unless an issue names it beforehand"},
	{Name: "rjms.passes_per_op", Unit: "count", Better: "lower", Moves: "identical across commits unless an issue names it beforehand"},
	{Name: "rjms.pass_skip_ratio", Unit: "ratio", Better: "higher", Moves: "identical across commits unless an issue names it beforehand"},
	{Name: "power.projection_memo_hit_ratio", Unit: "ratio", Better: "higher", Moves: "identical across commits unless an issue names it beforehand"},
	{Name: "rjms.jobs_per_op", Unit: "count", Better: "higher", Moves: "identical across commits: the simulated work"},
	{Name: "metrics.samples_per_op", Unit: "count", Better: "lower", Moves: "identical across commits unless an issue names it beforehand"},
	{Name: "sim.export_json_ms", Unit: "ms", Better: "lower", Moves: "service.stage_render_ms, then op_ms_p50 on service_cold"},
	{Name: "sim.export_json_bytes", Unit: "bytes", Better: "lower", Moves: "service.report_fetch_ms_p50 on service_cold"},
	{Name: "sim.fingerprint_ms", Unit: "ms", Better: "lower", Moves: "none end to end; the check's own cost"},
	{Name: "sim.spec_hash_us", Unit: "us", Better: "lower", Moves: "service.stage_setup_ms, then op_ms_p50 on service_cold and service_read"},
	{Name: "experiment.serial_ms_p50", Unit: "ms", Better: "lower", Moves: "base of the next two"},
	{Name: "experiment.parallel_efficiency", Unit: "ratio", Better: "higher", Moves: "op_ms_p50, ops_per_s on sweep_grid only"},
	{Name: "experiment.pool_overhead_ms", Unit: "ms", Better: "lower", Moves: "explains parallel_efficiency"},
	{Name: "experiment.cell_ms_max_over_mean", Unit: "ratio", Better: "lower", Moves: "ceiling of parallel_efficiency: the slowest of 14 cells sets the parallel leg"},
	{Name: "go.allocs_per_op", Unit: "count", Better: "lower", Moves: "alloc_mb_per_op everywhere; op_ms_p50 on sweep_grid (GC contention under 2 workers)"},
	{Name: "go.gc_cycles_per_op", Unit: "count", Better: "lower", Moves: "op_ms_p50 on sweep_grid"},
	{Name: "go.gc_pause_ms_per_op", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on sweep_grid; tail latency on the service workloads"},
	{Name: "go.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "none bounded; the memory a run needs"},
	{Name: "federation.run_ms", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on federation_epochs only"},
	{Name: "federation.epochs_per_op", Unit: "count", Better: "lower", Moves: "identical across commits"},
	{Name: "federation.us_per_member_epoch", Unit: "us", Better: "lower", Moves: "op_ms_p50 on federation_epochs only"},
	{Name: "service.submit_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on service_cold, fleet_cold"},
	{Name: "service.wait_polls_per_run", Unit: "count", Better: "lower", Moves: "op_ms_p50 on service_cold, fleet_cold; falls if polling becomes push"},
	{Name: "service.report_fetch_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on service_cold, fleet_cold"},
	{Name: "service.stage_queued_ms", Unit: "ms", Better: "lower", Moves: "stays near 0 while clients <= workers"},
	{Name: "service.stage_setup_ms", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on service_cold"},
	{Name: "service.stage_execute_ms", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on service_cold, fleet_cold: the engine's share"},
	{Name: "service.stage_render_ms", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on service_cold"},
	{Name: "service.stage_archive_ms", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on service_cold: the fsync floor"},
	{Name: "service.http_overhead_ms", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on service_cold; dominant on service_read"},
	{Name: "service.executions_per_op", Unit: "count", Better: "lower", Moves: "1 on the cold workloads, 0 on service_read; anything else is a failure"},
	{Name: "service.archive_errors", Unit: "count", Better: "lower", Moves: "0; anything else is a failure"},
	{Name: "service.cachehit_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 on service_read"},
	{Name: "service.get_report_us_p50", Unit: "us", Better: "lower", Moves: "the tail of service_read (bench.op_ms_p90)"},
	{Name: "service.list_ms_p50", Unit: "ms", Better: "lower", Moves: "the tail of service_read: an O(records) walk"},
	{Name: "tsdb.query_http_us_p50", Unit: "us", Better: "lower", Moves: "the tail of service_read"},
	{Name: "service.tier_archive_share", Unit: "ratio", Better: "lower", Moves: "the tail of service_read: archive hits decode an envelope"},
	{Name: "store.mem_put_us", Unit: "us", Better: "lower", Moves: "service_cold retire; cache hits on service_read re-put"},
	{Name: "store.mem_get_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 on service_read"},
	{Name: "store.mem_list_ms", Unit: "ms", Better: "lower", Moves: "service.list_ms_p50 on service_read"},
	{Name: "store.fs_put_ms", Unit: "ms", Better: "lower", Moves: "service.stage_archive_ms on service_cold"},
	{Name: "store.fs_get_ms", Unit: "ms", Better: "lower", Moves: "archive-only reads on service_read"},
	{Name: "store.fs_list_ms", Unit: "ms", Better: "lower", Moves: "service.list_ms_p50 on service_read"},
	{Name: "tsdb.append_ns", Unit: "ns", Better: "lower", Moves: "service.stage_execute_ms on service_cold"},
	{Name: "tsdb.query_direct_us", Unit: "us", Better: "lower", Moves: "tsdb.query_http_us_p50 on service_read"},
	{Name: "tsdb.snapshot_ms", Unit: "ms", Better: "lower", Moves: "service_cold retire"},
	{Name: "tsdb.restore_ms", Unit: "ms", Better: "lower", Moves: "first series read of an archive-only run on service_read"},
	{Name: "gateway.overhead_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on fleet_cold only"},
	{Name: "gateway.dispatches_per_op", Unit: "count", Better: "lower", Moves: "1 expected"},
	{Name: "gateway.dispatch_retries", Unit: "count", Better: "lower", Moves: "0 expected; explains a tail on fleet_cold"},
	{Name: "gateway.requeues", Unit: "count", Better: "lower", Moves: "0 expected; a lost run is a failure"},
	{Name: "gateway.proxy_errors", Unit: "count", Better: "lower", Moves: "0 expected"},
	{Name: "gateway.member_balance", Unit: "ratio", Better: "lower", Moves: "ops_per_s on fleet_cold: max over mean executions per worker"},
	{Name: "obs.metrics_scrape_ms", Unit: "ms", Better: "lower", Moves: "none bounded; guards exposition cost"},
	{Name: "obs.metrics_bytes", Unit: "bytes", Better: "lower", Moves: "none bounded; guards exposition size"},
	{Name: "bench.op_ms_p90", Unit: "ms", Better: "lower", Moves: "the tail a user of the service workloads sees; needs 100 operations"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "must stay under 5 for the per-layer shares to be trusted"},
}
