package main

// metricSpec names one metric the benchmark reports. The tables below
// are the same lists as BENCHMARK.json at the root of the repository
// (a test keeps the two equal); the program carries them so that every
// value it prints has its unit and every comparison its bound.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the base by which the metric may worsen
	// Slack is an absolute change that -compare and -aa always
	// tolerate, whatever share of the base it is: a set-up of 4 ms that
	// takes 5 ms has not regressed. BENCHMARK.json has no such field;
	// the driver applies Bound alone.
	Slack float64
}

// endToEnd is what a user of the system sees, reported by every
// workload from a pass with tracing off. A failed operation is not a
// metric here because a metric may never be 0: it is the failed /
// attempted pair of the result line, and fail_frac in result.json. CPU
// per statement is not here either: same-code runs of point_open do not
// agree on it within any bound the contract allows (see README), so it
// is printed as loadgen.cpu_ms_per_stmt and reported by the traced pass
// as proc.cpu_ms_per_stmt, and does not gate.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Slack: 0.25},
	{Name: "stmt_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "write_amp", Unit: "ratio", Better: "lower", Bound: 0.02},
}

// perLayer is what the traced pass reports, named layer.metric. A
// metric a workload does not have (an INSERT has no plan, a VM scan no
// crossings into a child) is reported as 0 and listed as absent.
var perLayer = []metricSpec{
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.achieved_per_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "client.exec_us", Unit: "us", Better: "lower"},
	{Name: "wire.rtt_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_result_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_result_us", Unit: "us", Better: "lower"},
	{Name: "wire.bytes_per_stmt", Unit: "B", Better: "lower"},
	{Name: "server.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "server.shed_total", Unit: "count", Better: "lower"},
	{Name: "govern.admission_wait_us", Unit: "us", Better: "lower"},

	{Name: "engine.session_exec_us", Unit: "us", Better: "lower"},
	{Name: "engine.overhead_us", Unit: "us", Better: "lower"},
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "plan.plan_us", Unit: "us", Better: "lower"},
	{Name: "plan.udf_inlined", Unit: "count", Better: "higher"},
	{Name: "exec.run_us", Unit: "us", Better: "lower"},
	{Name: "exec.operator_us", Unit: "us", Better: "lower"},
	{Name: "exec.rows_examined_per_row_returned", Unit: "ratio", Better: "lower"},

	{Name: "udf.invoke_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "udf.overhead_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "udf.crossings_per_stmt", Unit: "count", Better: "lower"},
	{Name: "udf.rows_per_crossing", Unit: "count", Better: "higher"},
	{Name: "jvm.ns_per_byte", Unit: "ns", Better: "lower"},
	{Name: "isolate.crossing_us", Unit: "us", Better: "lower"},
	{Name: "isolate.callback_rtt_us", Unit: "us", Better: "lower"},
	{Name: "isolate.child_cpu_ms_per_stmt", Unit: "ms", Better: "lower"},
	{Name: "isolate.restarts_total", Unit: "count", Better: "lower"},
	{Name: "fleet.stream_opens_per_stmt", Unit: "count", Better: "lower"},
	{Name: "fleet.warm_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fleet.executors", Unit: "count", Better: "lower"},

	{Name: "storage.scan_us", Unit: "us", Better: "lower"},
	{Name: "storage.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.pool_evictions_per_stmt", Unit: "count", Better: "lower"},
	{Name: "storage.page_reads_per_stmt", Unit: "count", Better: "lower"},
	{Name: "storage.page_writes_per_stmt", Unit: "count", Better: "lower"},
	{Name: "storage.wal_bytes_per_stmt", Unit: "B", Better: "lower"},
	{Name: "storage.wal_fsyncs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "storage.wal_fsync_us", Unit: "us", Better: "lower"},
	{Name: "storage.checkpoints_per_kstmt", Unit: "count", Better: "lower"},
	{Name: "storage.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "storage.db_bytes_per_user_byte", Unit: "ratio", Better: "lower"},

	{Name: "proc.cpu_ms_per_stmt", Unit: "ms", Better: "lower"},
	{Name: "proc.alloc_kb_per_stmt", Unit: "KiB", Better: "lower"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
}
