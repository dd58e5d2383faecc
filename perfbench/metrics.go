package main

// metricDef is one metric BENCHMARK.json declares. The lists below are
// the same names, units and directions in the same order; a test
// checks both ways.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_cpu_ms_p50", "ms", "lower"},
	{"op_cpu_ms_p90", "ms", "lower"},
	{"ops_per_cpu_s", "1/s", "higher"},
	{"peek_cpu_ms_p50", "ms", "lower"},
	{"peek_cpu_ms_p90", "ms", "lower"},
	{"commit_cpu_ms_p50", "ms", "lower"},
	{"commit_cpu_ms_p90", "ms", "lower"},
	{"alloc_MB_per_op", "MB", "lower"},
	{"heap_live_MB", "MB", "lower"},
}

// perLayer are the traced run's metrics (--trace 1). README.md maps
// each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"afdx.decode_ms", "ms", "lower"},
	{"lint.ms", "ms", "lower"},
	{"afdx.port_graph_ms", "ms", "lower"},
	{"afdx.port_graph_allocs", "count", "lower"},
	{"netcalc.ms", "ms", "lower"},
	{"netcalc.alloc_MB", "MB", "lower"},
	{"netcalc.allocs", "count", "lower"},
	{"netcalc.ports_analyzed", "count", "lower"},
	{"trajectory.ms", "ms", "lower"},
	{"trajectory.alloc_MB", "MB", "lower"},
	{"trajectory.allocs", "count", "lower"},
	{"trajectory.candidate_offsets", "count", "lower"},
	{"trajectory.busy_period_iterations", "count", "lower"},
	{"core.combine_ms", "ms", "lower"},
	{"afdx.encode_ms", "ms", "lower"},
	{"afdx.clone_ms", "ms", "lower"},
	{"incremental.apply_ms", "ms", "lower"},
	{"netcalc.cached_ms", "ms", "lower"},
	{"netcalc.port_recompute_ratio", "frac", "lower"},
	{"trajectory.cached_ms", "ms", "lower"},
	{"trajectory.path_recompute_ratio", "frac", "lower"},
	{"serve.encode_ms", "ms", "lower"},
	{"serve.response_KB", "KB", "lower"},
	{"serve.wire_ms", "ms", "lower"},
	{"conformance.check_ms", "ms", "lower"},
	{"conformance.other_ms", "ms", "lower"},
	{"sim.ms", "ms", "lower"},
	{"sim.events_processed", "count", "lower"},
	{"exact.ms", "ms", "lower"},
	{"exact.evaluations", "count", "lower"},
	{"configgen.generate_ms", "ms", "lower"},
	{"trace.op_ms_p50", "ms", "lower"},
	{"trace.untraced_op_ms_p50", "ms", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.span_coverage", "frac", "higher"},
}
