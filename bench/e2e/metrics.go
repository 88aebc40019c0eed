package main

// metricDef names one reported metric and its unit. The two lists below
// are what BENCHMARK.json declares; the smoke test checks they agree.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports. Each metric means the same
// thing to a user on every workload; "the operation" is a warm fit
// repetition on fit-* and a predict request, timed from its due time, on
// serve-*.
var endToEnd = []metricDef{
	{"setup_s", "s"},         // median set-up: cold fit in a fresh process, or exec to first good reply
	{"latency_p50_ms", "ms"}, // median operation latency
	{"latency_p98_ms", "ms"}, // tail operation latency (fit-*: slowest warm repetition)
	{"peak_rss_mib", "MiB"},  // peak resident set of the process under test
	{"cpu_ms_per_op", "ms"},  // CPU time of the process under test per operation
}

// perLayer is what a traced run reports, by layer (module).
var perLayer = []metricDef{
	{"pointio.read_ms", "ms"},
	{"core.I-1.wall_ms", "ms"},
	{"core.I-2.wall_ms", "ms"},
	{"core.II.wall_ms", "ms"},
	{"core.III-1.wall_ms", "ms"},
	{"core.III-2.wall_ms", "ms"},
	{"core.I-1.alloc_mib", "MiB"},
	{"core.I-2.alloc_mib", "MiB"},
	{"core.II.alloc_mib", "MiB"},
	{"core.III-1.alloc_mib", "MiB"},
	{"core.III-2.alloc_mib", "MiB"},
	{"core.wall_ms", "ms"},
	{"core.sim_ms", "ms"},
	{"core.II.imbalance", "ratio"},
	{"core.retries", "count"},
	{"dict.bytes", "bytes"},
	{"dict.cells", "count"},
	{"dict.subcells", "count"},
	{"dict.bytes_over_lemma43", "ratio"},
	{"spill.bytes", "bytes"},
	{"spill.reloads", "count"},
	{"stream.chunks", "count"},
	{"serve.model.build_ms", "ms"},
	{"serve.model.encode_ms", "ms"},
	{"serve.model.decode_ms", "ms"},
	{"serve.model.predict_ns", "ns"},
	{"serve.model.batch_ns_per_point", "ns"},
	{"serve.server.latency_p50_us", "us"},
	{"serve.server.latency_p99_us", "us"},
	{"serve.server.rejects", "count"},
	{"serve.server.errors", "count"},
	{"serve.refit.fit_ms_p50", "ms"},
	{"serve.refit.fit_ms_max", "ms"},
	{"serve.refit.swap_ms_p50", "ms"},
	{"serve.refit.swap_ms_max", "ms"},
	{"serve.refit.runs", "count"},
	{"serve.refit.failures", "count"},
	{"serve.refit.lag_s", "s"},
	{"serve.ingest_p99_ms", "ms"},
	{"registry.open_ms", "ms"},
	{"registry.publish_ms", "ms"},
	{"registry.manifest_append_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.gc_pause_max_ms", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"proc.cpu_user_s", "s"},
	{"proc.cpu_sys_s", "s"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.queued", "count"},
	{"loadgen.conns", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}
