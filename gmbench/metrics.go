package main

// metricDef declares one metric the benchmark prints. The end-to-end and
// per-layer lists below are the single source of truth: BENCHMARK.json
// repeats them, TestBenchmarkJSONMatches keeps the two in step, and the
// result line is rendered by walking these lists, so every declared metric
// is printed or the run fails.
type metricDef struct {
	name, unit, better string
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// sim marks a simulated quantity: deterministic for a seed, so two
	// versions of the program compare it exactly.
	sim bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd metrics are printed by every untraced run, on every workload.
// See METRICS.md for what each one means per workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "items_per_s", unit: "1/s", better: higher, bound: 0.2},
	{name: "host_mem_mib", unit: "MiB", better: lower, bound: 0.2},
	{name: "peak_reserved_gib", unit: "GiB", better: lower, bound: 0.2, sim: true},
	{name: "utilization_pct", unit: "%", better: higher, bound: 0.1, sim: true},
	{name: "latency_ms_tail", unit: "ms", better: lower, bound: 0.22, sim: true},
	{name: "sim_makespan_s", unit: "s", better: lower, bound: 0.15, sim: true},
}

// perLayer metrics are printed by every traced run, on every workload; a
// layer a workload bypasses reports zero work.
var perLayer = []metricDef{
	{name: "core.alloc_us_p50", unit: "us", better: lower},
	{name: "core.alloc_us_p99", unit: "us", better: lower},
	{name: "core.free_us_p50", unit: "us", better: lower},
	{name: "core.free_us_p99", unit: "us", better: lower},
	{name: "core.busy_share", unit: "ratio", better: lower},
	{name: "core.self_s", unit: "s", better: lower},
	{name: "core.ops", unit: "count", better: lower, sim: true},
	{name: "core.s1_exact", unit: "count", better: higher, sim: true},
	{name: "core.s2_split", unit: "count", better: lower, sim: true},
	{name: "core.s3_stitch", unit: "count", better: lower, sim: true},
	{name: "core.s4_new", unit: "count", better: lower, sim: true},
	{name: "core.exact_ratio", unit: "ratio", better: higher, sim: true},
	{name: "core.sblocks", unit: "count", better: lower, sim: true},
	{name: "core.pblocks", unit: "count", better: lower, sim: true},
	{name: "core.stitch_frees", unit: "count", better: lower, sim: true},
	{name: "core.gc_runs", unit: "count", better: lower, sim: true},

	{name: "caching.alloc_us_p50", unit: "us", better: lower},
	{name: "caching.alloc_us_p99", unit: "us", better: lower},
	{name: "caching.free_us_p50", unit: "us", better: lower},
	{name: "caching.free_us_p99", unit: "us", better: lower},
	{name: "caching.busy_share", unit: "ratio", better: lower},
	{name: "caching.self_s", unit: "s", better: lower},
	{name: "caching.ops", unit: "count", better: lower, sim: true},
	{name: "caching.peak_reserved_gib", unit: "GiB", better: lower, sim: true},
	{name: "caching.utilization_pct", unit: "%", better: higher, sim: true},

	{name: "cuda.malloc", unit: "count", better: lower, sim: true},
	{name: "cuda.free", unit: "count", better: lower, sim: true},
	{name: "cuda.address_reserve", unit: "count", better: lower, sim: true},
	{name: "cuda.address_free", unit: "count", better: lower, sim: true},
	{name: "cuda.mem_create", unit: "count", better: lower, sim: true},
	{name: "cuda.mem_release", unit: "count", better: lower, sim: true},
	{name: "cuda.mem_map", unit: "count", better: lower, sim: true},
	{name: "cuda.mem_unmap", unit: "count", better: lower, sim: true},
	{name: "cuda.calls_per_alloc", unit: "ratio", better: lower, sim: true},

	{name: "workload.step_ms_p50", unit: "ms", better: lower},
	{name: "workload.step_ms_p95", unit: "ms", better: lower},
	{name: "workload.step_self_ms_p50", unit: "ms", better: lower},
	{name: "workload.self_s", unit: "s", better: lower},
	{name: "workload.steps", unit: "count", better: higher, sim: true},
	{name: "workload.sim_step_ms", unit: "ms", better: lower, sim: true},

	{name: "serve.kv.admit_us_p50", unit: "us", better: lower},
	{name: "serve.kv.append_us_p50", unit: "us", better: lower},
	{name: "serve.kv.release_us_p50", unit: "us", better: lower},
	{name: "serve.kv.busy_share", unit: "ratio", better: lower},
	{name: "serve.kv.self_s", unit: "s", better: lower},
	{name: "serve.kv.admits", unit: "count", better: lower, sim: true},
	{name: "serve.kv.appends", unit: "count", better: lower, sim: true},
	{name: "serve.kv.admit_fail_ratio", unit: "ratio", better: lower, sim: true},
	{name: "serve.kv.utilization_pct", unit: "%", better: higher, sim: true},

	{name: "serve.self_ns_per_step", unit: "ns", better: lower},
	{name: "serve.self_share", unit: "ratio", better: lower},
	{name: "serve.self_s", unit: "s", better: lower},
	{name: "serve.steps", unit: "count", better: lower, sim: true},
	{name: "serve.mean_batch", unit: "count", better: higher, sim: true},
	{name: "serve.preemptions", unit: "count", better: lower, sim: true},
	{name: "serve.admit_failures", unit: "count", better: lower, sim: true},
	{name: "serve.blocked_steps", unit: "count", better: lower, sim: true},
	{name: "serve.prefix_hit_ratio", unit: "ratio", better: higher, sim: true},
	{name: "serve.reused_tokens", unit: "count", better: higher, sim: true},
	{name: "serve.affinity_ratio", unit: "ratio", better: higher, sim: true},
	{name: "serve.imbalance_pct", unit: "%", better: lower, sim: true},
	{name: "serve.sketched_samples", unit: "count", better: lower, sim: true},
	{name: "serve.ttft_ms_p50", unit: "ms", better: lower, sim: true},
	{name: "serve.e2e_ms_p99", unit: "ms", better: lower, sim: true},

	{name: "servegen.generate_s", unit: "s", better: lower},
	{name: "servegen.self_s", unit: "s", better: lower},
	{name: "servegen.requests", unit: "count", better: higher, sim: true},
	{name: "servegen.sessions", unit: "count", better: higher, sim: true},

	{name: "go.alloc_mib", unit: "MiB", better: lower},
	{name: "go.mallocs", unit: "count", better: lower},
	{name: "go.gc_cycles", unit: "count", better: lower},
	{name: "go.gc_pause_ms", unit: "ms", better: lower},
	{name: "go.heap_sys_mib", unit: "MiB", better: lower},

	{name: "bench.self_s", unit: "s", better: lower},
	{name: "bench.host_slowdown", unit: "ratio", better: lower},
	{name: "trace.wall_s", unit: "s", better: lower},
	{name: "trace.untraced_wall_s", unit: "s", better: lower},
	{name: "trace.overhead_s", unit: "s", better: lower},
	{name: "trace.attributed_share", unit: "ratio", better: higher},
	{name: "trace.clock_read_ns", unit: "ns", better: lower},
}
