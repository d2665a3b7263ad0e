//! The names and units of every metric the benchmark prints.
//! `BENCHMARK.json` lists the same names with their directions and bounds;
//! the contract test holds the two together.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the service sees; printed with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    m("jobs_per_s", "1/s"),
    m("cpu_ms_per_job", "ms"),
    m("latency_p50_ms", "ms"),
    m("latency_p95_ms", "ms"),
    m("heap_mb", "MB"),
    m("setup_s", "s"),
];

/// One layer each; printed with `--trace 1`. A metric whose layer the
/// workload does not touch reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // qml-types
    m("types.parse_us", "us"),
    m("types.validate_hash_us", "us"),
    m("types.json_bytes", "count"),
    m("types.decode_us", "us"),
    // qml-service::sweep
    m("sweep.expand_us", "us"),
    // qml-backends::lowering
    m("lowering.circuit_us", "us"),
    m("lowering.bqm_us", "us"),
    m("lowering.gates_out", "count"),
    // qml-transpile
    m("transpile.route_us", "us"),
    m("transpile.basis_us", "us"),
    m("transpile.optimize_us", "us"),
    m("transpile.total_us", "us"),
    m("transpile.gates_out", "count"),
    m("transpile.twoq_out", "count"),
    m("transpile.depth_out", "count"),
    m("transpile.swaps_inserted", "count"),
    // qml-backends::cache
    m("cache.hit_us", "us"),
    m("cache.miss_insert_us", "us"),
    m("cache.hits", "count"),
    m("cache.misses", "count"),
    m("cache.evictions", "count"),
    m("plan.bind_us", "us"),
    m("plan.param_sites", "count"),
    // qml-sim
    m("sim.apply_us", "us"),
    m("sim.sample_us", "us"),
    m("sim.amp_updates", "count"),
    m("sim.ns_per_amp_update", "ns"),
    m("sim.alloc_count", "count"),
    // qml-anneal
    m("anneal.sample_us", "us"),
    m("anneal.spin_updates", "count"),
    m("anneal.ns_per_spin_update", "ns"),
    // qml-backends as a whole
    m("backend.execute_warm_us", "us"),
    m("backend.execute_cold_us", "us"),
    m("backend.unattributed_share", "ratio"),
    // qml-runtime
    m("runtime.overhead_us", "us"),
    // qml-service
    m("service.submit_us", "us"),
    m("service.drain_us", "us"),
    m("service.dispatch_overhead_us", "us"),
    m("scheduler.rounds", "count"),
    m("scheduler.idle_polls", "count"),
    m("scheduler.batches", "count"),
    m("scheduler.mean_batch_size", "count"),
    m("scheduler.mean_abs_estimate_error", "units"),
    m("service.queue_wait_p50_us.latency", "us"),
    m("service.queue_wait_p95_us.latency", "us"),
    m("service.queue_wait_p50_us.throughput", "us"),
    m("service.queue_wait_p95_us.throughput", "us"),
    m("service.poll_slack_us", "us"),
    m("service.latency_p99_ms", "ms"),
    // qml-observe
    m("observe.trace_events_per_job", "count"),
    m("observe.trace_dropped", "count"),
    m("observe.trace_overhead_pct", "%"),
    m("trace.realize_us", "us"),
    m("trace.measured_us", "us"),
    m("trace.queue_wait_us", "us"),
    // allocator
    m("alloc.count_per_job", "count"),
    m("alloc.bytes_per_job", "count"),
];
