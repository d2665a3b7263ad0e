//! Batch-service walkthrough: submit a QAOA angle scan and a seeded-restart
//! sweep for two tenants, drain them on the worker pool, and read the
//! service metrics (throughput, cache hit rate, per-backend utilization).
//!
//! Run with: `cargo run --release --example service_sweep`

use std::collections::BTreeMap;

use qml_core::graph::{cut_value_of_bitstring, cycle};
use qml_core::prelude::*;
use qml_core::service::{QmlService, ServiceConfig, SweepRequest};
use qml_core::types::ParamValue;

fn main() -> std::result::Result<(), QmlError> {
    let graph = cycle(4);
    let service = QmlService::with_config(ServiceConfig::with_workers(4));

    // Tenant "optimizer": one symbolic QAOA intent, nine angle points. The
    // bundle ships once; the service binds each grid point server-side.
    let template = qaoa_maxcut_program(&graph, &QaoaSchedule::Symbolic { layers: 1 })?;
    let mut scan =
        SweepRequest::new("angle-scan", template).with_context(ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator")
                .with_samples(512)
                .with_seed(42)
                .with_target(Target::ring(4)),
        ));
    for gi in 1..=3 {
        for bi in 1..=3 {
            let mut bindings = BTreeMap::new();
            bindings.insert(
                "gamma_0".to_string(),
                ParamValue::Float(std::f64::consts::PI * gi as f64 / 4.0),
            );
            bindings.insert(
                "beta_0".to_string(),
                ParamValue::Float(std::f64::consts::FRAC_PI_2 * bi as f64 / 4.0),
            );
            scan = scan.with_binding_set(bindings);
        }
    }
    let scan_batch = service.submit_sweep("optimizer", scan)?;

    // Drain the scan on its own first: all nine points share one SYMBOLIC
    // program, so the parametric plan transpiles once and is re-bound per
    // point (1 miss, 8 hits).
    let scan_report = service.run_pending();
    let scan_stats = service.metrics().gate_cache;
    println!(
        "angle-scan gate-plan cache: misses={} hits={} entries={} evictions={}",
        scan_stats.misses, scan_stats.hits, scan_stats.entries, scan_stats.evictions
    );
    assert_eq!(scan_stats.misses, 1, "the angle scan shares one plan");
    println!(
        "angle-scan drain: {} jobs ({:.0} jobs/s)",
        scan_report.jobs, scan_report.jobs_per_second
    );

    // Tenant "restarts": one fixed program, eight seeds — a sweep that
    // transpiles exactly once thanks to the shared cache.
    let fixed = qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))?;
    let mut restarts = SweepRequest::new("restarts", fixed);
    for seed in 0..8 {
        restarts = restarts.with_context(ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator")
                .with_samples(512)
                .with_seed(seed)
                .with_target(Target::ring(4)),
        ));
    }
    service.submit_sweep("restarts", restarts)?;

    println!(
        "queue depth before drain: {}",
        service.metrics().queue_depth
    );
    let report = service.run_pending();
    println!(
        "drained {} jobs on {} workers in {:.1} ms ({:.0} jobs/s)",
        report.jobs,
        report.workers,
        report.wall_seconds * 1e3,
        report.jobs_per_second,
    );

    // Best angle point of the scan.
    let mut best = (0usize, f64::MIN);
    for (i, job) in service.batch_jobs(scan_batch).into_iter().enumerate() {
        let result = service.result(job).expect("scan job completed");
        let cut = result.expectation(|w| cut_value_of_bitstring(&graph, w));
        if cut > best.1 {
            best = (i, cut);
        }
    }
    println!(
        "best scan point: #{} with expected cut {:.2}",
        best.0, best.1
    );

    let metrics = service.metrics();
    println!(
        "cache: {} hits / {} misses (hit rate {:.2})",
        metrics.cache.hits,
        metrics.cache.misses,
        metrics.cache.hit_rate(),
    );
    for (backend, util) in &metrics.per_backend {
        println!(
            "backend {backend}: {} jobs, {:.1} ms busy",
            util.jobs,
            util.busy_seconds * 1e3
        );
    }
    for (tenant, stats) in &metrics.per_tenant {
        println!(
            "tenant {tenant}: {} submitted, {} completed, {} failed",
            stats.submitted, stats.completed, stats.failed
        );
    }
    Ok(())
}
