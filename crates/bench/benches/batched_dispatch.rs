//! Batched vs sequential dispatch of a cold-cache sweep: the same 16-point
//! seeded restart grid drained through the streaming service with
//! micro-batching enabled (`max_batch = 16`, plan-compatible jobs coalesce
//! into device-level `execute_batch_timed` calls) and disabled (`max_batch = 1`,
//! every job dispatches solo).
//!
//! The program is QAOA p=2 on a 12-node ring routed onto a linear coupling
//! map at optimization level 2, so the one realization the batch shares is
//! genuinely expensive. Run with:
//! `cargo bench -p qml-bench --bench batched_dispatch`

use criterion::{criterion_group, criterion_main, Criterion};
use qml_core::prelude::*;
use qml_core::types::{ContextDescriptor, ExecConfig, Target};
use qml_service::{QmlService, ServiceConfig, SweepRequest};

const NODES: usize = 12;
const LAYERS: usize = 2;
const POINTS: u64 = 16;

fn context(seed: u64) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(32)
            .with_seed(seed)
            .with_target(Target::linear(NODES))
            .with_optimization_level(2),
    )
}

fn template() -> JobBundle {
    qaoa_maxcut_program(
        &qml_core::graph::cycle(NODES),
        &QaoaSchedule::Fixed(vec![RING_P1_ANGLES; LAYERS]),
    )
    .expect("valid QAOA bundle")
}

/// Submit + drain the grid on a fresh (cold-cache) service. Returns
/// jobs/second plus the gate-plan miss count and batches formed.
fn run(max_batch: usize) -> (f64, u64, u64) {
    let service = QmlService::with_config(ServiceConfig::with_workers(2).with_max_batch(max_batch));
    let mut sweep = SweepRequest::new("restarts", template());
    for seed in 0..POINTS {
        sweep = sweep.with_context(context(seed));
    }
    service
        .submit_sweep("bench", sweep)
        .expect("sweep accepted");
    let report = service.run_pending();
    assert_eq!(report.failed, 0);
    let metrics = service.metrics();
    (
        report.jobs_per_second,
        metrics.gate_cache.misses,
        metrics.scheduler.batches,
    )
}

fn bench(c: &mut Criterion) {
    // Headline numbers outside the harness.
    let (batched_jps, batched_misses, batches) = run(16);
    let (solo_jps, solo_misses, solo_batches) = run(1);
    println!(
        "[batched] {POINTS}-job cold sweep: batched {batched_jps:.0} jobs/s \
         ({batched_misses} transpilation, {batches} micro-batches) vs \
         sequential {solo_jps:.0} jobs/s ({solo_misses} transpilation, \
         {solo_batches} batches)",
    );
    println!(
        "[batched] per-job: batched {:.3} ms vs sequential {:.3} ms",
        1e3 / batched_jps,
        1e3 / solo_jps,
    );
    assert_eq!(
        batched_misses, 1,
        "a cold-cache batched sweep must transpile exactly once"
    );
    assert!(batches >= 1, "micro-batches must form");
    assert_eq!(solo_batches, 0, "max_batch = 1 disables batching");

    let mut group = c.benchmark_group("batched_dispatch");
    group.sample_size(10);
    group.bench_function("grid16_batched", |b| b.iter(|| run(16)));
    group.bench_function("grid16_sequential", |b| b.iter(|| run(1)));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
