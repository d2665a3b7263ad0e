//! Measured-cost fairness walkthrough: two tenants with equal weights and
//! identical *real* per-job cost, but wildly different placement estimates —
//! one strips its cost hints (admitted at the scheduler's 1.0-unit floor),
//! the other carries descriptor hints that over-state the job ~85×. The old
//! estimate-unit scheduler would hand the hint-less tenant ~85 jobs per DRR
//! rotation and the honest tenant one; the measured-cost loop (online EWMA
//! cost model + deficit charge-back) prices both at observed busy-seconds,
//! so device time converges to the 1:1 weight ratio.
//!
//! Run with: `cargo run --release --example fairness_busy_seconds`

use std::sync::Arc;
use std::time::{Duration, Instant};

use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::service::{QmlService, ServiceConfig};
use qml_core::types::QmlError;

const JOBS_PER_TENANT: u64 = 200;
const SAMPLE_AT: u64 = 150;

fn gate_context(seed: u64) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(4096)
            .with_seed(seed)
            .with_target(Target::ring(4)),
    )
}

fn main() -> std::result::Result<(), QmlError> {
    let graph = cycle(4);
    let hinted = qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))?;
    let mut hintless = hinted.clone();
    for op in Arc::make_mut(&mut hintless.operators) {
        op.cost_hint = None;
    }
    let estimate = GateBackend::new().estimate_cost(&hinted);
    println!(
        "hinted descriptor estimate: {estimate:.1} cost units; hint-less \
         estimate: 0.0 (floored to 1.0) — same program, same 4096 shots"
    );

    // One worker and no micro-batching: the cleanest view of per-dispatch
    // DRR accounting.
    let service = QmlService::with_config(ServiceConfig::with_workers(1).with_max_batch(1));
    for i in 0..JOBS_PER_TENANT {
        service.submit("sandbagged", hintless.clone().with_context(gate_context(i)))?;
        service.submit(
            "honest",
            hinted.clone().with_context(gate_context(1000 + i)),
        )?;
    }

    let handle = service.start().expect("fresh service");
    // Sample mid-run while both tenants are still backlogged — a full drain
    // would trivially equalize busy-seconds (equal total offered work).
    let deadline = Instant::now() + Duration::from_secs(120);
    while service.metrics().jobs_completed < SAMPLE_AT && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(500));
    }
    handle.abort();

    let metrics = service.metrics();
    let sand = &metrics.per_tenant["sandbagged"];
    let honest = &metrics.per_tenant["honest"];
    let ratio = (sand.busy_seconds + 1e-9) / (honest.busy_seconds + 1e-9);
    println!(
        "at {} completed jobs: sandbagged {:.4}s busy over {} jobs, honest \
         {:.4}s over {} jobs",
        metrics.jobs_completed,
        sand.busy_seconds,
        sand.completed,
        honest.busy_seconds,
        honest.completed,
    );
    println!(
        "scheduler accuracy: {} measured outcomes, mean |estimate error| \
         {:.2} cost units/job, {:.1} units charged back",
        metrics.scheduler.cost_samples,
        metrics.scheduler.mean_abs_estimate_error(),
        metrics.scheduler.charge_back_units,
    );

    // The 25%-band acceptance criterion is proven deterministically in the
    // scheduler unit tests; the end-to-end run tolerates one cold-start
    // rotation of sampling skew on a busy CI host.
    let ok = (1.0 / 3.0..=3.0).contains(&ratio);
    println!(
        "fairness_busy_seconds ratio={ratio:.3} band={}",
        if ok { "ok" } else { "VIOLATED" }
    );
    assert!(
        ok,
        "equal weights must mean comparable busy-seconds, got {ratio:.3}"
    );
    assert!(
        metrics.scheduler.charge_back_units > 0.0,
        "the mis-estimates must have triggered deficit corrections"
    );
    Ok(())
}
