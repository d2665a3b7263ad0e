//! Integration tests for measured-cost fairness: the scheduler's deficit is
//! reconciled against observed busy-seconds (charge-back + online cost
//! model), so weighted fairness holds in device time even when placement
//! estimates are wildly wrong.

use std::time::{Duration, Instant};

use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::service::{QmlService, ServiceConfig, SweepRequest};

fn gate_context(seed: u64, samples: u64) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(samples)
            .with_seed(seed)
            .with_target(Target::ring(4)),
    )
}

fn fixed_qaoa() -> JobBundle {
    qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap()
}

/// The same program with its descriptors' cost hints stripped: placement
/// estimates 0.0 (floored to the scheduler's minimum), while the job's real
/// execution cost is unchanged — the systematic mis-estimate this PR's
/// fairness loop exists to absorb.
fn hintless_qaoa() -> JobBundle {
    let mut bundle = fixed_qaoa();
    for op in &mut bundle.operators {
        op.cost_hint = None;
    }
    bundle
}

const WAIT: Duration = Duration::from_secs(60);

#[test]
fn busy_seconds_and_estimate_error_gauges_populate() {
    let service = QmlService::with_config(ServiceConfig::with_workers(2));
    let mut sweep = SweepRequest::new("seeds", fixed_qaoa());
    for seed in 0..6 {
        sweep = sweep.with_context(gate_context(seed, 64));
    }
    service.submit_sweep("alice", sweep).unwrap();
    let report = service.run_pending();
    assert_eq!(report.completed, 6);

    let metrics = service.metrics();
    // Every finished job fed the measured-cost loop.
    assert_eq!(metrics.scheduler.cost_samples, 6);
    assert!(metrics.scheduler.mean_abs_estimate_error() >= 0.0);
    // Per-tenant busy-seconds mirror the per-backend attribution: both fold
    // the same honest per-job durations.
    let tenant_busy = metrics.per_tenant["alice"].busy_seconds;
    let backend_busy: f64 = metrics.per_backend.values().map(|u| u.busy_seconds).sum();
    assert!(tenant_busy > 0.0, "measured busy-seconds must accumulate");
    assert!(
        (tenant_busy - backend_busy).abs() < 1e-9,
        "tenant ({tenant_busy}) and backend ({backend_busy}) busy-seconds \
         fold the same durations"
    );
}

/// Submit `jobs` per tenant (interleaved), run on one worker until
/// `sample_at` jobs completed, abort, and return the per-tenant
/// (busy-seconds, completed) pairs as ((sandbagged), (honest)).
fn run_mis_estimated(config: ServiceConfig, jobs: u64, sample_at: u64) -> ((f64, u64), (f64, u64)) {
    let service = QmlService::with_config(config);
    for i in 0..jobs {
        service
            .submit(
                "sandbagged",
                hintless_qaoa().with_context(gate_context(i, 4096)),
            )
            .unwrap();
        service
            .submit(
                "honest",
                fixed_qaoa().with_context(gate_context(1000 + i, 4096)),
            )
            .unwrap();
    }
    let handle = service.start().unwrap();
    // Sample mid-run, while both tenants are still backlogged: a full drain
    // would trivially equalize busy-seconds (equal total work).
    let deadline = Instant::now() + WAIT;
    while service.metrics().jobs_completed < sample_at && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(500));
    }
    handle.abort();
    let metrics = service.metrics();
    let sand = &metrics.per_tenant["sandbagged"];
    let honest = &metrics.per_tenant["honest"];
    (
        (sand.busy_seconds, sand.completed),
        (honest.busy_seconds, honest.completed),
    )
}

#[test]
fn under_estimated_tenant_cannot_hog_busy_seconds() {
    // Two tenants, equal weights, identical *real* per-job cost — but
    // "sandbagged" strips its cost hints (admitted at the 1.0 floor) while
    // "honest" carries descriptor hints that over-state the job by ~85×.
    // In estimate units the scheduler would hand sandbagged ~85 jobs per
    // rotation and honest one; measured-cost repricing and charge-back
    // price both at their observed busy-seconds, so device time converges
    // to the 1:1 weight ratio after the cold-start rotation.
    let config = ServiceConfig::with_workers(1).with_max_batch(1);
    let ((sand_busy, sand_done), (honest_busy, honest_done)) = run_mis_estimated(config, 200, 150);
    assert!(
        sand_done >= 10 && honest_done >= 10,
        "both tenants must make progress mid-run (sandbagged {sand_done}, honest {honest_done})"
    );
    let ratio = (sand_busy + 1e-9) / (honest_busy + 1e-9);
    assert!(
        (1.0 / 3.0..=3.0).contains(&ratio),
        "equal weights must mean comparable busy-seconds; got ratio {ratio:.2} \
         ({sand_busy:.4}s over {sand_done} jobs vs {honest_busy:.4}s over {honest_done})"
    );
}

#[test]
fn measured_costs_reprice_streaming_resubmissions() {
    // Round 1 submits a plan the scheduler has never measured: admission
    // uses the descriptor estimate and the error gauge records the gap.
    // Round 2 resubmits the same plan after its outcomes have been
    // measured: admissions now charge the model's busy-seconds prediction,
    // so the per-job estimate error must shrink decisively.
    let service = QmlService::with_config(ServiceConfig::with_workers(1));
    let handle = service.start().unwrap();
    let submit_round = |base: u64| {
        for i in 0..8 {
            service
                .submit(
                    "opt",
                    fixed_qaoa().with_context(gate_context(base + i, 256)),
                )
                .unwrap();
        }
    };
    submit_round(0);
    assert!(service.wait_idle(WAIT), "round 1 must finish");
    let round1 = service.metrics().scheduler;
    assert_eq!(round1.cost_samples, 8);
    let round1_mean = round1.estimate_error_units / round1.cost_samples as f64;

    submit_round(1000);
    assert!(service.wait_idle(WAIT), "round 2 must finish");
    handle.drain();
    let total = service.metrics().scheduler;
    assert_eq!(total.cost_samples, 16);
    let round2_mean = (total.estimate_error_units - round1.estimate_error_units) / 8.0;
    assert!(
        round2_mean < round1_mean * 0.5,
        "model-priced admissions must at least halve the estimate error \
         (round 1 {round1_mean:.3} units/job, round 2 {round2_mean:.3})"
    );
}

#[test]
fn shot_ladder_batches_still_form_with_measured_costs() {
    // Micro-batching and measured costs compose: an anneal shot ladder
    // coalesces (read policy is outside the plan key), completes, and the
    // measured loop sees every member.
    let service = QmlService::with_config(ServiceConfig::with_workers(1));
    for reads in [16u64, 64, 256, 1024] {
        service
            .submit(
                "ladder",
                maxcut_ising_program(&cycle(4)).unwrap().with_context(
                    ContextDescriptor::for_anneal(
                        "anneal.neal_simulator",
                        AnnealConfig::with_reads(reads),
                    ),
                ),
            )
            .unwrap();
    }
    let report = service.run_pending();
    assert_eq!(report.completed, 4);
    let metrics = service.metrics();
    assert!(metrics.scheduler.batches >= 1, "the ladder must coalesce");
    assert_eq!(metrics.scheduler.cost_samples, 4);
    assert!(metrics.per_tenant["ladder"].busy_seconds > 0.0);
}
