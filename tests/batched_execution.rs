//! Integration tests for micro-batched dispatch and a regression fix:
//!
//! * Micro-batch dispatch through the streaming service: batches form for
//!   plan-compatible traffic, fairness accounting is per member, a failing
//!   member fails alone, and the results match a batching-disabled run
//!   exactly.
//! * **Seed-correlation regression**: unseeded jobs derive their seed from
//!   the realized program instead of a flat 0, so distinct unseeded programs
//!   no longer share sampling noise — while staying fully deterministic.

use std::collections::BTreeMap;

use qml_core::backends::{AnnealBackend, Backend, GateBackend};
use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::types::ParamValue;
use qml_service::{QmlService, ServiceConfig, SweepRequest};

fn gate_context(seed: u64, samples: u64) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(samples)
            .with_seed(seed)
            .with_target(Target::ring(4)),
    )
}

fn unseeded_gate_context(samples: u64) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(samples)
            .with_target(Target::ring(4)),
    )
}

fn fixed_qaoa() -> JobBundle {
    qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap()
}

fn anneal_context(reads: u64) -> ContextDescriptor {
    ContextDescriptor::for_anneal("anneal.neal_simulator", AnnealConfig::with_reads(reads))
}

// ---------------------------------------------------------------------------
// Service-level micro-batch dispatch
// ---------------------------------------------------------------------------

#[test]
fn streaming_service_forms_micro_batches_for_compatible_traffic() {
    // A 12-point seeded context sweep from one (uncontended) tenant: the
    // fair scheduler coalesces plan-compatible jobs into micro-batches, the
    // whole sweep transpiles once, and every per-member outcome is identical
    // to a batching-disabled run.
    let run = |max_batch: usize| {
        let mut sweep = SweepRequest::new("batched", fixed_qaoa());
        for seed in 0..12 {
            sweep = sweep.with_context(gate_context(seed, 64));
        }
        let service =
            QmlService::with_config(ServiceConfig::with_workers(2).with_max_batch(max_batch));
        let batch = service.submit_sweep("tenant", sweep).unwrap();
        let report = service.run_pending();
        assert_eq!(report.completed, 12);
        let results: Vec<_> = service
            .batch_jobs(batch)
            .into_iter()
            .map(|id| service.result(id).unwrap())
            .collect();
        (results, service.metrics())
    };

    let (batched_results, batched_metrics) = run(8);
    let (solo_results, solo_metrics) = run(1);

    assert_eq!(
        batched_results, solo_results,
        "batching must not change results"
    );
    assert_eq!(batched_metrics.gate_cache.misses, 1);
    assert_eq!(batched_metrics.gate_cache.hits, 11);

    // Batches actually formed, and fairness accounting stayed per member.
    assert!(
        batched_metrics.scheduler.batches >= 1,
        "expected micro-batches, metrics: {:?}",
        batched_metrics.scheduler
    );
    assert!(batched_metrics.scheduler.batched_jobs >= 2);
    assert!(batched_metrics.scheduler.mean_batch_size() >= 2.0);
    assert_eq!(batched_metrics.scheduler.dispatched, 12);
    assert_eq!(batched_metrics.per_tenant["tenant"].dispatched, 12);

    // A batching-disabled service dispatches everything solo.
    assert_eq!(solo_metrics.scheduler.batches, 0);
    assert_eq!(solo_metrics.scheduler.solo_jobs(), 12);
}

#[test]
fn micro_batch_member_failure_is_isolated_in_the_service() {
    // Three jobs share one symbolic plan key, but the middle one's binding
    // set was lost (unbound symbols, no bindings): it passes submission
    // validation, coalesces into the micro-batch, and fails at bind time
    // in its own backend call — its group-mates complete.
    let template = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Symbolic { layers: 1 }).unwrap();
    let good = |gamma: f64| {
        let mut b = BTreeMap::new();
        b.insert("gamma_0".to_string(), ParamValue::Float(gamma));
        b.insert("beta_0".to_string(), ParamValue::Float(0.4));
        b
    };
    let point = |gamma: f64| {
        SweepRequest::new("mixed", template.clone())
            .with_context(gate_context(3, 64))
            .with_binding_set(good(gamma))
            .expand()
            .unwrap()
            .pop()
            .unwrap()
    };

    let service = QmlService::with_config(ServiceConfig::with_workers(1).with_max_batch(8));
    let (_, ok_a) = service.submit("tenant", point(0.2)).unwrap();
    let mut doomed = point(0.9);
    doomed.bindings = None;
    let (_, bad) = service.submit("tenant", doomed).unwrap();
    let (_, ok_b) = service.submit("tenant", point(0.6)).unwrap();

    let report = service.run_pending();
    assert_eq!(report.completed, 2, "group-mates complete");
    assert_eq!(report.failed, 1, "the unbound member fails alone");
    assert!(service.result(ok_a).is_some());
    assert!(service.result(ok_b).is_some());
    assert!(service.result(bad).is_none());
    // The whole group — doomed member included — shared one plan.
    assert_eq!(service.metrics().gate_cache.misses, 1);
}

// ---------------------------------------------------------------------------
// Regression: correlated default seeds
// ---------------------------------------------------------------------------

#[test]
fn unseeded_gate_jobs_do_not_share_sampling_noise_with_seed_zero() {
    // Before the fix every unseeded gate job ran with seed = 0, so its
    // counts were identical to an explicitly seed-0 run — and therefore to
    // every other unseeded job of the same circuit shape. The derived
    // default (program hash) breaks that correlation.
    let backend = GateBackend::new();
    let unseeded = fixed_qaoa().with_context(unseeded_gate_context(1024));
    let seed_zero = fixed_qaoa().with_context(gate_context(0, 1024));

    let a = backend.execute(&unseeded).unwrap();
    let b = backend.execute(&seed_zero).unwrap();
    assert_ne!(
        a.counts, b.counts,
        "unseeded execution must not be the seed-0 stream"
    );

    // Distinct unseeded programs (different binding fingerprints ⇒ different
    // program hashes) draw from distinct streams even when their bound
    // circuits are identical in shape.
    let symbolic = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Symbolic { layers: 1 }).unwrap();
    let point = |gamma: f64| {
        let mut b = BTreeMap::new();
        b.insert("gamma_0".to_string(), ParamValue::Float(gamma));
        b.insert("beta_0".to_string(), ParamValue::Float(RING_P1_ANGLES.beta));
        SweepRequest::new("pt", symbolic.clone())
            .with_context(unseeded_gate_context(1024))
            .with_binding_set(b)
            .expand()
            .unwrap()
            .pop()
            .unwrap()
    };
    let p = point(RING_P1_ANGLES.gamma);
    let fixed = backend.execute(&unseeded).unwrap();
    let late = backend.execute(&p).unwrap();
    assert_ne!(
        fixed.counts, late.counts,
        "two distinct unseeded programs must not be sample-correlated"
    );

    // Determinism is preserved: the derived seed is a pure function of the
    // program, so re-running an unseeded bundle reproduces it exactly.
    assert_eq!(a, backend.execute(&unseeded).unwrap());
    // Explicit seeds behave exactly as before.
    assert_eq!(b, backend.execute(&seed_zero).unwrap());
}

#[test]
fn unseeded_anneal_jobs_do_not_share_sampling_noise_with_seed_zero() {
    let backend = AnnealBackend::new();
    let base = maxcut_ising_program(&cycle(4)).unwrap();
    let unseeded = base.clone().with_context(anneal_context(500));
    let mut seeded_cfg = AnnealConfig::with_reads(500);
    seeded_cfg.seed = Some(0);
    let seed_zero = base.with_context(ContextDescriptor::for_anneal(
        "anneal.neal_simulator",
        seeded_cfg,
    ));

    let a = backend.execute(&unseeded).unwrap();
    let b = backend.execute(&seed_zero).unwrap();
    assert_ne!(
        a.counts, b.counts,
        "unseeded annealing must not be the seed-0 stream"
    );
    // Deterministic: re-running the unseeded bundle reproduces its counts.
    assert_eq!(a.counts, backend.execute(&unseeded).unwrap().counts);
    // Explicit seeds are untouched by the fix.
    assert_eq!(b.counts, backend.execute(&seed_zero).unwrap().counts);
}
