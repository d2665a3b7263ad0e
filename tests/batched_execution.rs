//! Integration tests for device-level batched execution and the two PR-4
//! regression fixes:
//!
//! * `Backend::execute_batch` (gate + anneal): bit-for-bit identity with the
//!   sequential cached path, submission-order outcomes, failing-member
//!   isolation, and exactly one realization for a cold-cache compatible
//!   batch.
//! * Micro-batch dispatch through the streaming service: batches form for
//!   plan-compatible traffic, fairness accounting is per member, and the
//!   results match a batching-disabled run exactly.
//! * **DRR monopoly regression**: zero-cost (hint-less) jobs must spend
//!   deficit, so a hint-less queue cannot drain in one parked visit.
//! * **Seed-correlation regression**: unseeded jobs derive their seed from
//!   the realized program instead of a flat 0, so distinct unseeded programs
//!   no longer share sampling noise — while staying fully deterministic.

use std::collections::BTreeMap;

use qml_core::backends::{AnnealBackend, Backend, GateBackend, TranspileCache};
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

/// A symbolic QAOA sweep: one program, `n` late-bound angle points, one
/// seeded context — every member shares one gate-plan key.
fn angle_sweep_bundles(n: usize) -> Vec<JobBundle> {
    let template = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Symbolic { layers: 1 }).unwrap();
    let mut sweep = SweepRequest::new("batch", template).with_context(gate_context(7, 128));
    for i in 0..n {
        let mut bindings = BTreeMap::new();
        bindings.insert(
            "gamma_0".to_string(),
            ParamValue::Float(0.2 + 0.05 * i as f64),
        );
        bindings.insert("beta_0".to_string(), ParamValue::Float(0.4));
        sweep = sweep.with_binding_set(bindings);
    }
    sweep.expand().unwrap()
}

fn anneal_context(reads: u64) -> ContextDescriptor {
    ContextDescriptor::for_anneal("anneal.neal_simulator", AnnealConfig::with_reads(reads))
}

/// A shot ladder over one Ising problem: same BQM, same schedule, varying
/// read counts — one anneal-plan key.
fn read_ladder_bundles(reads: &[u64]) -> Vec<JobBundle> {
    let base = maxcut_ising_program(&cycle(4)).unwrap();
    reads
        .iter()
        .map(|&r| base.clone().with_context(anneal_context(r)))
        .collect()
}

// ---------------------------------------------------------------------------
// Backend-level execute_batch
// ---------------------------------------------------------------------------

#[test]
fn gate_batch_is_bit_identical_to_sequential_and_misses_once() {
    let bundles = angle_sweep_bundles(6);
    let backend = GateBackend::new();

    let sequential_cache = TranspileCache::new();
    let sequential: Vec<_> = bundles
        .iter()
        .map(|b| backend.execute_cached(b, &sequential_cache).unwrap())
        .collect();

    let batch_cache = TranspileCache::new();
    let batched = backend.execute_batch(&bundles, &batch_cache);
    assert_eq!(batched.len(), 6);
    for (i, (seq, bat)) in sequential.iter().zip(&batched).enumerate() {
        assert_eq!(
            seq,
            bat.as_ref().unwrap(),
            "member {i} diverged from the sequential path"
        );
    }

    // A cold-cache batch of N compatible jobs realizes exactly one plan, and
    // the counters stay member-accurate (identical to sequential).
    let stats = batch_cache.gate_stats();
    assert_eq!(stats.misses, 1, "one transpilation for the whole batch");
    assert_eq!(stats.hits, 5);
    assert_eq!(stats.entries, 1);
    assert_eq!(sequential_cache.gate_stats(), stats);

    // A solo job is a batch of one: the uncached entry point and a
    // one-member batch reproduce what the member got inside the batch, with
    // the same member-accurate counters.
    let solo_cache = TranspileCache::new();
    for (bundle, member) in bundles.iter().zip(&sequential) {
        assert_eq!(&backend.execute(bundle).unwrap(), member);
        let solo = backend.execute_batch(std::slice::from_ref(bundle), &solo_cache);
        assert_eq!(solo[0].as_ref().unwrap(), member);
    }
    assert_eq!(solo_cache.gate_stats(), stats);
}

#[test]
fn gate_batch_outcomes_stay_in_submission_order() {
    // Same plan key throughout, but distinguishable sampling policies: the
    // outcome at index i must carry member i's shot count.
    let samples = [32u64, 64, 96, 128];
    let bundles: Vec<JobBundle> = samples
        .iter()
        .map(|&s| fixed_qaoa().with_context(gate_context(1, s)))
        .collect();
    let cache = TranspileCache::new();
    let results = GateBackend::new().execute_batch(&bundles, &cache);
    for (i, result) in results.iter().enumerate() {
        assert_eq!(result.as_ref().unwrap().shots, samples[i]);
    }
    assert_eq!(cache.gate_stats().misses, 1);
}

#[test]
fn gate_batch_failing_member_does_not_poison_its_group() {
    // Member 1 targets the annealing engine: the gate backend cannot prepare
    // it. Members 0 and 2 share a plan and must complete untouched.
    let bundles = vec![
        fixed_qaoa().with_context(gate_context(1, 64)),
        fixed_qaoa().with_context(anneal_context(10)),
        fixed_qaoa().with_context(gate_context(2, 64)),
    ];
    let cache = TranspileCache::new();
    let results = GateBackend::new().execute_batch(&bundles, &cache);
    assert!(results[0].is_ok());
    assert!(results[1].is_err(), "wrong-engine member fails in place");
    assert!(results[2].is_ok());
    assert_eq!(cache.gate_stats().misses, 1);

    // The good members are bit-identical to their solo executions.
    let solo_cache = TranspileCache::new();
    let solo = GateBackend::new()
        .execute_cached(&bundles[0], &solo_cache)
        .unwrap();
    assert_eq!(results[0].as_ref().unwrap(), &solo);
}

#[test]
fn gate_batch_groups_interleaved_plan_keys_without_thrashing() {
    // Two plan keys interleaved A,B,A,B on a capacity-1 cache: sequential
    // execution would rebuild on every member (LRU thrash); the batch path
    // groups by key and realizes each plan exactly once.
    let ring = fixed_qaoa().with_context(gate_context(1, 32));
    let linear = fixed_qaoa().with_context(ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(32)
            .with_seed(1)
            .with_target(Target::linear(4)),
    ));
    let bundles = vec![ring.clone(), linear.clone(), ring, linear];
    let cache = TranspileCache::with_capacity(1);
    let results = GateBackend::new().execute_batch(&bundles, &cache);
    assert!(results.iter().all(|r| r.is_ok()));
    assert_eq!(
        cache.gate_stats().misses,
        2,
        "one realization per distinct plan, regardless of cache capacity"
    );
}

#[test]
fn anneal_batch_matches_sequential_and_shares_one_lowering() {
    let bundles = read_ladder_bundles(&[50, 100, 150, 200]);
    let backend = AnnealBackend::new();

    let sequential_cache = TranspileCache::new();
    let sequential: Vec<_> = bundles
        .iter()
        .map(|b| backend.execute_cached(b, &sequential_cache).unwrap())
        .collect();

    let batch_cache = TranspileCache::new();
    let batched = backend.execute_batch(&bundles, &batch_cache);
    for (i, (seq, bat)) in sequential.iter().zip(&batched).enumerate() {
        assert_eq!(seq, bat.as_ref().unwrap(), "read-ladder member {i}");
        assert_eq!(seq.shots, [50, 100, 150, 200][i], "submission order kept");
    }
    let stats = batch_cache.anneal_stats();
    assert_eq!(stats.misses, 1, "one BQM lowering for the whole ladder");
    assert_eq!(stats.hits, 3);
    assert_eq!(sequential_cache.anneal_stats(), stats);

    // Same on the annealer: every entry point is the one batch path.
    let solo_cache = TranspileCache::new();
    for (bundle, member) in bundles.iter().zip(&sequential) {
        assert_eq!(&backend.execute(bundle).unwrap(), member);
        let solo = backend.execute_batch(std::slice::from_ref(bundle), &solo_cache);
        assert_eq!(solo[0].as_ref().unwrap(), member);
    }
    assert_eq!(solo_cache.anneal_stats(), stats);
}

#[test]
fn anneal_batch_failing_member_stays_isolated() {
    // A gate-model QAOA bundle cannot lower to a BQM; its neighbors sample
    // normally.
    let bundles = vec![
        read_ladder_bundles(&[50]).pop().unwrap(),
        fixed_qaoa().with_context(anneal_context(10)),
        read_ladder_bundles(&[80]).pop().unwrap(),
    ];
    let results = AnnealBackend::new().execute_batch(&bundles, &TranspileCache::new());
    assert!(results[0].is_ok());
    assert!(results[1].is_err());
    assert!(results[2].is_ok());
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
    // inside `execute_batch` — its group-mates complete.
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
