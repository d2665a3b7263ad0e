//! Integration tests for the `qml-service` batch-execution tier: sweep
//! expansion, transpilation-cache reuse, deterministic results under
//! concurrency, and failed-job isolation within a batch.

use std::collections::BTreeMap;

use qml_core::graph::{cut_value_of_bitstring, cycle};
use qml_core::prelude::*;
use qml_core::runtime::JobStatus;
use qml_core::service::{QmlService, ServiceConfig, SweepRequest};
use qml_core::types::ParamValue;

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

fn anneal_job(reads: u64) -> JobBundle {
    maxcut_ising_program(&cycle(4))
        .unwrap()
        .with_context(ContextDescriptor::for_anneal(
            "anneal.neal_simulator",
            AnnealConfig::with_reads(reads),
        ))
}

#[test]
fn sweep_expansion_binds_angles_server_side() {
    // One symbolic intent + three angle sets: the optimizer ships one bundle,
    // the service expands and binds.
    let template = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Symbolic { layers: 1 }).unwrap();
    let mut sweep = SweepRequest::new("angle-scan", template).with_context(gate_context(42, 512));
    for gamma in [0.4, 0.6, 0.8] {
        let mut bindings = BTreeMap::new();
        bindings.insert("gamma_0".to_string(), ParamValue::Float(gamma));
        bindings.insert("beta_0".to_string(), ParamValue::Float(0.55));
        sweep = sweep.with_binding_set(bindings);
    }

    let service = QmlService::with_config(ServiceConfig::with_workers(3));
    let batch = service.submit_sweep("optimizer", sweep).unwrap();
    let jobs = service.batch_jobs(batch);
    assert_eq!(jobs.len(), 3);

    let report = service.run_pending();
    assert_eq!(report.completed, 3);
    assert_eq!(report.failed, 0);

    // Every expanded point executed with its own angles: results are
    // well-formed QAOA distributions over the same graph.
    let graph = cycle(4);
    for job in jobs {
        let result = service.result(job).unwrap();
        assert_eq!(result.shots, 512);
        let cut = result.expectation(|w| cut_value_of_bitstring(&graph, w));
        assert!(cut > 1.0, "expected a sensible cut, got {cut}");
    }
}

#[test]
fn repeated_contexts_hit_the_transpile_cache() {
    // Eight seeded restarts of one program on one target: exactly one
    // transpilation, seven cache hits.
    let mut sweep = SweepRequest::new("restarts", fixed_qaoa());
    for seed in 0..8 {
        sweep = sweep.with_context(gate_context(seed, 128));
    }
    let service = QmlService::with_config(ServiceConfig::with_workers(4));
    service.submit_sweep("tenant", sweep).unwrap();
    let report = service.run_pending();
    assert_eq!(report.completed, 8);

    let metrics = service.metrics();
    assert_eq!(metrics.gate_cache.misses, 1);
    assert_eq!(metrics.gate_cache.hits, 7);
    assert_eq!(metrics.gate_cache.entries, 1);
    assert!(metrics.cache.hit_rate() > 0.8);
}

#[test]
fn anneal_lowering_is_cached_too() {
    let mut sweep = SweepRequest::new("reads", maxcut_ising_program(&cycle(4)).unwrap());
    for reads in [50u64, 100, 150, 200] {
        sweep = sweep.with_context(ContextDescriptor::for_anneal(
            "anneal.neal_simulator",
            AnnealConfig::with_reads(reads),
        ));
    }
    let service = QmlService::with_config(ServiceConfig::with_workers(2));
    service.submit_sweep("tenant", sweep).unwrap();
    let report = service.run_pending();
    assert_eq!(report.completed, 4);
    let metrics = service.metrics();
    assert_eq!(metrics.anneal_cache.misses, 1);
    assert_eq!(metrics.anneal_cache.hits, 3);
}

#[test]
fn concurrent_execution_is_deterministic() {
    // The same sweep drained on pools of different widths must produce
    // bit-identical per-job results: seeded executions do not depend on
    // worker interleaving or steal order.
    let run_with_workers = |workers: usize| -> Vec<(u64, Counts)> {
        let mut sweep = SweepRequest::new("det", fixed_qaoa());
        for seed in 0..6 {
            sweep = sweep.with_context(gate_context(seed, 256));
        }
        let service = QmlService::with_config(ServiceConfig::with_workers(workers));
        let batch = service.submit_sweep("tenant", sweep).unwrap();
        service.run_pending();
        service
            .batch_jobs(batch)
            .into_iter()
            .map(|id| {
                let r = service.result(id).unwrap();
                (r.shots, r.counts)
            })
            .collect()
    };

    let serial = run_with_workers(1);
    let parallel = run_with_workers(4);
    assert_eq!(serial, parallel);
}

#[test]
fn failed_jobs_stay_isolated_within_a_batch() {
    // A mixed batch in which one job cannot be realized (QAOA forced onto
    // the annealer): the bad job fails, every other job completes.
    let service = QmlService::with_config(ServiceConfig::with_workers(2));
    let (_, good_gate) = service
        .submit("tenant", fixed_qaoa().with_context(gate_context(1, 64)))
        .unwrap();
    let (_, bad) = service
        .submit(
            "tenant",
            fixed_qaoa().with_context(ContextDescriptor::for_anneal(
                "anneal.neal_simulator",
                AnnealConfig::with_reads(10),
            )),
        )
        .unwrap();
    let (_, good_anneal) = service.submit("tenant", anneal_job(64)).unwrap();

    let report = service.run_pending();
    assert_eq!(report.jobs, 3);
    assert_eq!(report.completed, 2);
    assert_eq!(report.failed, 1);

    assert!(matches!(
        service.status(good_gate),
        Some(JobStatus::Completed)
    ));
    assert!(matches!(
        service.status(good_anneal),
        Some(JobStatus::Completed)
    ));
    match service.status(bad) {
        Some(JobStatus::Failed(msg)) => assert!(msg.contains("ISING_PROBLEM"), "{msg}"),
        other => panic!("expected failure, got {other:?}"),
    }

    let metrics = service.metrics();
    assert_eq!(metrics.jobs_completed, 2);
    assert_eq!(metrics.jobs_failed, 1);
    assert_eq!(metrics.per_tenant["tenant"].failed, 1);
}

#[test]
fn multi_tenant_sweeps_share_the_cache() {
    // Two tenants submitting the same program benefit from each other's
    // transpilation — the cache is a service-wide resource.
    let service = QmlService::with_config(ServiceConfig::with_workers(2));
    let mut sweep_a = SweepRequest::new("a", fixed_qaoa());
    let mut sweep_b = SweepRequest::new("b", fixed_qaoa());
    for seed in 0..3 {
        sweep_a = sweep_a.with_context(gate_context(seed, 64));
        sweep_b = sweep_b.with_context(gate_context(seed + 100, 64));
    }
    service.submit_sweep("alice", sweep_a).unwrap();
    service.submit_sweep("bob", sweep_b).unwrap();
    service.run_pending();

    let metrics = service.metrics();
    assert_eq!(
        metrics.gate_cache.misses, 1,
        "one transpilation for both tenants"
    );
    assert_eq!(metrics.gate_cache.hits, 5);
    assert_eq!(metrics.per_tenant["alice"].completed, 3);
    assert_eq!(metrics.per_tenant["bob"].completed, 3);
}

#[test]
fn queue_depth_tracks_pending_and_drains() {
    let service = QmlService::with_config(ServiceConfig::with_workers(2));
    let mut sweep = SweepRequest::new("depth", fixed_qaoa());
    for seed in 0..5 {
        sweep = sweep.with_context(gate_context(seed, 32));
    }
    service.submit_sweep("tenant", sweep).unwrap();
    assert_eq!(service.metrics().queue_depth, 5);
    service.run_pending();
    assert_eq!(service.metrics().queue_depth, 0);
    // A second drain with nothing queued is a no-op.
    let empty = service.run_pending();
    assert_eq!(empty.jobs, 0);
}

#[test]
fn jobs_metadata_carries_sweep_provenance() {
    let sweep = SweepRequest::new("prov", fixed_qaoa()).with_context(gate_context(0, 32));
    let jobs = sweep.expand().unwrap();
    assert_eq!(jobs[0].metadata["sweep"], ParamValue::Str("prov".into()));
    assert_eq!(jobs[0].metadata["sweep_index"], ParamValue::Int(0));
}
