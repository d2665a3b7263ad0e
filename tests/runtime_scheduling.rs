//! Integration test E6: the runtime — backend registry, cost-hint scheduling,
//! parallel job execution, and the orthogonal communication estimator.

use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::runtime::{estimate_communication, JobStatus};
use qml_core::service::{QmlService, ServiceConfig};

fn gate_ctx(samples: u64) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(samples)
            .with_seed(1)
            .with_target(Target::ring(4)),
    )
}

fn anneal_ctx(reads: u64) -> ContextDescriptor {
    let mut cfg = AnnealConfig::with_reads(reads);
    cfg.seed = Some(1);
    ContextDescriptor::for_anneal("anneal.neal_simulator", cfg)
}

#[test]
fn explicit_engines_route_to_the_right_backends() {
    let graph = cycle(4);
    let runtime = Runtime::with_default_backends();
    let gate_id = runtime
        .submit(
            qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
                .unwrap()
                .with_context(gate_ctx(128)),
        )
        .unwrap();
    let anneal_id = runtime
        .submit(
            maxcut_ising_program(&graph)
                .unwrap()
                .with_context(anneal_ctx(128)),
        )
        .unwrap();
    assert_eq!(
        runtime.run_job(gate_id).unwrap().backend,
        "qml-gate-simulator"
    );
    assert_eq!(
        runtime.run_job(anneal_id).unwrap().backend,
        "qml-simulated-annealer"
    );
}

#[test]
fn contextless_bundles_are_placed_by_operator_family() {
    let graph = cycle(4);
    let scheduler = Scheduler::new(BackendRegistry::with_default_backends());
    let qaoa = qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap();
    let ising = maxcut_ising_program(&graph).unwrap();
    assert_eq!(
        scheduler.place(&qaoa).unwrap().backend.name(),
        "qml-gate-simulator"
    );
    assert_eq!(
        scheduler.place(&ising).unwrap().backend.name(),
        "qml-simulated-annealer"
    );
}

#[test]
fn unknown_engines_are_rejected_with_a_clear_error() {
    let graph = cycle(4);
    let scheduler = Scheduler::new(BackendRegistry::with_default_backends());
    let bundle = qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
        .unwrap()
        .with_context(ContextDescriptor::for_gate(ExecConfig::new(
            "pulse.qblox_cluster",
        )));
    let err = scheduler.place(&bundle).unwrap_err();
    assert!(err.to_string().contains("pulse.qblox_cluster"));
}

#[test]
fn parallel_drain_completes_a_mixed_batch() {
    let graph = cycle(4);
    let service = QmlService::with_config(ServiceConfig::with_workers(4));
    let mut ids = Vec::new();
    for _ in 0..3 {
        let qaoa = qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
            .unwrap()
            .with_context(gate_ctx(64));
        ids.push(service.submit("e6", qaoa).unwrap().1);
        let ising = maxcut_ising_program(&graph)
            .unwrap()
            .with_context(anneal_ctx(64));
        ids.push(service.submit("e6", ising).unwrap().1);
    }
    let summary = service.run_pending();
    assert_eq!(summary.completed, 6);
    for id in ids {
        assert_eq!(service.status(id), Some(JobStatus::Completed));
        assert!(service.result(id).is_some());
    }
}

#[test]
fn mismatched_engine_and_intent_fails_cleanly() {
    // A QAOA bundle forced onto the annealing engine cannot be realized; the
    // job is marked failed, other jobs are unaffected.
    let graph = cycle(4);
    let runtime = Runtime::with_default_backends();
    let bad = runtime
        .submit(
            qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
                .unwrap()
                .with_context(anneal_ctx(32)),
        )
        .unwrap();
    let good = runtime
        .submit(
            maxcut_ising_program(&graph)
                .unwrap()
                .with_context(anneal_ctx(32)),
        )
        .unwrap();
    assert!(runtime.run_job(bad).is_err());
    runtime.run_job(good).unwrap();
    assert!(matches!(runtime.status(bad), Some(JobStatus::Failed(_))));
    assert_eq!(runtime.status(good), Some(JobStatus::Completed));
}

#[test]
fn communication_estimator_counts_cut_crossings() {
    let graph = cycle(4);
    let bundle = qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap();
    // Splitting the ring 2|2 cuts exactly two of the four couplings.
    let estimate = estimate_communication(&bundle, 2).unwrap();
    assert_eq!(estimate.cross_partition_operations, 2);
    // Splitting 1|3 also cuts two couplings (vertex 0 touches edges to 1 and 3).
    let estimate = estimate_communication(&bundle, 1).unwrap();
    assert_eq!(estimate.cross_partition_operations, 2);
}

#[test]
fn scheduler_estimates_track_descriptor_cost_hints() {
    let scheduler = Scheduler::new(BackendRegistry::with_default_backends());
    let small = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap();
    let large =
        qaoa_maxcut_program(&cycle(12), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES; 3])).unwrap();
    let small_cost = scheduler.place(&small).unwrap().estimated_cost;
    let large_cost = scheduler.place(&large).unwrap().estimated_cost;
    assert!(large_cost > small_cost);
}
