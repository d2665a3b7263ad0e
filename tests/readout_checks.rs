//! Readout checks run once per plan, when lowering builds it: a result
//! schema that cannot decode every word the backend would measure fails the
//! job — as an `Err` from a backend and as a `Failed` job in a running
//! service, never as a panic or a `Completed` job whose counts do not
//! decode. Because the check lives on the plan-build path, a cached plan
//! serves every later job with no schema work, which the cache counters
//! show. A malformed Ising problem, a coupling of a spin to itself, fails
//! on the same path.

use std::sync::Arc;
use std::time::Duration;

use qml_core::backends::{AnnealBackend, Backend, GateBackend, TranspileCache};
use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::runtime::JobStatus;
use qml_core::types::{OperatorDescriptor, RepKind};

const WAIT: Duration = Duration::from_secs(60);

fn gate_context(seed: u64) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(64)
            .with_seed(seed),
    )
}

fn anneal_context(seed: u64) -> ContextDescriptor {
    ContextDescriptor::for_anneal(
        "anneal.neal_simulator",
        AnnealConfig {
            seed: Some(seed),
            num_sweeps: Some(10),
            ..AnnealConfig::with_reads(16)
        },
    )
}

fn gate_job(seed: u64) -> JobBundle {
    qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
        .unwrap()
        .with_context(gate_context(seed))
}

fn anneal_job(seed: u64) -> JobBundle {
    maxcut_ising_program(&cycle(4))
        .unwrap()
        .with_context(anneal_context(seed))
}

/// `bundle` with the readout of its schema-carrying operator reinterpreted
/// AS_PHASE; the Ising register it reads declares no `phase_scale`.
fn as_phase(mut bundle: JobBundle) -> JobBundle {
    let register = bundle.data_types[0].clone();
    let op = Arc::make_mut(&mut bundle.operators)
        .iter_mut()
        .find(|op| op.rep_kind.is_measurement() || op.rep_kind.is_problem())
        .unwrap();
    let mut schema = op
        .result_schema
        .clone()
        .unwrap_or_else(|| ResultSchema::for_register(&register));
    schema.datatype = MeasurementSemantics::AsPhase;
    op.result_schema = Some(schema);
    bundle
}

/// Two registers, both measured: the circuit produces 2 + 3 classical bits
/// while the readout's schema (the last measurement's) declares 3.
fn two_readouts() -> JobBundle {
    let a = QuantumDataType::bool_register("a", "a", 2).unwrap();
    let b = QuantumDataType::bool_register("b", "b", 3).unwrap();
    let prep = |reg: &str| {
        OperatorDescriptor::builder(format!("prep_{reg}"), RepKind::PrepUniform, reg)
            .build()
            .unwrap()
    };
    let measure = |reg: &QuantumDataType| {
        OperatorDescriptor::builder(format!("measure_{}", reg.id), RepKind::Measurement, &reg.id)
            .result_schema(ResultSchema::for_register(reg))
            .build()
            .unwrap()
    };
    let ops = vec![prep("a"), prep("b"), measure(&a), measure(&b)];
    JobBundle::new("two-readouts", vec![a, b], ops).with_context(gate_context(3))
}

/// `bundle` fails with a message containing `needle` through the backend,
/// on every attempt and without ever caching a plan, and through a running
/// service as a `Failed` job with no result.
fn assert_rejected(backend: &dyn Backend, bundle: JobBundle, needle: &str) {
    let cache = TranspileCache::new();
    for _ in 0..2 {
        match backend.execute_cached(&bundle, &cache) {
            Err(e) => assert!(e.to_string().contains(needle), "{e}"),
            Ok(result) => panic!("{} completed: {:?}", bundle.name, result.counts),
        }
    }
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits, stats.entries), (2, 0, 0));
    assert!(backend.execute(&bundle).is_err());

    let service = QmlService::new();
    let handle = service.start().unwrap();
    let (_, job) = service.submit("tenant", bundle).unwrap();
    match service.wait_for(job, WAIT) {
        Some(JobStatus::Failed(msg)) => assert!(msg.contains(needle), "{msg}"),
        other => panic!("expected a failed job, got {other:?}"),
    }
    assert!(service.result(job).is_none());
    let summary = handle.drain();
    assert_eq!((summary.completed, summary.failed), (0, 1));
}

#[test]
fn as_phase_without_phase_scale_fails_the_job_on_the_gate_plane() {
    assert_rejected(&GateBackend::new(), as_phase(gate_job(1)), "no phase_scale");
}

#[test]
fn as_phase_without_phase_scale_fails_the_job_on_the_anneal_plane() {
    assert_rejected(
        &AnnealBackend::new(),
        as_phase(anneal_job(1)),
        "no phase_scale",
    );
}

#[test]
fn a_self_coupling_fails_the_job_on_the_anneal_plane() {
    let mut bundle = maxcut_ising_program(&cycle(3))
        .unwrap()
        .with_context(anneal_context(1));
    let coupling = |i: usize, k: usize| ParamValue::List(vec![i.into(), k.into(), 1.0.into()]);
    let op = &mut Arc::make_mut(&mut bundle.operators)[0];
    op.params
        .insert("j", ParamValue::List(vec![coupling(0, 1), coupling(1, 1)]));
    bundle.validate().unwrap();
    assert_rejected(
        &AnnealBackend::new(),
        bundle,
        "coupling (1,1) joins spin 1 to itself",
    );
}

#[test]
fn a_schema_narrower_than_the_measured_width_fails_the_job() {
    assert_rejected(
        &GateBackend::new(),
        two_readouts(),
        "declares 3 classical bits",
    );
}

#[test]
fn a_cached_plan_serves_a_hundred_jobs_without_rebuilding() {
    let cache = TranspileCache::new();
    for seed in 0..100 {
        GateBackend::new()
            .execute_cached(&gate_job(seed), &cache)
            .unwrap();
        AnnealBackend::new()
            .execute_cached(&anneal_job(seed), &cache)
            .unwrap();
    }
    for stats in [cache.gate_stats(), cache.anneal_stats()] {
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 99, 1));
    }
}

/// Every word a completed job reports decodes under its schema.
#[test]
fn completed_results_decode_on_demand() {
    for (backend, bundle) in [
        (&GateBackend::new() as &dyn Backend, gate_job(7)),
        (&AnnealBackend::new() as &dyn Backend, anneal_job(7)),
    ] {
        let result = backend.execute(&bundle).unwrap();
        let register = &bundle.data_types[0];
        let schema = ResultSchema::for_register(register);
        let decoded = DecodedCounts::decode(&result.counts, &schema, register).unwrap();
        assert_eq!(decoded.total, result.shots);
        assert_eq!(decoded.decoded.len(), result.counts.len());
    }
}
