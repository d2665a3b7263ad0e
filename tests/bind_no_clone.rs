//! Acceptance test: **no full-`Circuit` clone on the parametric bind path**.
//!
//! `qml_sim::circuit_clone_count` is a process-global counter incremented by
//! every `Circuit::clone`. This file holds exactly one test so the counter is
//! not polluted by concurrent tests in the same process: after the plan is
//! realized (cold), warm parametric executions — single bundles and the
//! members of an expanded sweep — must not clone a single circuit.

use std::collections::BTreeMap;

use qml_core::backends::{Backend, GateBackend, TranspileCache};
use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::sim::circuit_clone_count;
use qml_core::types::{BindingSet, ParamValue};

fn bound_bundle(point: usize) -> JobBundle {
    qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Symbolic { layers: 1 })
        .unwrap()
        .with_bindings(
            BindingSet::new()
                .with("gamma_0", 0.2 + 0.05 * point as f64)
                .with("beta_0", 0.4),
        )
        .with_context(ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator")
                .with_samples(128)
                .with_seed(7)
                .with_target(Target::ring(4))
                .with_optimization_level(2),
        ))
}

#[test]
fn warm_parametric_execution_never_clones_a_circuit() {
    let backend = GateBackend::new();
    let cache = TranspileCache::new();

    // Cold execution realizes the plan (transpilation may clone freely).
    backend.execute_cached(&bound_bundle(0), &cache).unwrap();
    assert_eq!(cache.gate_stats().misses, 1);

    let before = circuit_clone_count();

    // 16 warm solo executions with distinct bindings.
    for point in 0..16 {
        backend
            .execute_cached(&bound_bundle(point), &cache)
            .unwrap();
    }

    // The 8 members of a warm sweep (one shared plan), one call each.
    let template = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Symbolic { layers: 1 }).unwrap();
    let mut sweep = SweepRequest::new("batch", template).with_context(ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(128)
            .with_seed(7)
            .with_target(Target::ring(4))
            .with_optimization_level(2),
    ));
    for point in 0..8 {
        let mut bindings = BTreeMap::new();
        bindings.insert(
            "gamma_0".to_string(),
            ParamValue::Float(0.2 + 0.05 * point as f64),
        );
        bindings.insert("beta_0".to_string(), ParamValue::Float(0.4));
        sweep = sweep.with_binding_set(bindings);
    }
    for bundle in sweep.expand().unwrap() {
        backend.execute_cached(&bundle, &cache).unwrap();
    }
    assert_eq!(cache.gate_stats().misses, 1);

    let delta = circuit_clone_count() - before;
    assert_eq!(
        delta, 0,
        "warm parametric executes must be circuit-clone-free, saw {delta} clones"
    );
}
