//! Integration test for the paper's §5 proof of concept (E1–E3): the same
//! typed Max-Cut problem runs on the gate path and the annealing path, both
//! return the optimal cut assignments, and the tuned gate path's expected cut
//! lands in the paper's reported 3.0–3.2 band.

use std::collections::BTreeMap;

use qml_core::backends::{Backend, ExecutionResult, GateBackend};
use qml_core::graph::{cut_value_of_bitstring, cycle};
use qml_core::prelude::*;
use qml_core::types::ParamValue;

fn gate_context() -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(4096)
            .with_seed(42)
            .with_target(Target::ring(4))
            .with_optimization_level(2),
    )
}

fn anneal_context() -> ContextDescriptor {
    let mut cfg = AnnealConfig::with_reads(1000);
    cfg.seed = Some(42);
    ContextDescriptor::for_anneal("anneal.neal_simulator", cfg)
}

/// Submit one bundle to a fresh default runtime and run it.
fn run(bundle: JobBundle) -> ExecutionResult {
    let runtime = Runtime::with_default_backends();
    let id = runtime.submit(bundle).unwrap();
    runtime.run_job(id).unwrap()
}

#[test]
fn both_backends_return_the_optimal_cuts() {
    let graph = cycle(4);
    let runtime = Runtime::with_default_backends();

    let gate_id = runtime
        .submit(
            qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
                .unwrap()
                .with_context(gate_context()),
        )
        .unwrap();
    let anneal_id = runtime
        .submit(
            maxcut_ising_program(&graph)
                .unwrap()
                .with_context(anneal_context()),
        )
        .unwrap();
    let gate = runtime.run_job(gate_id).unwrap();
    let anneal = runtime.run_job(anneal_id).unwrap();

    for result in [&gate, &anneal] {
        assert!(
            result.counts.contains_key("1010"),
            "{} missing 1010",
            result.backend
        );
        assert!(
            result.counts.contains_key("0101"),
            "{} missing 0101",
            result.backend
        );
    }
    // On the gate path the two optimal assignments are the two most likely
    // outcomes; on the anneal path they dominate outright.
    let top2: Vec<String> = gate.top_k(2).into_iter().map(|(w, _)| w).collect();
    assert!(top2.contains(&"1010".to_string()) && top2.contains(&"0101".to_string()));
    assert!(anneal.probability("1010") + anneal.probability("0101") > 0.8);
}

#[test]
fn intent_is_shared_bit_for_bit_across_paths() {
    let graph = cycle(4);
    let qaoa = qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap();
    let ising = maxcut_ising_program(&graph).unwrap();
    assert_eq!(qaoa.data_types, ising.data_types);
    // Serialized quantum data types are byte-identical.
    assert_eq!(
        serde_json::to_string(&qaoa.data_types[0]).unwrap(),
        serde_json::to_string(&ising.data_types[0]).unwrap()
    );
}

#[test]
fn default_ring_angles_reach_the_papers_expected_cut_band() {
    // E3: the paper reports an expected cut of roughly 3.0–3.2.
    let graph = cycle(4);
    let result = GateBackend::new()
        .execute(
            &qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
                .unwrap()
                .with_context(gate_context()),
        )
        .unwrap();
    let expected = result.expectation(|w| cut_value_of_bitstring(&graph, w));
    assert!(
        (2.85..=3.3).contains(&expected),
        "expected cut {expected} outside the paper's band"
    );
}

#[test]
fn late_bound_angles_reach_the_same_quality() {
    // The symbolic bundle bound to the optimal angles gives the same result
    // as the fixed-angle bundle: late binding does not change semantics.
    let graph = cycle(4);
    let template = qaoa_maxcut_program(&graph, &QaoaSchedule::Symbolic { layers: 1 }).unwrap();
    let mut bindings = BTreeMap::new();
    bindings.insert(
        "gamma_0".to_string(),
        ParamValue::Float(RING_P1_ANGLES.gamma),
    );
    bindings.insert("beta_0".to_string(), ParamValue::Float(RING_P1_ANGLES.beta));
    let bound = template.bind(&bindings).with_context(gate_context());
    let fixed = qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
        .unwrap()
        .with_context(gate_context());

    let backend = GateBackend::new();
    let a = backend.execute(&bound).unwrap();
    let b = backend.execute(&fixed).unwrap();
    assert_eq!(a.counts, b.counts);
}

#[test]
fn anneal_path_expected_cut_is_near_optimal() {
    let graph = cycle(4);
    let result = run(maxcut_ising_program(&graph)
        .unwrap()
        .with_context(anneal_context()));
    let expected = result.expectation(|w| cut_value_of_bitstring(&graph, w));
    assert!(expected > 3.5, "annealer expected cut {expected}");
    assert_eq!(result.energy_stats.unwrap().min_energy, -4.0);
}

#[test]
fn larger_instances_still_agree_on_the_winner() {
    // Beyond the paper's 4-node instance: on a random 8-node graph both paths
    // find the same optimal cut value as brute force.
    let graph = qml_core::graph::random_gnp(8, 0.5, 3);
    let best = qml_core::graph::brute_force(&graph).value;

    let mut cfg = AnnealConfig::with_reads(500);
    cfg.seed = Some(1);
    cfg.num_sweeps = Some(500);
    let anneal = run(maxcut_ising_program(&graph)
        .unwrap()
        .with_context(ContextDescriptor::for_anneal("anneal.neal_simulator", cfg)));
    let best_word = anneal
        .counts
        .keys()
        .map(|w| cut_value_of_bitstring(&graph, w))
        .fold(0.0f64, f64::max);
    assert!(
        (best_word - best).abs() < 1e-9,
        "annealer best {best_word} vs exact {best}"
    );
}
