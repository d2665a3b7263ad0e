//! Integration test E4: the Listing 1 use case — a 10-qubit QFT — expressed
//! through the middle layer and executed end to end, plus composition and
//! inversion of the QFT descriptor.

use qml_core::algorithms::{invert_operator, with_measurement};
use qml_core::backends::{Backend, GateBackend};
use qml_core::prelude::*;

fn linear_context(shots: u64, level: u8) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(shots)
            .with_seed(42)
            .with_target(Target::linear(10))
            .with_optimization_level(level),
    )
}

#[test]
fn qft_on_zero_state_is_close_to_uniform() {
    let bundle = qft_program(10, QftParams::default())
        .unwrap()
        .with_context(linear_context(10_000, 2));
    let result = GateBackend::new().execute(&bundle).unwrap();
    assert_eq!(result.shots, 10_000);
    // The uniform distribution over 1024 outcomes: with 10 000 shots no
    // outcome should be dramatically over-represented.
    let max_p = result.top_k(1)[0].1;
    assert!(max_p < 0.01, "max outcome probability {max_p}");
    assert!(
        result.counts.len() > 900,
        "only {} distinct outcomes",
        result.counts.len()
    );
}

#[test]
fn transpiled_metrics_exceed_the_descriptor_hint_under_routing() {
    // The paper's cost hint (45 two-qubit ops, depth ~100) is a lower bound:
    // the realized circuit on a linear coupling map must pay routing on top.
    let bundle = qft_program(10, QftParams::default()).unwrap();
    let hint = bundle.operators[0].cost_hint.unwrap();
    let result = GateBackend::new()
        .execute(&bundle.with_context(linear_context(128, 2)))
        .unwrap();
    let metrics = result.gate_metrics.unwrap();
    assert!(metrics.two_qubit_gates as u64 >= 45);
    assert!(metrics.swaps_inserted > 0);
    assert!(hint.twoq.unwrap() >= 45);
}

#[test]
fn optimization_levels_never_change_the_distribution_shape() {
    // Exact distributions are equal; with a fixed seed the sampled counts are
    // equal only if the transpiled circuits are identical, so compare a
    // robust statistic instead: total variation between levels stays small.
    let mut references: Vec<Counts> = Vec::new();
    for level in [0u8, 2, 3] {
        let bundle = qft_program(6, QftParams::default()).unwrap().with_context(
            ContextDescriptor::for_gate(
                ExecConfig::new("gate.aer_simulator")
                    .with_samples(8000)
                    .with_seed(7)
                    .with_target(Target::linear(6))
                    .with_optimization_level(level),
            ),
        );
        references.push(GateBackend::new().execute(&bundle).unwrap().counts);
    }
    let tv = |a: &Counts, b: &Counts| {
        let keys: std::collections::BTreeSet<&str> = a.keys().chain(b.keys()).collect();
        keys.iter()
            .map(|&k| {
                let pa = *a.get(k).unwrap_or(&0) as f64 / 8000.0;
                let pb = *b.get(k).unwrap_or(&0) as f64 / 8000.0;
                (pa - pb).abs()
            })
            .sum::<f64>()
            / 2.0
    };
    assert!(tv(&references[0], &references[1]) < 0.08);
    assert!(tv(&references[1], &references[2]) < 0.08);
}

#[test]
fn qft_followed_by_its_inverse_is_the_identity() {
    // Build QFT ∘ IQFT through descriptor inversion and check that the
    // readout is deterministically |0...0⟩.
    let register = QuantumDataType::phase_register("reg_phase", "phase", 6).unwrap();
    let qft = qml_core::algorithms::qft::qft_operator(&register, QftParams::default()).unwrap();
    let iqft = invert_operator(&qft).unwrap();
    let ops = with_measurement(vec![qft, iqft], &register).unwrap();
    let bundle =
        JobBundle::new("qft-iqft", vec![register], ops).with_context(ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator")
                .with_samples(1024)
                .with_seed(11),
        ));
    let result = GateBackend::new().execute(&bundle).unwrap();
    assert_eq!(result.probability("000000"), 1.0);
}

#[test]
fn approximate_qft_costs_less_but_stays_close() {
    let exact = qft_program(8, QftParams::default()).unwrap();
    let approx = qft_program(
        8,
        QftParams {
            approx_degree: 3,
            ..QftParams::default()
        },
    )
    .unwrap();
    let ctx = ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(256)
            .with_seed(5)
            .with_target(Target::linear(8))
            .with_optimization_level(2),
    );
    let backend = GateBackend::new();
    let exact_metrics = backend
        .execute(&exact.with_context(ctx.clone()))
        .unwrap()
        .gate_metrics
        .unwrap();
    let approx_metrics = backend
        .execute(&approx.with_context(ctx))
        .unwrap()
        .gate_metrics
        .unwrap();
    assert!(approx_metrics.two_qubit_gates < exact_metrics.two_qubit_gates);
}
