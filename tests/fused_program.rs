//! The serial path's fused program on the two benchmark plans below
//! `PARALLEL_THRESHOLD`: how many kernel passes it runs (an exact counter
//! behind `sim.apply_us`), and that the fused state samples the counts
//! gate-by-gate application does.
//!
//! `sweep_warm` runs the symbolic two-layer ring QAOA on 8 qubits, bound per
//! job; `state_serial` the fixed-angle one on 12. Both are transpiled to
//! `{sx, rz, cx}` on a line at level 3, as the gate backend does.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qml_core::backends::{lower_to_circuit, GatePlan};
use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::sim::{fused_op_count, BoundCircuit, CircuitView, Simulator, StateVector};
use qml_core::transpile::{transpile, CouplingMap, TranspileTarget};

/// A ring QAOA on `qubits` nodes under `schedule`, planned for a line.
fn ring_qaoa_plan(qubits: usize, schedule: &QaoaSchedule) -> GatePlan {
    let program = qaoa_maxcut_program(&cycle(qubits), schedule).unwrap();
    let lowered = lower_to_circuit(&program).unwrap();
    let target = TranspileTarget::hardware(CouplingMap::linear(qubits));
    let transpiled = transpile(&lowered.circuit, &target, 3).unwrap();
    GatePlan::new(
        transpiled.circuit,
        lowered.symbols,
        transpiled.metrics,
        lowered.register,
        lowered.schema,
    )
}

/// The `sweep_warm` plan bound to one point of its sweep.
fn sweep_warm() -> BoundCircuit {
    let plan = ring_qaoa_plan(8, &QaoaSchedule::Symbolic { layers: 2 });
    plan.bind_overlay(&[0.4, 1.1, 0.7, 0.3]).unwrap()
}

/// The `state_serial` plan: fixed angles, nothing to bind.
fn state_serial() -> BoundCircuit {
    let angles = [(0.4, 1.1), (0.9, 0.6)].map(|(gamma, beta)| QaoaAngles { gamma, beta });
    let plan = ring_qaoa_plan(12, &QaoaSchedule::Fixed(angles.to_vec()));
    plan.bind_overlay(&[]).unwrap()
}

#[test]
fn the_benchmark_plans_fuse_to_a_quarter_of_their_gates() {
    let warm = sweep_warm();
    assert_eq!(warm.gate_count(), 222, "the sweep_warm plan changed shape");
    assert_eq!(fused_op_count(&warm), 58);

    let serial = state_serial();
    assert_eq!(
        serial.gate_count(),
        342,
        "the state_serial plan changed shape"
    );
    assert_eq!(fused_op_count(&serial), 90);
}

/// The fused state stays within 1e-12 of gate-by-gate application, and
/// sampling it gives the same counts for every one of 200 seeds: the
/// rounding rule 1 changes does not reach a result.
#[test]
fn fused_plans_sample_the_counts_gate_by_gate_application_does() {
    for view in [sweep_warm(), state_serial()] {
        let mut fused = StateVector::zero_state(view.width());
        fused.apply_view(&view);
        let mut by_gate = StateVector::zero_state(view.width());
        view.for_each_gate(&mut |gate| by_gate.apply(gate));
        let drift = fused
            .amplitudes()
            .iter()
            .zip(by_gate.amplitudes())
            .map(|(f, g)| (*f - *g).abs())
            .fold(0.0, f64::max);
        assert!(drift <= 1e-12, "max |Δamp| {drift:e}");

        let sim = Simulator::new();
        for seed in 0..200 {
            let counts = sim.try_run_view(&view, 1024, seed).unwrap().counts;
            let reference = by_gate
                .sample_counts(
                    view.measurement_map(),
                    1024,
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            assert_eq!(counts, reference, "seed {seed}");
        }
    }
}
