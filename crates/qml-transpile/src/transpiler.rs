//! The transpilation pipeline: routing → basis translation → optimization.
//!
//! This is the repository's substitute for Qiskit's `transpile(...)` call in
//! the paper's Listing 1 / Listing 4 context: given a logical circuit and a
//! [`TranspileTarget`] it produces a circuit that (i) only touches coupled
//! qubit pairs, (ii) only uses basis gates, and (iii) has been peephole
//! optimized at the requested level — and reports the cost metrics the
//! middle layer's `cost_hint`s are validated against.

use serde::{Deserialize, Serialize};

use qml_sim::Circuit;

use crate::basis::lower_gates;
use crate::error::TranspileError;
use crate::passes::optimize_gates;
use crate::routing::route;
use crate::target::TranspileTarget;

/// Cost metrics of a (transpiled) circuit — the realized counterpart of the
/// descriptor-level [`CostHint`](https://docs.rs) the scheduler consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CircuitMetrics {
    /// Circuit depth.
    pub depth: usize,
    /// Two-qubit gate count.
    pub two_qubit_gates: usize,
    /// Single-qubit gate count.
    pub single_qubit_gates: usize,
    /// Total gate count.
    pub total_gates: usize,
    /// SWAPs inserted by routing (already included in the gate counts).
    pub swaps_inserted: usize,
}

impl CircuitMetrics {
    /// Measure a circuit.
    pub fn of(circuit: &Circuit, swaps_inserted: usize) -> Self {
        CircuitMetrics {
            depth: circuit.depth(),
            two_qubit_gates: circuit.count_two_qubit(),
            single_qubit_gates: circuit.count_single_qubit(),
            total_gates: circuit.len(),
            swaps_inserted,
        }
    }
}

/// Result of a transpilation run.
#[derive(Debug, Clone, PartialEq)]
pub struct TranspileResult {
    /// The transpiled circuit (over physical qubits if a coupling map was
    /// given).
    pub circuit: Circuit,
    /// Layout before the first gate: `initial_layout[logical] = physical`.
    pub initial_layout: Vec<usize>,
    /// Layout after the last gate.
    pub final_layout: Vec<usize>,
    /// Cost metrics of the transpiled circuit.
    pub metrics: CircuitMetrics,
}

/// Transpile a circuit for a target at the given optimization level (0–3).
///
/// Fails with [`TranspileError::UnsupportedBasis`] when the target's basis
/// cannot express a gate of the routed circuit: a two-qubit gate without
/// `cx` or `cz` in the basis, a single-qubit gate without `rz` or `sx`.
pub fn transpile(
    circuit: &Circuit,
    target: &TranspileTarget,
    optimization_level: u8,
) -> Result<TranspileResult, TranspileError> {
    // 1. Routing (identity when no coupling map is given).
    let routed = match &target.coupling_map {
        Some(cm) => Some(route(circuit, cm)?),
        None => None,
    };
    let physical = routed.as_ref().map_or(circuit, |r| &r.circuit);

    // 2. Basis translation, into one buffer.
    let (lowered, unexpressed) = lower_gates(physical.gates(), target);
    if let Some(gate) = unexpressed {
        return Err(TranspileError::UnsupportedBasis(format!(
            "basis {:?} cannot express `{}`",
            target.basis_gates,
            gate.name()
        )));
    }

    // 3. Peephole optimization over that buffer; the plan keeps exactly
    //    the gates it holds.
    let width = physical.num_qubits();
    let gates = optimize_gates(lowered, width, optimization_level);
    let optimized = Circuit::from_gates(width, gates, physical.measured());

    let (initial_layout, final_layout, swaps) = match routed {
        Some(r) => (r.initial_layout, r.final_layout, r.swaps_inserted),
        None => {
            let layout: Vec<usize> = (0..circuit.num_qubits()).collect();
            (layout.clone(), layout, 0)
        }
    };
    let metrics = CircuitMetrics::of(&optimized, swaps);
    Ok(TranspileResult {
        circuit: optimized,
        initial_layout,
        final_layout,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::CouplingMap;
    use qml_sim::{qft_circuit, Circuit, Gate, Simulator};

    fn assert_same_distribution(a: &Circuit, b: &Circuit) {
        let sim = Simulator::new();
        let da = sim.exact_distribution(a);
        let db = sim.exact_distribution(b);
        for (word, p) in &da {
            let q = db.get(word).copied().unwrap_or(0.0);
            assert!(
                (p - q).abs() < 1e-9,
                "distribution differs at {word}: {p} vs {q}"
            );
        }
    }

    fn qft10() -> Circuit {
        let mut qc = qft_circuit(10, 0, true, false);
        qc.measure_all();
        qc
    }

    #[test]
    fn listing4_pipeline_basis_and_connectivity_respected() {
        // The exact context of Listing 4: basis [sx, rz, cx], linear 10-qubit
        // coupling, optimization_level 2.
        let target = TranspileTarget::hardware(CouplingMap::linear(10));
        let result = transpile(&qft10(), &target, 2).unwrap();
        let basis: Vec<String> = ["sx", "rz", "cx"].iter().map(|s| s.to_string()).collect();
        assert!(result.circuit.uses_only(&basis));
        // Every cx must act on coupled qubits.
        let cm = CouplingMap::linear(10);
        for g in result.circuit.gates() {
            if g.is_two_qubit() {
                let q = g.qubits();
                assert!(cm.are_adjacent(q[0], q[1]), "{:?} not adjacent", q);
            }
        }
        assert!(
            result.metrics.swaps_inserted > 0,
            "linear QFT needs routing"
        );
        assert!(
            result.metrics.two_qubit_gates >= 45,
            "exact QFT(10) has ≥ 45 2q gates"
        );
    }

    #[test]
    fn small_qft_distribution_preserved_through_full_pipeline() {
        let mut qc = qft_circuit(4, 0, true, false);
        // Prepare a non-trivial input before the QFT so the test is sharp.
        let mut full = Circuit::new(4);
        full.extend(&[Gate::X(0), Gate::X(2)]);
        full.compose(&qc);
        qc = full;
        qc.measure_all();

        for level in 0..=3 {
            let target = TranspileTarget::hardware(CouplingMap::linear(4));
            let result = transpile(&qc, &target, level).unwrap();
            assert_same_distribution(&qc, &result.circuit);
        }
    }

    #[test]
    fn higher_optimization_levels_do_not_increase_gate_count() {
        let target = TranspileTarget::hardware(CouplingMap::linear(10));
        let counts: Vec<usize> = (0..=3)
            .map(|l| transpile(&qft10(), &target, l).unwrap().metrics.total_gates)
            .collect();
        assert!(counts[1] <= counts[0]);
        assert!(counts[2] <= counts[1]);
        assert!(counts[3] <= counts[2]);
    }

    #[test]
    fn all_to_all_avoids_swaps() {
        let constrained = TranspileTarget::hardware(CouplingMap::linear(10));
        let ideal_coupling = TranspileTarget::hardware_all_to_all();
        let with_map = transpile(&qft10(), &constrained, 2).unwrap();
        let without_map = transpile(&qft10(), &ideal_coupling, 2).unwrap();
        assert_eq!(without_map.metrics.swaps_inserted, 0);
        assert!(
            with_map.metrics.two_qubit_gates > without_map.metrics.two_qubit_gates,
            "routing must add entangling gates on a line"
        );
    }

    #[test]
    fn ideal_target_only_optimizes() {
        let mut qc = Circuit::new(2);
        qc.extend(&[Gate::H(0), Gate::H(0), Gate::Cx(0, 1)]);
        qc.measure_all();
        let result = transpile(&qc, &TranspileTarget::ideal(), 2).unwrap();
        assert_eq!(result.metrics.total_gates, 1);
        assert_eq!(result.initial_layout, vec![0, 1]);
        assert_eq!(result.final_layout, vec![0, 1]);
    }

    #[test]
    fn basis_without_entangler_rejected() {
        let mut qc = Circuit::new(2);
        qc.push(Gate::Cx(0, 1));
        qc.measure_all();
        let target = TranspileTarget {
            basis_gates: vec!["sx".into(), "rz".into()],
            coupling_map: None,
        };
        assert!(matches!(
            transpile(&qc, &target, 1),
            Err(TranspileError::UnsupportedBasis(_))
        ));
    }

    #[test]
    fn metrics_match_circuit() {
        let target = TranspileTarget::hardware(CouplingMap::ring(4));
        let mut qc = Circuit::new(4);
        for q in 0..4 {
            qc.push(Gate::H(q));
        }
        for &(a, b) in &[(0usize, 1usize), (1, 2), (2, 3), (3, 0)] {
            qc.push(Gate::Rzz(a, b, (0.7).into()));
        }
        qc.measure_all();
        let result = transpile(&qc, &target, 2).unwrap();
        assert_eq!(result.metrics.depth, result.circuit.depth());
        assert_eq!(
            result.metrics.two_qubit_gates,
            result.circuit.count_two_qubit()
        );
        assert_eq!(result.metrics.total_gates, result.circuit.len());
        // QAOA cost layer on a ring: 4 RZZ → 8 CX, no swaps needed.
        assert_eq!(result.metrics.swaps_inserted, 0);
        assert_eq!(result.metrics.two_qubit_gates, 8);
    }

    #[test]
    fn too_small_target_propagates_error() {
        let target = TranspileTarget::hardware(CouplingMap::linear(3));
        assert!(matches!(
            transpile(&qft10(), &target, 1),
            Err(TranspileError::TooFewQubits { .. })
        ));
    }
}
