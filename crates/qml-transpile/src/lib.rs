//! # qml-transpile — basis translation, routing, and optimization
//!
//! The repository's substitute for the Qiskit transpiler invoked by the
//! paper's gate path: it honours the context descriptor's `target` block
//! (basis gates + coupling map) and `optimization_level` option, producing
//! circuits a constrained device could execute and the realized cost metrics
//! that descriptor-level cost hints are validated against.
//!
//! Pipeline: [`routing::route`] → [`basis::decompose_to_basis`] →
//! [`passes::optimize`], driven by [`transpile`].

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod basis;
pub mod error;
pub mod passes;
pub mod routing;
pub mod target;
pub mod transpiler;

pub use basis::decompose_to_basis;
pub use error::TranspileError;
pub use passes::optimize;
pub use routing::{route, RoutedCircuit};
pub use target::{CouplingMap, TranspileTarget};
pub use transpiler::{transpile, CircuitMetrics, TranspileResult};

#[cfg(test)]
mod reference;

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reference::tests::Circuits;
    use proptest::prelude::*;
    use qml_sim::{Circuit, Complex64, Gate, Simulator, StateVector};

    /// The state a bound circuit makes of the basis state |x⟩: column `x`
    /// of its unitary.
    fn column(qc: &Circuit, x: usize) -> StateVector {
        let mut state = StateVector::basis_state(qc.num_qubits(), x);
        state.apply_all(qc.gates());
        state
    }

    /// The physical index holding logical index `x` under `layout`
    /// (`layout[logical] = physical`; qubit `q` is bit `q`).
    fn place(x: usize, layout: &[usize]) -> usize {
        layout
            .iter()
            .enumerate()
            .map(|(l, &p)| ((x >> l) & 1) << p)
            .sum()
    }

    fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
        (0..n, 0..n, -3.2f64..3.2, 0u8..10).prop_map(move |(a, b, t, kind)| {
            let b = if a == b { (b + 1) % n } else { b };
            match kind {
                0 => Gate::H(a),
                1 => Gate::T(a),
                2 => Gate::Rx(a, t.into()),
                3 => Gate::Ry(a, t.into()),
                4 => Gate::Rz(a, t.into()),
                5 => Gate::Cx(a, b),
                6 => Gate::Cz(a, b),
                7 => Gate::Cp(a, b, t.into()),
                8 => Gate::Rzz(a, b, t.into()),
                _ => Gate::Swap(a, b),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The full pipeline (routing to a line + hardware basis + any
        /// optimization level) never changes the measured distribution.
        #[test]
        fn transpilation_preserves_distribution(
            gates in proptest::collection::vec(arb_gate(4), 1..20),
            level in 0u8..4,
        ) {
            let mut qc = Circuit::new(4);
            qc.extend(&gates);
            qc.measure_all();
            let target = TranspileTarget::hardware(CouplingMap::linear(4));
            let result = transpile(&qc, &target, level).unwrap();

            let sim = Simulator::new();
            let original = sim.exact_distribution(&qc);
            let transpiled = sim.exact_distribution(&result.circuit);
            for (word, p) in &original {
                let q = transpiled.get(word).copied().unwrap_or(0.0);
                prop_assert!((p - q).abs() < 1e-7, "word {} differs: {} vs {}", word, p, q);
            }
        }

        /// The transpiled unitary is the input's, up to a global phase and
        /// the routing permutation: input qubit `l` enters at
        /// `initial_layout[l]` and leaves at `final_layout[l]`. Symbols are
        /// bound at random after transpilation, and the check runs at every
        /// level under the `cx` and the `cz` hardware basis.
        #[test]
        fn transpiled_unitary_equals_the_input_up_to_phase_and_layout(
            qc in Circuits { max_qubits: 5, max_gates: 24 },
            values in proptest::collection::vec(-4.0f64..4.0, 3),
        ) {
            let n = qc.num_qubits();
            let input = qc.bind(&values);
            for basis in [["sx", "rz", "cx"], ["cz", "rz", "sx"]] {
                let target = TranspileTarget {
                    basis_gates: basis.iter().map(|s| s.to_string()).collect(),
                    coupling_map: Some(CouplingMap::linear(n)),
                };
                for level in 0..=3 {
                    let result = transpile(&qc, &target, level).unwrap();
                    prop_assert!(result.circuit.uses_only(&target.basis_gates));
                    let output = result.circuit.bind(&values);
                    let column_pair = |x: usize| {
                        let got = column(&output, place(x, &result.initial_layout));
                        (column(&input, x), got)
                    };
                    // The global phase, read off the largest entry of column 0.
                    let (want, got) = column_pair(0);
                    let y = (0..1usize << n)
                        .max_by(|&i, &j| want.amplitude(i).abs().total_cmp(&want.amplitude(j).abs()))
                        .unwrap();
                    let b = got.amplitude(place(y, &result.final_layout));
                    prop_assert!(b.abs() > 1e-6, "basis {:?}, level {}: no overlap", basis, level);
                    let phase: Complex64 = want.amplitude(y) * b.conj() * (1.0 / b.norm_sqr());
                    for x in 0..1usize << n {
                        let (want, got) = column_pair(x);
                        for y in 0..1usize << n {
                            let a = want.amplitude(y);
                            let b = got.amplitude(place(y, &result.final_layout)) * phase;
                            prop_assert!(
                                b.approx_eq(a, 1e-8),
                                "basis {:?}, level {}: column {} row {}: {:?} vs {:?}",
                                basis, level, x, y, a, b
                            );
                        }
                    }
                }
            }
        }

        /// Transpiled circuits only contain basis gates and coupled 2q pairs.
        #[test]
        fn transpilation_respects_constraints(
            gates in proptest::collection::vec(arb_gate(5), 1..15),
        ) {
            let mut qc = Circuit::new(5);
            qc.extend(&gates);
            qc.measure_all();
            let cm = CouplingMap::ring(5);
            let target = TranspileTarget::hardware(cm.clone());
            let result = transpile(&qc, &target, 2).unwrap();
            let basis: Vec<String> = ["sx", "rz", "cx"].iter().map(|s| s.to_string()).collect();
            prop_assert!(result.circuit.uses_only(&basis));
            for g in result.circuit.gates() {
                if g.is_two_qubit() {
                    let q = g.qubits();
                    prop_assert!(cm.are_adjacent(q[0], q[1]));
                }
            }
        }
    }
}
