//! # qml-sim — a dense state-vector quantum circuit simulator
//!
//! This crate is the repository's substitute for the IBM Qiskit **Aer**
//! state-vector simulator used by the paper's gate path (§5): an ideal,
//! noise-free simulator with exact amplitudes, explicit measurement maps, and
//! seeded multinomial shot sampling.
//!
//! * [`Complex64`] — allocation-free complex arithmetic.
//! * [`Gate`] — the gate vocabulary backends lower descriptors into,
//!   including the paper's `{sx, rz, cx}` hardware basis. Rotation angles
//!   are [`ParamExpr`]s, so circuits may stay symbolic through transpilation
//!   and be bound per execution ([`Circuit::bind`]).
//! * [`StateVector`] — amplitudes plus gate-application kernels; above
//!   [`state::PARALLEL_THRESHOLD`] a circuit runs as one rayon region per run
//!   of gates that stay below the top qubits, not one per gate.
//! * [`Circuit`] / [`qft_circuit`] — ordered gate lists with explicit
//!   measurement maps and the textbook QFT construction.
//! * [`BoundCircuit`] — zero-copy parameter binding: a shared plan circuit
//!   plus a per-job overlay of bound sites, executed through [`CircuitView`]
//!   without materializing a copied circuit.
//! * [`Counts`] — counts over classical words as one sorted arena: what a
//!   shot-sampled run returns, two allocations however many words.
//! * [`Simulator`] — `run(circuit, shots, seed)` with reproducible counts;
//!   the batch hot path reuses per-worker [`SimScratch`] buffers via
//!   [`with_thread_scratch`].

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

pub mod circuit;
pub mod complex;
pub mod counts;
mod fusion;
pub mod gate;
pub mod overlay;
pub mod param;
pub mod simulator;
pub mod state;

pub use circuit::{qft_circuit, Circuit, CircuitView};
pub use complex::Complex64;
pub use counts::Counts;
pub use fusion::fused_op_count;
pub use gate::{matmul2, Gate, Qubits};
pub use overlay::BoundCircuit;
pub use param::ParamExpr;
pub use simulator::{with_thread_scratch, SimScratch, SimulationResult, Simulator};
pub use state::{DegenerateStateError, StateVector, MAX_QUBITS, PARALLEL_THRESHOLD};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
        let q = 0..n;
        let q2 = 0..n;
        let theta = -6.3f64..6.3;
        (q, q2, theta, 0u8..8).prop_map(move |(a, b, t, kind)| {
            let b = if a == b { (b + 1) % n } else { b };
            match kind {
                0 => Gate::H(a),
                1 => Gate::Rx(a, t.into()),
                2 => Gate::Ry(a, t.into()),
                3 => Gate::Rz(a, t.into()),
                4 => Gate::Cx(a, b),
                5 => Gate::Cp(a, b, t.into()),
                6 => Gate::Rzz(a, b, t.into()),
                _ => Gate::Sx(a),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every random circuit preserves the state norm.
        #[test]
        fn random_circuits_preserve_norm(gates in proptest::collection::vec(arb_gate(4), 1..40)) {
            let mut sv = StateVector::zero_state(4);
            sv.apply_all(&gates);
            prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-8);
        }

        /// Applying a circuit followed by its inverse returns to |0...0⟩.
        #[test]
        fn circuit_inverse_round_trip(gates in proptest::collection::vec(arb_gate(4), 1..25)) {
            let mut qc = Circuit::new(4);
            qc.extend(&gates);
            let mut sv = StateVector::zero_state(4);
            sv.apply_all(qc.gates());
            sv.apply_all(qc.inverse().gates());
            prop_assert!((sv.probability(0) - 1.0).abs() < 1e-8);
        }

        /// Shot counts always sum to the requested number of shots and only
        /// contain words of the right width.
        #[test]
        fn sampling_totals(gates in proptest::collection::vec(arb_gate(3), 1..15), shots in 1u64..500, seed in 0u64..100) {
            let mut qc = Circuit::new(3);
            qc.extend(&gates);
            qc.measure_all();
            let result = Simulator::new().run(&qc, shots, seed);
            prop_assert_eq!(result.counts.values().sum::<u64>(), shots);
            prop_assert!(result.counts.keys().all(|w| w.len() == 3));
        }
    }
}
