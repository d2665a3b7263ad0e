//! # qml-algorithms — algorithmic libraries emitting operator descriptors
//!
//! The paper's §4.4: "reusable collections of logical transformations that
//! act on typed quantum data ... expose these transformations as Quantum
//! Operator Descriptors and remain agnostic to hardware." Every constructor
//! here consumes [`qml_types::QuantumDataType`]s and produces validated
//! [`qml_types::OperatorDescriptor`]s — never gates, pulses or circuits.
//!
//! * [`qft`] — the `QFT_TEMPLATE` library (Listing 3 / the Listing 1 use case).
//! * [`qaoa`] — the QAOA descriptor stack of Fig. 2 (`PREP_UNIFORM`,
//!   `ISING_COST_PHASE`, `MIXER_RX`, `MEASUREMENT`), with late-bound angles.
//! * [`ising`] — the single `ISING_PROBLEM` descriptor of Fig. 3.
//! * [`stateprep`] — Hadamard layers and angle encodings.
//! * [`composition`] — composition, inversion, measurement and sequence
//!   validation helpers.
//! * [`cost`] — device-independent cost-hint estimators.
//! * [`closed_loop`] — a deterministic pattern-search driver for closed-loop
//!   variational workloads (submit an evaluation, await the objective,
//!   propose the next angles).

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

pub mod closed_loop;
pub mod composition;
pub mod cost;
pub mod ising;
pub mod qaoa;
pub mod qft;
pub mod stateprep;

pub use closed_loop::PatternSearch;
pub use composition::{
    compose, invert_operator, invert_sequence, validate_sequence, with_measurement,
};
pub use cost::total_cost;
pub use ising::{maxcut_ising_program, parse_ising_operator};
pub use qaoa::{ising_register, qaoa_maxcut_program, QaoaAngles, QaoaSchedule, RING_P1_ANGLES};
pub use qft::{qft_program, QftParams};
pub use stateprep::{angle_encoding, hadamard_layer};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::cost::qft_cost;
    use proptest::prelude::*;
    use qml_graph::random_gnp;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every QAOA bundle the library emits is valid, JSON-round-trips, and
        /// has the expected operator count.
        #[test]
        fn qaoa_bundles_always_validate(n in 3usize..8, p in 0.3f64..0.9, seed in 0u64..50, layers in 1usize..4) {
            let graph = random_gnp(n, p, seed);
            prop_assume!(!graph.is_empty());
            let schedule = QaoaSchedule::Fixed(vec![RING_P1_ANGLES; layers]);
            let bundle = qaoa_maxcut_program(&graph, &schedule).unwrap();
            prop_assert_eq!(bundle.operators.len(), 2 + 2 * layers);
            let back = qml_types::JobBundle::from_json(&bundle.to_json().unwrap()).unwrap();
            prop_assert_eq!(back, bundle);
        }

        /// Ising bundles round-trip and parse back to the original (h, J).
        #[test]
        fn ising_bundles_round_trip(n in 3usize..8, p in 0.3f64..0.9, seed in 0u64..50) {
            let graph = random_gnp(n, p, seed);
            prop_assume!(!graph.is_empty());
            let bundle = maxcut_ising_program(&graph).unwrap();
            let parsed = parse_ising_operator(&bundle.operators[0], n).unwrap();
            prop_assert_eq!(parsed.j.len(), graph.num_edges());
            prop_assert_eq!(parsed.h, vec![0.0; n]);
        }

        /// QFT cost hints are monotone in width and decrease with approximation.
        #[test]
        fn qft_cost_monotonicity(width in 2usize..14, approx in 0usize..4) {
            prop_assume!(approx < width);
            let base = qft_cost(width, 0, true);
            let wider = qft_cost(width + 1, 0, true);
            let approximated = qft_cost(width, approx, true);
            prop_assert!(wider.twoq.unwrap() > base.twoq.unwrap());
            prop_assert!(approximated.twoq.unwrap() <= base.twoq.unwrap());
        }
    }
}
