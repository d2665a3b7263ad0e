//! # qml-qec — error correction as an orthogonal context service
//!
//! The paper treats quantum error correction purely as *execution context*
//! (§4.3.2): a `qec` block in the context descriptor names a code family,
//! distance and logical gate set, and an orthogonal service consumes it at
//! realization time — the operator descriptors never change. This crate is
//! that service:
//!
//! * [`SurfaceCode`] — rotated-surface-code resource model (physical qubits
//!   per patch, syndrome rounds, Λ-scaling logical error rates, required
//!   distance for a target error budget).
//! * [`RepetitionCode`] — an executable bit-flip code with majority decoding
//!   and a Monte-Carlo simulator, cross-checked against the exact binomial
//!   logical error rate.
//! * [`QecService`] — interprets a [`qml_types::QecConfig`], enforces the
//!   logical gate set, and produces [`ResourceEstimate`]s for workloads.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

pub mod repetition;
pub mod service;
pub mod surface;

pub use repetition::RepetitionCode;
pub use service::{CodeFamily, QecService};
pub use surface::{ResourceEstimate, SurfaceCode};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Majority decoding always recovers the logical bit when fewer than
        /// half of the physical bits are flipped.
        #[test]
        fn repetition_corrects_below_half(dist_idx in 0usize..4, logical in any::<bool>(), flips in proptest::collection::vec(any::<bool>(), 9)) {
            let d = [3, 5, 7, 9][dist_idx];
            let code = RepetitionCode::new(d);
            let mut word = code.encode(logical);
            let mut flipped = 0usize;
            for (i, &f) in flips.iter().take(d).enumerate() {
                if f && flipped < d / 2 {
                    word[i] = !word[i];
                    flipped += 1;
                }
            }
            prop_assert_eq!(code.decode(&word), logical);
        }

        /// The analytic logical error rate is a probability and is monotone
        /// in the physical error rate.
        #[test]
        fn analytic_rate_is_probability(dist_idx in 0usize..5, p in 0.0f64..1.0) {
            let d = [1, 3, 5, 7, 9][dist_idx];
            let code = RepetitionCode::new(d);
            let rate = code.analytic_logical_error_rate(p);
            prop_assert!((0.0..=1.0).contains(&rate));
            let rate_higher = code.analytic_logical_error_rate((p + 0.05).min(1.0));
            prop_assert!(rate_higher + 1e-12 >= rate);
        }

        /// Surface-code estimates are monotone in workload size.
        #[test]
        fn surface_estimates_monotone(d_idx in 0usize..4, qubits in 1usize..30, ops in 1usize..500) {
            let d = [3, 5, 7, 9][d_idx];
            let code = SurfaceCode::new(d, 1e-3);
            let small = code.estimate(qubits, ops);
            let large = code.estimate(qubits + 1, ops * 2);
            prop_assert!(large.physical_qubits > small.physical_qubits);
            prop_assert!(large.syndrome_rounds > small.syndrome_rounds);
            prop_assert!(small.workload_failure_probability <= 1.0);
        }
    }
}
