//! # qml-anneal — binary quadratic models and simulated annealing
//!
//! The repository's substitute for the D-Wave Ocean stack used by the paper's
//! annealing path (§5): `dimod`-style [`BinaryQuadraticModel`]s (SPIN/BINARY
//! vartypes with exact conversions), geometric annealing schedules, and a
//! `neal`-style Metropolis [`SimulatedAnnealer`] returning aggregated
//! [`SampleSet`]s.

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

pub mod bqm;
pub mod sampler;
pub mod sampleset;
pub mod schedule;

pub use bqm::BinaryQuadraticModel;
pub use sampler::{AnnealParams, SimulatedAnnealer};
pub use sampleset::{SampleRecord, SampleSet};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::bqm::Vartype;
    use proptest::prelude::*;

    fn arb_ising(max_n: usize) -> impl Strategy<Value = BinaryQuadraticModel> {
        (2..=max_n).prop_flat_map(|n| {
            let h = proptest::collection::vec(-2.0f64..2.0, n);
            let j = proptest::collection::vec((0..n, 0..n, -2.0f64..2.0), 0..(n * 2));
            (h, j).prop_map(move |(h, j)| {
                let j: Vec<(usize, usize, f64)> =
                    j.into_iter().filter(|&(a, b, _)| a != b).collect();
                BinaryQuadraticModel::from_ising(&h, &j)
            })
        })
    }

    /// A random Ising model or its QUBO (Binary) form.
    fn arb_bqm(max_n: usize) -> impl Strategy<Value = BinaryQuadraticModel> {
        (arb_ising(max_n), any::<bool>()).prop_map(
            |(bqm, binary)| {
                if binary {
                    bqm.to_binary()
                } else {
                    bqm
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Spin↔binary conversion preserves the energy of every assignment.
        #[test]
        fn vartype_conversion_preserves_energy(bqm in arb_ising(6), mask in 0u64..64) {
            let n = bqm.num_variables();
            let spins: Vec<i8> = (0..n).map(|i| if (mask >> i) & 1 == 1 { -1 } else { 1 }).collect();
            let bits: Vec<bool> = spins.iter().map(|&s| s == -1).collect();
            let direct = bqm.energy_spin(&spins);
            let via_binary = bqm.to_binary().energy_binary(&bits);
            prop_assert!((direct - via_binary).abs() < 1e-9);
        }

        /// The annealer never reports an energy below the true ground energy,
        /// and its best sample's energy matches the reported record energy.
        #[test]
        fn annealer_energies_are_consistent(bqm in arb_ising(6), seed in 0u64..20) {
            let set = SimulatedAnnealer::new().sample(
                &bqm,
                &AnnealParams::with_reads(20).with_sweeps(50).with_seed(seed),
            );
            let exact = bqm.brute_force_ground_energy();
            for record in &set.records {
                prop_assert!(record.energy >= exact - 1e-9);
                prop_assert!((bqm.energy_spin(&record.spins) - record.energy).abs() < 1e-9);
            }
            prop_assert_eq!(set.total_reads(), 20);
        }

        /// The annealer's oracle: on every model of ≤ 12 variables, in either
        /// vartype, the best sample reaches the brute-force ground energy,
        /// the Spin and Binary forms of the model give each sample the same
        /// energy, and every reported energy is the model's energy of the
        /// reported spins, recomputed.
        #[test]
        fn annealer_reaches_the_brute_force_ground_energy(bqm in arb_bqm(12), seed in 0u64..1000) {
            let exact = bqm.brute_force_ground_energy();
            let other_form = match bqm.vartype() {
                Vartype::Spin => bqm.to_binary(),
                Vartype::Binary => bqm.to_spin(),
            };
            let params = AnnealParams::with_reads(64).with_sweeps(300).with_seed(seed);
            for model in [&bqm, &other_form] {
                let set = SimulatedAnnealer::new().sample(model, &params);
                let best = set.lowest().unwrap().energy;
                prop_assert!((best - exact).abs() < 1e-9, "best {best} vs exact {exact}");
                for record in &set.records {
                    prop_assert_eq!(record.energy, model.energy_spin(&record.spins));
                    let original = bqm.energy_spin(&record.spins);
                    let converted = other_form.energy_spin(&record.spins);
                    prop_assert!((original - converted).abs() < 1e-9, "{original} vs {converted}");
                }
            }
        }
    }
}
