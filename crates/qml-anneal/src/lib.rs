//! # qml-anneal — the Ising model and simulated annealing
//!
//! The repository's substitute for the D-Wave Ocean stack used by the paper's
//! annealing path (§5): one spin model, the [`BinaryQuadraticModel`], stored
//! once per plan in the layout the sampler reads (fields, compressed coupling
//! rows and the largest effective field), geometric annealing schedules, and
//! a `neal`-style Metropolis [`SimulatedAnnealer`] returning aggregated
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
mod reference;

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reference::ReferenceModel;
    use proptest::prelude::*;

    type Ising = (Vec<f64>, Vec<(usize, usize, f64)>);

    fn arb_ising(max_n: usize) -> impl Strategy<Value = Ising> {
        (2..=max_n).prop_flat_map(|n| {
            let h = proptest::collection::vec(-2.0f64..2.0, n);
            let j = proptest::collection::vec((0..n, 0..n, -2.0f64..2.0), 0..(n * 2));
            (h, j).prop_map(|(h, j)| {
                let j: Vec<_> = j.into_iter().filter(|&(a, b, _)| a != b).collect();
                (h, j)
            })
        })
    }

    /// A coefficient that is often a signed zero, a small integer or a
    /// repeat of another, and otherwise a general float.
    fn coefficient() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            (-3i32..=3).prop_map(f64::from),
            -2.0f64..2.0,
            -1e3f64..1e3,
        ]
    }

    /// Fields and couplings with duplicate, reversed and zero-valued pairs
    /// and `-0.0` coefficients: up to 4 couplings per variable over at most
    /// 9 variables, so repeated pairs are common.
    fn arb_ising_with_repeats() -> impl Strategy<Value = Ising> {
        (1usize..=9).prop_flat_map(|n| {
            let h = proptest::collection::vec(coefficient(), n);
            let j = proptest::collection::vec((0..n, 0..n, coefficient()), 0..(n * 4));
            (h, j).prop_map(|(h, j)| {
                let j: Vec<_> = j.into_iter().filter(|&(a, b, _)| a != b).collect();
                (h, j)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The annealer never reports an energy below the true ground energy,
        /// and its best sample's energy matches the reported record energy.
        #[test]
        fn annealer_energies_are_consistent(ising in arb_ising(6), seed in 0u64..20) {
            let (h, j) = &ising;
            let bqm = BinaryQuadraticModel::from_ising(h, j);
            let set = SimulatedAnnealer::new().sample(
                &bqm,
                &AnnealParams::with_reads(20).with_sweeps(50).with_seed(seed),
            );
            let exact = ReferenceModel::from_ising(h, j).brute_force_ground_energy();
            for record in &set.records {
                prop_assert!(record.energy >= exact - 1e-9);
                prop_assert!((bqm.energy_spin(&record.spins) - record.energy).abs() < 1e-9);
            }
            prop_assert_eq!(set.total_reads(), 20);
        }

        /// The annealer's oracle: on every model of ≤ 12 variables the best
        /// sample reaches the brute-force ground energy, and every reported
        /// energy is the model's energy of the reported spins, recomputed.
        #[test]
        fn annealer_reaches_the_brute_force_ground_energy(ising in arb_ising(12), seed in 0u64..1000) {
            let (h, j) = &ising;
            let bqm = BinaryQuadraticModel::from_ising(h, j);
            let exact = ReferenceModel::from_ising(h, j).brute_force_ground_energy();
            let params = AnnealParams::with_reads(64).with_sweeps(300).with_seed(seed);
            let set = SimulatedAnnealer::new().sample(&bqm, &params);
            let best = set.lowest().unwrap().energy;
            prop_assert!((best - exact).abs() < 1e-9, "best {best} vs exact {exact}");
            for record in &set.records {
                prop_assert_eq!(record.energy, bqm.energy_spin(&record.spins));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The stored model is the map model in another layout: the same
        /// energy bits on every assignment, the same field bits and the same
        /// number of distinct pairs.
        #[test]
        fn model_equals_the_reference_model(ising in arb_ising_with_repeats()) {
            let (h, j) = &ising;
            let bqm = BinaryQuadraticModel::from_ising(h, j);
            let reference = ReferenceModel::from_ising(h, j);
            prop_assert_eq!(bqm.num_interactions(), reference.num_interactions());
            prop_assert_eq!(
                bqm.max_effective_field().to_bits(),
                reference.max_effective_field().to_bits()
            );
            let n = h.len();
            for mask in 0u64..(1 << n) {
                let spins: Vec<i8> = (0..n).map(|i| if (mask >> i) & 1 == 1 { -1 } else { 1 }).collect();
                let (stored, mapped) = (bqm.energy_spin(&spins), reference.energy_spin(&spins));
                prop_assert!(stored.to_bits() == mapped.to_bits(), "{spins:?}: {stored:e} vs {mapped:e}");
            }
        }
    }
}
