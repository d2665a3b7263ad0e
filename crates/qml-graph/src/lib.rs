//! # qml-graph — graphs, Max-Cut, and classical baselines
//!
//! Problem substrate for the middle layer's proof-of-concept workloads
//! (paper §5): undirected weighted graphs, workload generators (the 4-node
//! cycle of Figs. 2–3 and the larger families used in the ablation benches),
//! the Max-Cut objective with exact and heuristic classical baselines, and the
//! Ising formulation (h, J) the annealing path's `ISING_PROBLEM` descriptor
//! carries.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

pub mod generators;
pub mod graph;
pub mod ising;
pub mod maxcut;

pub use generators::{complete, cycle, grid, path, random_gnp};
pub use graph::Graph;
pub use ising::{energy_to_cut, maxcut_to_ising, IsingProblem};
pub use maxcut::{
    all_optimal_bitstrings, brute_force, cut_value_of_bitstring, greedy, multi_start_local_search,
    random_baseline_expectation, CutSolution,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ising::bools_as_spins;
    use crate::maxcut::{cut_value, local_search};
    use proptest::prelude::*;

    proptest! {
        /// The cut value of any assignment never exceeds the total weight and
        /// is symmetric under complementing the assignment.
        #[test]
        fn cut_bounds_and_symmetry(n in 3usize..10, p in 0.1f64..0.9, seed in 0u64..50, mask in 0u64..1024) {
            let g = random_gnp(n, p, seed);
            let bits: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
            let complement: Vec<bool> = bits.iter().map(|b| !b).collect();
            let cut = cut_value(&g, &bits);
            prop_assert!(cut >= 0.0);
            prop_assert!(cut <= g.total_weight() + 1e-9);
            prop_assert!((cut - cut_value(&g, &complement)).abs() < 1e-9);
        }

        /// Ising energy and cut value always satisfy cut = (W − E)/2.
        #[test]
        fn ising_energy_cut_duality(n in 3usize..9, p in 0.2f64..0.9, seed in 0u64..50, mask in 0u64..512) {
            let g = random_gnp(n, p, seed);
            let ising = maxcut_to_ising(&g);
            let bits: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
            let spins = bools_as_spins(&bits);
            let via_energy = energy_to_cut(&g, ising.energy(&spins));
            prop_assert!((via_energy - cut_value(&g, &bits)).abs() < 1e-9);
        }

        /// Heuristics never beat the exact optimum and greedy is at least half
        /// of it (classical guarantee for Max-Cut).
        #[test]
        fn heuristics_bounded_by_optimum(n in 4usize..10, seed in 0u64..30) {
            let g = random_gnp(n, 0.5, seed);
            let exact = brute_force(&g).value;
            let greedy_value = greedy(&g).value;
            let ls_value = local_search(&g, seed).value;
            prop_assert!(greedy_value <= exact + 1e-9);
            prop_assert!(ls_value <= exact + 1e-9);
            prop_assert!(greedy_value + 1e-9 >= exact / 2.0);
        }
    }
}
