//! The Ising formulation of Max-Cut.
//!
//! The paper's annealing path (§5) emits "a single ISING_PROBLEM descriptor
//! … specifying (h, J)": for Max-Cut with uniform weights, h is the zero
//! vector and J carries the edge weights. This module produces exactly that
//! formulation, which `qml-algorithms` writes into the descriptor, and the
//! energy-to-cut conversion used when checking samples.
//!
//! # Conventions
//!
//! * Spins s_i ∈ {−1, +1}; Boolean readout `0 ↦ +1`, `1 ↦ −1` (paper §5).
//! * Ising energy E(s) = Σ_i h_i s_i + Σ_{i<j} J_ij s_i s_j.
//! * For Max-Cut, J_ij = w_ij and h = 0, so
//!   cut(s) = (W_total − E(s)) / 2 and the optimal cut minimizes the energy.

use serde::{Deserialize, Serialize};

use crate::graph::Graph;

/// An Ising problem (h, J) over n spins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IsingProblem {
    /// Linear fields h_i, one per spin.
    pub h: Vec<f64>,
    /// Pairwise couplings as (i, j, J_ij) with i < j.
    pub j: Vec<(usize, usize, f64)>,
}

impl IsingProblem {
    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.h.len()
    }

    /// Ising energy of a spin assignment (each entry ±1).
    pub fn energy(&self, spins: &[i8]) -> f64 {
        assert_eq!(
            spins.len(),
            self.h.len(),
            "spin vector has the wrong length"
        );
        let linear: f64 = self
            .h
            .iter()
            .zip(spins)
            .map(|(h, &s)| h * f64::from(s))
            .sum();
        let quadratic: f64 = self
            .j
            .iter()
            .map(|&(i, k, j)| j * f64::from(spins[i]) * f64::from(spins[k]))
            .sum();
        linear + quadratic
    }
}

/// Max-Cut → Ising: h = 0, J_ij = w_ij. Minimizing the Ising energy maximizes
/// the cut.
pub fn maxcut_to_ising(graph: &Graph) -> IsingProblem {
    IsingProblem {
        h: vec![0.0; graph.num_nodes()],
        j: graph.edges().to_vec(),
    }
}

/// Cut weight corresponding to an Ising energy for a Max-Cut-derived problem:
/// cut = (W_total − E) / 2.
pub fn energy_to_cut(graph: &Graph, energy: f64) -> f64 {
    (graph.total_weight() - energy) / 2.0
}

/// Convert Boolean labels (the middle layer's AS_BOOL readout) to spins using
/// the paper's convention 0 ↦ +1, 1 ↦ −1.
#[cfg(test)]
pub(crate) fn bools_as_spins(bits: &[bool]) -> Vec<i8> {
    bits.iter().map(|&b| if b { -1 } else { 1 }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle, random_weighted_gnp};
    use crate::maxcut::{brute_force, cut_value};

    #[test]
    fn c4_ising_matches_paper_description() {
        // "h is the zero vector and J is a symmetric 4×4 matrix with unit
        // couplings on edges (0,1),(1,2),(2,3),(3,0)".
        let ising = maxcut_to_ising(&cycle(4));
        assert_eq!(ising.h, vec![0.0; 4]);
        let mut edges: Vec<(usize, usize)> = ising.j.iter().map(|&(i, j, _)| (i, j)).collect();
        edges.sort();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
        assert!(ising.j.iter().all(|&(_, _, w)| w == 1.0));
    }

    #[test]
    fn optimal_cut_minimizes_energy() {
        let g = cycle(4);
        let ising = maxcut_to_ising(&g);
        // 1010 ⇒ spins (-1, +1, -1, +1): every edge anti-aligned, E = -4.
        let spins = bools_as_spins(&[true, false, true, false]);
        assert_eq!(ising.energy(&spins), -4.0);
        assert_eq!(energy_to_cut(&g, -4.0), 4.0);
    }

    #[test]
    fn energy_cut_relation_holds_for_all_assignments() {
        let g = cycle(5);
        let ising = maxcut_to_ising(&g);
        for mask in 0u32..32 {
            let bits: Vec<bool> = (0..5).map(|i| (mask >> i) & 1 == 1).collect();
            let spins = bools_as_spins(&bits);
            let via_energy = energy_to_cut(&g, ising.energy(&spins));
            let direct = cut_value(&g, &bits);
            assert!((via_energy - direct).abs() < 1e-9, "mask {mask}");
        }
    }

    #[test]
    fn ground_energy_matches_brute_force_cut() {
        let g = random_weighted_gnp(8, 0.6, 0.5, 1.5, 21);
        let ising = maxcut_to_ising(&g);
        let ground = (0u32..256)
            .map(|mask| {
                let bits: Vec<bool> = (0..8).map(|i| (mask >> i) & 1 == 1).collect();
                ising.energy(&bools_as_spins(&bits))
            })
            .fold(f64::INFINITY, f64::min);
        let best_cut = brute_force(&g).value;
        assert!((energy_to_cut(&g, ground) - best_cut).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_spin_length_panics() {
        maxcut_to_ising(&cycle(4)).energy(&[1, -1]);
    }
}
