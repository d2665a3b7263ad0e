//! Ising and QUBO formulations of Max-Cut.
//!
//! The paper's annealing path (§5) emits "a single ISING_PROBLEM descriptor
//! (equivalently a QUBO/BQM) specifying (h, J)": for Max-Cut with uniform
//! weights, h is the zero vector and J carries the edge weights. This module
//! produces exactly that formulation and provides the energy/cut conversions
//! used when decoding samples.
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

    /// The ground-state energy by exhaustive enumeration (≤ 24 spins).
    pub fn brute_force_ground_energy(&self) -> f64 {
        let n = self.num_spins();
        assert!(n <= 24, "brute force is limited to 24 spins");
        let mut best = f64::INFINITY;
        for mask in 0u64..(1u64 << n) {
            let spins: Vec<i8> = (0..n)
                .map(|i| if (mask >> i) & 1 == 1 { -1 } else { 1 })
                .collect();
            best = best.min(self.energy(&spins));
        }
        best
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

/// Cut weight of a spin assignment for a Max-Cut-derived problem.
pub fn spins_to_cut(graph: &Graph, spins: &[i8]) -> f64 {
    let ising = maxcut_to_ising(graph);
    energy_to_cut(graph, ising.energy(spins))
}

/// A QUBO problem: minimize xᵀ Q x over x ∈ {0,1}ⁿ, with Q upper-triangular
/// (diagonal = linear terms).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuboProblem {
    /// Number of binary variables.
    pub num_vars: usize,
    /// Q entries as (i, j, q_ij) with i ≤ j; i == j are linear terms.
    pub q: Vec<(usize, usize, f64)>,
    /// Constant offset added to every objective value.
    pub offset: f64,
}

impl QuboProblem {
    /// Objective value of a binary assignment.
    pub fn objective(&self, x: &[bool]) -> f64 {
        assert_eq!(x.len(), self.num_vars, "assignment has the wrong length");
        self.offset
            + self
                .q
                .iter()
                .map(|&(i, j, q)| if x[i] && x[j] { q } else { 0.0 })
                .sum::<f64>()
    }
}

/// Max-Cut → QUBO (minimization form): minimizing
/// Σ_(i,j) w_ij (2 x_i x_j − x_i − x_j) is equivalent to maximizing the cut;
/// the objective value equals −cut(x).
pub fn maxcut_to_qubo(graph: &Graph) -> QuboProblem {
    let mut q = Vec::new();
    let mut linear = vec![0.0; graph.num_nodes()];
    for &(i, j, w) in graph.edges() {
        q.push((i, j, 2.0 * w));
        linear[i] -= w;
        linear[j] -= w;
    }
    for (i, &l) in linear.iter().enumerate() {
        if l != 0.0 {
            q.push((i, i, l));
        }
    }
    q.sort_by_key(|&(i, j, _)| (i, j));
    QuboProblem {
        num_vars: graph.num_nodes(),
        q,
        offset: 0.0,
    }
}

/// Ising ↔ QUBO equivalence: convert an Ising problem to the QUBO over
/// x_i = (1 − s_i)/2 with the same ordering of optima.
pub fn ising_to_qubo(ising: &IsingProblem) -> QuboProblem {
    // s_i = 1 − 2 x_i. Substitute into E(s) = Σ h_i s_i + Σ J_ij s_i s_j.
    let n = ising.num_spins();
    let mut linear = vec![0.0; n];
    let mut quadratic = Vec::new();
    let mut offset = 0.0;

    for (i, &h) in ising.h.iter().enumerate() {
        // h_i s_i = h_i (1 − 2 x_i)
        offset += h;
        linear[i] += -2.0 * h;
    }
    for &(i, j, jij) in &ising.j {
        // J s_i s_j = J (1 − 2x_i)(1 − 2x_j) = J (1 − 2x_i − 2x_j + 4x_i x_j)
        offset += jij;
        linear[i] += -2.0 * jij;
        linear[j] += -2.0 * jij;
        quadratic.push((i, j, 4.0 * jij));
    }

    let mut q = quadratic;
    for (i, &l) in linear.iter().enumerate() {
        if l != 0.0 {
            q.push((i, i, l));
        }
    }
    q.sort_by_key(|&(i, j, _)| (i, j));
    QuboProblem {
        num_vars: n,
        q,
        offset,
    }
}

/// Convert Boolean labels (the middle layer's AS_BOOL readout) to spins using
/// the paper's convention 0 ↦ +1, 1 ↦ −1.
#[cfg(test)]
pub(crate) fn bools_to_spins(bits: &[bool]) -> Vec<i8> {
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
        let spins = bools_to_spins(&[true, false, true, false]);
        assert_eq!(ising.energy(&spins), -4.0);
        assert_eq!(energy_to_cut(&g, -4.0), 4.0);
        assert_eq!(ising.brute_force_ground_energy(), -4.0);
    }

    #[test]
    fn energy_cut_relation_holds_for_all_assignments() {
        let g = cycle(5);
        let ising = maxcut_to_ising(&g);
        for mask in 0u32..32 {
            let bits: Vec<bool> = (0..5).map(|i| (mask >> i) & 1 == 1).collect();
            let spins = bools_to_spins(&bits);
            let via_energy = energy_to_cut(&g, ising.energy(&spins));
            let direct = cut_value(&g, &bits);
            assert!((via_energy - direct).abs() < 1e-9, "mask {mask}");
        }
    }

    #[test]
    fn qubo_objective_is_negative_cut() {
        let g = cycle(4);
        let qubo = maxcut_to_qubo(&g);
        for mask in 0u32..16 {
            let bits: Vec<bool> = (0..4).map(|i| (mask >> i) & 1 == 1).collect();
            let obj = qubo.objective(&bits);
            let cut = cut_value(&g, &bits);
            assert!((obj + cut).abs() < 1e-9, "mask {mask}: {obj} vs -{cut}");
        }
    }

    #[test]
    fn ising_to_qubo_preserves_objective_up_to_transform() {
        let g = random_weighted_gnp(6, 0.7, 0.5, 2.0, 9);
        let ising = maxcut_to_ising(&g);
        let qubo = ising_to_qubo(&ising);
        for mask in 0u32..64 {
            let bits: Vec<bool> = (0..6).map(|i| (mask >> i) & 1 == 1).collect();
            let spins = bools_to_spins(&bits);
            let e_ising = ising.energy(&spins);
            let e_qubo = qubo.objective(&bits);
            assert!((e_ising - e_qubo).abs() < 1e-9, "mask {mask}");
        }
    }

    #[test]
    fn ground_energy_matches_brute_force_cut() {
        let g = random_weighted_gnp(8, 0.6, 0.5, 1.5, 21);
        let ising = maxcut_to_ising(&g);
        let ground = ising.brute_force_ground_energy();
        let best_cut = brute_force(&g).value;
        assert!((energy_to_cut(&g, ground) - best_cut).abs() < 1e-9);
    }

    #[test]
    fn spins_to_cut_helper() {
        let g = cycle(4);
        assert_eq!(spins_to_cut(&g, &[-1, 1, -1, 1]), 4.0);
        assert_eq!(spins_to_cut(&g, &[1, 1, 1, 1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_spin_length_panics() {
        maxcut_to_ising(&cycle(4)).energy(&[1, -1]);
    }
}
