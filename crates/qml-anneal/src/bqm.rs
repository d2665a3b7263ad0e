//! Binary quadratic models (BQM): the problem representation consumed by the
//! annealing path.
//!
//! The paper's annealer backend "consumes a single Ising descriptor
//! (equivalently a QUBO/BQM) specifying (h, J)" (§5). This module is the
//! repository's substitute for `dimod`'s BQM: a quadratic objective over
//! either SPIN (±1) or BINARY ({0,1}) variables with exact conversions
//! between the two conventions.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Variable convention of a BQM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Vartype {
    /// Ising spins s ∈ {−1, +1}.
    Spin,
    /// Binary variables x ∈ {0, 1}.
    Binary,
}

/// A binary quadratic model: `offset + Σ_i linear_i v_i + Σ_{i<j} q_ij v_i v_j`
/// where `v` are SPIN or BINARY variables depending on `Vartype`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinaryQuadraticModel {
    vartype: Vartype,
    linear: Vec<f64>,
    /// Quadratic terms keyed by (i, j) with i < j.
    quadratic: BTreeMap<(usize, usize), f64>,
    offset: f64,
}

impl BinaryQuadraticModel {
    /// An empty model over `num_variables` variables.
    pub(crate) fn new(num_variables: usize, vartype: Vartype) -> Self {
        BinaryQuadraticModel {
            vartype,
            linear: vec![0.0; num_variables],
            quadratic: BTreeMap::new(),
            offset: 0.0,
        }
    }

    /// Build an Ising model from linear fields `h` and couplings `j`.
    pub fn from_ising(h: &[f64], j: &[(usize, usize, f64)]) -> Self {
        let mut bqm = BinaryQuadraticModel::new(h.len(), Vartype::Spin);
        for (i, &hi) in h.iter().enumerate() {
            bqm.add_linear(i, hi);
        }
        for &(a, b, jab) in j {
            bqm.add_quadratic(a, b, jab);
        }
        bqm
    }

    /// Build a QUBO from upper-triangular entries (diagonal = linear).
    #[cfg(test)]
    pub(crate) fn from_qubo(num_variables: usize, q: &[(usize, usize, f64)], offset: f64) -> Self {
        let mut bqm = BinaryQuadraticModel::new(num_variables, Vartype::Binary);
        bqm.offset = offset;
        for &(i, j, v) in q {
            if i == j {
                bqm.add_linear(i, v);
            } else {
                bqm.add_quadratic(i, j, v);
            }
        }
        bqm
    }

    /// Variable convention.
    pub(crate) fn vartype(&self) -> Vartype {
        self.vartype
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.linear.len()
    }

    /// Number of non-zero quadratic interactions.
    pub fn num_interactions(&self) -> usize {
        self.quadratic.len()
    }

    /// Linear coefficient of variable `i`.
    pub(crate) fn linear(&self, i: usize) -> f64 {
        self.linear[i]
    }

    /// Iterate over quadratic terms as (i, j, value) with i < j.
    pub(crate) fn interactions(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.quadratic.iter().map(|(&(i, j), &v)| (i, j, v))
    }

    /// Add to the linear coefficient of variable `i`.
    pub(crate) fn add_linear(&mut self, i: usize, value: f64) {
        assert!(i < self.linear.len(), "variable {i} out of range");
        self.linear[i] += value;
    }

    /// Add to the quadratic coefficient of the pair (i, j).
    pub(crate) fn add_quadratic(&mut self, i: usize, j: usize, value: f64) {
        assert!(i != j, "diagonal terms belong in the linear part");
        assert!(
            i < self.linear.len() && j < self.linear.len(),
            "interaction ({i},{j}) out of range"
        );
        *self.quadratic.entry((i.min(j), i.max(j))).or_insert(0.0) += value;
    }

    /// Energy of a SPIN sample (entries ±1). The model is converted on the
    /// fly if it is BINARY.
    pub fn energy_spin(&self, spins: &[i8]) -> f64 {
        assert_eq!(
            spins.len(),
            self.num_variables(),
            "sample has the wrong length"
        );
        match self.vartype {
            Vartype::Spin => self.raw_energy(|i| f64::from(spins[i])),
            Vartype::Binary => self.raw_energy(|i| if spins[i] == 1 { 0.0 } else { 1.0 }),
        }
    }

    /// Energy of a BINARY sample (entries false/true ↦ 0/1).
    pub fn energy_binary(&self, bits: &[bool]) -> f64 {
        assert_eq!(
            bits.len(),
            self.num_variables(),
            "sample has the wrong length"
        );
        match self.vartype {
            Vartype::Binary => self.raw_energy(|i| if bits[i] { 1.0 } else { 0.0 }),
            // x = 1 ⇒ s = −1 (the paper's readout convention).
            Vartype::Spin => self.raw_energy(|i| if bits[i] { -1.0 } else { 1.0 }),
        }
    }

    /// The objective at the assignment `value(i)`, evaluated in place (the
    /// sampler calls this once per read).
    fn raw_energy(&self, value: impl Fn(usize) -> f64) -> f64 {
        let linear: f64 = self
            .linear
            .iter()
            .enumerate()
            .map(|(i, l)| l * value(i))
            .sum();
        let quadratic: f64 = self
            .quadratic
            .iter()
            .map(|(&(i, j), &q)| q * value(i) * value(j))
            .sum();
        self.offset + linear + quadratic
    }

    /// Convert to the SPIN convention (exact, adjusting offset/linear terms).
    pub(crate) fn to_spin(&self) -> BinaryQuadraticModel {
        match self.vartype {
            Vartype::Spin => self.clone(),
            Vartype::Binary => {
                // x = (1 − s)/2  (x=1 ⇔ s=−1, matching energy_binary above).
                let n = self.num_variables();
                let mut out = BinaryQuadraticModel::new(n, Vartype::Spin);
                out.offset = self.offset;
                for (i, &l) in self.linear.iter().enumerate() {
                    // l·x = l/2 − l/2·s
                    out.offset += l / 2.0;
                    out.add_linear(i, -l / 2.0);
                }
                for (&(i, j), &q) in &self.quadratic {
                    // q·x_i·x_j = q/4 (1 − s_i)(1 − s_j)
                    out.offset += q / 4.0;
                    out.add_linear(i, -q / 4.0);
                    out.add_linear(j, -q / 4.0);
                    out.add_quadratic(i, j, q / 4.0);
                }
                out
            }
        }
    }

    /// Convert to the BINARY convention (exact).
    pub fn to_binary(&self) -> BinaryQuadraticModel {
        match self.vartype {
            Vartype::Binary => self.clone(),
            Vartype::Spin => {
                // s = 1 − 2x.
                let n = self.num_variables();
                let mut out = BinaryQuadraticModel::new(n, Vartype::Binary);
                out.offset = self.offset;
                for (i, &h) in self.linear.iter().enumerate() {
                    out.offset += h;
                    out.add_linear(i, -2.0 * h);
                }
                for (&(i, j), &jij) in &self.quadratic {
                    out.offset += jij;
                    out.add_linear(i, -2.0 * jij);
                    out.add_linear(j, -2.0 * jij);
                    out.add_quadratic(i, j, 4.0 * jij);
                }
                out
            }
        }
    }

    /// Adjacency list: for each variable, the (neighbor, coupling) pairs, in
    /// [`interactions`](Self::interactions) order. The annealer keeps its own
    /// flat copy of this layout; this nested form allocates one `Vec` per
    /// variable.
    #[cfg(test)]
    pub(crate) fn adjacency(&self) -> Vec<Vec<(usize, f64)>> {
        let mut adj = vec![Vec::new(); self.num_variables()];
        for (&(i, j), &q) in &self.quadratic {
            adj[i].push((j, q));
            adj[j].push((i, q));
        }
        adj
    }

    /// The largest absolute effective field any single variable can feel
    /// (used to pick default annealing temperature ranges).
    pub fn max_effective_field(&self) -> f64 {
        // Σ|q| per variable, accumulated in interaction order: the default
        // schedule, and so every sample, depends on the exact sum.
        let mut coupled = vec![0.0f64; self.num_variables()];
        for (&(i, j), &q) in &self.quadratic {
            coupled[i] += q.abs();
            coupled[j] += q.abs();
        }
        self.linear
            .iter()
            .zip(&coupled)
            .map(|(l, c)| l.abs() + c)
            .fold(0.0, f64::max)
    }

    /// Exact ground-state energy by enumeration (≤ 24 variables).
    #[cfg(test)]
    pub(crate) fn brute_force_ground_energy(&self) -> f64 {
        let n = self.num_variables();
        assert!(n <= 24, "brute force is limited to 24 variables");
        let spin_model = self.to_spin();
        let mut best = f64::INFINITY;
        for mask in 0u64..(1u64 << n) {
            let spins: Vec<i8> = (0..n)
                .map(|i| if (mask >> i) & 1 == 1 { -1 } else { 1 })
                .collect();
            best = best.min(spin_model.energy_spin(&spins));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Max-Cut C4 Ising model: h = 0, unit couplings on the ring.
    fn c4_ising() -> BinaryQuadraticModel {
        BinaryQuadraticModel::from_ising(
            &[0.0; 4],
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)],
        )
    }

    #[test]
    fn c4_energies() {
        let bqm = c4_ising();
        assert_eq!(bqm.num_variables(), 4);
        assert_eq!(bqm.num_interactions(), 4);
        // Alternating spins: every edge anti-aligned ⇒ E = −4.
        assert_eq!(bqm.energy_spin(&[1, -1, 1, -1]), -4.0);
        // Aligned spins: E = +4.
        assert_eq!(bqm.energy_spin(&[1, 1, 1, 1]), 4.0);
        assert_eq!(bqm.brute_force_ground_energy(), -4.0);
    }

    #[test]
    fn binary_energy_uses_paper_convention() {
        // Boolean 1 ↦ spin −1, so "1010" is the alternating ground state.
        let bqm = c4_ising();
        assert_eq!(bqm.energy_binary(&[true, false, true, false]), -4.0);
        assert_eq!(bqm.energy_binary(&[false, false, false, false]), 4.0);
    }

    #[test]
    fn spin_binary_round_trip_preserves_energies() {
        let bqm = BinaryQuadraticModel::from_ising(&[0.5, -1.0, 0.0], &[(0, 1, 1.2), (1, 2, -0.7)]);
        let binary = bqm.to_binary();
        let back = binary.to_spin();
        for mask in 0u8..8 {
            let spins: Vec<i8> = (0..3)
                .map(|i| if (mask >> i) & 1 == 1 { -1 } else { 1 })
                .collect();
            let bits: Vec<bool> = spins.iter().map(|&s| s == -1).collect();
            let e0 = bqm.energy_spin(&spins);
            assert!(
                (binary.energy_binary(&bits) - e0).abs() < 1e-9,
                "binary mask {mask}"
            );
            assert!(
                (back.energy_spin(&spins) - e0).abs() < 1e-9,
                "round trip mask {mask}"
            );
        }
    }

    #[test]
    fn qubo_construction_and_energy() {
        // Minimize x0 + x1 − 2 x0 x1 (ground states 00 and 11, energy 0).
        let bqm =
            BinaryQuadraticModel::from_qubo(2, &[(0, 0, 1.0), (1, 1, 1.0), (0, 1, -2.0)], 0.0);
        assert_eq!(bqm.energy_binary(&[false, false]), 0.0);
        assert_eq!(bqm.energy_binary(&[true, true]), 0.0);
        assert_eq!(bqm.energy_binary(&[true, false]), 1.0);
        assert_eq!(bqm.brute_force_ground_energy(), 0.0);
    }

    #[test]
    fn repeated_terms_accumulate() {
        let mut bqm = BinaryQuadraticModel::new(2, Vartype::Spin);
        bqm.add_quadratic(0, 1, 1.0);
        bqm.add_quadratic(1, 0, 0.5);
        bqm.add_linear(0, 0.25);
        bqm.add_linear(0, 0.25);
        assert_eq!(bqm.quadratic[&(0, 1)], 1.5);
        assert_eq!(bqm.linear(0), 0.5);
        assert_eq!(bqm.num_interactions(), 1);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let bqm = c4_ising();
        let adj = bqm.adjacency();
        assert_eq!(adj[0].len(), 2);
        assert!(adj[0].iter().any(|&(j, _)| j == 1));
        assert!(adj[0].iter().any(|&(j, _)| j == 3));
        for i in 0..4 {
            for &(j, w) in &adj[i] {
                assert!(adj[j].iter().any(|&(k, w2)| k == i && w2 == w));
            }
        }
    }

    #[test]
    fn max_effective_field() {
        let bqm = BinaryQuadraticModel::from_ising(&[0.5, 0.0], &[(0, 1, -2.0)]);
        assert_eq!(bqm.max_effective_field(), 2.5);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn diagonal_quadratic_panics() {
        let mut bqm = BinaryQuadraticModel::new(2, Vartype::Spin);
        bqm.add_quadratic(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_sample_length_panics() {
        c4_ising().energy_spin(&[1, -1]);
    }

    #[test]
    fn offset_propagates_through_conversions() {
        let mut bqm = c4_ising();
        bqm.offset += 2.5;
        assert_eq!(bqm.energy_spin(&[1, -1, 1, -1]), -1.5);
        assert_eq!(
            bqm.to_binary().energy_binary(&[true, false, true, false]),
            -1.5
        );
    }
}
