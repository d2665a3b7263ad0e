//! The spin model as a map of couplings: the layout
//! [`BinaryQuadraticModel`](crate::BinaryQuadraticModel) had before it was
//! stored as the sampler's compressed rows. Test-only: the oracle the stored
//! model's energies, field and interaction count are held to bit for bit,
//! and the source of the sampler reference's adjacency.

use std::collections::BTreeMap;

/// `Σ_i linear_i s_i + Σ_{i<j} q_ij s_i s_j` over spins s ∈ {−1, +1}.
#[derive(Debug, Clone)]
pub(crate) struct ReferenceModel {
    linear: Vec<f64>,
    /// Quadratic terms keyed by (i, j) with i < j.
    quadratic: BTreeMap<(usize, usize), f64>,
}

impl ReferenceModel {
    /// Accumulate `h` and `j` term by term into a zeroed model.
    pub(crate) fn from_ising(h: &[f64], j: &[(usize, usize, f64)]) -> Self {
        let mut model = ReferenceModel {
            linear: vec![0.0; h.len()],
            quadratic: BTreeMap::new(),
        };
        for (i, &hi) in h.iter().enumerate() {
            model.linear[i] += hi;
        }
        for &(a, b, q) in j {
            assert!(a != b, "diagonal terms belong in the linear part");
            *model.quadratic.entry((a.min(b), a.max(b))).or_insert(0.0) += q;
        }
        model
    }

    pub(crate) fn num_variables(&self) -> usize {
        self.linear.len()
    }

    pub(crate) fn num_interactions(&self) -> usize {
        self.quadratic.len()
    }

    pub(crate) fn linear(&self, i: usize) -> f64 {
        self.linear[i]
    }

    /// Energy of a spin sample, the offset of the former model (always 0.0)
    /// kept as the leading term.
    pub(crate) fn energy_spin(&self, spins: &[i8]) -> f64 {
        assert_eq!(spins.len(), self.num_variables());
        let value = |i: usize| f64::from(spins[i]);
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
        0.0 + linear + quadratic
    }

    /// For each variable, its (neighbour, coupling) pairs in key order.
    pub(crate) fn adjacency(&self) -> Vec<Vec<(usize, f64)>> {
        let mut adj = vec![Vec::new(); self.num_variables()];
        for (&(i, j), &q) in &self.quadratic {
            adj[i].push((j, q));
            adj[j].push((i, q));
        }
        adj
    }

    /// `max_i |h_i| + Σ_j |q_ij|`, each sum accumulated in key order.
    pub(crate) fn max_effective_field(&self) -> f64 {
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
    pub(crate) fn brute_force_ground_energy(&self) -> f64 {
        let n = self.num_variables();
        assert!(n <= 24, "brute force is limited to 24 variables");
        (0u64..(1u64 << n))
            .map(|mask| {
                let spins: Vec<i8> = (0..n)
                    .map(|i| if (mask >> i) & 1 == 1 { -1 } else { 1 })
                    .collect();
                self.energy_spin(&spins)
            })
            .fold(f64::INFINITY, f64::min)
    }
}
