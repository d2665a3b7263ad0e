//! The binary quadratic model (BQM): the spin problem the annealing path
//! samples.
//!
//! The paper's annealer backend "consumes a single Ising descriptor
//! (equivalently a QUBO/BQM) specifying (h, J)" (§5). This module is the
//! repository's substitute for `dimod`'s BQM over SPIN (±1) variables, stored
//! in the layout the sampler's sweep kernel reads: the fields `h`, the
//! couplings as compressed sparse rows, and the largest effective field the
//! default schedule derives its temperatures from. [`from_ising`] computes all
//! of it once, so a cached plan samples its model with nothing left to derive.
//!
//! [`from_ising`]: BinaryQuadraticModel::from_ising

/// An Ising model `Σ_i h_i s_i + Σ_{i<j} J_ij s_i s_j` over spins s ∈ {−1, +1}.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryQuadraticModel {
    /// `h_i`.
    linear: Vec<f64>,
    /// Row `i` is `entries[rows[i]..rows[i + 1]]`.
    rows: Vec<usize>,
    /// `(j, 4·J_ij)`, each distinct coupling under both of its variables,
    /// each row in ascending `j`.
    entries: Vec<(usize, f64)>,
    /// `max_i |h_i| + Σ_j |J_ij|`.
    max_effective_field: f64,
}

impl BinaryQuadraticModel {
    /// Build an Ising model from linear fields `h` and couplings `j`. A pair
    /// given more than once, in either order, is one coupling: the sum of
    /// its entries in input order. Couplings are stored scaled by 4, so each
    /// must stay below `f64::MAX / 4` in magnitude.
    ///
    /// # Panics
    ///
    /// If a coupling joins a variable to itself or names one out of range.
    pub fn from_ising(h: &[f64], j: &[(usize, usize, f64)]) -> Self {
        let n = h.len();
        // Each distinct pair once, as (i < j) in ascending order, with its
        // coefficient accumulated from +0.0 in input order (a stable sort
        // keeps the input order of a pair's entries).
        let mut terms: Vec<(usize, usize, f64)> = j
            .iter()
            .map(|&(a, b, q)| {
                assert!(a != b, "diagonal terms belong in the linear part");
                assert!(a < n && b < n, "interaction ({a},{b}) out of range");
                (a.min(b), a.max(b), q)
            })
            .collect();
        terms.sort_by_key(|&(a, b, _)| (a, b));
        let mut pairs: Vec<(usize, usize, f64)> = Vec::with_capacity(terms.len());
        for (a, b, q) in terms {
            match pairs.last_mut() {
                Some(last) if (last.0, last.1) == (a, b) => last.2 += q,
                _ => pairs.push((a, b, 0.0 + q)),
            }
        }

        let mut rows = vec![0; n + 1];
        for &(a, b, _) in &pairs {
            rows[a + 1] += 1;
            rows[b + 1] += 1;
        }
        for i in 0..n {
            rows[i + 1] += rows[i];
        }
        // Pairs in ascending order fill every row in ascending neighbour
        // order, and add each |J| to a variable's field in that order.
        let mut next = rows[..n].to_vec();
        let mut entries = vec![(0, 0.0); rows[n]];
        let mut coupled = vec![0.0f64; n];
        for &(a, b, q) in &pairs {
            entries[next[a]] = (b, 4.0 * q);
            next[a] += 1;
            entries[next[b]] = (a, 4.0 * q);
            next[b] += 1;
            coupled[a] += q.abs();
            coupled[b] += q.abs();
        }
        let linear: Vec<f64> = h.iter().map(|&hi| 0.0 + hi).collect();
        let max_effective_field = linear
            .iter()
            .zip(&coupled)
            .map(|(l, c)| l.abs() + c)
            .fold(0.0, f64::max);
        BinaryQuadraticModel {
            linear,
            rows,
            entries,
            max_effective_field,
        }
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.linear.len()
    }

    /// Number of distinct coupled pairs, zero-valued ones included.
    pub fn num_interactions(&self) -> usize {
        self.entries.len() / 2
    }

    /// `h_i`.
    pub(crate) fn linear(&self, i: usize) -> f64 {
        self.linear[i]
    }

    /// The couplings of variable `i` as `(j, 4·J_ij)`, in ascending `j`.
    pub(crate) fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.entries[self.rows[i]..self.rows[i + 1]]
    }

    /// Energy of a SPIN sample (entries ±1), evaluated in place.
    pub fn energy_spin(&self, spins: &[i8]) -> f64 {
        assert_eq!(
            spins.len(),
            self.num_variables(),
            "sample has the wrong length"
        );
        let value = |i: usize| f64::from(spins[i]);
        let linear: f64 = self
            .linear
            .iter()
            .enumerate()
            .map(|(i, l)| l * value(i))
            .sum();
        // Each pair once, from the row of its smaller variable: ascending
        // (i, j). `0.25 · 4J` is `J` exactly.
        let quadratic: f64 = (0..self.num_variables())
            .flat_map(|i| {
                self.row(i)
                    .iter()
                    .filter(move |&&(j, _)| j > i)
                    .map(move |&(j, w4)| 0.25 * w4 * value(i) * value(j))
            })
            .sum();
        // The leading +0.0 turns a sum of −0.0s into +0.0.
        0.0 + linear + quadratic
    }

    /// The largest absolute effective field any single variable can feel
    /// (used to pick default annealing temperature ranges).
    pub fn max_effective_field(&self) -> f64 {
        self.max_effective_field
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
    }

    #[test]
    fn repeated_terms_accumulate() {
        let bqm = BinaryQuadraticModel::from_ising(&[0.5, 0.0], &[(0, 1, 1.0), (1, 0, 0.5)]);
        assert_eq!(bqm.row(0), &[(1, 6.0)]);
        assert_eq!(bqm.row(1), &[(0, 6.0)]);
        assert_eq!(bqm.linear(0), 0.5);
        assert_eq!(bqm.num_interactions(), 1);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let bqm = c4_ising();
        assert_eq!(bqm.row(0), &[(1, 4.0), (3, 4.0)]);
        for i in 0..4 {
            for &(j, w) in bqm.row(i) {
                assert!(bqm.row(j).iter().any(|&(k, w2)| k == i && w2 == w));
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
        BinaryQuadraticModel::from_ising(&[0.0; 2], &[(1, 1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_sample_length_panics() {
        c4_ising().energy_spin(&[1, -1]);
    }
}
