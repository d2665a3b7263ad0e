//! Execution results: what a backend hands back to the runtime.
//!
//! Both execution paths — gate simulation and annealing — report their
//! samples in the same shape (counts over classical words), which is exactly
//! what lets the paper's two workflows share downstream analysis. A result
//! holds its words once, as a [`Counts`]: one sorted byte arena of the
//! distinct words and one `Vec<u64>` of their counts, so a held or cloned
//! result is a few allocations however many words it observed. It iterates,
//! compares and serializes like the `BTreeMap<String, u64>` it replaced.
//! The gate backend builds it from the sampler's runs
//! ([`qml_sim::StateVector::sample_with`]), the anneal backend from its
//! sample set's records. There is no decoded copy: a caller that wants
//! typed values decodes on demand through the explicit result schema, with
//! [`DecodedCounts::decode`](qml_types::DecodedCounts::decode). The backends
//! check that schema against the register and the measured width when they
//! build a plan, so every word of a completed result decodes.

use serde::{Deserialize, Serialize};

pub use qml_sim::Counts;

use qml_qec::ResourceEstimate;
use qml_transpile::CircuitMetrics;

/// Energy statistics reported by annealing backends.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyStats {
    /// Lowest energy observed.
    pub min_energy: f64,
    /// Occurrence-weighted mean energy.
    pub mean_energy: f64,
    /// Fraction of reads that reached the lowest observed energy.
    pub ground_state_probability: f64,
}

/// The uniform result of executing a job bundle on any backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionResult {
    /// Name of the backend that produced the result.
    pub backend: String,
    /// Engine identifier from the context (e.g. `gate.aer_simulator`).
    pub engine: String,
    /// Id of the register the readout refers to.
    pub register: String,
    /// Number of samples (shots / reads).
    pub shots: u64,
    /// Raw counts keyed by classical word (character j = classical bit j),
    /// in ascending word order.
    pub counts: Counts,
    /// Transpilation metrics (gate path only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub gate_metrics: Option<CircuitMetrics>,
    /// Energy statistics (annealing path only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub energy_stats: Option<EnergyStats>,
    /// Resource estimate produced by the orthogonal QEC service when the
    /// context carried a `qec` block (advisory; semantics are unchanged).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub qec_estimate: Option<ResourceEstimate>,
}

impl ExecutionResult {
    /// Empirical probability of a word.
    pub fn probability(&self, word: &str) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        *self.counts.get(word).unwrap_or(&0) as f64 / self.shots as f64
    }

    /// Occurrence-weighted expectation of a word-level objective — the
    /// statistic behind the paper's "expected cut".
    pub fn expectation<F: Fn(&str) -> f64>(&self, objective: F) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        self.counts
            .iter()
            .map(|(word, &n)| objective(word) * n as f64)
            .sum::<f64>()
            / self.shots as f64
    }

    /// The `k` most frequent words with their empirical probabilities.
    pub fn top_k(&self, k: usize) -> Vec<(String, f64)> {
        let mut entries: Vec<(&str, u64)> = self.counts.iter().map(|(w, &n)| (w, n)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        entries
            .into_iter()
            .take(k)
            .map(|(w, n)| (w.to_owned(), n as f64 / self.shots.max(1) as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_result() -> ExecutionResult {
        let counts = [("1010", 500), ("0101", 400), ("0000", 100)];
        ExecutionResult {
            backend: "test".into(),
            engine: "gate.test".into(),
            register: "ising_vars".into(),
            shots: 1000,
            counts: counts.into_iter().collect(),
            gate_metrics: None,
            energy_stats: None,
            qec_estimate: None,
        }
    }

    #[test]
    fn probabilities_and_top_k() {
        let r = demo_result();
        assert!((r.probability("1010") - 0.5).abs() < 1e-12);
        assert_eq!(r.probability("1111"), 0.0);
        let top = r.top_k(2);
        assert_eq!(top[0].0, "1010");
        assert_eq!(top[1].0, "0101");
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn expectation_weighted_by_counts() {
        let r = demo_result();
        let ones = r.expectation(|w| w.chars().filter(|&c| c == '1').count() as f64);
        assert!((ones - (0.5 * 2.0 + 0.4 * 2.0 + 0.1 * 0.0)).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip() {
        let r = demo_result();
        let json = serde_json::to_string(&r).unwrap();
        let back: ExecutionResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn zero_shot_edge_cases() {
        let mut r = demo_result();
        r.shots = 0;
        assert_eq!(r.probability("1010"), 0.0);
        assert_eq!(r.expectation(|_| 1.0), 0.0);
    }
}
