//! Surface-code resource estimation.
//!
//! The paper treats error correction as execution context (§4.3.2): the
//! context's `qec` block requests e.g. a distance-7 surface code, and an
//! orthogonal QEC service "binds logical registers (one logical qubit may
//! span dozens of physical qubits under QEC) to patches, inserts
//! syndrome-extraction rounds ... and chooses a decoder". This module
//! provides the quantitative side of that service: how many physical qubits a
//! logical register needs, how many syndrome rounds a logical operation
//! takes, and the logical error rate the standard Λ-scaling model predicts.

use serde::{Deserialize, Serialize};

/// Default threshold of the surface code under circuit-level noise.
pub(crate) const SURFACE_CODE_THRESHOLD: f64 = 0.01;

/// Resource model of a rotated surface code of a given distance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurfaceCode {
    /// Code distance (odd).
    pub distance: usize,
    /// Physical error rate per operation assumed by the model.
    pub physical_error_rate: f64,
    /// Threshold error rate of the code family.
    pub threshold: f64,
}

impl SurfaceCode {
    /// A surface code of distance `d` at the given physical error rate, using
    /// the standard threshold.
    pub fn new(distance: usize, physical_error_rate: f64) -> Self {
        assert!(
            distance >= 1 && distance % 2 == 1,
            "distance must be odd and ≥ 1"
        );
        assert!(
            (0.0..1.0).contains(&physical_error_rate),
            "physical error rate must lie in [0, 1)"
        );
        SurfaceCode {
            distance,
            physical_error_rate,
            threshold: SURFACE_CODE_THRESHOLD,
        }
    }

    /// Physical qubits per logical qubit for the rotated surface code:
    /// d² data qubits plus d²−1 measurement ancillas.
    pub fn physical_qubits_per_logical(&self) -> usize {
        2 * self.distance * self.distance - 1
    }

    /// Syndrome-extraction rounds needed per logical operation (one round per
    /// unit of code distance).
    pub(crate) fn rounds_per_logical_op(&self) -> usize {
        self.distance
    }

    /// Logical error rate per logical operation under the standard Λ-scaling
    /// model: `p_L ≈ A · (p/p_th)^((d+1)/2)` with A = 0.1.
    pub fn logical_error_rate(&self) -> f64 {
        let ratio = self.physical_error_rate / self.threshold;
        0.1 * ratio.powf((self.distance as f64 + 1.0) / 2.0)
    }

    /// Smallest odd distance whose logical error rate is below `target`
    /// at physical error rate `p`. Returns `None` when `p` is at or above
    /// threshold (no distance helps).
    pub fn required_distance(p: f64, target: f64) -> Option<usize> {
        if p >= SURFACE_CODE_THRESHOLD || target <= 0.0 {
            return None;
        }
        let mut d = 3usize;
        loop {
            let code = SurfaceCode::new(d, p);
            if code.logical_error_rate() <= target {
                return Some(d);
            }
            d += 2;
            if d > 101 {
                return None;
            }
        }
    }
}

/// Aggregate physical resources for running a logical workload under a
/// surface-code policy — what the paper's orthogonal QEC service reports back
/// to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceEstimate {
    /// Logical qubits requested by the program.
    pub logical_qubits: usize,
    /// Total physical qubits (patches + routing overhead).
    pub physical_qubits: usize,
    /// Total syndrome-extraction rounds for the whole workload.
    pub syndrome_rounds: usize,
    /// Probability that at least one logical operation fails.
    pub workload_failure_probability: f64,
    /// Multiplicative wall-clock overhead relative to the bare circuit.
    pub time_overhead_factor: f64,
}

impl SurfaceCode {
    /// Estimate resources for a workload of `logical_qubits` qubits and
    /// `logical_ops` logical operations (circuit depth × width is a good
    /// proxy). A 50 % routing-space overhead is added for lattice surgery.
    pub(crate) fn estimate(&self, logical_qubits: usize, logical_ops: usize) -> ResourceEstimate {
        let per_patch = self.physical_qubits_per_logical();
        let physical_qubits = (logical_qubits * per_patch * 3) / 2;
        let syndrome_rounds = logical_ops * self.rounds_per_logical_op();
        let p_l = self.logical_error_rate();
        let workload_failure_probability = 1.0 - (1.0 - p_l).powi(logical_ops as i32);
        ResourceEstimate {
            logical_qubits,
            physical_qubits,
            syndrome_rounds,
            workload_failure_probability,
            time_overhead_factor: self.rounds_per_logical_op() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing5_distance7_patch_size() {
        // The paper's Listing 5 policy: distance-7 surface code. One logical
        // qubit then spans 2·49−1 = 97 physical qubits — "one logical qubit
        // may span dozens of physical qubits".
        let code = SurfaceCode::new(7, 1e-3);
        assert_eq!(code.physical_qubits_per_logical(), 97);
        assert_eq!(code.rounds_per_logical_op(), 7);
    }

    #[test]
    fn logical_error_rate_decreases_with_distance() {
        let p = 1e-3;
        let rates: Vec<f64> = [3, 5, 7, 9, 11]
            .iter()
            .map(|&d| SurfaceCode::new(d, p).logical_error_rate())
            .collect();
        assert!(rates.windows(2).all(|w| w[1] < w[0]), "{rates:?}");
        // Below threshold, each +2 in distance suppresses by Λ = p_th/p = 10.
        let lambda = rates[2] / rates[3];
        assert!((lambda - 10.0).abs() < 1e-9);
    }

    #[test]
    fn above_threshold_distance_hurts() {
        let p = 0.05; // above the 1 % threshold
        let d3 = SurfaceCode::new(3, p).logical_error_rate();
        let d9 = SurfaceCode::new(9, p).logical_error_rate();
        assert!(d9 > d3, "above threshold, more distance makes things worse");
    }

    #[test]
    fn required_distance_monotone_in_target() {
        let p = 1e-3;
        let loose = SurfaceCode::required_distance(p, 1e-6).unwrap();
        let tight = SurfaceCode::required_distance(p, 1e-12).unwrap();
        assert!(tight > loose);
        assert!(SurfaceCode::required_distance(0.02, 1e-6).is_none());
        assert!(SurfaceCode::required_distance(p, 0.0).is_none());
    }

    #[test]
    fn required_distance_actually_meets_target() {
        let p = 2e-3;
        let target = 1e-9;
        let d = SurfaceCode::required_distance(p, target).unwrap();
        assert!(SurfaceCode::new(d, p).logical_error_rate() <= target);
        if d > 3 {
            assert!(SurfaceCode::new(d - 2, p).logical_error_rate() > target);
        }
    }

    #[test]
    fn estimate_scales_with_workload() {
        let code = SurfaceCode::new(7, 1e-3);
        let small = code.estimate(4, 100);
        let large = code.estimate(10, 1000);
        assert_eq!(small.logical_qubits, 4);
        assert_eq!(small.physical_qubits, 4 * 97 * 3 / 2);
        assert_eq!(small.syndrome_rounds, 700);
        assert!(large.physical_qubits > small.physical_qubits);
        assert!(large.workload_failure_probability > small.workload_failure_probability);
        assert!(
            small.workload_failure_probability > 0.0 && small.workload_failure_probability < 1.0
        );
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_distance_panics() {
        SurfaceCode::new(4, 1e-3);
    }

    #[test]
    #[should_panic(expected = "error rate")]
    fn bad_error_rate_panics() {
        SurfaceCode::new(3, 1.5);
    }
}
