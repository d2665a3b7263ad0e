//! Bit-flip repetition code: an executable error-correction demonstrator.
//!
//! The surface-code module provides analytic resource estimates; this module
//! provides a code we can actually *run*: the distance-d bit-flip repetition
//! code with a majority-vote decoder, simulated under i.i.d. bit-flip noise.
//! It demonstrates the paper's QEC-as-context claim end to end — the same
//! logical bit survives better when the context requests a larger distance —
//! and its Monte-Carlo estimate can be cross-checked against the exact
//! binomial formula.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A distance-d bit-flip repetition code with majority decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepetitionCode {
    /// Code distance (number of physical copies, odd).
    pub distance: usize,
}

impl RepetitionCode {
    /// Create a repetition code of odd distance `d`.
    pub fn new(distance: usize) -> Self {
        assert!(
            distance >= 1 && distance % 2 == 1,
            "distance must be odd and ≥ 1"
        );
        RepetitionCode { distance }
    }

    /// Encode a logical bit into `distance` physical bits.
    pub(crate) fn encode(&self, logical: bool) -> Vec<bool> {
        vec![logical; self.distance]
    }

    /// Majority-vote decoding of a physical word.
    pub(crate) fn decode(&self, physical: &[bool]) -> bool {
        assert_eq!(physical.len(), self.distance, "wrong codeword length");
        let ones = physical.iter().filter(|&&b| b).count();
        ones * 2 > self.distance
    }

    /// Exact logical error probability under i.i.d. bit-flip noise of
    /// strength `p`: the probability that more than half the bits flip.
    pub fn analytic_logical_error_rate(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must lie in [0, 1]");
        let d = self.distance;
        let mut total = 0.0;
        for k in (d / 2 + 1)..=d {
            total += binomial(d, k) * p.powi(k as i32) * (1.0 - p).powi((d - k) as i32);
        }
        total
    }

    /// Monte-Carlo estimate of the logical error rate: encode, apply i.i.d.
    /// bit-flip noise, decode, count logical failures.
    pub fn simulate_logical_error_rate(&self, p: f64, trials: u64, seed: u64) -> f64 {
        assert!(trials > 0, "need at least one trial");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut failures = 0u64;
        for _ in 0..trials {
            let logical = rng.gen::<bool>();
            let mut word = self.encode(logical);
            for bit in word.iter_mut() {
                if rng.gen::<f64>() < p {
                    *bit = !*bit;
                }
            }
            if self.decode(&word) != logical {
                failures += 1;
            }
        }
        failures as f64 / trials as f64
    }
}

/// Binomial coefficient as f64 (distances are small, no overflow concerns).
fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut result = 1.0f64;
    for i in 0..k {
        result = result * (n - i) as f64 / (i + 1) as f64;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip_without_noise() {
        for d in [1, 3, 5, 7] {
            let code = RepetitionCode::new(d);
            for logical in [false, true] {
                let word = code.encode(logical);
                assert_eq!(word.len(), d);
                assert_eq!(code.decode(&word), logical);
            }
        }
    }

    #[test]
    fn single_error_is_corrected_for_d3() {
        let code = RepetitionCode::new(3);
        for flip in 0..3 {
            let mut word = code.encode(true);
            word[flip] = !word[flip];
            assert!(
                code.decode(&word),
                "single flip at {flip} must be corrected"
            );
        }
    }

    #[test]
    fn two_errors_defeat_d3() {
        let code = RepetitionCode::new(3);
        let mut word = code.encode(true);
        word[0] = false;
        word[1] = false;
        assert!(!code.decode(&word));
    }

    #[test]
    fn analytic_formula_known_values() {
        let code = RepetitionCode::new(3);
        // p_L = 3p²(1−p) + p³ at d = 3.
        let p = 0.1;
        let expected = 3.0 * p * p * (1.0 - p) + p * p * p;
        assert!((code.analytic_logical_error_rate(p) - expected).abs() < 1e-12);
        // d = 1 gives no protection.
        assert!((RepetitionCode::new(1).analytic_logical_error_rate(p) - p).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_matches_analytic() {
        let code = RepetitionCode::new(5);
        let p = 0.08;
        let analytic = code.analytic_logical_error_rate(p);
        let simulated = code.simulate_logical_error_rate(p, 200_000, 42);
        assert!(
            (simulated - analytic).abs() < 5e-3,
            "simulated {simulated} vs analytic {analytic}"
        );
    }

    #[test]
    fn below_threshold_distance_suppresses_errors() {
        // The repetition code's "threshold" against bit-flip noise is 50 %.
        let p = 0.05;
        let rates: Vec<f64> = [1, 3, 5, 7, 9]
            .iter()
            .map(|&d| RepetitionCode::new(d).analytic_logical_error_rate(p))
            .collect();
        assert!(rates.windows(2).all(|w| w[1] < w[0]), "{rates:?}");
    }

    #[test]
    fn above_threshold_distance_does_not_help() {
        let p = 0.6;
        let d3 = RepetitionCode::new(3).analytic_logical_error_rate(p);
        let d7 = RepetitionCode::new(7).analytic_logical_error_rate(p);
        assert!(d7 > d3);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(7, 4), 35.0);
        assert_eq!(binomial(3, 5), 0.0);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_distance_panics() {
        RepetitionCode::new(2);
    }
}
