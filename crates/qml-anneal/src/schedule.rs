//! Annealing schedules: how the inverse temperature β evolves over a read.

/// An annealing schedule: a sequence of β values, one per sweep, geometric
/// (exponential) between β_min and β_max — the interpolation Ocean's `neal`
/// sampler uses by default.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Schedule {
    /// Inverse temperature at the start (hot).
    pub beta_min: f64,
    /// Inverse temperature at the end (cold).
    pub beta_max: f64,
    /// Number of sweeps.
    pub num_sweeps: usize,
}

impl Schedule {
    /// A geometric schedule over the given β range.
    pub(crate) fn geometric(beta_min: f64, beta_max: f64, num_sweeps: usize) -> Self {
        assert!(
            beta_min > 0.0 && beta_max > beta_min,
            "need 0 < beta_min < beta_max"
        );
        assert!(num_sweeps > 0, "need at least one sweep");
        Schedule {
            beta_min,
            beta_max,
            num_sweeps,
        }
    }

    /// A default β range derived from the model's stored largest effective
    /// field (`BinaryQuadraticModel::max_effective_field`), following the
    /// heuristic of Ocean's `neal`: start hot enough that the largest
    /// possible move is accepted with probability ½, end cold enough that a
    /// unit move is accepted with probability 1 %.
    pub(crate) fn default_for(max_effective_field: f64, num_sweeps: usize) -> Self {
        let max_field = max_effective_field.max(1e-9);
        let beta_min = (2.0f64).ln() / (2.0 * max_field);
        let beta_max = (100.0f64).ln() / 1.0_f64.min(max_field).max(1e-3);
        Schedule::geometric(beta_min, beta_max.max(beta_min * 10.0), num_sweeps)
    }

    /// The β value used at sweep `i` (0-based).
    pub(crate) fn beta_at(&self, i: usize) -> f64 {
        assert!(i < self.num_sweeps);
        if self.num_sweeps == 1 {
            return self.beta_max;
        }
        let t = i as f64 / (self.num_sweeps - 1) as f64;
        self.beta_min * (self.beta_max / self.beta_min).powf(t)
    }

    /// All β values in sweep order.
    pub(crate) fn betas(&self) -> Vec<f64> {
        (0..self.num_sweeps).map(|i| self.beta_at(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_schedule_endpoints_and_monotonicity() {
        let s = Schedule::geometric(0.1, 10.0, 50);
        let betas = s.betas();
        assert!((betas[0] - 0.1).abs() < 1e-12);
        assert!((betas[49] - 10.0).abs() < 1e-9);
        assert!(betas.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn single_sweep_uses_cold_beta() {
        let s = Schedule::geometric(0.1, 10.0, 1);
        assert_eq!(s.beta_at(0), 10.0);
    }

    #[test]
    fn default_schedule_scales_with_problem() {
        let sw = Schedule::default_for(0.5, 10);
        let ss = Schedule::default_for(50.0, 10);
        assert!(
            ss.beta_min < sw.beta_min,
            "stronger couplings need a hotter start"
        );
        assert!(sw.beta_max > sw.beta_min);
        assert!(ss.beta_max > ss.beta_min);
    }

    #[test]
    #[should_panic(expected = "beta_min < beta_max")]
    fn inverted_range_panics() {
        Schedule::geometric(5.0, 1.0, 10);
    }

    #[test]
    #[should_panic(expected = "at least one sweep")]
    fn zero_sweeps_panics() {
        Schedule::geometric(0.1, 1.0, 0);
    }
}
