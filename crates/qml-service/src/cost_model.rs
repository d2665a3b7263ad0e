//! An online, feedback-driven execution-cost model.
//!
//! The fair scheduler promises weighted fairness in *cost-throughput*, but a
//! promise kept in placement-estimate units is only as good as the
//! estimates: a tenant whose jobs are systematically under-estimated
//! (hint-less descriptors, cold-cache transpiles, high shot counts) silently
//! receives a multiple of its fair share of device time. The fix used by
//! feedback-driven serving systems (iteration-level batch schedulers in the
//! Orca lineage, HPC backfill with observed run times) is to *measure*: keep
//! an online per-plan cost model and reconcile estimates against it.
//!
//! [`CostModel`] is that model: an exponentially weighted moving average
//! (EWMA) of observed busy-seconds, keyed by the same device-level plan key
//! ([`qml_backends::Backend::batch_key`] folded with the backend identity)
//! that micro-batching uses — two jobs that would share a realized plan
//! share a cost entry. It holds measurements only, fed from every
//! successful [`JobOutcome`](qml_runtime::JobOutcome): the scheduler prices a
//! job of a measured plan at the plan's EWMA, and any other job at its own
//! prior (its `duration_us` hint, else its placement estimate), which never
//! enters the model.

use std::collections::HashMap;

/// Conversion between scheduler cost units and busy-seconds: one cost unit
/// per 10 µs of measured execution. Chosen so that the cheapest simulator
/// job of a release build (0.15–0.25 ms) measures 15–25 units, well above
/// the scheduler's one-unit minimum-cost floor: at one unit per millisecond
/// every such job clamped to the floor, and measurement could not correct
/// an admission-time misestimate. Measured and estimated costs coexist in
/// one deficit ledger while measurements take over.
pub const COST_UNITS_PER_SECOND: f64 = 100_000.0;

/// EWMA smoothing factor: the weight of the newest observation. Large
/// enough that a plan whose true cost shifts converges within a handful of
/// outcomes, small enough that one outlier moves the estimate by under half.
pub(crate) const COST_EWMA_ALPHA: f64 = 0.4;

/// Per-job bound on the scheduler's deficit charge-back, as a multiple of
/// the job's charged cost: generous enough that a genuine
/// 10×-under-estimated job is charged back in full (a correction of
/// ≤ 16 × the estimate covers it), tight enough that a 1000× outlier is
/// amortized over the cost model instead of the deficit ledger.
pub(crate) const CHARGE_BACK_CLAMP: f64 = 16.0;

/// An EWMA-of-busy-seconds cost model keyed by realization-plan identity,
/// smoothing with `COST_EWMA_ALPHA`.
///
/// ```
/// use qml_service::cost_model::CostModel;
///
/// let mut model = CostModel::default();
/// assert_eq!(model.predict_seconds(7), None);
/// model.observe(7, 0.010);
/// model.observe(7, 0.020);
/// // 0.4 × 0.020 + 0.6 × 0.010
/// assert!((model.predict_seconds(7).unwrap() - 0.014).abs() < 1e-12);
/// ```
#[derive(Debug, Default)]
pub struct CostModel {
    /// Per plan key: the EWMA of observed busy-seconds.
    entries: HashMap<u64, f64>,
}

impl CostModel {
    /// Predicted busy-seconds for a plan key, if it has been measured.
    pub fn predict_seconds(&self, plan_key: u64) -> Option<f64> {
        self.entries.get(&plan_key).copied()
    }

    /// Fold one measured busy-seconds observation into a key's EWMA. The
    /// first measurement sets the value outright (there is nothing to smooth
    /// against). Non-finite or negative observations are ignored.
    pub fn observe(&mut self, plan_key: u64, seconds: f64) {
        if !seconds.is_finite() || seconds < 0.0 {
            return;
        }
        self.entries
            .entry(plan_key)
            .and_modify(|ewma| *ewma = COST_EWMA_ALPHA * seconds + (1.0 - COST_EWMA_ALPHA) * *ewma)
            .or_insert(seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_key_predicts_nothing() {
        let model = CostModel::default();
        assert_eq!(model.predict_seconds(1), None);
    }

    #[test]
    fn first_observation_sets_the_value_outright() {
        let mut model = CostModel::default();
        model.observe(1, 0.050);
        // With no prior there is nothing to smooth against: the EWMA must
        // not anchor the estimate at an arbitrary starting point.
        assert!((model.predict_seconds(1).unwrap() - 0.050).abs() < 1e-12);
    }

    #[test]
    fn ewma_converges_to_a_shifted_cost() {
        let mut model = CostModel::default();
        model.observe(1, 0.001);
        // The workload's true cost shifts 10×; the EWMA must converge.
        for _ in 0..20 {
            model.observe(1, 0.010);
        }
        let predicted = model.predict_seconds(1).unwrap();
        assert!(
            (predicted - 0.010).abs() < 1e-4,
            "EWMA should converge to 10 ms, got {predicted}"
        );
    }

    #[test]
    fn ewma_smooths_an_outlier() {
        let mut model = CostModel::default();
        for _ in 0..10 {
            model.observe(1, 0.010);
        }
        model.observe(1, 1.0); // one 100× outlier (e.g. a GC pause)
        let predicted = model.predict_seconds(1).unwrap();
        assert!(
            predicted < 0.5,
            "one outlier must not dominate: {predicted}"
        );
        model.observe(1, 0.010);
        model.observe(1, 0.010);
        assert!(model.predict_seconds(1).unwrap() < predicted);
    }

    #[test]
    fn keys_are_independent() {
        let mut model = CostModel::default();
        model.observe(1, 0.001);
        model.observe(2, 0.100);
        assert!(model.predict_seconds(1).unwrap() < 0.01);
        assert!(model.predict_seconds(2).unwrap() > 0.01);
        assert_eq!(model.predict_seconds(3), None);
    }

    #[test]
    fn degenerate_inputs_are_ignored() {
        let mut model = CostModel::default();
        model.observe(1, f64::NAN);
        model.observe(1, -4.0);
        model.observe(2, f64::INFINITY);
        assert_eq!(model.predict_seconds(1), None);
        assert_eq!(model.predict_seconds(2), None);
    }
}
