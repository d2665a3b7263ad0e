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
//! share a cost entry. The scheduler consults it at admission (a key with
//! history admits at its *measured* cost, not its placement guess) and feeds
//! it from every [`JobOutcome`](qml_runtime::JobOutcome); explicit
//! `duration_us` cost hints seed an entry before any measurement exists.

use std::collections::HashMap;

use qml_types::MeasuredCost;

/// Conversion between scheduler cost units and busy-seconds: one cost unit
/// per millisecond of measured execution. Chosen so that a realistic
/// simulator job (tenths of a millisecond to tens of milliseconds) lands in
/// the same numeric range as descriptor-hint estimates and above the
/// scheduler's minimum-cost floor, letting measured and estimated costs
/// coexist in one deficit ledger while measurements take over.
pub const COST_UNITS_PER_SECOND: f64 = 1_000.0;

/// EWMA smoothing factor: the weight of the newest observation. Large
/// enough that a plan whose true cost shifts converges within a handful of
/// outcomes, small enough that one outlier moves the estimate by under half.
pub const COST_EWMA_ALPHA: f64 = 0.4;

/// Per-job bound on the scheduler's deficit charge-back, as a multiple of
/// the job's charged cost: generous enough that a genuine
/// 10×-under-estimated job is charged back in full (a correction of
/// ≤ 16 × the estimate covers it), tight enough that a 1000× outlier is
/// amortized over the cost model instead of the deficit ledger.
pub const CHARGE_BACK_CLAMP: f64 = 16.0;

/// One plan key's running estimate.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// EWMA of observed busy-seconds (or the seeded prior before the first
    /// observation).
    seconds: f64,
    /// Number of *measured* observations folded in (0 = seed only).
    samples: u64,
}

/// An EWMA-of-busy-seconds cost model keyed by realization-plan identity,
/// smoothing with [`COST_EWMA_ALPHA`].
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
    entries: HashMap<u64, Entry>,
}

impl CostModel {
    /// Predicted busy-seconds for a plan key, if the model knows anything
    /// about it (a measured EWMA, or a hint-seeded prior).
    pub fn predict_seconds(&self, plan_key: u64) -> Option<f64> {
        self.entries.get(&plan_key).map(|e| e.seconds)
    }

    /// Number of measured observations folded into a key's entry
    /// (`None` if the key is unknown, `Some(0)` if only seeded).
    pub fn samples(&self, plan_key: u64) -> Option<u64> {
        self.entries.get(&plan_key).map(|e| e.samples)
    }

    /// Seed a prior for a plan key — e.g. from an explicit `duration_us`
    /// cost hint — without counting it as a measurement. A key that already
    /// has an entry (seeded or measured) is left untouched: real history
    /// always outranks a hint.
    pub fn seed(&mut self, plan_key: u64, seconds: f64) {
        if seconds.is_finite() && seconds >= 0.0 {
            self.entries.entry(plan_key).or_insert(Entry {
                seconds,
                samples: 0,
            });
        }
    }

    /// Fold one measured busy-seconds observation into a key's EWMA. The
    /// first measurement blends with a seeded prior if one exists and
    /// otherwise sets the value outright (there is nothing to smooth
    /// against). Non-finite or negative observations are ignored.
    pub fn observe(&mut self, plan_key: u64, seconds: f64) {
        if !seconds.is_finite() || seconds < 0.0 {
            return;
        }
        match self.entries.entry(plan_key) {
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let entry = slot.get_mut();
                entry.seconds = COST_EWMA_ALPHA * seconds + (1.0 - COST_EWMA_ALPHA) * entry.seconds;
                entry.samples += 1;
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Entry {
                    seconds,
                    samples: 1,
                });
            }
        }
    }

    /// Fold a full [`MeasuredCost`] record (ignored without a plan key).
    pub fn record(&mut self, measured: &MeasuredCost) {
        if let Some(key) = measured.plan_key {
            self.observe(key, measured.seconds);
        }
    }

    /// Number of plan keys the model tracks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the model has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_key_predicts_nothing() {
        let model = CostModel::default();
        assert_eq!(model.predict_seconds(1), None);
        assert_eq!(model.samples(1), None);
        assert!(model.is_empty());
    }

    #[test]
    fn first_observation_sets_the_value_outright() {
        let mut model = CostModel::default();
        model.observe(1, 0.050);
        // With no prior there is nothing to smooth against: the EWMA must
        // not anchor the estimate at an arbitrary starting point.
        assert!((model.predict_seconds(1).unwrap() - 0.050).abs() < 1e-12);
        assert_eq!(model.samples(1), Some(1));
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
        assert_eq!(model.samples(1), Some(21));
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
    fn seed_is_a_prior_not_a_measurement() {
        let mut model = CostModel::default();
        model.seed(1, 0.008);
        assert_eq!(model.samples(1), Some(0));
        assert!((model.predict_seconds(1).unwrap() - 0.008).abs() < 1e-12);
        // A second seed never overwrites; a measurement blends with the
        // prior rather than discarding it.
        model.seed(1, 0.999);
        assert!((model.predict_seconds(1).unwrap() - 0.008).abs() < 1e-12);
        model.observe(1, 0.016);
        let blended = model.predict_seconds(1).unwrap();
        assert!((blended - 0.0112).abs() < 1e-12, "0.4·16ms + 0.6·8ms");
        assert_eq!(model.samples(1), Some(1));
    }

    #[test]
    fn keys_are_independent() {
        let mut model = CostModel::default();
        model.observe(1, 0.001);
        model.observe(2, 0.100);
        assert!(model.predict_seconds(1).unwrap() < 0.01);
        assert!(model.predict_seconds(2).unwrap() > 0.01);
        assert_eq!(model.len(), 2);
    }

    #[test]
    fn degenerate_inputs_are_ignored() {
        let mut model = CostModel::default();
        model.observe(1, f64::NAN);
        model.observe(1, -4.0);
        model.seed(2, f64::INFINITY);
        assert!(model.is_empty());
    }

    #[test]
    fn record_requires_a_plan_key() {
        use qml_types::MeasuredCost;
        let mut model = CostModel::default();
        model.record(&MeasuredCost::new(None, 1.0, 0.010));
        assert!(model.is_empty());
        model.record(&MeasuredCost::new(Some(9), 1.0, 0.010));
        assert!((model.predict_seconds(9).unwrap() - 0.010).abs() < 1e-12);
    }
}
