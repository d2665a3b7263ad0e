//! Cost pricing and charge-back: what a job is charged at admission and at
//! dispatch, and how its measured outcome corrects its tenant's deficit.

use std::sync::Arc;

use qml_types::JobBundle;

use super::{FairScheduler, Job};
use crate::cost_model::{CostModel, CHARGE_BACK_CLAMP, COST_UNITS_PER_SECOND};

/// Floor applied to every admitted job's cost estimate. A job whose
/// descriptors carry no cost hints estimates 0.0 — and a zero-cost job spends **zero deficit**, so one tenant's
/// hint-less queue would drain entirely in a single parked visit, the exact
/// monopoly DRR exists to prevent. Flooring at the quantum's own base unit
/// (1.0, see [`FairScheduler::quantum`]) makes a hint-less job cost exactly
/// one visit's budget.
pub(super) const MIN_JOB_COST: f64 = 1.0;

/// The cost a queued job is charged **now**: the cost model's current
/// prediction for its plan key when one exists, else the cost fixed at
/// admission. Jobs queue for whole rotations while measurements stream in;
/// spending the *live* prediction (rather than the admission-time guess)
/// keeps the quantum and every deficit debit in measured units as soon as a
/// plan has history — without an O(queue) reprice pass per observation.
pub(super) fn effective_cost(model: &CostModel, job: &Job) -> f64 {
    job.batch_key
        .and_then(|key| model.predict_seconds(key))
        .map(|seconds| (seconds * COST_UNITS_PER_SECOND).max(MIN_JOB_COST))
        .unwrap_or(job.cost)
}

/// The bundle's explicit wall-clock claim, if any: its operators' cost
/// hints folded with [`CostHint::saturating_add`], whose duration survives
/// only when **every** operator carries one — the aggregate never
/// over-claims precision, so a lone hinted operator among unhinted ones
/// cannot price (and seed the cost model for) the whole bundle. Each
/// operator's duration is finite and non-negative (the seal checks it), but
/// a sum of them can still overflow to infinity: such a claim is no claim.
///
/// [`CostHint::saturating_add`]: qml_types::CostHint::saturating_add
pub(super) fn hint_seconds(bundle: &JobBundle) -> Option<f64> {
    let total = bundle
        .operators
        .iter()
        .map(|op| op.cost_hint.unwrap_or_default())
        .reduce(|a, b| a.saturating_add(&b))?;
    total
        .duration_us
        .filter(|us| us.is_finite())
        .map(|us| us / 1e6)
}

impl FairScheduler {
    /// The cost an admitted job is queued at, resolved in order of trust:
    ///
    /// 1. the **cost model's measured prediction** for the job's plan key —
    ///    a plan with execution history admits at what it actually costs;
    /// 2. an explicit **`duration_us` cost hint** (`hint_seconds`), which
    ///    also seeds the model so the first measured outcome refines rather
    ///    than replaces it;
    /// 3. the static **placement estimate** (`job.cost`).
    ///
    /// Whatever wins is floored at [`MIN_JOB_COST`] so zero-cost estimates
    /// (hint-less descriptors) still spend DRR deficit — a zero-cost queue
    /// must not drain in a single parked visit.
    pub(super) fn admission_cost(&mut self, job: &Job, hint_seconds: Option<f64>) -> f64 {
        let model = &mut self.cost_model;
        let mut seeded = false;
        let seconds = job.batch_key.and_then(|key| {
            model.predict_seconds(key).or_else(|| {
                let hint = hint_seconds?;
                model.seed(key, hint);
                seeded = true;
                Some(hint)
            })
        });
        // A seed reprices every queued job of the plan, heads included, so
        // the memoized quantum is stale: kept, it could sit below a head's
        // cost and cap every deficit under it for good.
        if seeded {
            self.cached_quantum = None;
        }
        seconds
            .map_or(job.cost, |seconds| seconds * COST_UNITS_PER_SECOND)
            .max(MIN_JOB_COST)
    }

    /// Reconcile a terminal outcome's **measured** busy-seconds against what
    /// its dispatch was charged (`job.cost`). Called by
    /// [`settle_outcome`](FairScheduler::settle_outcome); three things
    /// happen, in order:
    ///
    /// * the measurement feeds the per-plan-key cost model, so future
    ///   admissions of this plan are charged what it actually costs;
    /// * the estimate-error gauges update
    ///   ([`SchedulerMetrics::cost_samples`](super::SchedulerMetrics) /
    ///   `estimate_error_units`, and the tenant's busy-seconds);
    /// * **charge-back**: the tenant's deficit is corrected by
    ///   `measured − estimated` cost units, clamped to
    ///   [`CHARGE_BACK_CLAMP`] `× estimated` per job (one wild outlier — a
    ///   page fault storm, a cold JIT — must not bankrupt a tenant for many
    ///   rotations; the cost model still absorbs the full observation). Net
    ///   effect: the tenant ends up having spent its *measured* cost, so a
    ///   systematic under-estimate can no longer compound into a fairness
    ///   hole across rotations.
    ///
    /// Charge-back only applies while the tenant is **contended** (some
    /// other tenant has queued work). An uncontended tenant's corrections
    /// are meaningless — there is nobody to be fair to — and letting them
    /// accumulate would bank unbounded credit (over-estimated jobs) or debt
    /// (under-estimated jobs) that distorts fairness the moment a competitor
    /// arrives, the mirror image of the banked-budget problem deficit resets
    /// exist to prevent.
    ///
    /// `ok` marks whether the job *succeeded*. A failed job's duration is
    /// failure latency, not execution cost — a member that dies in
    /// microseconds at bind time must not deflate its plan's EWMA (and
    /// under-charge every later admission of that key), must not count as
    /// an accuracy sample, and earns no charge-back refund (fail-fast spam
    /// at refunded cost would be a monopoly of its own). Failed jobs still
    /// accrue their measured busy-seconds.
    pub(super) fn reconcile_cost(&mut self, tenant: &Arc<str>, job: &Job, seconds: f64, ok: bool) {
        if ok {
            if let Some(key) = job.batch_key {
                self.cost_model.observe(key, seconds);
                // The observation can reprice any queued head of this plan,
                // so the memoized quantum is stale. Outcomes arrive at the
                // same rate as dispatches, so this keeps the rescan
                // amortized O(1) per job — idle polls still never rescan.
                self.cached_quantum = None;
            }
        }
        // Floor the measured side at MIN_JOB_COST (expressed in seconds),
        // exactly as admission floors every charge: without it, sub-floor
        // jobs would be partially refunded and a fast queue could again
        // drain in one parked visit — the monopoly the floor exists to
        // prevent. The error is positive when the job cost more than it was
        // charged.
        let measured = seconds.max(MIN_JOB_COST / COST_UNITS_PER_SECOND);
        let error = measured * COST_UNITS_PER_SECOND - job.cost;
        if ok {
            self.metrics.cost_samples += 1;
            self.metrics.estimate_error_units += error.abs();
        }
        let contended = self.contended(tenant);
        let Some(queue) = self.tenants.get_mut(tenant) else {
            return;
        };
        queue.stats.busy_seconds += seconds;
        if ok && contended {
            let clamp = CHARGE_BACK_CLAMP * job.cost;
            let delta = error.clamp(-clamp, clamp);
            if delta != 0.0 {
                queue.deficit -= delta;
                self.metrics.charge_back_units += delta.abs();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::time::{Duration, Instant};

    use qml_runtime::JobId;

    use super::super::testing::*;
    use super::super::{Mode, SchedPoll, TenantPolicy};
    use super::*;

    /// Drive a two-tenant scheduler where tenant `under`'s jobs are admitted
    /// at 10×-too-low estimates while tenant `exact`'s are accurate; both
    /// actually run for `real_seconds`. Feedback (measured outcomes) is
    /// delivered `feedback_lag` dispatches late, simulating pipelined
    /// workers. Returns the per-tenant busy-seconds after `dispatches` jobs.
    fn drive_mis_estimated(
        sched: &mut FairScheduler,
        real_seconds: f64,
        feedback_lag: usize,
        dispatches: usize,
    ) -> (f64, f64) {
        let now = Instant::now();
        let mut pending: VecDeque<JobId> = VecDeque::new();
        let mut busy = [0.0f64; 2];
        for _ in 0..dispatches {
            let SchedPoll::Dispatch(dispatch) = sched.next_job(now) else {
                panic!("queues are deep enough to keep dispatching");
            };
            assert_eq!(dispatch.len(), 1, "keyless jobs dispatch solo");
            busy[(dispatch.id().0 / 1000) as usize] += real_seconds;
            pending.push_back(dispatch.id());
            while pending.len() > feedback_lag {
                let id = pending.pop_front().expect("non-empty");
                sched.settle_final(id, real_seconds, true, now);
            }
        }
        (busy[0], busy[1])
    }

    fn mis_estimated_sched() -> FairScheduler {
        let mut sched = FairScheduler::new(1, noop_registry(), unlimited_fleet());
        sched.mode = Mode::Running;
        let now = Instant::now();
        let names: Vec<Arc<str>> = ["under", "exact"]
            .iter()
            .map(|name| sched.intern(name, &TenantPolicy::default(), now))
            .collect();
        // Every job really costs 100 µs (= 10 cost units). `under`'s jobs are
        // hint-less (floored at MIN_JOB_COST = 1.0, a 10× under-estimate);
        // `exact`'s are admitted at their true cost.
        for i in 0..400 {
            sched.admit(&names[0], JobId(i), 0.0, None, None);
            sched.admit(&names[1], JobId(1000 + i), 10.0, None, None);
        }
        sched
    }

    #[test]
    fn charge_back_converges_busy_seconds_to_the_weight_ratio() {
        // With measured-cost charge-back, equal weights mean equal
        // busy-seconds even though one tenant's estimates are 10× too low:
        // the ratio must land within 25% of the 1:1 weight ratio.
        let mut sched = mis_estimated_sched();
        let (under, exact) = drive_mis_estimated(&mut sched, 0.0001, 0, 220);
        let ratio = under / exact;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "busy-seconds ratio {ratio:.3} outside the 25% band \
             ({under:.3}s vs {exact:.3}s)"
        );
    }

    #[test]
    fn charge_back_converges_with_pipelined_feedback() {
        // Outcomes land 4 dispatches late (workers execute while the
        // scheduler keeps dispatching); the correction still converges.
        let mut sched = mis_estimated_sched();
        let (under, exact) = drive_mis_estimated(&mut sched, 0.0001, 4, 220);
        let ratio = under / exact;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "busy-seconds ratio {ratio:.3} outside the 25% band under \
             delayed feedback ({under:.3}s vs {exact:.3}s)"
        );
    }

    #[test]
    fn measured_outcomes_reprice_later_admissions() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        sched.admit(&names[0], JobId(0), 1.0, None, Some(5));
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        sched.settle_final(first.id(), 0.0002, true, now);
        // The model learned 200 µs for plan key 5: the next admission of the
        // same plan is charged 20 cost units no matter what it estimates.
        assert_eq!(sched.predicted_cost(5), Some(20.0));
        sched.admit(&names[0], JobId(1), 1.0, None, Some(5));
        assert_eq!(sched.head_cost_of(&names[0]), Some(20.0));
        // A different plan key is untouched.
        sched.admit(&names[0], JobId(2), 3.0, None, Some(6));
        assert_eq!(sched.predicted_cost(6), None);
        assert_eq!(sched.metrics.cost_samples, 1);
        assert!(sched.metrics.estimate_error_units > 18.9);
        assert!(sched.metrics.mean_abs_estimate_error() > 18.9);
    }

    #[test]
    fn measurements_reprice_already_queued_jobs_and_the_quantum() {
        // Jobs queued at a wild over-estimate are repriced the moment their
        // plan is measured: subsequent dispatches spend measured units and
        // the quantum deflates with them, so visit bursts shrink from
        // guess scale to measured scale without an O(queue) reprice pass.
        let (mut sched, names) = sched_with(&[
            ("a", TenantPolicy::default()),
            ("b", TenantPolicy::default()),
        ]);
        // Both tenants run the *same* plan (one key), guessed at 80 units.
        for i in 0..4 {
            sched.admit(&names[0], JobId(i), 80.0, None, Some(1));
            sched.admit(&names[1], JobId(100 + i), 80.0, None, Some(1));
        }
        assert_eq!(sched.quantum(), 80.0);
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.len(), 1, "no deficit left for 80-unit members");
        // The measurement says 20 µs (= 2 units): every queued job of the
        // plan is repriced at once, quantum included.
        sched.settle_final(first.id(), 0.00002, true, now);
        let quantum = sched.quantum();
        assert!(
            (quantum - 2.0).abs() < 1e-9,
            "queued heads must be repriced by the model, quantum {quantum}"
        );
        // The next dispatch spends measured units. The charge-back refund
        // (~78) is capped at one grant plus one head of the deflated quantum,
        // (1 + 1) × 2 = 4 units: two members at 2 units each — at the stale
        // 80-unit guess it would not cover even one, and the uncapped refund
        // would buy all three of tenant a's remaining jobs.
        let SchedPoll::Dispatch(second) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(
            second.len(),
            2,
            "repriced members coalesce within the capped refund"
        );
    }

    #[test]
    fn duration_hints_seed_the_model_and_price_admission() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        // An explicit 50 µs duration hint prices the job at 5 cost units and
        // seeds the model (samples = 0: a prior, not a measurement).
        sched.admit(&names[0], JobId(0), 80.0, Some(0.00005), Some(9));
        assert_eq!(sched.head_cost_of(&names[0]), Some(5.0));
        assert_eq!(sched.predicted_cost(9), Some(5.0));
        // Once a real measurement lands it blends with (not replaces) the
        // hinted prior, and later hints no longer matter.
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        sched.settle_final(first.id(), 0.00015, true, now);
        let repriced = sched.predicted_cost(9).expect("model has the key");
        assert!(
            repriced > 5.0 && repriced < 15.0,
            "EWMA blends prior and measurement, got {repriced}"
        );
        sched.admit(&names[0], JobId(1), 80.0, Some(0.00005), Some(9));
        assert_eq!(sched.head_cost_of(&names[0]), Some(repriced));
    }

    #[test]
    fn a_hint_seed_reprices_queued_heads_and_the_quantum() {
        let (mut sched, names) = sched_with(&[
            ("a", TenantPolicy::default()),
            ("b", TenantPolicy::default()),
        ]);
        // b's head runs plan 7, priced at 1 unit; a's head is a latency job.
        sched.admit(&names[1], JobId(0), 1.0, None, Some(7));
        sched.admit_latency(&names[0], JobId(1), 1.0, None);
        assert_eq!(sched.quantum(), 1.0);
        // A hinted job of plan 7 queues behind a's head and seeds the model
        // at 50 units, which reprices b's head: the quantum must follow, or
        // it caps b's deficit below its head's cost for good.
        sched.admit(&names[0], JobId(2), 1.0, Some(0.0005), Some(7));
        assert_eq!(
            sched.head_cost_of(&names[0]),
            Some(1.0),
            "a's head is unchanged"
        );
        assert_eq!(sched.quantum(), 50.0);
    }

    #[test]
    fn charge_back_is_clamped_per_job() {
        let (mut sched, names) = sched_with(&[
            ("outlier", TenantPolicy::default()),
            ("other", TenantPolicy::default()),
        ]);
        // Keep "other" queued so the outlier tenant is contended (charge-back
        // only applies under contention).
        sched.admit(&names[1], JobId(100), 1.0, None, None);
        sched.admit(&names[0], JobId(0), 1.0, None, None);
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        let before = sched.deficit_of(&names[0]);
        // A pathological 10 ms (1000 cost units) outlier against a 1-unit
        // estimate: the correction is clamped at 16 × 1 = 16 units, not 999.
        sched.settle_final(first.id(), 0.01, true, now);
        let after = sched.deficit_of(&names[0]);
        assert!(
            (before - after - 16.0).abs() < 1e-9,
            "clamped charge-back expected 16 units, got {}",
            before - after
        );
        // The full observation still reaches the error gauges and the
        // charge-back total records the post-clamp magnitude.
        assert!(sched.metrics.estimate_error_units > 990.0);
        assert!((sched.metrics.charge_back_units - 16.0).abs() < 1e-9);
    }

    #[test]
    fn uncontended_outcomes_do_not_bank_credit_or_debt() {
        // A tenant running alone has nobody to be fair to: over-estimated
        // outcomes must not bank credit that would starve a late-arriving
        // competitor (and under-estimated ones must not bank debt).
        let (mut sched, names) = sched_with(&[("solo", TenantPolicy::default())]);
        for i in 0..4 {
            sched.admit(&names[0], JobId(i), 50.0, None, None);
        }
        let now = Instant::now();
        for _ in 0..4 {
            let SchedPoll::Dispatch(d) = sched.next_job(now) else {
                panic!("expected dispatch");
            };
            // Massively over-estimated: measured 10 µs (1 unit) against a
            // 50-unit charge would refund ~49 units per job if banked.
            sched.settle_final(d.id(), 0.00001, true, now);
        }
        assert!(
            sched.deficit_of(&names[0]) <= 50.0 + 1e-9,
            "uncontended refunds must not bank deficit credit, got {}",
            sched.deficit_of(&names[0])
        );
        assert_eq!(sched.metrics.charge_back_units, 0.0);
    }

    #[test]
    fn debt_survives_vetoes_but_credit_does_not() {
        let (mut sched, names) = sched_with(&[
            ("debtor", TenantPolicy::default()),
            ("other", TenantPolicy::default()),
        ]);
        sched.admit(&names[0], JobId(0), 1.0, None, None);
        sched.admit(&names[1], JobId(100), 1.0, None, None);
        sched.admit(&names[1], JobId(101), 1.0, None, None);
        let now = Instant::now();
        // Dispatch the debtor's only job and measure it 10× its estimate:
        // the debtor now owes ~9 units.
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.id(), JobId(0));
        sched.settle_final(first.id(), 0.0001, true, now);
        let debt = sched.deficit_of(&names[0]);
        assert!(debt < -8.0, "expected ~-9 debt, got {debt}");
        // The debtor's queue is now empty: its next visit vetoes it. The
        // veto must forfeit credit only — the debt stays on the books.
        while let SchedPoll::Dispatch(d) = sched.next_job(now) {
            sched.release(d.id());
        }
        assert!(
            sched.deficit_of(&names[0]) < -8.0,
            "veto must not forgive measured-cost debt, got {}",
            sched.deficit_of(&names[0])
        );
    }

    #[test]
    fn failed_outcomes_do_not_feed_the_model_or_earn_refunds() {
        let (mut sched, names) = sched_with(&[
            ("flaky", TenantPolicy::default()),
            ("other", TenantPolicy::default()),
        ]);
        // Contention, so a refund would apply if failures earned one.
        sched.admit(&names[1], JobId(100), 1.0, None, None);
        sched.admit(&names[0], JobId(0), 50.0, None, Some(4));
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.id(), JobId(0));
        let before = sched.deficit_of(&names[0]);
        // The job dies at bind time after 1 µs: failure latency, not cost.
        sched.settle_final(first.id(), 1e-6, false, now);
        assert_eq!(
            sched.predicted_cost(4),
            None,
            "failure latency must not become the plan's cost estimate"
        );
        assert_eq!(sched.metrics.cost_samples, 0);
        assert_eq!(
            sched.deficit_of(&names[0]),
            before,
            "a fast failure earns no charge-back refund"
        );
        let flaky = &sched.tenant_snapshot()["flaky"];
        assert!(
            flaky.busy_seconds > 0.0,
            "the slot and wall-clock were real"
        );
        assert_eq!(flaky.failed, 1);
        assert_eq!(sched.in_flight(), 0, "the slot is released");
    }

    #[test]
    fn deadline_misses_count_only_past_deadline_outcomes() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        let now = Instant::now();
        sched.admit_latency(&names[0], JobId(0), 1.0, Some(now));
        sched.admit_latency(
            &names[0],
            JobId(1),
            1.0,
            Some(now + Duration::from_secs(3600)),
        );
        sched.admit(&names[0], JobId(2), 1.0, None, None);
        // EDF: the already-expired deadline dispatches first, and settles
        // after it.
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.id(), JobId(0));
        let settled = now + Duration::from_millis(1);
        sched.settle_final(first.id(), 1e-3, true, settled);
        while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
            sched.settle_final(dispatch.id(), 1e-3, true, settled);
        }
        let stats = sched.class_snapshot();
        assert_eq!(stats["latency"].deadline_miss, 1, "only the expired one");
        assert_eq!(stats["latency"].dispatched, 2);
        assert_eq!(stats["latency"].completed, 2);
        assert_eq!(stats["throughput"].completed, 1);
        assert_eq!(stats["throughput"].deadline_miss, 0);
    }

    #[test]
    fn a_scripted_settlement_clock_decides_deadline_misses() {
        // A 1 ms deadline settled at base + 2 ms misses; the same job
        // settled at base + 0.5 ms does not. No sleeping: the settlement
        // instant is an argument.
        for (settle_after, misses) in [
            (Duration::from_micros(2000), 1),
            (Duration::from_micros(500), 0),
        ] {
            let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
            let base = Instant::now();
            let deadline = base + Duration::from_millis(1);
            sched.admit_latency(&names[0], JobId(0), 1.0, Some(deadline));
            let SchedPoll::Dispatch(d) = sched.next_job(base) else {
                panic!("expected dispatch");
            };
            sched.settle_final(d.id(), 1e-4, true, base + settle_after);
            let stats = sched.class_snapshot();
            assert_eq!(
                stats["latency"].deadline_miss, misses,
                "settled {settle_after:?} after admission"
            );
            assert_eq!(stats["latency"].completed, 1);
        }
    }
}
