//! One price per job, read in one place, and the charge-back that corrects
//! a tenant's deficit once the job's busy-seconds are measured.

use std::sync::Arc;

use qml_types::JobBundle;

use super::{FairScheduler, Job};
use crate::cost_model::{CostModel, CHARGE_BACK_CLAMP, COST_UNITS_PER_SECOND};

/// Floor applied to every price. A job whose descriptors carry no cost
/// hints estimates 0.0 — and a zero-cost job spends **zero deficit**, so one
/// tenant's hint-less queue would drain entirely in a single parked visit,
/// the exact monopoly DRR exists to prevent. Flooring at the quantum's own
/// base unit (1.0, see [`FairScheduler::quantum`]) makes a hint-less job
/// cost exactly one visit's budget.
pub(super) const MIN_JOB_COST: f64 = 1.0;

/// A job's price, in cost units: the cost model's measured EWMA for its
/// plan key when the plan has one, else the job's prior (`job.cost`, see
/// [`prior`]), floored at [`MIN_JOB_COST`]. Admission (the LPT rank), the
/// DRR quantum, the head's deficit check and each dispatched member's debit
/// all read it when they need it, so one measurement reprices every queued
/// job of its plan at once: there is no reprice pass and nothing to
/// invalidate.
pub(super) fn price(model: &CostModel, job: &Job) -> f64 {
    job.batch_key
        .and_then(|key| model.predict_seconds(key))
        .map_or(job.cost, |seconds| seconds * COST_UNITS_PER_SECOND)
        .max(MIN_JOB_COST)
}

/// A job's prior, in cost units: the bundle's explicit wall-clock claim if
/// it makes one, else the placement's `estimated_cost`. The claim is the
/// operators' cost hints folded with [`CostHint::saturating_add`], whose
/// duration survives only when **every** operator carries one — the
/// aggregate never over-claims precision, so a lone hinted operator among
/// unhinted ones cannot price the whole bundle. Each operator's duration is
/// finite and non-negative (the seal checks it), but a sum of them can
/// still overflow to infinity: such a claim is no claim.
///
/// [`CostHint::saturating_add`]: qml_types::CostHint::saturating_add
pub(super) fn prior(bundle: &JobBundle, estimated_cost: f64) -> f64 {
    let total = bundle
        .operators
        .iter()
        .map(|op| op.cost_hint.unwrap_or_default())
        .reduce(|a, b| a.saturating_add(&b));
    total
        .and_then(|hint| hint.duration_us)
        .filter(|us| us.is_finite())
        .map_or(estimated_cost, |us| us / 1e6 * COST_UNITS_PER_SECOND)
}

impl FairScheduler {
    /// Reconcile a terminal outcome's **measured** busy-seconds against what
    /// its dispatch was charged (`job.cost`). Called by
    /// [`settle_outcome`](FairScheduler::settle_outcome); three things
    /// happen, in order:
    ///
    /// * the measurement feeds the per-plan-key cost model, so every queued
    ///   and later job of this plan is priced at what it actually costs
    ///   (see [`price`]);
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
            }
        }
        // Floor the measured side at MIN_JOB_COST (expressed in seconds),
        // exactly as `price` floors every charge: without it, sub-floor
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

    use qml_runtime::{JobId, Placement};
    use qml_types::SealedBundle;

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
            sched.admit(&names[0], JobId(i), 0.0, None);
            sched.admit(&names[1], JobId(1000 + i), 10.0, None);
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
        sched.admit(&names[0], JobId(0), 1.0, Some(5));
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        sched.settle_final(first.id(), 0.0002, true, now);
        // The model learned 200 µs for plan key 5: the next admission of the
        // same plan is charged 20 cost units no matter what it estimates.
        assert_eq!(sched.predicted_cost(5), Some(20.0));
        sched.admit(&names[0], JobId(1), 1.0, Some(5));
        assert_eq!(sched.head_cost_of(&names[0]), Some(20.0));
        // A different plan key is untouched.
        sched.admit(&names[0], JobId(2), 3.0, Some(6));
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
            sched.admit(&names[0], JobId(i), 80.0, Some(1));
            sched.admit(&names[1], JobId(100 + i), 80.0, Some(1));
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
    fn a_hint_is_the_prior_until_the_first_measurement_replaces_it() {
        use qml_types::{CostHint, JobBundle, OperatorDescriptor, QuantumDataType, RepKind};

        // One operator claims 50 µs: a 5-unit prior, whatever the placement
        // estimates.
        let qdt = QuantumDataType::ising_spins("s", "s", 2).unwrap();
        let prep = OperatorDescriptor::builder("prep", RepKind::PrepUniform, "s")
            .cost_hint(CostHint::unknown().with_duration_us(50.0))
            .build()
            .unwrap();
        let bundle = SealedBundle::seal(JobBundle::new("hinted", vec![qdt], vec![prep])).unwrap();
        let estimated = Placement {
            estimated_cost: 80.0,
            ..placement()
        };
        let hinted = |id| Job {
            id: JobId(id),
            batch_key: Some(9),
            ..Job::placed(bundle.clone(), estimated.clone())
        };
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        let now = Instant::now();
        sched.admit_job(&names[0], hinted(0), now);
        assert_eq!(
            sched.head_cost_of(&names[0]),
            Some(5.0),
            "admitted at the hint"
        );
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(
            sched.in_flight[&first.id()].job.cost,
            5.0,
            "charged the hint"
        );
        assert_eq!(sched.predicted_cost(9), None, "a hint is no measurement");
        // The plan's first measurement, 150 µs, replaces the hint outright:
        // the next hinted job is priced at 15 units, not a blend with 5.
        sched.settle_final(first.id(), 0.00015, true, now);
        sched.admit_job(&names[0], hinted(1), now);
        let repriced = sched.head_cost_of(&names[0]).expect("queued");
        assert!((repriced - 15.0).abs() < 1e-9, "priced at {repriced}");
    }

    #[test]
    fn one_observation_reprices_a_queued_head_and_the_quantum_at_once() {
        let (mut sched, names) = sched_with(&[
            ("a", TenantPolicy::default()),
            ("b", TenantPolicy::default()),
        ]);
        // Both heads run plan 7 at a 1-unit prior; a's goes first.
        sched.admit(&names[0], JobId(0), 1.0, Some(7));
        sched.admit(&names[1], JobId(1), 1.0, Some(7));
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.id(), JobId(0));
        // Measured at 500 µs, b's queued head is a 50-unit job. The very next
        // call must grant b a 50-unit quantum and dispatch it: a quantum left
        // at 1 would cap b's deficit at 2 units, below its head for good.
        sched.settle_final(first.id(), 0.0005, true, now);
        assert!((sched.quantum() - 50.0).abs() < 1e-9, "{}", sched.quantum());
        let SchedPoll::Dispatch(next) = sched.next_job(now) else {
            panic!("b's repriced head dispatches in the next call");
        };
        assert_eq!(next.id(), JobId(1));
        let charged = sched.in_flight[&next.id()].job.cost;
        assert!((charged - 50.0).abs() < 1e-9, "charged {charged}");
    }

    #[test]
    fn model_priced_admissions_halve_the_estimate_error() {
        // Round 1 admits 8 jobs of a plan never measured, at an 80-unit
        // descriptor estimate; round 2 resubmits the plan once measured and
        // is priced at its EWMA. Scripted seconds (100–150 µs) stand in for
        // the clock, so host load cannot flip the claim.
        let (mut sched, names) = sched_with(&[("opt", TenantPolicy::default())]);
        let now = Instant::now();
        let seconds = |id: u64| 0.0001 * (1.0 + (id % 3) as f64 * 0.25);
        let round = |sched: &mut FairScheduler, base: u64| {
            for i in 0..8 {
                sched.admit(&names[0], JobId(base + i), 80.0, Some(3));
            }
            while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
                for id in dispatch.ids() {
                    sched.settle_final(id, seconds(id.0), true, now);
                }
            }
            sched.metrics.estimate_error_units
        };
        let round1 = round(&mut sched, 0);
        let round2 = round(&mut sched, 100) - round1;
        assert_eq!(sched.metrics.cost_samples, 16);
        assert!(
            round2 < round1 * 0.5,
            "model-priced admissions must at least halve the estimate error \
             (round 1 {round1:.3} units, round 2 {round2:.3})"
        );
    }

    #[test]
    fn charge_back_is_clamped_per_job() {
        let (mut sched, names) = sched_with(&[
            ("outlier", TenantPolicy::default()),
            ("other", TenantPolicy::default()),
        ]);
        // Keep "other" queued so the outlier tenant is contended (charge-back
        // only applies under contention).
        sched.admit(&names[1], JobId(100), 1.0, None);
        sched.admit(&names[0], JobId(0), 1.0, None);
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
            sched.admit(&names[0], JobId(i), 50.0, None);
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
        sched.admit(&names[0], JobId(0), 1.0, None);
        sched.admit(&names[1], JobId(100), 1.0, None);
        sched.admit(&names[1], JobId(101), 1.0, None);
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
        sched.admit(&names[1], JobId(100), 1.0, None);
        sched.admit(&names[0], JobId(0), 50.0, Some(4));
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
        sched.admit(&names[0], JobId(2), 1.0, None);
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
