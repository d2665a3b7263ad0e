//! The DRR rotation and its quantum, and the one path every dispatched job
//! takes — a batch head and each coalesced member alike.

use std::sync::Arc;
use std::time::Instant;

use qml_runtime::{JobDispatch, JobId};

use super::policy::Veto;
use super::pricing::price;
use super::{FairScheduler, InFlight, Mode, QueuedJob, SchedPoll};

/// Smallest effective DRR weight; keeps the pass bound finite for
/// pathological configurations (weight ≤ 0).
const MIN_WEIGHT: f64 = 1e-3;

/// Upper bound on DRR passes per dispatch attempt. With the quantum equal
/// to the largest currently queued head cost, any head job becomes
/// dispatchable within `1 / weight ≤ 1 / MIN_WEIGHT` visits, so this is
/// never hit by a finite configuration; it is a defensive backstop, not a
/// tuning knob.
const MAX_PASSES: usize = 1024;

/// One dispatched job, as its `dispatched` stage event reports it.
#[derive(Debug, Clone, Copy)]
pub(super) struct BatchMember {
    pub(super) id: JobId,
    /// Submit→dispatch wait, microseconds.
    pub(super) wait_us: u64,
    /// Deficit spent dispatching this member.
    pub(super) cost: f64,
}

impl FairScheduler {
    /// One DRR dispatch attempt at `now`, shared by every pool worker.
    ///
    /// The pointer parks on one tenant at a time. On *arrival* the tenant is
    /// credited `weight × quantum` of deficit, once; the pointer then stays
    /// parked while successive calls dispatch that tenant's jobs, each
    /// spending its price (`pricing::price`) from the deficit — so a
    /// weight-3 tenant serves three times the cost of a weight-1 tenant per
    /// rotation. The pointer advances when the tenant's remaining deficit no
    /// longer covers its head job (the deficit is *kept*, classic DRR, so
    /// heavy jobs eventually accumulate enough turns) or when the tenant is
    /// vetoed — empty queue, in-flight cap, or an empty token bucket (the
    /// deficit is *reset*: a non-competing tenant must not bank budget for
    /// later bursts).
    ///
    /// A full cycle of stalls — vetoes, and heads no fleet device can take
    /// now (the fleet changes only between calls) — means nothing is
    /// dispatchable: [`SchedPoll::Idle`] — or [`SchedPoll::Shutdown`] once a
    /// drain has emptied every queue with nothing left in flight. Cycles
    /// containing a deficit-blocked tenant repeat (each arrival strictly
    /// grows that deficit, so the loop terminates within `1/weight`
    /// cycles).
    pub(crate) fn next_job(&mut self, now: Instant) -> SchedPoll {
        self.metrics.rounds += 1;
        match self.mode {
            Mode::Stopped | Mode::Aborting => return SchedPoll::Shutdown,
            Mode::Running | Mode::Draining => {}
        }
        let drain = self.mode == Mode::Draining;
        let n = self.rotation.len();
        let quantum = self.quantum();
        let mut stalls = 0usize;
        let mut wake: Option<Instant> = None;
        for _visit in 0..n.saturating_mul(MAX_PASSES) {
            let name = Arc::clone(&self.rotation[self.cursor]);
            let tenant = self.tenants.get_mut(&name).expect("rotation entry exists");
            // Veto checks: a vetoed tenant is not competing this round.
            let vetoed = match tenant.queue.front().map(|q| q.job.retry) {
                None => true,
                Some(retry) => match tenant.veto(retry, drain, now) {
                    Some(Veto::Capped) => {
                        self.metrics.capped += 1;
                        true
                    }
                    Some(Veto::Throttled) => {
                        tenant.stats.throttled += 1;
                        self.metrics.throttled += 1;
                        wake = wake.into_iter().chain(tenant.token_at()).min();
                        true
                    }
                    None => false,
                },
            };
            if vetoed {
                // A vetoed tenant is not competing: forfeit banked credit
                // (debt from measured-cost charge-back survives).
                tenant.forfeit_credit();
                stalls += 1;
                if stalls >= n {
                    break;
                }
                self.advance();
                continue;
            }
            let weight = tenant.policy.weight.max(MIN_WEIGHT);
            if !self.credited {
                tenant.deficit += weight * quantum;
                self.credited = true;
            }
            // Credit is denominated in the current quantum. Classic DRR never
            // holds more than one grant plus one head job, `(weight + 1) ×
            // quantum`; a reprice that deflates the quantum, or the refund of
            // a job charged at its pre-measurement guess, must not mint more,
            // or banked guess units buy a burst of cheap measured jobs.
            tenant.deficit = tenant.deficit.min((weight + 1.0) * quantum);
            let head = &tenant.queue.front().expect("non-empty queue").job;
            let head_cost = price(&self.cost_model, head);
            // Blocked by deficit: keep it and move on; the next arrival
            // credits more. Fleet backpressure — no capable device on the
            // head's plane has a free slot for the job right now (every slot
            // busy, every device cordoned or excluded) — defers it the same
            // way: the job waits at the head of its queue and the tenant
            // loses no budget to a saturated or failing fleet. The route is
            // chosen before anything is spent; routing touches nothing the
            // batch formation reads.
            let covered = tenant.deficit >= head_cost;
            let route = if covered {
                let plane = head.placement.backend.name();
                self.fleet
                    .select(plane, &head.requirements, head.batch_key, head.id.0)
            } else {
                None
            };
            let Some(device) = route else {
                if covered {
                    stalls += 1;
                    if stalls >= n {
                        break;
                    }
                } else {
                    stalls = 0;
                }
                self.advance();
                continue;
            };
            let batch = self.dispatch_batch(&name, head_cost, device, drain, now);
            let tenant = self.tenants.get_mut(&name).expect("rotation entry exists");
            if tenant.queue.is_empty() {
                tenant.forfeit_credit();
            }
            return SchedPoll::Dispatch(self.route_to_device(device, &batch));
        }
        if drain && self.queued() == 0 && self.in_flight.is_empty() {
            return SchedPoll::Shutdown;
        }
        self.metrics.idle_polls += 1;
        SchedPoll::Idle(wake)
    }

    /// Dispatch the job at `index` of `name`'s queue at `cost`: the single
    /// accounting path for a batch head and every member. It debits the
    /// deficit (clamped at zero while uncontended, so no batching debt leaks
    /// into the next contended period — a head never goes negative anyway,
    /// it dispatches only once covered), spends a token, takes an in-flight
    /// slot, records the wait and the dispatch counters, and moves the job
    /// into the in-flight table charged at `cost` and bound to `device`. The
    /// caller has already passed the tenant's
    /// [`veto`](super::policy::TenantQueue::veto).
    pub(super) fn dispatch_member(
        &mut self,
        name: &Arc<str>,
        index: usize,
        cost: f64,
        device: usize,
        drain: bool,
        now: Instant,
    ) -> BatchMember {
        let QueuedJob { mut job, submitted } = self.take_job(name, index);
        let contended = self.contended(name);
        let tenant = self.tenants.get_mut(name).expect("tenant exists");
        tenant.deficit -= cost;
        if !contended {
            tenant.deficit = tenant.deficit.max(0.0);
        }
        if tenant.spends_token(job.retry, drain) {
            tenant.tokens -= 1.0;
        }
        tenant.stats.in_flight += 1;
        tenant.stats.dispatched += 1;
        // Saturating: `submitted` stamps are taken under the same lock, but
        // a caller-supplied stale `now` must clamp a "negative" wait to zero
        // rather than corrupt the gauge.
        let wait = now.saturating_duration_since(submitted);
        tenant.stats.total_wait_seconds += wait.as_secs_f64();
        self.metrics.dispatched += 1;
        self.ledger_mut(job.class).dispatched += 1;
        let wait_us = wait.as_micros() as u64;
        self.obs
            .observe_wait(name, job.placement.backend.name(), wait_us);
        self.obs.observe_class_wait(job.class.name(), wait_us);
        job.cost = cost;
        let id = job.id;
        self.in_flight.insert(
            id,
            InFlight {
                tenant: Arc::clone(name),
                job,
                device,
            },
        );
        BatchMember { id, wait_us, cost }
    }

    /// The dispatch of a batch routed to `device`: take one slot per member
    /// and swap the head's placement backend for the device's own instance
    /// (in-flight records keep the plane-level placement for any post-fault
    /// re-admit).
    fn route_to_device(&mut self, device: usize, batch: &[BatchMember]) -> JobDispatch {
        self.fleet.take_slots(device, batch.len());
        let members = batch
            .iter()
            .map(|m| (m.id, self.in_flight[&m.id].job.bundle.clone()))
            .collect();
        let head = &self.in_flight[&batch[0].id].job;
        let mut placement = head.placement.clone();
        if let Some(backend) = self.fleet.backend(device) {
            placement.backend = backend;
        }
        JobDispatch {
            members,
            placement,
            device: self.fleet.device_id(device),
            class: head.class,
        }
    }

    /// Advance the rotation pointer, clearing the arrival credit.
    fn advance(&mut self) {
        let n = self.rotation.len().max(1);
        self.cursor = (self.cursor + 1) % n;
        self.credited = false;
    }

    /// The DRR quantum: the largest *currently queued* head price (each
    /// tenant's head is its most expensive pending job, so this is the max
    /// over all queued jobs). Reflects the current queues rather than a
    /// high-water mark: a historically expensive job must not permanently
    /// inflate every tenant's per-visit budget, or a whale with many cheap
    /// jobs could serve `old_max_cost` jobs per visit and starve small
    /// tenants — the exact failure mode this module exists to prevent.
    ///
    /// Folded from the heads' prices on every call, O(tenants): nothing is
    /// cached, so no admission, removal or measurement can leave it stale.
    pub(super) fn quantum(&self) -> f64 {
        let model = &self.cost_model;
        let heads = self.tenants.values().filter_map(|t| t.queue.front());
        heads.map(|q| price(model, &q.job)).fold(1.0, f64::max)
    }

    /// Remove and return the job at `index` of `name`'s queue, maintaining
    /// the non-empty-tenant counter — the single mutation path for queue
    /// removals.
    fn take_job(&mut self, name: &Arc<str>, index: usize) -> QueuedJob {
        let tenant = self.tenants.get_mut(name).expect("tenant exists");
        let queued = tenant.queue.remove(index).expect("index in bounds");
        if tenant.queue.is_empty() {
            self.nonempty -= 1;
        }
        if queued.job.class.is_latency() {
            self.queued_latency -= 1;
        }
        queued
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::super::testing::*;
    use super::super::{Job, RateLimit, TenantPolicy};
    use super::*;

    #[test]
    fn round_robin_alternates_between_equal_tenants() {
        let (mut sched, names) = sched_with(&[
            ("a", TenantPolicy::default()),
            ("b", TenantPolicy::default()),
        ]);
        // a gets jobs 0..4, b gets 10..14, all equal cost.
        for i in 0..4 {
            sched.admit(&names[0], JobId(i), 1.0, None);
            sched.admit(&names[1], JobId(10 + i), 1.0, None);
        }
        let now = Instant::now();
        let mut order = Vec::new();
        while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
            sched.release(dispatch.id());
            order.push(dispatch.id().0 / 10); // 0 = tenant a, 1 = tenant b
        }
        // Strict alternation: no tenant dispatches twice in a row while the
        // other has work.
        for pair in order.windows(2) {
            assert_ne!(pair[0], pair[1], "alternation broken: {order:?}");
        }
        assert_eq!(order.len(), 8);
    }

    #[test]
    fn single_job_tenant_preempts_a_long_sweep() {
        let (mut sched, names) = sched_with(&[
            ("whale", TenantPolicy::default()),
            ("minnow", TenantPolicy::default()),
        ]);
        for i in 0..100 {
            sched.admit(&names[0], JobId(i), 5.0, None);
        }
        sched.admit(&names[1], JobId(1000), 5.0, None);
        let now = Instant::now();
        let mut dispatched_before_minnow = 0;
        loop {
            match sched.next_job(now) {
                SchedPoll::Dispatch(dispatch) if dispatch.id() == JobId(1000) => break,
                SchedPoll::Dispatch(dispatch) => {
                    sched.release(dispatch.id());
                    dispatched_before_minnow += 1;
                }
                other => panic!("unexpected poll {other:?}"),
            }
        }
        assert!(
            dispatched_before_minnow <= 2,
            "minnow waited behind {dispatched_before_minnow} whale jobs"
        );
    }

    #[test]
    fn weights_bias_the_dispatch_ratio() {
        let (mut sched, names) = sched_with(&[
            ("heavy", TenantPolicy::default().with_weight(3.0)),
            ("light", TenantPolicy::default()),
        ]);
        for i in 0..60 {
            sched.admit(&names[0], JobId(i), 1.0, None);
            sched.admit(&names[1], JobId(100 + i), 1.0, None);
        }
        let now = Instant::now();
        let mut heavy_in_first_40 = 0;
        for _ in 0..40 {
            match sched.next_job(now) {
                SchedPoll::Dispatch(dispatch) => {
                    sched.release(dispatch.id());
                    if dispatch.id().0 < 100 {
                        heavy_in_first_40 += 1;
                    }
                }
                other => panic!("unexpected poll {other:?}"),
            }
        }
        // 3:1 weights → roughly 30 of the first 40 dispatches are heavy's.
        assert!(
            (25..=35).contains(&heavy_in_first_40),
            "expected ~30 heavy dispatches, got {heavy_in_first_40}"
        );
    }

    #[test]
    fn weighted_tenants_split_a_shared_plan_three_to_one() {
        // The service's weighted-tenant run on scripted seconds instead of a
        // clock: one worker, batches of up to 8, two tenants × 16 jobs of one
        // plan admitted at a 40-unit guess and measured at 100 µs (10 units)
        // each. With 3:1 weights light completes 3 jobs before heavy
        // finishes; with the weight forced to 1.0 it completes 13.
        let (mut sched, names) = sched_with(&[
            ("heavy", TenantPolicy::default().with_weight(3.0)),
            ("light", TenantPolicy::default()),
        ]);
        for i in 0..16 {
            sched.admit(&names[0], JobId(i), 40.0, Some(1));
            sched.admit(&names[1], JobId(100 + i), 40.0, Some(1));
        }
        let now = Instant::now();
        // One worker settles each dispatch before the next one forms, so the
        // dispatch order is the completion order.
        let mut heavy_order = Vec::new();
        while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
            for id in dispatch.ids() {
                sched.settle_final(id, 0.0001, true, now);
                heavy_order.push(id.0 < 100);
            }
        }
        assert_eq!(heavy_order.len(), 32);
        let heavy_last = heavy_order.iter().rposition(|&heavy| heavy);
        let before = &heavy_order[..heavy_last.expect("heavy completed")];
        let light = before.iter().filter(|&&heavy| !heavy).count();
        assert!(
            light <= 10,
            "3:1 weighting not visible: light completed {light} of 16 before heavy finished"
        );
    }

    #[test]
    fn drain_shuts_down_only_when_empty_and_nothing_in_flight() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        sched.admit(&names[0], JobId(0), 1.0, None);
        sched.mode = Mode::Draining;
        let now = Instant::now();
        let SchedPoll::Dispatch(dispatch) = sched.next_job(now) else {
            panic!("drain dispatches pending work");
        };
        // Still in flight: other workers idle rather than exit.
        assert!(matches!(sched.next_job(now), SchedPoll::Idle(_)));
        sched.release(dispatch.id());
        assert!(matches!(sched.next_job(now), SchedPoll::Shutdown));
    }

    #[test]
    fn abort_stops_dispatching_immediately() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        sched.admit(&names[0], JobId(0), 1.0, None);
        sched.mode = Mode::Aborting;
        assert!(matches!(
            sched.next_job(Instant::now()),
            SchedPoll::Shutdown
        ));
        assert_eq!(sched.queued(), 1, "aborted work stays queued");
    }

    #[test]
    fn historical_expensive_job_does_not_inflate_the_quantum() {
        // A cost-500 job once existed and was dispatched long ago. Later a
        // whale queues many cost-1 jobs and a minnow queues one: the quantum
        // must reflect the *current* queues (1.0), so the whale serves ~one
        // job per visit and the minnow still preempts within a couple of
        // dispatches — a stale high-water quantum would let the whale serve
        // hundreds per visit.
        let (mut sched, names) = sched_with(&[
            ("whale", TenantPolicy::default()),
            ("minnow", TenantPolicy::default()),
        ]);
        let now = Instant::now();
        sched.admit(&names[0], JobId(9999), 500.0, None);
        let SchedPoll::Dispatch(big) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        sched.release(big.id());

        for i in 0..300 {
            sched.admit(&names[0], JobId(i), 1.0, None);
        }
        sched.admit(&names[1], JobId(1000), 1.0, None);
        let mut whale_before_minnow = 0;
        loop {
            match sched.next_job(now) {
                SchedPoll::Dispatch(dispatch) if dispatch.id() == JobId(1000) => break,
                SchedPoll::Dispatch(dispatch) => {
                    sched.release(dispatch.id());
                    whale_before_minnow += 1;
                }
                other => panic!("unexpected poll {other:?}"),
            }
        }
        assert!(
            whale_before_minnow <= 2,
            "stale quantum: {whale_before_minnow} whale jobs before the minnow"
        );
    }

    #[test]
    fn zero_cost_jobs_still_spend_deficit_no_monopoly() {
        // Regression: hint-less bundles admit with a 0.0 cost estimate.
        // Before the MIN_JOB_COST floor such jobs spent zero deficit, so
        // the first-visited tenant's queue drained entirely in one parked
        // visit — the exact monopoly DRR exists to prevent. With the floor,
        // dispatch order interleaves strictly.
        let (mut sched, names) = sched_with(&[
            ("hintless", TenantPolicy::default()),
            ("normal", TenantPolicy::default()),
        ]);
        for i in 0..6 {
            sched.admit(&names[0], JobId(i), 0.0, None);
            sched.admit(&names[1], JobId(100 + i), 1.0, None);
        }
        let now = Instant::now();
        let mut order = Vec::new();
        while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
            sched.release(dispatch.id());
            order.push(dispatch.id().0 / 100); // 0 = hintless, 1 = normal
        }
        assert_eq!(order.len(), 12);
        for pair in order.windows(2) {
            assert_ne!(
                pair[0], pair[1],
                "hint-less tenant monopolized the rotation: {order:?}"
            );
        }
    }

    #[test]
    fn stale_now_clamps_wait_accounting_to_zero() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        let past = Instant::now() - Duration::from_secs(5);
        sched.admit(&names[0], JobId(0), 1.0, None);
        let SchedPoll::Dispatch(d) = sched.next_job(past) else {
            panic!("expected dispatch");
        };
        sched.release(d.id());
        let wait = sched.tenant_snapshot()["t"].total_wait_seconds;
        assert!(
            (0.0..1.0).contains(&wait),
            "a stale now must clamp the wait to zero, got {wait}"
        );
    }

    #[test]
    fn quantum_matches_a_brute_force_rescan() {
        fn brute_force(sched: &FairScheduler) -> f64 {
            sched
                .tenants
                .values()
                .filter_map(|t| t.queue.front())
                .map(|q| q.job.cost)
                .fold(1.0, f64::max)
        }
        let (mut sched, names) = sched_with(&[
            ("a", TenantPolicy::default()),
            ("b", TenantPolicy::default()),
        ]);
        let now = Instant::now();
        let costs = [5.0, 120.0, 1.0, 60.0, 3.0, 250.0, 9.0];
        for (i, cost) in costs.iter().enumerate() {
            sched.admit(&names[i % 2], JobId(i as u64), *cost, None);
            assert_eq!(sched.quantum(), brute_force(&sched), "after admit {i}");
        }
        // Drain, checking the quantum against the rescan after every pop (the
        // 250-cost head leaving must deflate it, not linger as a high-water
        // mark).
        while let SchedPoll::Dispatch(d) = sched.next_job(now) {
            sched.release(d.id());
            assert_eq!(sched.quantum(), brute_force(&sched), "after a pop");
        }
        assert_eq!(sched.quantum(), 1.0, "empty queues fall back to 1.0");
    }

    #[test]
    fn a_first_measurement_mints_no_head_start() {
        // Two equal tenants × 150 jobs of one plan, admitted at a guess far
        // above the 30 µs (3 units) each really takes; one worker, no
        // batching. The first tenant's first job is charged the guess and
        // refunded the difference once measured — which used to buy a burst
        // of cheap measured jobs (50 : 0 after 50 dispatches at a 200-unit
        // guess). Now the refund is capped at one grant plus one head of the
        // measured quantum: the guessed job and two measured ones at most.
        for guess in [20.0, 200.0, 2000.0] {
            let mut sched = FairScheduler::new(1, noop_registry(), unlimited_fleet());
            sched.mode = Mode::Running;
            let now = Instant::now();
            let a = sched.intern("a", &TenantPolicy::default(), now);
            let b = sched.intern("b", &TenantPolicy::default(), now);
            for i in 0..150 {
                sched.admit(&a, JobId(i), guess, Some(7));
                sched.admit(&b, JobId(1000 + i), guess, Some(7));
            }
            let mut served = [0i64; 2];
            for n in 1..=200 {
                let SchedPoll::Dispatch(dispatch) = sched.next_job(now) else {
                    panic!("both tenants are backlogged");
                };
                served[usize::from(dispatch.id().0 >= 1000)] += 1;
                sched.settle_final(dispatch.id(), 0.00003, true, now);
                assert!(
                    (served[0] - served[1]).abs() <= 3,
                    "guess {guess}: {} : {} after {n} dispatches",
                    served[0],
                    served[1]
                );
            }
        }
    }

    #[test]
    fn a_saturated_fleet_idles_after_one_cycle_and_keeps_the_deficit() {
        // One one-slot device: once it runs a's job, a is capped and b's
        // head has no device. Both stall, so the poll idles after a single
        // cycle (one capped visit, not one per pass) and b keeps the credit
        // it was granted for the head that waits.
        let device = crate::fleet::DeviceSpec::new(
            "gate#0",
            placement().backend,
            qml_types::CapabilityDescriptor::unlimited(),
        )
        .with_concurrency(1);
        let fleet = crate::fleet::FleetRouter::new(vec![device], 0);
        let mut sched = FairScheduler::new(1, noop_registry(), fleet);
        sched.mode = Mode::Running;
        let now = Instant::now();
        let a = sched.intern("a", &TenantPolicy::default().with_max_in_flight(1), now);
        let b = sched.intern("b", &TenantPolicy::default(), now);
        sched.admit(&a, JobId(0), 1.0, None);
        sched.admit(&a, JobId(1), 1.0, None);
        sched.admit(&b, JobId(10), 1.0, None);
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("the free slot takes a's head");
        };
        assert_eq!(first.id(), JobId(0));
        assert!(matches!(sched.next_job(now), SchedPoll::Idle(None)));
        assert_eq!(sched.metrics.capped, 1, "one cycle, not one per pass");
        assert!(sched.deficit_of(&b) >= 1.0, "b waits with its deficit");
        assert_eq!(sched.queued(), 2);
        sched.release(first.id());
        let SchedPoll::Dispatch(next) = sched.next_job(now) else {
            panic!("the freed slot takes b's waiting head");
        };
        assert_eq!(next.id(), JobId(10));
    }

    /// The dispatch sequence of one fixed, single-threaded script, pinned as
    /// a literal: `head+members@device` per dispatch. Three tenants (weights
    /// 1, 2, 1; an in-flight cap of 2; a burst-only rate limit), a
    /// deadline-free latency job, micro-batching at 4, a two-device fleet of
    /// concurrency 1, scripted measured durations (so the cost model and
    /// charge-back engage), one device-fault requeue, and a final drain.
    /// A dispatch only goes to a device with a free slot, so with two
    /// workers the log alternates strictly between the two devices.
    /// Burst-only limits and deadline-free jobs keep the log independent of
    /// every clock read, so any change to it is a change of policy.
    #[test]
    fn golden_dispatch_log() {
        use std::collections::VecDeque;

        use crate::fleet::{DeviceSpec, FleetRouter};
        use qml_backends::{Backend, GateBackend};
        use qml_runtime::Placement;
        use qml_types::{CapabilityDescriptor, JobRequirements, ServiceClass};

        let backend: Arc<dyn Backend> = Arc::new(GateBackend::new());
        let specs = (0..2)
            .map(|i| {
                DeviceSpec::new(
                    format!("dev-{i}"),
                    Arc::clone(&backend),
                    CapabilityDescriptor::unlimited(),
                )
                .with_concurrency(1)
            })
            .collect();
        let base = Instant::now();
        let mut sched = FairScheduler::new(4, noop_registry(), FleetRouter::new(specs, 0));
        sched.mode = Mode::Running;
        let a = sched.intern("a", &TenantPolicy::default().with_max_in_flight(2), base);
        let b = sched.intern("b", &TenantPolicy::default().with_weight(2.0), base);
        let c = sched.intern(
            "c",
            &TenantPolicy::default().with_rate_limit(RateLimit {
                jobs_per_second: 0.0,
                burst: 5.0,
            }),
            base,
        );
        let placement = Placement {
            backend: Arc::clone(&backend),
            engine: "statevector".into(),
            estimated_cost: 0.0,
        };
        let job = |id: u64, cost: f64, key: u64| Job {
            placement: placement.clone(),
            batch_key: Some(key),
            requirements: JobRequirements {
                qubits: 4,
                opt_level: 1,
            },
            ..Job::new(JobId(id), cost)
        };
        // Tenants a and c share plan 1; b runs plans 2 and 3, plus plan 4,
        // whose 20 µs duration hint is its prior: 2 units.
        for i in 0..10 {
            sched.admit_job(&a, job(i, 4.0, 1), base);
        }
        for i in 0..8 {
            sched.admit_job(&b, job(100 + i, 2.0, 2), base);
        }
        for i in 8..12 {
            sched.admit_job(&b, job(100 + i, 6.0, 3), base);
        }
        sched.admit_job(&b, job(112, 2.0, 4), base);
        for i in 0..8 {
            sched.admit_job(&c, job(200 + i, 4.0, 1), base);
        }
        // Measured busy-seconds per plan, varied per job.
        let seconds = |id: u64, key: u64| {
            let base = match key {
                1 => 0.00003,
                2 => 0.00001,
                3 => 0.00008,
                _ => 0.00002,
            };
            base * (1.0 + (id % 3) as f64 * 0.25)
        };
        let key_of = |id: u64| match id {
            0..=99 | 200..=399 => 1,
            100..=107 => 2,
            108..=111 => 3,
            _ => 4,
        };
        let mut log: Vec<String> = Vec::new();
        let mut running: VecDeque<JobDispatch> = VecDeque::new();
        let mut faulted = false;
        let mut settled = 0usize;
        for _ in 0..1000 {
            // Two workers: poll until both device slots are busy or nothing
            // is dispatchable.
            let mut shutdown = false;
            while running.len() < 2 {
                match sched.next_job(base) {
                    SchedPoll::Dispatch(d) => {
                        let members: Vec<String> =
                            d.ids().skip(1).map(|id| id.0.to_string()).collect();
                        log.push(format!(
                            "{}+{}@{}",
                            d.id().0,
                            members.join(","),
                            d.device.as_deref().unwrap_or("-")
                        ));
                        running.push_back(d);
                    }
                    SchedPoll::Idle(_) => break,
                    SchedPoll::Shutdown => {
                        shutdown = true;
                        break;
                    }
                }
            }
            if shutdown {
                break;
            }
            let Some(d) = running.pop_front() else {
                // Only the rate-limited tenant's remainder is left: drain.
                assert_eq!(sched.mode, Mode::Running, "drain dispatches everything");
                sched.mode = Mode::Draining;
                continue;
            };
            for id in d.ids() {
                let secs = seconds(id.0, key_of(id.0));
                // One device fault, on the first dispatch of job 3.
                let fault = !faulted && id == JobId(3);
                faulted |= fault;
                sched.settle_outcome(id, secs, !fault, fault, base);
            }
            settled += 1;
            // Arrivals mid-run: a deadline-free latency job for a, and a
            // second wave for c.
            if settled == 3 {
                let latency = Job {
                    class: ServiceClass::latency(),
                    ..job(300, 1.0, 1)
                };
                sched.admit_job(&a, latency, base);
            }
            if settled == 6 {
                for i in 8..12 {
                    sched.admit_job(&c, job(200 + i, 4.0, 1), base);
                }
            }
        }
        assert!(faulted, "the script exercises one fault requeue");
        assert_eq!(sched.metrics.requeued, 1);
        assert_eq!(sched.queued() + sched.in_flight(), 0, "everything settled");
        // Both devices have one slot, so every dispatch is solo: a batch
        // takes one slot per member and never more than its device has free.
        let expected: &[&str] = &[
            "0+@dev-0",
            "108+@dev-1",
            "109+@dev-0",
            "200+@dev-1",
            "201+@dev-0",
            "300+@dev-1",
            "1+@dev-0",
            "2+@dev-1",
            "110+@dev-0",
            "202+@dev-1",
            "203+@dev-0",
            "3+@dev-1",
            "4+@dev-0",
            "111+@dev-1",
            "100+@dev-0",
            "101+@dev-1",
            "102+@dev-0",
            "103+@dev-1",
            "104+@dev-0",
            "105+@dev-1",
            "106+@dev-0",
            "107+@dev-1",
            "204+@dev-0",
            "112+@dev-1",
            "3+@dev-0",
            "5+@dev-1",
            "6+@dev-0",
            "7+@dev-1",
            "8+@dev-0",
            "9+@dev-1",
            "205+@dev-0",
            "206+@dev-1",
            "207+@dev-0",
            "208+@dev-1",
            "209+@dev-0",
            "210+@dev-1",
            "211+@dev-0",
        ];
        assert_eq!(log, expected, "golden dispatch log changed");
    }
}
