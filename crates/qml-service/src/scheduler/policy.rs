//! Tenant policy and token buckets: what may stop a tenant from dispatching
//! one more job, independent of its DRR budget.

use std::collections::VecDeque;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use super::QueuedJob;
use crate::metrics::TenantStats;

/// A token-bucket rate limit on one tenant's dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateLimit {
    /// Sustained dispatch rate, in jobs per second. `0.0` means "burst
    /// only": the tenant may dispatch up to `burst` jobs and is then
    /// throttled until the next drain. Negative and NaN rates are treated
    /// as `0.0` (a negative rate would drain the bucket and starve the
    /// tenant outright).
    pub jobs_per_second: f64,
    /// Bucket capacity: how many dispatches may happen back-to-back before
    /// the sustained rate applies. Dispatching costs one whole token, so
    /// values below 1.0 are treated as 1.0 (a bucket that can never reach a
    /// full token would starve the tenant outright).
    pub burst: f64,
}

impl RateLimit {
    /// A limit of `jobs_per_second` with a burst allowance of the same size
    /// (at least one job).
    pub fn per_second(jobs_per_second: f64) -> Self {
        RateLimit {
            jobs_per_second,
            burst: jobs_per_second.max(1.0),
        }
    }

    /// Replace the burst allowance, builder-style.
    pub fn with_burst(mut self, burst: f64) -> Self {
        self.burst = burst;
        self
    }

    /// The refill rate actually enforced (see [`RateLimit::jobs_per_second`];
    /// `f64::max` maps NaN to the other operand).
    fn effective_rate(&self) -> f64 {
        self.jobs_per_second.max(0.0)
    }

    /// The bucket capacity actually enforced (see [`RateLimit::burst`]).
    fn effective_burst(&self) -> f64 {
        self.burst.max(1.0)
    }
}

/// Scheduling policy applied to one tenant (or, via
/// [`ServiceConfig::default_policy`](crate::ServiceConfig), to every tenant
/// without an explicit one).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantPolicy {
    /// Relative share of dispatch budget under contention. A weight-2 tenant
    /// receives twice the cost-throughput of a weight-1 tenant while both
    /// have work queued. Values ≤ 0 are clamped to a small epsilon.
    pub weight: f64,
    /// Maximum number of this tenant's jobs executing concurrently
    /// (`None` = unlimited). A configured cap of 0 is treated as 1.
    pub max_in_flight: Option<usize>,
    /// Token-bucket rate limit (`None` = unlimited).
    pub rate_limit: Option<RateLimit>,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            weight: 1.0,
            max_in_flight: None,
            rate_limit: None,
        }
    }
}

impl TenantPolicy {
    /// Set the DRR weight, builder-style.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Cap the tenant's concurrently executing jobs, builder-style.
    pub fn with_max_in_flight(mut self, max: usize) -> Self {
        self.max_in_flight = Some(max);
        self
    }

    /// Attach a token-bucket rate limit, builder-style.
    pub fn with_rate_limit(mut self, limit: RateLimit) -> Self {
        self.rate_limit = Some(limit);
        self
    }
}

/// Why a tenant may not dispatch one more job right now.
#[derive(Debug, Clone, Copy)]
pub(super) enum Veto {
    /// At its in-flight cap.
    Capped,
    /// Its token bucket holds less than one token.
    Throttled,
}

/// One tenant's queue plus its DRR/rate-limit state and its ledger.
#[derive(Debug)]
pub(super) struct TenantQueue {
    pub(super) policy: TenantPolicy,
    /// Pending jobs in class, EDF and LPT order (see `order`).
    pub(super) queue: VecDeque<QueuedJob>,
    /// DRR deficit counter, in cost units.
    pub(super) deficit: f64,
    /// Token bucket fill (only meaningful with a rate limit).
    pub(super) tokens: f64,
    last_refill: Instant,
    /// The tenant's submission, dispatch and outcome counts: the only copy
    /// the service keeps, snapshotted as is into
    /// [`ServiceMetrics::per_tenant`](crate::ServiceMetrics).
    pub(super) stats: TenantStats,
}

impl TenantQueue {
    pub(super) fn new(policy: TenantPolicy, now: Instant) -> Self {
        let tokens = policy
            .rate_limit
            .map(|l| l.effective_burst())
            .unwrap_or(0.0);
        TenantQueue {
            policy,
            queue: VecDeque::new(),
            deficit: 0.0,
            tokens,
            last_refill: now,
            stats: TenantStats::default(),
        }
    }

    /// Advance the token bucket to `now`. Monotone by construction: a stale
    /// `now` (older than the last refill — e.g. an instant captured before
    /// another thread's refill was serialized ahead of it) adds nothing and
    /// **keeps** `last_refill`, so the already-credited interval can never
    /// be double-counted by a later, fresher call.
    fn refill(&mut self, now: Instant) {
        if let Some(limit) = self.policy.rate_limit {
            let elapsed = now
                .saturating_duration_since(self.last_refill)
                .as_secs_f64();
            if elapsed > 0.0 {
                self.tokens =
                    (self.tokens + elapsed * limit.effective_rate()).min(limit.effective_burst());
                self.last_refill = now;
            }
        }
    }

    /// True when dispatching a job spends a token: the tenant is rate
    /// limited, the service is not draining (a drain waives rate limits),
    /// and the job is not a fault requeue (its original dispatch paid).
    pub(super) fn spends_token(&self, retry: bool, drain: bool) -> bool {
        !drain && !retry && self.policy.rate_limit.is_some()
    }

    /// The policy check every dispatch passes — a batch head and each
    /// member alike: the in-flight cap, then (refilled to `now`) the token
    /// bucket.
    pub(super) fn veto(&mut self, retry: bool, drain: bool, now: Instant) -> Option<Veto> {
        if self
            .policy
            .max_in_flight
            .is_some_and(|cap| self.stats.in_flight >= cap.max(1) as u64)
        {
            return Some(Veto::Capped);
        }
        if self.spends_token(retry, drain) {
            self.refill(now);
            if self.tokens < 1.0 {
                return Some(Veto::Throttled);
            }
        }
        None
    }

    /// Forfeit banked DRR credit while **keeping debt**: a vetoed or
    /// drained tenant must not hoard budget for later bursts, but a deficit
    /// driven negative by measured-cost charge-back is real over-consumption
    /// and must survive until the tenant has paid it off.
    pub(super) fn forfeit_credit(&mut self) {
        self.deficit = self.deficit.min(0.0);
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use std::sync::Arc;

    use super::super::testing::*;
    use super::super::{FairScheduler, Job, Mode, SchedPoll};
    use super::*;
    use qml_runtime::JobId;

    fn limited(limit: RateLimit) -> (FairScheduler, Arc<str>) {
        let (sched, names) =
            sched_with(&[("limited", TenantPolicy::default().with_rate_limit(limit))]);
        (sched, names[0].clone())
    }

    #[test]
    fn burst_only_rate_limit_throttles_after_burst() {
        let (mut sched, name) = limited(RateLimit {
            jobs_per_second: 0.0,
            burst: 2.0,
        });
        for i in 0..5 {
            sched.admit(&name, JobId(i), 1.0, None, None);
        }
        let now = Instant::now();
        for _ in 0..2 {
            let SchedPoll::Dispatch(dispatch) = sched.next_job(now) else {
                panic!("burst tokens should dispatch");
            };
            sched.release(dispatch.id);
        }
        assert!(matches!(sched.next_job(now), SchedPoll::Idle));
        assert!(sched.metrics.throttled > 0);
        // A drain waives the rate limit so shutdown terminates.
        sched.mode = Mode::Draining;
        assert!(matches!(sched.next_job(now), SchedPoll::Dispatch(_)));
    }

    #[test]
    fn negative_or_nan_rates_mean_burst_only_not_starvation() {
        // A negative rate must not drain the bucket (one second after
        // interning, a burst-3 tenant at −5/s would hold −2 tokens and never
        // dispatch again until a drain), and a NaN rate must not refill it.
        // Both mean 0.0: the burst dispatches, then the tenant is throttled,
        // exactly as documented for burst-only.
        for rate in [-5.0, f64::NAN] {
            let base = Instant::now();
            let mut sched = FairScheduler::new(8, noop_registry());
            sched.mode = Mode::Running;
            let policy = TenantPolicy::default().with_rate_limit(RateLimit {
                jobs_per_second: rate,
                burst: 3.0,
            });
            let name = sched.intern("t", &policy, base);
            for i in 0..5 {
                sched.admit_job(&name, Job::new(JobId(i), 1.0), None, base);
            }
            let later = base + Duration::from_secs(1);
            for _ in 0..3 {
                let SchedPoll::Dispatch(d) = sched.next_job(later) else {
                    panic!("rate {rate}: the burst must still dispatch");
                };
                sched.release(d.id);
            }
            // Burst only: more virtual time refills nothing.
            let much_later = later + Duration::from_secs(60);
            assert!(matches!(sched.next_job(much_later), SchedPoll::Idle));
            assert_eq!(sched.tokens_of(&name), 0.0, "rate {rate}: no refill");
        }
    }

    #[test]
    fn a_scripted_clock_paces_a_rate_limited_tenant_exactly() {
        // 5 jobs/s with a burst of 1, polled every 10 ms for 10 s of virtual
        // time: one job at t = 0, then one per 200 ms — 51 dispatches, the
        // same count on every run, and no sleeping.
        let base = Instant::now();
        let mut sched = FairScheduler::new(8, noop_registry());
        sched.mode = Mode::Running;
        let policy =
            TenantPolicy::default().with_rate_limit(RateLimit::per_second(5.0).with_burst(1.0));
        let name = sched.intern("paced", &policy, base);
        for i in 0..200 {
            sched.admit_job(&name, Job::new(JobId(i), 1.0), None, base);
        }
        let mut dispatched = 0;
        for tick in 0..=1000u64 {
            let now = base + Duration::from_millis(10 * tick);
            while let SchedPoll::Dispatch(d) = sched.next_job(now) {
                sched.release(d.id);
                dispatched += 1;
            }
        }
        assert!(
            (50..=52).contains(&dispatched),
            "expected 51 ± 1 dispatches, got {dispatched}"
        );
    }

    #[test]
    fn stale_now_cannot_rewind_the_refill_clock() {
        let (mut sched, name) = limited(RateLimit {
            jobs_per_second: 500.0,
            burst: 2.0,
        });
        for i in 0..8 {
            sched.admit(&name, JobId(i), 1.0, None, None);
        }
        let t0 = Instant::now();
        // Burst of 2, then one refilled token 2 ms later: 3 dispatches.
        for _ in 0..2 {
            let SchedPoll::Dispatch(d) = sched.next_job(t0) else {
                panic!("burst tokens should dispatch");
            };
            sched.release(d.id);
        }
        let t1 = t0 + Duration::from_millis(2);
        let SchedPoll::Dispatch(d) = sched.next_job(t1) else {
            panic!("one refilled token at t0+2ms");
        };
        sched.release(d.id);
        // A stale clock read (a worker that captured `now` before the t1
        // refill was serialized ahead of it) must be a no-op: it must not
        // rewind `last_refill` to t0 and double-credit the 0..2 ms interval.
        assert!(matches!(sched.next_job(t0), SchedPoll::Idle));
        let t2 = t0 + Duration::from_millis(4);
        let SchedPoll::Dispatch(d) = sched.next_job(t2) else {
            panic!("exactly one more token by t0+4ms");
        };
        sched.release(d.id);
        assert!(
            matches!(sched.next_job(t2), SchedPoll::Idle),
            "double-refill: the 0..2ms interval was credited twice"
        );
    }

    #[test]
    fn requeued_jobs_are_not_charged_rate_limit_tokens_again() {
        // Regression: a device-fault requeue re-enters the queue with
        // `retry: true` because its original dispatch already paid the
        // token. Charging (or throttling) it again would double-bill every
        // failover.
        let (mut sched, name) = limited(RateLimit {
            jobs_per_second: 0.0,
            burst: 1.0,
        });
        let now = Instant::now();
        // Spend the only token on a normal dispatch.
        sched.admit(&name, JobId(0), 1.0, None, None);
        let SchedPoll::Dispatch(paid) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        sched.release(paid.id);
        // Bucket empty: a fresh submission throttles...
        sched.admit(&name, JobId(1), 1.0, None, None);
        assert!(matches!(sched.next_job(now), SchedPoll::Idle));
        assert_eq!(sched.metrics.throttled, 1);
        // ...but a requeued job (higher cost, so it outranks the queued
        // fresh one) dispatches straight through and spends nothing.
        let retry = Job {
            retry: true,
            ..Job::new(JobId(2), 2.0)
        };
        sched.admit_job(&name, retry, None, now);
        let tokens_before = sched.tokens_of(&name);
        let SchedPoll::Dispatch(retried) = sched.next_job(now) else {
            panic!("retry must bypass the empty bucket");
        };
        assert_eq!(retried.id, JobId(2));
        sched.release(retried.id);
        assert_eq!(
            sched.tokens_of(&name),
            tokens_before,
            "the retry spends no token"
        );
        // The fresh job is still throttled — the retry bought it nothing.
        assert!(matches!(sched.next_job(now), SchedPoll::Idle));
    }

    #[test]
    fn in_flight_cap_blocks_further_dispatches() {
        let (mut sched, names) =
            sched_with(&[("capped", TenantPolicy::default().with_max_in_flight(1))]);
        sched.admit(&names[0], JobId(0), 1.0, None, None);
        sched.admit(&names[0], JobId(1), 1.0, None, None);
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert!(
            matches!(sched.next_job(now), SchedPoll::Idle),
            "cap of 1 respected"
        );
        assert!(sched.metrics.capped > 0);
        sched.release(first.id);
        assert!(matches!(sched.next_job(now), SchedPoll::Dispatch(_)));
    }
}
