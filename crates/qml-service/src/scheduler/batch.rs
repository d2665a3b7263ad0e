//! Micro-batch coalescing: a dispatched head gathers plan-compatible queued
//! jobs of its tenant into one device-level call.

use std::sync::Arc;
use std::time::Instant;

use qml_observe::Stage;
use qml_types::ServiceClass;

use super::drr::BatchMember;
use super::pricing::effective_cost;
use super::FairScheduler;

/// How many queued jobs (beyond the head) one dispatch may inspect while
/// coalescing a micro-batch. Same-plan jobs share a cost estimate and the
/// queue is cost-ranked, so compatible jobs sit contiguously near the head;
/// the window only bounds the pathological interleaved case, which runs
/// under the scheduler lock every worker contends on.
const MAX_BATCH_SCAN: usize = 64;

/// Micro-batch cap of a latency-class dispatch
/// ([`ServiceClass::Latency`]): pairs of plan-compatible latency jobs still
/// amortize one realization, but a latency dispatch never grows past two
/// members — a latency job must not wait out a long device-level batch call,
/// so tail latency stays bounded by roughly one queue-mate even under a
/// saturating throughput backlog.
const LATENCY_MAX_BATCH: usize = 2;

impl FairScheduler {
    /// The batch-size cap of one dispatch, given the head's service class: a
    /// latency-class head always uses the fixed [`LATENCY_MAX_BATCH`] — its
    /// whole point is a short device call — and a throughput head is capped
    /// at `max_batch`.
    fn effective_max_batch(&self, class: ServiceClass) -> usize {
        if class.is_latency() {
            LATENCY_MAX_BATCH
        } else {
            self.max_batch
        }
    }

    /// Dispatch `name`'s head job at `head_cost` and extend it into a
    /// **micro-batch**: further queued jobs of the same tenant that share
    /// the head's batch key (same backend, same realization plan) *and its
    /// service class*. The head is member 0, and every member goes through
    /// [`dispatch_member`](FairScheduler::dispatch_member) — deficit, tokens
    /// and in-flight slots are spent per member, exactly as solo dispatches
    /// would; the batch merely rides one worker round-trip and one
    /// device-level `execute_batch_timed` call on `device`.
    ///
    /// Under contention (any other tenant has queued work) a member is only
    /// taken while the tenant's remaining deficit covers its cost, so DRR
    /// weights keep their exact meaning: a weight-3 tenant coalesces up to
    /// three cost units per visit where a weight-1 tenant dispatches solo.
    /// An **uncontended** tenant batches up to the class cap regardless of
    /// deficit — there is nobody to be fair to. A member must also pass the
    /// tenant's in-flight cap and token bucket, like the head did.
    ///
    /// The cap is per class (see
    /// [`effective_max_batch`](FairScheduler::effective_max_batch)), and a
    /// queued latency job — any tenant's — stops a throughput batch from
    /// growing past its head (preempt coalescing, never execution).
    pub(super) fn dispatch_batch(
        &mut self,
        name: &Arc<str>,
        head_cost: f64,
        device: usize,
        drain: bool,
        now: Instant,
    ) -> Vec<BatchMember> {
        let head = self.dispatch_member(name, 0, head_cost, device, drain, now);
        let mut batch = vec![head];
        let (key, class) = {
            let job = &self.in_flight[&head.id].job;
            (job.batch_key, job.class)
        };
        let cap = self.effective_max_batch(class);
        // Preempt **coalescing**, never execution: a queued latency-class
        // job — any tenant's — stops a throughput batch from growing past
        // its head, so the latency job's dispatch is at most one short
        // device call away. Batches already executing are untouched.
        let preempted = !class.is_latency() && self.queued_latency > 0;
        if let Some(key) = key.filter(|_| cap > 1 && !preempted) {
            let contended = self.contended(name);
            let mut idx = 0usize;
            for _ in 0..MAX_BATCH_SCAN {
                let tenant = self.tenants.get_mut(name).expect("tenant exists");
                let Some(queued) = tenant.queue.get(idx) else {
                    break;
                };
                if batch.len() >= cap {
                    break;
                }
                let job = &queued.job;
                // Members must share the head's plan and class: one batch
                // rides one cap and one latency promise. A batch routes by
                // its head's device exclusions, so a member excluded from
                // some device the head is not could ride back onto the
                // device that faulted it: only members whose exclusion set
                // is a subset of the head's coalesce.
                if job.batch_key != Some(key)
                    || job.class.is_latency() != class.is_latency()
                    || !self.fleet.exclusions_subset(job.id.0, head.id.0)
                {
                    idx += 1;
                    continue;
                }
                let cost = effective_cost(&self.cost_model, job);
                let retry = job.retry;
                if (contended && tenant.deficit < cost) || tenant.veto(retry, drain, now).is_some()
                {
                    break;
                }
                batch.push(self.dispatch_member(name, idx, cost, device, drain, now));
            }
        }
        if batch.len() > 1 {
            self.metrics.batches += 1;
            self.metrics.batched_jobs += batch.len() as u64;
        }
        if self.obs.tracing_enabled() {
            let batch_size = batch.len() as u32;
            for member in &batch {
                self.obs.trace(
                    member.id,
                    Some(name),
                    key,
                    Stage::Dispatched {
                        queue_wait_us: member.wait_us,
                        batch_size,
                        deficit_spent: member.cost,
                    },
                );
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::*;
    use super::super::{Job, SchedPoll, TenantPolicy};
    use super::*;
    use qml_runtime::JobId;

    #[test]
    fn uncontended_tenant_coalesces_up_to_max_batch() {
        // A solo tenant has nobody to be fair to: plan-compatible jobs
        // coalesce into micro-batches of max_batch regardless of deficit.
        let (mut sched, names) = sched_with(&[("solo", TenantPolicy::default())]);
        for i in 0..10 {
            sched.admit(&names[0], JobId(i), 1.0, None, Some(42));
        }
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.len(), 8, "uncontended batches to the cap");
        assert_eq!(
            first.ids().collect::<Vec<_>>(),
            (0..8).map(JobId).collect::<Vec<_>>(),
            "members coalesce in queue order"
        );
        for id in first.ids() {
            sched.release(id);
        }
        let SchedPoll::Dispatch(second) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(second.len(), 2, "the remainder forms the next batch");
        assert_eq!(sched.metrics.batches, 2);
        assert_eq!(sched.metrics.batched_jobs, 10);
        assert_eq!(sched.metrics.dispatched, 10, "accounting is per member");
        assert!((sched.metrics.mean_batch_size() - 5.0).abs() < 1e-12);
        assert_eq!(sched.metrics.solo_jobs(), 0);
    }

    #[test]
    fn contended_batches_stay_within_the_drr_budget() {
        // Under contention a batch may only spend the deficit its tenant was
        // credited: weight 3 affords three equal-cost members per visit,
        // weight 1 dispatches solo — the ratio weights promise is untouched.
        let (mut sched, names) = sched_with(&[
            ("heavy", TenantPolicy::default().with_weight(3.0)),
            ("light", TenantPolicy::default()),
        ]);
        for i in 0..9 {
            sched.admit(&names[0], JobId(i), 1.0, None, Some(1));
        }
        for i in 0..3 {
            sched.admit(&names[1], JobId(100 + i), 1.0, None, Some(2));
        }
        let now = Instant::now();
        let SchedPoll::Dispatch(heavy) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(heavy.len(), 3, "weight-3 budget covers three members");
        heavy.ids().for_each(|id| sched.release(id));
        let SchedPoll::Dispatch(light) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(light.len(), 1, "weight-1 tenant dispatches solo");
        sched.release(light.id());
    }

    #[test]
    fn different_batch_keys_never_coalesce() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        sched.admit(&names[0], JobId(0), 1.0, None, Some(7));
        sched.admit(&names[0], JobId(1), 1.0, None, Some(8));
        sched.admit(&names[0], JobId(2), 1.0, None, Some(7));
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        // Key 7 members coalesce across the interleaved key-8 job...
        assert_eq!(first.ids().collect::<Vec<_>>(), vec![JobId(0), JobId(2)]);
        first.ids().for_each(|id| sched.release(id));
        // ...which then dispatches alone.
        let SchedPoll::Dispatch(second) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(second.ids().collect::<Vec<_>>(), vec![JobId(1)]);
    }

    #[test]
    fn rate_limited_batches_spend_one_token_per_member() {
        let (mut sched, names) = sched_with(&[(
            "limited",
            TenantPolicy::default().with_rate_limit(crate::RateLimit {
                jobs_per_second: 0.0,
                burst: 3.0,
            }),
        )]);
        for i in 0..6 {
            sched.admit(&names[0], JobId(i), 1.0, None, Some(5));
        }
        let now = Instant::now();
        let SchedPoll::Dispatch(burst) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(burst.len(), 3, "the batch stops at the token budget");
        assert!(matches!(sched.next_job(now), SchedPoll::Idle(_)));
    }

    #[test]
    fn capped_tenant_batches_stop_at_the_in_flight_cap() {
        let (mut sched, names) =
            sched_with(&[("capped", TenantPolicy::default().with_max_in_flight(2))]);
        for i in 0..6 {
            sched.admit(&names[0], JobId(i), 1.0, None, Some(5));
        }
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.len(), 2, "cap of 2 bounds the batch");
        assert!(matches!(sched.next_job(now), SchedPoll::Idle(_)));
        first.ids().for_each(|id| sched.release(id));
        assert!(matches!(sched.next_job(now), SchedPoll::Dispatch(_)));
    }

    #[test]
    fn interned_but_empty_tenants_do_not_count_as_contention() {
        // The O(1) non-empty counter must mirror "has queued work", not
        // "exists": a second tenant with an empty queue leaves the first
        // uncontended, which batches to the cap regardless of deficit.
        let (mut sched, names) = sched_with(&[
            ("busy", TenantPolicy::default()),
            ("idle", TenantPolicy::default()),
        ]);
        for i in 0..8 {
            sched.admit(&names[0], JobId(i), 1.0, None, Some(3));
        }
        let SchedPoll::Dispatch(first) = sched.next_job(Instant::now()) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.len(), 8, "an interned-but-empty tenant is nobody");
    }

    #[test]
    fn latency_batches_stop_at_the_latency_cap() {
        // One tenant, both classes sharing plan-compatible work: latency
        // dispatches ride the small fixed cap (2) while throughput still
        // coalesces to the full max_batch (8).
        let (mut sched, names) = sched_with(&[("solo", TenantPolicy::default())]);
        let now = Instant::now();
        for i in 0..4 {
            let job = Job {
                class: ServiceClass::latency(),
                batch_key: Some(7),
                ..Job::new(JobId(i), 1.0)
            };
            sched.admit_job(&names[0], job, None, now);
        }
        for i in 10..18 {
            sched.admit(&names[0], JobId(i), 1.0, None, Some(7));
        }
        let mut sizes = Vec::new();
        while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
            let latency = dispatch.class.is_latency();
            sizes.push((latency, dispatch.len()));
            dispatch.ids().for_each(|id| sched.release(id));
        }
        assert_eq!(
            sizes,
            vec![(true, 2), (true, 2), (false, 8)],
            "latency caps at LATENCY_MAX_BATCH, throughput at max_batch"
        );
    }

    #[test]
    fn mixed_class_jobs_never_share_a_batch() {
        // Same tenant, same batch key: the throughput job is plan-compatible
        // with the latency head but must not ride its micro-batch — a
        // latency dispatch stays short by construction.
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        let now = Instant::now();
        let latency = Job {
            class: ServiceClass::latency(),
            batch_key: Some(3),
            ..Job::new(JobId(0), 1.0)
        };
        sched.admit_job(&names[0], latency, None, now);
        sched.admit(&names[0], JobId(1), 1.0, None, Some(3));
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.ids().collect::<Vec<_>>(), vec![JobId(0)]);
        assert!(first.class.is_latency());
    }

    #[test]
    fn a_queued_latency_job_preempts_coalescing_never_execution() {
        let (mut sched, names) = sched_with(&[
            ("bulk", TenantPolicy::default().with_weight(4.0)),
            ("interactive", TenantPolicy::default()),
        ]);
        for i in 0..8 {
            sched.admit(&names[0], JobId(i), 1.0, None, Some(42));
        }
        sched.admit_latency(&names[1], JobId(100), 1.0, None);
        let now = Instant::now();
        let mut first = true;
        let mut saw_latency = false;
        let mut batched_after = false;
        while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
            if first {
                // Execution is never preempted: the rotation still serves
                // bulk's head ahead of the waiting latency job.
                assert!(!dispatch.class.is_latency(), "DRR stays class-blind");
                first = false;
            }
            if dispatch.id() == JobId(100) {
                saw_latency = true;
            } else if !saw_latency {
                assert_eq!(
                    dispatch.len(),
                    1,
                    "a queued latency job stops throughput coalescing"
                );
            } else {
                batched_after |= dispatch.len() > 1;
            }
            dispatch.ids().for_each(|id| sched.release(id));
        }
        assert!(saw_latency);
        assert!(
            batched_after,
            "coalescing resumes once the latency job left"
        );
    }
}
