//! Queue order inside one tenant: latency class before throughput, earliest
//! deadline first inside latency, longest (costliest) first inside
//! throughput.

use std::sync::Arc;

use qml_types::ServiceClass;

use super::{FairScheduler, Job, QueuedJob};

/// Queue-order predicate for class-aware admission: true while the queued
/// job `q` keeps its position ahead of `arriving`. Encodes the full ordering
/// rule — latency before throughput, EDF (deadline-free last, FIFO ties)
/// inside latency, LPT inside throughput — so one `partition_point` call
/// places any arrival.
fn keeps_position(q: &Job, arriving: &Job) -> bool {
    match (q.class, arriving.class) {
        (ServiceClass::Latency { .. }, ServiceClass::Throughput) => true,
        (ServiceClass::Throughput, ServiceClass::Latency { .. }) => false,
        (ServiceClass::Latency { .. }, ServiceClass::Latency { .. }) => {
            match (q.deadline, arriving.deadline) {
                (None, None) => true,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(queued), Some(arriving)) => queued <= arriving,
            }
        }
        (ServiceClass::Throughput, ServiceClass::Throughput) => q.cost >= arriving.cost,
    }
}

impl FairScheduler {
    /// Insert a priced job into its tenant's queue in class, EDF and LPT
    /// order, keeping the non-empty and queued-latency counters and the
    /// quantum memo current.
    pub(super) fn enqueue(&mut self, tenant: &Arc<str>, queued: QueuedJob) {
        let queue = &mut self
            .tenants
            .get_mut(tenant)
            .expect("tenant interned before admission")
            .queue;
        if queue.is_empty() {
            self.nonempty += 1;
        }
        if queued.job.class.is_latency() {
            self.queued_latency += 1;
        }
        // Binary search: the queue is kept sorted by the class-then-EDF/LPT
        // rule, and partition_point places ties after their peers (stable
        // FIFO), so admitting an N-point sweep costs O(N log N) comparisons
        // instead of O(N^2) — this runs under the scheduler lock workers
        // contend on.
        let at = queue.partition_point(|q| keeps_position(&q.job, &queued.job));
        queue.insert(at, queued);
        // A non-head insertion cannot change any tenant's head, so the memo
        // stays valid; a new head can raise *or lower* the max head cost
        // (a cheap latency job now outranks an expensive throughput head),
        // so it invalidates rather than adjusts in place.
        if at == 0 {
            self.cached_quantum = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::super::testing::*;
    use super::super::{SchedPoll, TenantPolicy};
    use qml_runtime::JobId;

    #[test]
    fn cost_ranked_within_a_tenant() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        sched.admit(&names[0], JobId(0), 1.0, None, None);
        sched.admit(&names[0], JobId(1), 9.0, None, None);
        sched.admit(&names[0], JobId(2), 4.0, None, None);
        let now = Instant::now();
        let mut order = Vec::new();
        while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
            sched.release(dispatch.id);
            order.push(dispatch.id.0);
        }
        assert_eq!(order, vec![1, 2, 0], "longest-first within the tenant");
    }

    #[test]
    fn latency_class_precedes_throughput_with_edf_inside() {
        // Interleaved admissions across both classes; cost is deliberately
        // adversarial (the cheapest job is latency-class) so the test pins
        // class-then-EDF, not a cost accident.
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        let t = &names[0];
        let base = Instant::now();
        sched.admit(t, JobId(0), 1.0, None, None);
        sched.admit_latency(t, JobId(1), 0.1, Some(base + Duration::from_secs(5)));
        sched.admit(t, JobId(2), 9.0, None, None);
        sched.admit_latency(t, JobId(3), 0.1, None);
        sched.admit_latency(t, JobId(4), 0.1, Some(base + Duration::from_secs(1)));
        sched.admit_latency(t, JobId(5), 0.1, Some(base + Duration::from_secs(5)));
        let now = Instant::now();
        let mut order = Vec::new();
        while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
            sched.release(dispatch.id);
            order.push(dispatch.id.0);
        }
        // Latency first: EDF (1s, then the 5s pair FIFO), deadline-free
        // last; then throughput longest-first.
        assert_eq!(order, vec![4, 1, 5, 3, 2, 0], "class → EDF → LPT");
    }

    #[test]
    fn class_snapshot_splits_the_queue_by_class() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        sched.admit_latency(&names[0], JobId(0), 1.0, None);
        sched.admit_latency(&names[0], JobId(1), 1.0, None);
        for i in 2..5 {
            sched.admit(&names[0], JobId(i), 1.0, None, None);
        }
        let stats = sched.class_snapshot();
        assert_eq!(stats["latency"].queued, 2);
        assert_eq!(stats["throughput"].queued, 3);
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert!(first.class.is_latency());
        let stats = sched.class_snapshot();
        assert_eq!(stats["latency"].queued, 1, "the dispatched head left");
        assert_eq!(stats["latency"].dispatched, 1);
        assert_eq!(stats["throughput"].queued, 3);
        assert_eq!(stats["throughput"].dispatched, 0);
        sched.settle_final(first.id, 1e-3, false, now);
        assert_eq!(sched.class_snapshot()["latency"].failed, 1);
    }

    mod class_proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// An all-latency tenant cannot starve an all-throughput tenant:
            /// classes reorder *within* a tenant only, so at equal weight
            /// and cost the cross-tenant DRR rotation keeps the two dispatch
            /// counts within one of each other while both have work.
            #[test]
            fn latency_tenants_cannot_starve_throughput_tenants(
                latency_jobs in 2usize..40,
                throughput_jobs in 2usize..40,
            ) {
                let (mut sched, names) = sched_with(&[
                    ("interactive", TenantPolicy::default()),
                    ("bulk", TenantPolicy::default()),
                ]);
                for i in 0..latency_jobs {
                    sched.admit_latency(&names[0], JobId(i as u64), 1.0, None);
                }
                for i in 0..throughput_jobs {
                    sched.admit(&names[1], JobId(1000 + i as u64), 1.0, None, None);
                }
                let now = Instant::now();
                let (mut lat, mut thr) = (0usize, 0usize);
                while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
                    sched.release(dispatch.id);
                    if dispatch.class.is_latency() {
                        lat += 1;
                    } else {
                        thr += 1;
                    }
                    if lat < latency_jobs && thr < throughput_jobs {
                        prop_assert!(
                            lat.abs_diff(thr) <= 1,
                            "class drift while contended: lat={} thr={}", lat, thr
                        );
                    }
                }
                prop_assert_eq!(lat, latency_jobs);
                prop_assert_eq!(thr, throughput_jobs);
            }
        }
    }
}
