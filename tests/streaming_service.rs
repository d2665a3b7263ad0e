//! Integration tests for the streaming service loop: submit-while-running,
//! two-tenant fairness under a large sweep, token-bucket rate limiting, and
//! drain-vs-abort shutdown semantics.

use std::sync::Arc;
use std::time::Duration;

use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::runtime::JobStatus;
use qml_core::service::observe::{Stage, TraceEvent};
use qml_core::service::{QmlService, RateLimit, ServiceConfig, SweepRequest, TenantPolicy};

fn gate_context(seed: u64, samples: u64) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(samples)
            .with_seed(seed)
            .with_target(Target::ring(4)),
    )
}

fn fixed_qaoa() -> JobBundle {
    qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap()
}

const WAIT: Duration = Duration::from_secs(60);

/// Tenants of the traced outcomes, in the order the service settled them.
/// Read from the trace rather than by polling `status`, so "what had
/// finished when X finished" does not depend on how soon the test thread
/// wakes up.
fn outcome_order(events: &[TraceEvent]) -> Vec<String> {
    let mut outcomes: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e.stage, Stage::Outcome { .. }))
        .collect();
    outcomes.sort_by_key(|e| e.seq);
    outcomes
        .iter()
        .map(|e| e.tenant.as_deref().unwrap_or_default().to_string())
        .collect()
}

#[test]
fn jobs_submitted_while_running_complete_without_restart() {
    let service = QmlService::with_config(ServiceConfig::with_workers(2));
    let handle = service.start().unwrap();

    // Submit from other threads while the pool is live.
    let submitters: Vec<_> = (0..3)
        .map(|t| {
            let service = service.clone();
            std::thread::spawn(move || {
                (0..4)
                    .map(|i| {
                        let seed = t * 10 + i;
                        let (_, job) = service
                            .submit(
                                &format!("tenant-{t}"),
                                fixed_qaoa().with_context(gate_context(seed, 64)),
                            )
                            .unwrap();
                        job
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let jobs: Vec<_> = submitters
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();

    assert!(service.wait_idle(WAIT), "service should quiesce");
    for job in &jobs {
        assert!(
            matches!(service.status(*job), Some(JobStatus::Completed)),
            "job {job:?} not completed: {:?}",
            service.status(*job)
        );
    }
    let summary = handle.drain();
    assert_eq!(summary.completed, 12);
    assert_eq!(service.metrics().jobs_completed, 12);
}

#[test]
fn small_tenant_is_not_starved_by_a_big_sweep() {
    // max_batch 1: this test proves per-job DRR interleaving. With batching
    // on, an uncontended whale may have its whole sweep claimed in a handful
    // of batch dispatches before the minnow's submission lands — correct
    // (nobody else was queued when the batches formed) but a race against
    // the assertions below; micro-batch fairness has its own tests in
    // `tests/batched_execution.rs` and the scheduler unit tests.
    let service = QmlService::with_config(
        ServiceConfig::with_workers(2)
            .with_max_batch(1)
            .with_tracing(true),
    );

    // Tenant "whale": a 48-point seeded sweep, admitted before the pool
    // starts so its queue is deep from the first dispatch.
    let mut sweep = SweepRequest::new("big", fixed_qaoa());
    for seed in 0..48 {
        sweep = sweep.with_context(gate_context(seed, 512));
    }
    let whale_batch = service.submit_sweep("whale", sweep).unwrap();

    let handle = service.start().unwrap();

    // Tenant "minnow": one small job submitted *while* the whale's sweep is
    // being executed.
    let (_, minnow_job) = service
        .submit("minnow", fixed_qaoa().with_context(gate_context(99, 64)))
        .unwrap();

    let status = service.wait_for(minnow_job, WAIT);
    assert!(
        matches!(status, Some(JobStatus::Completed)),
        "minnow job should complete, got {status:?}"
    );

    let summary = handle.drain();
    assert_eq!(summary.completed, 49, "everything still completes");
    assert_eq!(service.batch_jobs(whale_batch).len(), 48);

    // Fairness: at the moment the minnow's job completed, the whale's sweep
    // must not have finished — deficit round robin interleaved the minnow
    // instead of queueing it behind all 48 whale jobs.
    let order = outcome_order(&service.trace_events());
    let whale_done = order
        .iter()
        .take_while(|tenant| *tenant != "minnow")
        .filter(|tenant| *tenant == "whale")
        .count();
    assert!(
        whale_done < 48,
        "minnow waited for the whole whale sweep (whale_done = {whale_done})"
    );

    // The small tenant's submit→dispatch wait is bounded and recorded.
    let metrics = service.metrics();
    assert_eq!(metrics.per_tenant["minnow"].dispatched, 1);
    assert!(
        metrics.per_tenant["minnow"].mean_wait_seconds()
            <= metrics.per_tenant["whale"].mean_wait_seconds(),
        "minnow (wait {:.4}s) should not wait longer on average than the whale (wait {:.4}s)",
        metrics.per_tenant["minnow"].mean_wait_seconds(),
        metrics.per_tenant["whale"].mean_wait_seconds()
    );
}

#[test]
fn rate_limit_is_enforced_while_running() {
    // "limited" gets a burst-only bucket of 2 jobs and no sustained rate:
    // exactly two of its six jobs may dispatch while the service runs.
    let config = ServiceConfig::with_workers(2).with_tenant_policy(
        "limited",
        TenantPolicy::default().with_rate_limit(RateLimit {
            jobs_per_second: 0.0,
            burst: 2.0,
        }),
    );
    let service = QmlService::with_config(config);
    for seed in 0..6 {
        service
            .submit("limited", fixed_qaoa().with_context(gate_context(seed, 32)))
            .unwrap();
    }
    let handle = service.start().unwrap();

    // Wait for the burst to finish, then confirm the service holds steady.
    let deadline = std::time::Instant::now() + WAIT;
    while service.metrics().jobs_completed < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(50));
    let metrics = service.metrics();
    assert_eq!(metrics.jobs_completed, 2, "burst allows exactly two jobs");
    assert_eq!(metrics.queue_depth, 4, "the rest stay queued");
    assert!(
        metrics.per_tenant["limited"].throttled > 0,
        "throttle events are counted"
    );
    assert!(metrics.scheduler.throttled > 0);

    // Abort keeps the throttled jobs queued...
    let summary = handle.abort();
    assert_eq!(summary.completed, 2);
    assert_eq!(service.metrics().queue_depth, 4);

    // ...and a graceful drain waives rate limits so shutdown terminates.
    let report = service.run_pending();
    assert_eq!(report.completed, 4);
    assert_eq!(service.metrics().queue_depth, 0);
}

#[test]
fn drain_finishes_all_admitted_work() {
    // Even a rate-limited tenant drains fully: drain() waives rate limits so
    // graceful shutdown cannot hang on an empty token bucket.
    let config = ServiceConfig::with_workers(2).with_tenant_policy(
        "slow",
        TenantPolicy::default().with_rate_limit(RateLimit {
            jobs_per_second: 0.0,
            burst: 1.0,
        }),
    );
    let service = QmlService::with_config(config);
    let mut jobs = Vec::new();
    for seed in 0..8 {
        let (_, job) = service
            .submit("slow", fixed_qaoa().with_context(gate_context(seed, 32)))
            .unwrap();
        jobs.push(job);
    }
    let handle = service.start().unwrap();
    let summary = handle.drain();
    assert_eq!(summary.jobs, 8);
    assert_eq!(summary.completed, 8);
    assert_eq!(service.metrics().queue_depth, 0);
    for job in jobs {
        assert!(matches!(service.status(job), Some(JobStatus::Completed)));
    }
}

#[test]
fn abort_stops_at_the_next_job_boundary_and_restart_resumes() {
    // max_batch = 1: abort stops at the next *dispatch* boundary, and a
    // micro-batch is one dispatch — an uncontended tenant would drain all 12
    // jobs in two batches, racing the queue-depth assertion below. Solo
    // dispatches make the boundary a single job, which is what this test is
    // about.
    let service = QmlService::with_config(ServiceConfig::with_workers(1).with_max_batch(1));
    let mut jobs = Vec::new();
    // 8192-sample jobs: each takes long enough that the polling thread below
    // reliably lands its abort before the single worker drains all twelve (a
    // 512-sample queue could empty inside one oversleep of the 200µs poll).
    for seed in 0..12 {
        let (_, job) = service
            .submit(
                "tenant",
                fixed_qaoa().with_context(gate_context(seed, 8192)),
            )
            .unwrap();
        jobs.push(job);
    }
    let handle = service.start().unwrap();

    // Let at least one job finish, then pull the plug.
    let deadline = std::time::Instant::now() + WAIT;
    while service.metrics().jobs_completed < 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    let summary = handle.abort();

    // In-flight work finished (abort is a job-boundary stop, not a kill):
    // every job is either untouched (Queued) or fully Completed — never torn.
    assert!(summary.completed >= 1, "at least the first job finished");
    let after_abort = service.metrics();
    assert!(
        after_abort.queue_depth > 0,
        "abort must leave undispatched work queued"
    );
    for job in &jobs {
        assert!(
            matches!(
                service.status(*job),
                Some(JobStatus::Queued) | Some(JobStatus::Completed)
            ),
            "job {job:?} in unexpected state {:?}",
            service.status(*job)
        );
    }

    // A later run (here the one-shot wrapper) resumes the leftover queue.
    service.run_pending();
    assert_eq!(service.metrics().queue_depth, 0);
    assert_eq!(service.metrics().jobs_completed, 12);
}

#[test]
fn in_flight_cap_is_never_exceeded() {
    // Tenant "capped" may have at most 1 job executing even on a 4-wide
    // pool; tenant "free" keeps the other workers busy. Sample the in-flight
    // gauge continuously — it must never exceed the cap.
    let config = ServiceConfig::with_workers(4)
        .with_tenant_policy("capped", TenantPolicy::default().with_max_in_flight(1));
    let service = QmlService::with_config(config);
    for seed in 0..6 {
        service
            .submit("capped", fixed_qaoa().with_context(gate_context(seed, 256)))
            .unwrap();
        service
            .submit(
                "free",
                fixed_qaoa().with_context(gate_context(100 + seed, 256)),
            )
            .unwrap();
    }
    let handle = service.start().unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let service = service.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut max_seen = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if let Some(stats) = service.metrics().per_tenant.get("capped") {
                    max_seen = max_seen.max(stats.in_flight);
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            max_seen
        })
    };
    let summary = handle.drain();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let max_in_flight = sampler.join().unwrap();
    assert_eq!(summary.completed, 12);
    assert!(
        max_in_flight <= 1,
        "cap of 1 violated: saw {max_in_flight} in flight"
    );
}

#[test]
fn weighted_tenants_split_throughput_unevenly() {
    // Not a wall-clock assertion (single-CPU CI): check the *dispatch
    // ordering* — among the first half of dispatches, the weight-3 tenant
    // must own a clear majority.
    let config = ServiceConfig::with_workers(1)
        .with_tracing(true)
        .with_tenant_policy("heavy", TenantPolicy::default().with_weight(3.0));
    let service = QmlService::with_config(config);
    let mut heavy = SweepRequest::new("heavy", fixed_qaoa());
    let mut light = SweepRequest::new("light", fixed_qaoa());
    for seed in 0..16 {
        heavy = heavy.with_context(gate_context(seed, 64));
        light = light.with_context(gate_context(100 + seed, 64));
    }
    service.submit_sweep("heavy", heavy).unwrap();
    service.submit_sweep("light", light).unwrap();

    // A single worker: dispatch order == completion order, and the trace
    // records the completions in that order.
    service.start().unwrap().drain();
    let order = outcome_order(&service.trace_events());
    let heavy_last = order
        .iter()
        .rposition(|tenant| tenant == "heavy")
        .expect("heavy completed");
    let light_done_when_heavy_finished = order[..heavy_last]
        .iter()
        .filter(|tenant| *tenant == "light")
        .count();
    // With 3:1 weights the heavy tenant finishes its 16 jobs after roughly
    // 16/3 ≈ 5-6 light completions; equal weights would give ~16.
    assert!(
        light_done_when_heavy_finished <= 10,
        "3:1 weighting not visible: light completed {light_done_when_heavy_finished} \
         of 16 before heavy finished"
    );
    assert_eq!(service.metrics().jobs_completed, 32);
}
