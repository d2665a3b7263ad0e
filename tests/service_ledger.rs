//! The service ledger conserves: at every point where no pool runs, each
//! submitted job is queued, in flight, completed or failed — exactly once —
//! and every breakdown of the totals (per tenant, per class, per run) adds
//! back up to them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qml_core::backends::testing::{FaultPlan, FaultyBackend};
use qml_core::backends::{Backend, GateBackend};
use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::runtime::{JobId, JobStatus};
use qml_core::service::{
    DeviceSpec, QmlService, RateLimit, ServiceConfig, ServiceMetrics, SweepRequest, TenantPolicy,
};

const WAIT: Duration = Duration::from_secs(60);

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

fn sweep(name: &str, seeds: std::ops::Range<u64>, samples: u64) -> SweepRequest {
    seeds.fold(SweepRequest::new(name, fixed_qaoa()), |sweep, seed| {
        sweep.with_context(gate_context(seed, samples))
    })
}

fn gate_device(id: &str, plan: FaultPlan) -> DeviceSpec {
    DeviceSpec::new(
        id,
        Arc::new(FaultyBackend::new(GateBackend::new(), plan)) as Arc<dyn Backend>,
        CapabilityDescriptor::unlimited(),
    )
    .with_concurrency(1)
}

/// Jobs whose runtime status is `Queued`.
fn queued_statuses(service: &QmlService, jobs: &[JobId]) -> usize {
    jobs.iter()
        .filter(|id| service.status(**id) == Some(JobStatus::Queued))
        .count()
}

/// Poll until `done` holds for the metrics, or fail after [`WAIT`].
fn wait_until(service: &QmlService, done: impl Fn(&ServiceMetrics) -> bool) {
    let deadline = Instant::now() + WAIT;
    while !done(&service.metrics()) {
        assert!(
            Instant::now() < deadline,
            "timed out: {:#?}",
            service.metrics()
        );
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Check the conservation laws on a stopped service and return the metrics.
fn assert_conserves(service: &QmlService, at: &str) -> ServiceMetrics {
    let m = service.metrics();
    // A job in flight holds a device slot; a job waiting for one is queued.
    let executing: u64 = m.per_device.values().map(|d| d.in_flight).sum();
    assert_eq!(
        m.jobs_submitted,
        m.queue_depth as u64 + executing + m.jobs_completed + m.jobs_failed,
        "{at}: submitted = queued + in flight + completed + failed ({m:?})"
    );
    let tenants = m.per_tenant.values();
    assert_eq!(
        tenants.clone().map(|t| t.in_flight).sum::<u64>(),
        executing,
        "{at}: per-tenant in flight = per-device in flight"
    );
    assert_eq!(
        tenants.clone().map(|t| t.submitted).sum::<u64>(),
        m.jobs_submitted,
        "{at}: per-tenant submitted"
    );
    assert_eq!(
        tenants.clone().map(|t| t.completed).sum::<u64>(),
        m.jobs_completed,
        "{at}: per-tenant completed"
    );
    assert_eq!(
        tenants.map(|t| t.failed).sum::<u64>(),
        m.jobs_failed,
        "{at}: per-tenant failed"
    );
    let classes = m.per_class.values();
    assert_eq!(
        classes.clone().map(|c| c.completed).sum::<u64>(),
        m.jobs_completed,
        "{at}: per-class completed"
    );
    assert_eq!(
        classes.map(|c| c.failed).sum::<u64>(),
        m.jobs_failed,
        "{at}: per-class failed"
    );
    m
}

#[test]
fn the_ledger_conserves_through_faults_abort_and_restart() {
    // Two concurrency-1 devices on the gate plane. Each faults its first
    // execution (a failover requeue onto the sibling) and panics at its
    // fourth (a terminal failure of that one job); 18 jobs guarantee
    // at least one device reaches it.
    let faults = || FaultPlan::none().with_fail_nth([0]).with_panic_nth([3]);
    // Tenant beta is burst-only: two of its fresh jobs dispatch while the
    // pool runs, and at least the other four wait for the drain.
    let config = ServiceConfig::with_workers(2)
        .with_device(gate_device("dev-a", faults()))
        .with_device(gate_device("dev-b", faults()))
        .with_tenant_policy(
            "beta",
            TenantPolicy::default().with_rate_limit(RateLimit {
                jobs_per_second: 0.0,
                burst: 2.0,
            }),
        );
    let service = QmlService::with_config(config);
    let mut jobs = service.batch_jobs(
        service
            .submit_sweep("alpha", sweep("alpha-scan", 0..10, 256))
            .unwrap(),
    );
    for seed in 10..12 {
        let probe = fixed_qaoa()
            .with_context(gate_context(seed, 64))
            .with_service_class(ServiceClass::latency());
        jobs.push(service.submit("alpha", probe).unwrap().1);
    }
    jobs.extend(
        service.batch_jobs(
            service
                .submit_sweep("beta", sweep("beta-scan", 20..26, 256))
                .unwrap(),
        ),
    );

    let before = assert_conserves(&service, "before start");
    assert_eq!(before.jobs_submitted, 18);
    assert_eq!(before.queue_depth, 18);
    assert_eq!(queued_statuses(&service, &jobs), 18);

    // Run until all of alpha's jobs settled, then abort.
    let handle = service.start().unwrap();
    wait_until(&service, |m| {
        let alpha = &m.per_tenant["alpha"];
        alpha.completed + alpha.failed == 12
    });
    let first = handle.abort();
    let after_abort = assert_conserves(&service, "after abort");
    assert_eq!(
        first.jobs as u64,
        after_abort.jobs_completed + after_abort.jobs_failed,
        "the first run counts every outcome so far"
    );
    assert_eq!(first.jobs, first.completed + first.failed);
    assert!(after_abort.queue_depth >= 4, "beta's throttled remainder");
    assert_eq!(queued_statuses(&service, &jobs), after_abort.queue_depth);
    assert_eq!(after_abort.last_run, Some(first));

    // Restart and drain: the drain waives beta's rate limit.
    let second = service.start().unwrap().drain();
    let after_drain = assert_conserves(&service, "after drain");
    assert_eq!(
        second.jobs as u64,
        after_drain.jobs_completed + after_drain.jobs_failed
            - after_abort.jobs_completed
            - after_abort.jobs_failed,
        "the second run counts only its own outcomes"
    );
    assert_eq!(second.jobs, second.completed + second.failed);
    assert_eq!(
        first.jobs + second.jobs,
        18,
        "the runs add up to the totals"
    );
    assert_eq!(after_drain.queue_depth, 0);
    assert_eq!(queued_statuses(&service, &jobs), 0);
    assert_eq!(
        (first.completed + second.completed) as u64,
        after_drain.jobs_completed
    );
    assert_eq!(
        (first.failed + second.failed) as u64,
        after_drain.jobs_failed
    );
    assert_eq!(after_drain.per_tenant["alpha"].submitted, 12);
    assert_eq!(after_drain.per_tenant["beta"].submitted, 6);
    let latency = &after_drain.per_class["latency"];
    assert_eq!(latency.completed + latency.failed, 2);

    // The schedule exercised what it claims to.
    assert!(after_drain.scheduler.requeued > 0, "a failover requeue");
    assert!(after_drain.jobs_failed > 0, "a backend panic");
}

#[test]
fn a_job_waits_in_its_tenant_queue_until_a_device_slot_frees() {
    // One concurrency-1 device fed by two workers, solo dispatches: while
    // one worker runs a long job, the other finds no free slot and the next
    // job waits in its tenant's queue, so the device never runs more than
    // one member and the tenant's in-flight count is the device's.
    let config = ServiceConfig::with_workers(2)
        .with_max_batch(1)
        .with_device(gate_device("dev", FaultPlan::none()));
    let service = QmlService::with_config(config);
    // Equal costs dispatch in submission order: the long job runs first.
    let long = fixed_qaoa().with_context(gate_context(0, 1 << 20));
    let mut jobs = vec![service.submit("tenant", long).unwrap().1];
    jobs.extend(
        service.batch_jobs(
            service
                .submit_sweep("tenant", sweep("scan", 1..12, 1024))
                .unwrap(),
        ),
    );
    assert_eq!(service.metrics().queue_depth, 12);
    assert_eq!(queued_statuses(&service, &jobs), 12, "before start");

    // Run until two jobs settled, checking the slot bound on every poll.
    let handle = service.start().unwrap();
    wait_until(&service, |m| {
        let device = m.per_device["dev"].in_flight;
        assert!(device <= 1, "a one-slot device runs {device} members");
        assert_eq!(m.per_tenant["tenant"].in_flight, device);
        m.jobs_completed >= 2
    });
    handle.abort();
    let after_abort = assert_conserves(&service, "after abort");
    assert_eq!(after_abort.per_device["dev"].in_flight, 0);
    assert_eq!(after_abort.per_tenant["tenant"].in_flight, 0);
    assert_eq!(
        after_abort.queue_depth,
        queued_statuses(&service, &jobs),
        "after abort"
    );

    service.start().unwrap().drain();
    let after_drain = assert_conserves(&service, "after drain");
    assert_eq!(after_drain.queue_depth, 0);
    assert_eq!(after_drain.jobs_completed, 12);
    assert_eq!(after_drain.per_device["dev"].dispatched, 12);
    assert_eq!(queued_statuses(&service, &jobs), 0, "after drain");
}
