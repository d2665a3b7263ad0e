//! Deterministic fleet failover end-to-end tests (PR 8).
//!
//! The tentpole invariant: **a device death mid-sweep is absorbed by the
//! fleet without touching results**. Gate sampling seeds derive from the
//! bundle, never from device identity, so a job requeued off a dead device
//! and re-executed on a healthy sibling must produce bit-identical counts to
//! a run where nothing ever failed. Alongside: a downed device receives zero
//! dispatches once excluded, transient faults heal through recovery probes,
//! and measured-cost fairness bands hold with the fleet enabled.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qml_core::backends::testing::{FaultPlan, FaultyBackend};
use qml_core::backends::{Backend, ExecutionResult, GateBackend};
use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::runtime::JobStatus;
use qml_core::service::{BatchId, DeviceSpec, QmlService, ServiceConfig, SweepRequest};

const PLANE: &str = "qml-gate-simulator";
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

fn qaoa_sweep(name: &str, seeds: std::ops::Range<u64>) -> SweepRequest {
    let mut sweep = SweepRequest::new(name, fixed_qaoa());
    for seed in seeds {
        sweep = sweep.with_context(gate_context(seed, 256));
    }
    sweep
}

fn gate_device(id: &str, plan: FaultPlan) -> DeviceSpec {
    DeviceSpec::new(
        id,
        Arc::new(FaultyBackend::new(GateBackend::new(), plan)) as Arc<dyn Backend>,
        CapabilityDescriptor::unlimited(),
    )
}

/// Per-job results of a batch, in expansion order.
fn results_of(service: &QmlService, batch: BatchId) -> Vec<ExecutionResult> {
    service
        .batch_jobs(batch)
        .into_iter()
        .map(|id| service.result(id).expect("job completed"))
        .collect()
}

#[test]
fn mid_sweep_device_death_is_absorbed_bit_for_bit() {
    // Baseline: the same sweep on a healthy single-device plane.
    let baseline = QmlService::with_config(ServiceConfig::with_workers(1).with_max_batch(1));
    let baseline_batch = baseline
        .submit_sweep("tenant", qaoa_sweep("scan", 0..8))
        .unwrap();
    assert_eq!(baseline.run_pending().completed, 8);
    let expected = results_of(&baseline, baseline_batch);

    // Fleet of three: gate-b dies on its very first execution (a permanent
    // fault), so it faults once (degraded), faults again (down), and must
    // never be dispatched to again.
    let config = ServiceConfig::with_workers(1)
        .with_max_batch(1)
        .with_device(gate_device("gate-a", FaultPlan::none()))
        .with_device(gate_device("gate-b", FaultPlan::none().with_fail_from(0)))
        .with_device(gate_device("gate-c", FaultPlan::none()));
    let service = QmlService::with_config(config);
    let batch = service
        .submit_sweep("tenant", qaoa_sweep("scan", 0..8))
        .unwrap();
    let summary = service.run_pending();
    assert_eq!(summary.completed, 8, "the fleet absorbs the dead device");
    assert_eq!(summary.failed, 0);

    // Results are bit-identical to the healthy run: requeued jobs sampled
    // from the same bundle-derived seeds on their rescue device.
    let got = results_of(&service, batch);
    for (i, (a, b)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(a.counts, b.counts, "job {i} diverged from healthy baseline");
        assert_eq!(a.shots, b.shots);
    }

    // Exactly-once failover accounting: gate-b saw exactly its two faulted
    // attempts (one to degrade, one to go down), each requeued away once.
    let metrics = service.metrics();
    assert_eq!(metrics.scheduler.requeued, 2);
    let dead = &metrics.per_device["gate-b"];
    assert_eq!(dead.health, "down");
    assert_eq!(dead.dispatched, 2);
    assert_eq!(dead.failed, 2);
    assert_eq!(dead.completed, 0);
    assert_eq!(dead.requeued, 2);
    let completed: u64 = metrics
        .per_device
        .values()
        .filter(|d| d.plane == PLANE)
        .map(|d| d.completed)
        .sum();
    assert_eq!(completed, 8, "every job completed on exactly one device");

    // Zero dispatches after exclusion: fresh traffic never touches the
    // downed device (probing is disabled by default).
    let batch2 = service
        .submit_sweep("tenant", qaoa_sweep("scan2", 100..104))
        .unwrap();
    assert_eq!(service.run_pending().completed, 4);
    assert_eq!(results_of(&service, batch2).len(), 4);
    let after = service.device_metrics();
    assert_eq!(
        after["gate-b"].dispatched, 2,
        "a down device receives zero dispatches"
    );
}

#[test]
fn transient_fault_heals_through_a_recovery_probe() {
    // gate-a faults on its first two executions, which takes it down at
    // the fleet's down threshold of two consecutive faults; a probe every 3
    // settled outcomes then rehabilitates it.
    let config = ServiceConfig::with_workers(1)
        .with_max_batch(1)
        .with_probe_interval(3)
        .with_device(gate_device(
            "gate-a",
            FaultPlan::none().with_fail_nth([0, 1]),
        ))
        .with_device(gate_device("gate-b", FaultPlan::none()));
    let service = QmlService::with_config(config);
    service
        .submit_sweep("tenant", qaoa_sweep("heal", 0..12))
        .unwrap();
    let summary = service.run_pending();
    assert_eq!(summary.completed, 12);
    assert_eq!(summary.failed, 0);

    let metrics = service.metrics();
    assert_eq!(
        metrics.scheduler.requeued, 2,
        "each of the two faulted attempts requeued once"
    );
    let healed = &metrics.per_device["gate-a"];
    assert_eq!(
        healed.health, "healthy",
        "the probe rehabilitated the device"
    );
    assert!(
        healed.completed >= 1,
        "a successful probe re-admits the device to the rotation"
    );
}

#[test]
fn per_job_device_attribution_points_at_the_executing_device() {
    let config = ServiceConfig::with_workers(1)
        .with_max_batch(1)
        .with_device(gate_device("gate-a", FaultPlan::none()))
        .with_device(gate_device("gate-b", FaultPlan::none()));
    let service = QmlService::with_config(config);
    let batch = service
        .submit_sweep("tenant", qaoa_sweep("attr", 0..6))
        .unwrap();
    assert_eq!(service.run_pending().completed, 6);

    let mut per_device: BTreeMap<String, u64> = BTreeMap::new();
    for id in service.batch_jobs(batch) {
        let device = service
            .device_of(id)
            .expect("terminal outcomes are attributed");
        *per_device.entry(device.to_string()).or_default() += 1;
    }
    // Attribution totals agree with the devices' own completion gauges.
    let snapshot = service.device_metrics();
    for (device, jobs) in &per_device {
        assert_eq!(snapshot[device].completed, *jobs);
    }
    assert_eq!(per_device.values().sum::<u64>(), 6);
    assert!(
        per_device.len() >= 2,
        "history-less routing explores both devices: {per_device:?}"
    );
}

#[test]
fn a_job_being_failed_over_never_reads_failed() {
    // gate-a faults every other execution and gate-b is healthy, so with
    // solo dispatches on two workers a steady share of jobs fails over from
    // gate-a to gate-b. A poller reads every job's status for the whole
    // run: a job between its faulted attempt and its rescue is queued
    // again, and must never read as failed, even for an instant.
    const JOBS: u64 = 48;
    const ROUNDS: usize = 4;
    for round in 0..ROUNDS {
        let config = ServiceConfig::with_workers(2)
            .with_max_batch(1)
            .with_probe_interval(2)
            .with_device(gate_device(
                "gate-a",
                FaultPlan::none().with_fail_nth((0..4 * JOBS).step_by(2)),
            ))
            .with_device(gate_device("gate-b", FaultPlan::none()));
        let service = QmlService::with_config(config);
        let batch = service
            .submit_sweep("tenant", qaoa_sweep("flap", 0..JOBS))
            .unwrap();
        let jobs = service.batch_jobs(batch);
        let running = AtomicBool::new(true);
        let (summary, failed_reads) = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut failed_reads = 0usize;
                while running.load(Ordering::Acquire) {
                    for &id in &jobs {
                        if let Some(JobStatus::Failed(_)) = service.status(id) {
                            failed_reads += 1;
                        }
                    }
                }
                failed_reads
            });
            let summary = service.start().unwrap().drain();
            running.store(false, Ordering::Release);
            (summary, poller.join().unwrap())
        });
        assert_eq!(
            failed_reads, 0,
            "round {round}: a job being failed over was read as failed"
        );
        assert_eq!(summary.completed, JOBS as usize, "round {round}");
        assert_eq!(summary.failed, 0, "round {round}");
        assert!(service.metrics().scheduler.requeued > 0, "round {round}");
        for id in jobs {
            assert_eq!(service.status(id), Some(JobStatus::Completed));
        }
    }
}

/// The same with-fleet workload as `tests/measured_fairness.rs`: two tenants
/// of equal weight, one sandbagging its cost hints. Submit `jobs` per tenant
/// interleaved, run on one worker until `sample_at` jobs completed, abort,
/// and return per-tenant (busy-seconds, completed).
fn run_mis_estimated_fleet(jobs: u64, sample_at: u64) -> ((f64, u64), (f64, u64)) {
    let hintless = {
        let mut bundle = fixed_qaoa();
        for op in Arc::make_mut(&mut bundle.operators) {
            op.cost_hint = None;
        }
        bundle
    };
    let config = ServiceConfig::with_workers(1)
        .with_max_batch(1)
        .with_device(gate_device("gate-a", FaultPlan::none()))
        .with_device(gate_device("gate-b", FaultPlan::none()))
        .with_device(gate_device("gate-c", FaultPlan::none()));
    let service = QmlService::with_config(config);
    for i in 0..jobs {
        service
            .submit(
                "sandbagged",
                hintless.clone().with_context(gate_context(i, 4096)),
            )
            .unwrap();
        service
            .submit(
                "honest",
                fixed_qaoa().with_context(gate_context(1000 + i, 4096)),
            )
            .unwrap();
    }
    let handle = service.start().unwrap();
    let deadline = Instant::now() + WAIT;
    while service.metrics().jobs_completed < sample_at && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(500));
    }
    handle.abort();
    let metrics = service.metrics();
    let sand = &metrics.per_tenant["sandbagged"];
    let honest = &metrics.per_tenant["honest"];
    (
        (sand.busy_seconds, sand.completed),
        (honest.busy_seconds, honest.completed),
    )
}

#[test]
fn measured_fairness_bands_hold_with_the_fleet_enabled() {
    // The fleet layer must not perturb measured-cost fairness: equal-weight
    // tenants still converge to comparable busy-seconds even when one
    // under-states its costs — now across three devices instead of one.
    let ((sand_busy, sand_done), (honest_busy, honest_done)) = run_mis_estimated_fleet(200, 150);
    assert!(
        sand_done >= 10 && honest_done >= 10,
        "both tenants must make progress mid-run (sandbagged {sand_done}, honest {honest_done})"
    );
    let ratio = (sand_busy + 1e-9) / (honest_busy + 1e-9);
    assert!(
        (1.0 / 3.0..=3.0).contains(&ratio),
        "equal weights must mean comparable busy-seconds with the fleet on; \
         got ratio {ratio:.2} ({sand_busy:.4}s over {sand_done} jobs vs \
         {honest_busy:.4}s over {honest_done})"
    );
}
