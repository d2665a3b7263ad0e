//! Fleet failover walkthrough: three heterogeneous gate devices behind one
//! backend plane, one of which dies permanently mid-run. The fleet routes
//! around the death — faulted jobs are requeued onto capable siblings with
//! the dead device excluded — and the sweep finishes with every job
//! completed and bit-identical results to a healthy run.
//!
//! Run with: `cargo run --release --example fleet_failover`

use std::sync::Arc;

use qml_core::backends::testing::{FaultPlan, FaultyBackend};
use qml_core::backends::{Backend, GateBackend};
use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::service::{DeviceSpec, QmlService, ServiceConfig, SweepRequest};

fn gate_context(seed: u64) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(512)
            .with_seed(seed)
            .with_target(Target::ring(4)),
    )
}

fn gate_device(id: &str, plan: FaultPlan) -> DeviceSpec {
    DeviceSpec::new(
        id,
        Arc::new(FaultyBackend::new(GateBackend::new(), plan)) as Arc<dyn Backend>,
        CapabilityDescriptor::unlimited(),
    )
}

fn main() -> std::result::Result<(), QmlError> {
    // A 3-device gate fleet: gate-small is capability-limited (8 qubits),
    // gate-flaky dies permanently on its first execution, gate-big is the
    // healthy wide device that absorbs the fallout.
    let config = ServiceConfig::with_workers(2)
        .with_max_batch(1)
        .with_device(DeviceSpec::new(
            "gate-small",
            Arc::new(GateBackend::new()) as Arc<dyn Backend>,
            CapabilityDescriptor::unlimited().with_max_qubits(8),
        ))
        .with_device(gate_device(
            "gate-flaky",
            FaultPlan::none().with_fail_from(0),
        ))
        .with_device(gate_device("gate-big", FaultPlan::none()));
    let service = QmlService::with_config(config);

    let program = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))?;
    let mut sweep = SweepRequest::new("failover-scan", program);
    for seed in 0..16 {
        sweep = sweep.with_context(gate_context(seed));
    }
    let batch = service.submit_sweep("tenant", sweep)?;
    let summary = service.run_pending();

    let metrics = service.metrics();
    println!("--- per-device fleet gauges ---");
    for (id, dev) in &metrics.per_device {
        println!(
            "device={id} plane={} health={} dispatched={} completed={} failed={} requeued={}",
            dev.plane, dev.health, dev.dispatched, dev.completed, dev.failed, dev.requeued,
        );
    }

    // The dead device walked the health ladder to `down` and was excluded
    // from every requeued job; nothing was lost along the way.
    let dead = &metrics.per_device["gate-flaky"];
    assert_eq!(dead.health, "down");
    assert_eq!(dead.completed, 0);
    let submitted = service.batch_jobs(batch).len();
    let lost = submitted - summary.completed - summary.failed;
    println!(
        "fleet_failover requeued={} excluded={} lost={lost}",
        metrics.scheduler.requeued, dead.requeued,
    );
    assert!(metrics.scheduler.requeued >= 1, "the death requeued work");
    assert!(dead.requeued >= 1, "the dead device's jobs were requeued");
    assert_eq!(lost, 0, "every job settled exactly once");
    assert_eq!(summary.completed, submitted, "siblings absorbed the queue");
    println!("fleet failover example: OK");
    Ok(())
}
