//! Streaming-service walkthrough: start the long-lived worker pool, submit
//! jobs from *other threads while it runs* (no drain/restart between
//! submissions), watch the fair scheduler interleave a small tenant's job
//! into a large tenant's sweep, and shut down gracefully.
//!
//! Run with: `cargo run --release --example streaming_service`

use std::time::Duration;

use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::runtime::JobStatus;
use qml_core::service::{QmlService, ServiceConfig, SweepRequest};

fn gate_context(seed: u64, samples: u64) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(samples)
            .with_seed(seed)
            .with_target(Target::ring(4)),
    )
}

fn main() -> std::result::Result<(), QmlError> {
    let graph = cycle(4);
    let program = qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))?;

    // max_batch 1: this example demonstrates per-job DRR interleaving, so
    // micro-batching is pinned off — with batching on, an uncontended whale
    // can have its whole sweep claimed in a few batch dispatches before the
    // minnow's submitter thread is even scheduled, which is correct (it was
    // uncontended) but not the fairness story shown here. The batching
    // walkthrough lives in `examples/batched_sweep.rs`.
    let service = QmlService::with_config(ServiceConfig::with_workers(2).with_max_batch(1));

    // The service loop starts with an empty queue: workers are live and
    // waiting for work to stream in.
    let handle = service.start().expect("fresh service");
    println!("service started: streaming pool of 2 workers is live");

    // Tenant "whale" feeds a 32-point sweep from its own thread while the
    // pool is already running. Workers start the moment the sweep is
    // admitted, so each point samples 32 768 shots: the sweep (~35 ms on 2
    // vCPUs) must outlast the scheduling of the minnow's submitter thread,
    // which 32 points of 4 096 shots (~5 ms) often do not.
    let whale = {
        let service = service.clone();
        let program = program.clone();
        std::thread::spawn(move || {
            let mut sweep = SweepRequest::new("whale-scan", program);
            for seed in 0..32 {
                sweep = sweep.with_context(gate_context(seed, 32768));
            }
            service.submit_sweep("whale", sweep).unwrap()
        })
    };
    let whale_batch = whale.join().expect("whale submitter");

    // Tenant "minnow" submits one small job from another thread mid-sweep.
    // Deficit round robin interleaves it instead of parking it behind the
    // whale's whole queue.
    let minnow = {
        let service = service.clone();
        let program = program.clone();
        std::thread::spawn(move || {
            service
                .submit("minnow", program.with_context(gate_context(99, 64)))
                .unwrap()
        })
    };
    let (_, minnow_job) = minnow.join().expect("minnow submitter");

    let status = service.wait_for(minnow_job, Duration::from_secs(60));
    let whale_done_at_minnow = service
        .batch_jobs(whale_batch)
        .iter()
        .filter(|id| matches!(service.status(**id), Some(JobStatus::Completed)))
        .count();
    println!(
        "minnow job finished ({status:?}) while the whale sweep was at {whale_done_at_minnow}/32"
    );
    assert!(
        matches!(status, Some(JobStatus::Completed)),
        "minnow job must complete while the service runs"
    );
    assert!(
        whale_done_at_minnow < 32,
        "fair scheduling: the minnow must not wait out the whole whale sweep"
    );

    // Everything submitted while running completes without a restart.
    assert!(service.wait_idle(Duration::from_secs(60)));
    let summary = handle.drain();
    println!(
        "streaming drain: {} jobs on {} workers in {:.1} ms ({:.0} jobs/s)",
        summary.jobs,
        summary.workers,
        summary.wall_seconds * 1e3,
        summary.jobs_per_second,
    );
    assert_eq!(summary.completed, 33, "32 whale points + 1 minnow job");

    let metrics = service.metrics();
    println!(
        "fair-scheduler counters: rounds={} dispatched={} idle_polls={}",
        metrics.scheduler.rounds, metrics.scheduler.dispatched, metrics.scheduler.idle_polls
    );
    for (tenant, stats) in &metrics.per_tenant {
        println!(
            "tenant {tenant}: completed={} mean submit->dispatch wait={:.3} ms",
            stats.completed,
            stats.mean_wait_seconds() * 1e3
        );
    }
    println!("streaming service example: OK");
    Ok(())
}
