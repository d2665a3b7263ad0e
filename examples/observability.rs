//! Observability walkthrough: run a two-tenant streaming workload with
//! per-job stage tracing enabled, follow one job submit→outcome through the
//! trace, and print the unified metrics snapshot — as greppable `key=value`
//! text and as one JSON line.
//!
//! Run with: `cargo run --release --example observability`

use std::time::Duration;

use qml_core::graph::cycle;
use qml_core::prelude::*;
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
    let program = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))?;

    // Tracing is off (and zero-cost) by default; one builder call turns the
    // bounded in-memory ring on.
    let service = QmlService::with_config(ServiceConfig::with_workers(2).with_tracing(true));
    let handle = service.start().expect("fresh service");

    // Tenant "sweeper" streams a 16-point sweep; tenant "probe" lands one
    // small job mid-sweep.
    let mut sweep = SweepRequest::new("scan", program.clone());
    for seed in 0..16 {
        sweep = sweep.with_context(gate_context(seed, 256));
    }
    service.submit_sweep("sweeper", sweep)?;
    let (_, probe_job) = service.submit("probe", program.with_context(gate_context(99, 64)))?;

    assert!(service.wait_idle(Duration::from_secs(60)));
    let summary = handle.drain();
    assert_eq!(summary.completed, 17);

    // Every retained stage event, oldest first. Each line is greppable:
    // `trace seq=.. at_us=.. job=.. stage=..` plus stage-specific fields.
    let events = service.trace_events();
    println!("--- probe job {probe_job:?}, submit -> outcome ---");
    for event in events.iter().filter(|e| e.job == probe_job.0) {
        println!("{event}");
    }
    println!("--- full stream: {} events ---", events.len());
    for event in &events {
        println!("{event}");
    }

    for stage in [
        "submitted",
        "admitted",
        "dispatched",
        "plan",
        "bound",
        "executed",
        "outcome",
    ] {
        let traced = events.iter().any(|e| e.stage.name() == stage);
        assert!(traced, "no `{stage}` event in the trace");
    }

    let stats = service.trace_stats();
    println!(
        "trace stats: recorded={} dropped={} capacity={}",
        stats.recorded, stats.dropped, stats.capacity
    );
    assert_eq!(stats.dropped, 0, "the default ring holds the whole run");

    // The unified snapshot: service totals + cost gauges + latency
    // percentiles + trace health, one versioned document.
    let snapshot = service.snapshot();
    let waits = &snapshot.latency.tenant_queue_wait;
    assert!(waits.values().any(|w| w.count > 0), "wait percentiles");
    print!("{}", snapshot.dump_kv());
    println!("snapshot jsonl: {}", snapshot.to_jsonl());
    println!("observability example: OK");
    Ok(())
}
