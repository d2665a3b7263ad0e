//! Micro-batched dispatch walkthrough: a single tenant's seeded restart
//! sweep is coalesced into micro-batches by the fair scheduler, the whole
//! sweep shares ONE transpiled plan even on a cold cache, and an
//! annealing shot ladder shares one lowered BQM the same way.
//!
//! Run with: `cargo run --release --example batched_sweep`
//!
//! The example asserts that the cold-cache batched sweep reports exactly one
//! gate-plan miss and the ladder one anneal-plan miss.

use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::service::{QmlService, ServiceConfig, SweepRequest};

const POINTS: u64 = 16;
const READS: [u64; 4] = [50, 100, 200, 400];

fn gate_context(seed: u64) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(256)
            .with_seed(seed)
            .with_target(Target::ring(4)),
    )
}

fn main() -> std::result::Result<(), QmlError> {
    let program = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))?;

    // max_batch 8: up to eight plan-compatible jobs ride one dispatch (one
    // scheduler round-trip); the worker runs each as its own backend call,
    // and the plan cache realizes their shared plan once.
    let service = QmlService::with_config(ServiceConfig::with_workers(2).with_max_batch(8));

    // One program, 16 seeded restarts: every job shares a gate-plan key, so
    // the (uncontended) tenant's queue coalesces into micro-batches.
    let mut sweep = SweepRequest::new("restarts", program);
    for seed in 0..POINTS {
        sweep = sweep.with_context(gate_context(seed));
    }
    let batch = service.submit_sweep("tenant", sweep)?;

    // An annealing shot ladder from the same tenant: one Ising problem under
    // four read policies — one BQM lowering, one shared schedule.
    let ising = maxcut_ising_program(&cycle(4))?;
    for reads in READS {
        service.submit(
            "tenant",
            ising.clone().with_context(ContextDescriptor::for_anneal(
                "anneal.neal_simulator",
                AnnealConfig::with_reads(reads),
            )),
        )?;
    }

    let report = service.run_pending();
    assert_eq!(report.completed, (POINTS + READS.len() as u64) as usize);
    for job in service.batch_jobs(batch) {
        let result = service.result(job).expect("sweep job completed");
        assert_eq!(result.shots, 256);
    }

    let metrics = service.metrics();
    let gate = metrics.gate_cache;
    let anneal = metrics.anneal_cache;
    let sched = metrics.scheduler;

    println!(
        "batched-sweep gate-plan cache: misses={} hits={} (cold cache, {POINTS}-point sweep)",
        gate.misses, gate.hits
    );
    println!(
        "batched-sweep anneal-plan cache: misses={} hits={} ({}-rung read ladder)",
        anneal.misses,
        anneal.hits,
        READS.len()
    );
    println!(
        "micro-batches: formed={} batched_jobs={} solo={} mean_size={:.1}",
        sched.batches,
        sched.batched_jobs,
        sched.solo_jobs(),
        sched.mean_batch_size()
    );

    assert_eq!(gate.misses, 1, "the whole sweep shares one transpilation");
    assert_eq!(gate.hits, POINTS - 1);
    assert_eq!(anneal.misses, 1, "the ladder shares one BQM lowering");
    assert!(
        sched.batches >= 1,
        "plan-compatible traffic must form micro-batches"
    );
    assert!(sched.mean_batch_size() >= 2.0);

    println!("batched sweep example: OK");
    Ok(())
}
