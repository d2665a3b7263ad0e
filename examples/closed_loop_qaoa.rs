//! Closed-loop variational QAOA under the latency service class: an
//! optimizer submits one evaluation at a time, awaits its measured
//! objective, and proposes the next angles — first against an idle service,
//! then with a saturating throughput sweep from another tenant in the
//! background. The latency class keeps the interactive loop responsive, and
//! seeded execution plus a deterministic optimizer make the two optimization
//! trajectories bit-identical.
//!
//! Run with: `cargo run --release --example closed_loop_qaoa`

use std::time::{Duration, Instant};

use qml_core::algorithms::PatternSearch;
use qml_core::graph::{cut_value_of_bitstring, cycle, Graph};
use qml_core::prelude::*;
use qml_core::service::{QmlService, ServiceConfig, SweepRequest};

fn gate_context(seed: u64, samples: u64) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(samples)
            .with_seed(seed)
            .with_target(Target::ring(6)),
    )
}

/// Drive one full pattern search through the running service: each
/// evaluation binds the proposed angles onto the shared symbolic program
/// (one transpilation serves every iteration), submits it latency-class,
/// and blocks on the measured expected cut. Seeds depend only on the
/// evaluation index, so two runs observe identical objectives.
fn optimize(
    service: &QmlService,
    graph: &Graph,
    program: &JobBundle,
) -> Result<(PatternSearch, Duration)> {
    let mut search = PatternSearch::new(
        QaoaAngles {
            gamma: 0.1,
            beta: 1.0,
        },
        0.4,
        0.05,
    );
    let started = Instant::now();
    while let Some(angles) = search.next_angles() {
        let eval = search.evaluations() as u64;
        let bundle = program
            .clone()
            .with_bindings(
                BindingSet::new()
                    .with("gamma_0", angles.gamma)
                    .with("beta_0", angles.beta),
            )
            .with_service_class(ServiceClass::latency())
            .with_context(gate_context(1000 + eval, 4096));
        let (_, job) = service.submit("opt", bundle)?;
        service.wait_for(job, Duration::from_secs(60));
        let result = service
            .result(job)
            .ok_or_else(|| QmlError::Validation("closed-loop evaluation failed".into()))?;
        search.observe(result.expectation(|word| cut_value_of_bitstring(graph, word)));
    }
    Ok((search, started.elapsed()))
}

fn main() -> std::result::Result<(), QmlError> {
    let graph = cycle(6);
    // One symbolic program for the whole optimization: angles ride as
    // BindingSets, so every evaluation shares a single transpiled plan.
    let program = qaoa_maxcut_program(&graph, &QaoaSchedule::Symbolic { layers: 1 })?;

    let service = QmlService::with_config(ServiceConfig::with_workers(2));
    let handle = service.start().expect("fresh service");

    // Phase 1: closed loop against an idle service.
    let (idle, idle_wall) = optimize(&service, &graph, &program)?;
    let (best, value) = idle.best();
    println!(
        "idle run: {} evaluations in {:.1} ms, best cut {:.3} at gamma={:.4} beta={:.4}",
        idle.evaluations(),
        idle_wall.as_secs_f64() * 1e3,
        value,
        best.gamma,
        best.beta,
    );

    // Phase 2: tenant "whale" saturates the pool with a throughput-class
    // sweep (fixed angles — background load needs no binding), then the
    // same optimization runs again from scratch.
    let background = qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))?;
    let mut sweep = SweepRequest::new("whale-background", background);
    for seed in 0..1500 {
        sweep = sweep.with_context(gate_context(seed, 32));
    }
    service.submit_sweep("whale", sweep)?;
    let (loaded, loaded_wall) = optimize(&service, &graph, &program)?;
    let ratio = loaded_wall.as_secs_f64() / idle_wall.as_secs_f64().max(1e-9);
    println!(
        "loaded run: {} evaluations in {:.1} ms under a 1500-job background sweep \
         (x{ratio:.2} the idle wall)",
        loaded.evaluations(),
        loaded_wall.as_secs_f64() * 1e3,
    );

    // Seeded simulation + deterministic driver: the background load may slow
    // the loop down, but it must not change a single proposed angle or
    // observed objective.
    assert_eq!(idle.evaluations(), loaded.evaluations());
    for (a, b) in idle.trajectory().iter().zip(loaded.trajectory()) {
        assert_eq!(a.0.gamma.to_bits(), b.0.gamma.to_bits());
        assert_eq!(a.0.beta.to_bits(), b.0.beta.to_bits());
        assert_eq!(
            a.1.to_bits(),
            b.1.to_bits(),
            "objective diverged under load"
        );
    }

    assert!(service.wait_idle(Duration::from_secs(120)));
    let metrics = service.metrics();
    let latency = &metrics.per_class["latency"];
    let throughput = &metrics.per_class["throughput"];
    println!(
        "latency class: dispatched={} completed={} | throughput class: dispatched={} completed={}",
        latency.dispatched, latency.completed, throughput.dispatched, throughput.completed,
    );
    // Deadline-free latency jobs can never miss.
    println!("deadline_miss={}", latency.deadline_miss);
    assert_eq!(latency.deadline_miss, 0);
    println!(
        "converged={}",
        if idle.converged() && loaded.converged() {
            "ok"
        } else {
            "fail"
        }
    );
    assert!(idle.converged() && loaded.converged());

    let summary = handle.drain();
    println!(
        "drained {} jobs on {} workers ({:.0} jobs/s)",
        summary.jobs, summary.workers, summary.jobs_per_second,
    );
    println!("closed-loop qaoa example: OK");
    Ok(())
}
