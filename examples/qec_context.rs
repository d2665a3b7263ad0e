//! Listing 5 / §4.3.2 reproduction: error correction as execution context.
//!
//! The same QAOA program runs unmodified with and without a `qec` block in
//! its context; what changes is the resource estimate produced by the
//! orthogonal QEC service, not the program's semantics. The example also runs
//! the executable repetition-code demonstrator to show the error suppression
//! a growing code distance buys.
//!
//! Run with: `cargo run --release --example qec_context`

use qml_core::prelude::*;
use qml_core::qec::{QecService, RepetitionCode, SurfaceCode};
use qml_core::types::QecConfig;

fn main() -> Result<()> {
    let graph = qml_core::graph::cycle(4);
    let bundle = qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))?;

    let base_ctx = ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(2048)
            .with_seed(42)
            .with_target(Target::ring(4))
            .with_optimization_level(2),
    );

    let runtime = Runtime::with_default_backends();
    let plain_id = runtime.submit(bundle.clone().with_context(base_ctx.clone()))?;
    let qec_id = runtime.submit(bundle.with_context(base_ctx.with_qec(QecConfig::surface(7))))?;
    let plain = runtime.run_job(plain_id)?;
    let protected = runtime.run_job(qec_id)?;

    println!("semantics are untouched by the QEC context:");
    println!(
        "  identical counts: {}",
        if plain.counts == protected.counts {
            "yes"
        } else {
            "NO"
        }
    );

    println!("\nListing 5 policy (surface code, distance 7):");
    let estimate = protected.qec_estimate.unwrap();
    println!(
        "  logical qubits               : {}",
        estimate.logical_qubits
    );
    println!(
        "  physical qubits (with routing): {}",
        estimate.physical_qubits
    );
    println!(
        "  syndrome rounds               : {}",
        estimate.syndrome_rounds
    );
    println!(
        "  workload failure probability  : {:.2e}",
        estimate.workload_failure_probability
    );

    println!("\nsurface-code scaling at p = 1e-3 (threshold 1e-2):");
    println!(
        "  {:>8} {:>18} {:>22}",
        "distance", "physical/logical", "logical error rate"
    );
    for d in [3usize, 5, 7, 9, 11] {
        let code = SurfaceCode::new(d, 1e-3);
        println!(
            "  {:>8} {:>18} {:>22.3e}",
            d,
            code.physical_qubits_per_logical(),
            code.logical_error_rate()
        );
    }

    println!("\nexecutable repetition-code demonstrator (bit-flip noise p = 0.05):");
    println!(
        "  {:>8} {:>14} {:>14}",
        "distance", "analytic", "monte carlo"
    );
    for d in [1usize, 3, 5, 7, 9] {
        let code = RepetitionCode::new(d);
        println!(
            "  {:>8} {:>14.5} {:>14.5}",
            d,
            code.analytic_logical_error_rate(0.05),
            code.simulate_logical_error_rate(0.05, 100_000, 7)
        );
    }

    // The service also polices the fault-tolerant gate set of the policy.
    let service = QecService::from_config(&QecConfig::surface(7))?;
    println!(
        "\nlogical gate set check: H,S,CNOT,T,MEASURE_Z allowed = {}, CCZ allowed = {}",
        service
            .check_logical_gates(&["H", "S", "CNOT", "T", "MEASURE_Z"])
            .is_ok(),
        service.allows_logical_gate("CCZ")
    );
    Ok(())
}
