//! Quickstart: express a problem once as typed intent, pick a backend with a
//! context, execute through the runtime.
//!
//! Run with: `cargo run --release --example quickstart`

use qml_core::graph::{cut_value_of_bitstring, cycle};
use qml_core::prelude::*;

fn main() -> Result<()> {
    // ------------------------------------------------------------------
    // 1. Intent — stated once, with no commitment to any backend.
    //    A 4-node cycle Max-Cut as a typed QAOA program (paper §5, Fig. 2).
    // ------------------------------------------------------------------
    let graph = cycle(4);
    let bundle = qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))?;
    println!(
        "intent: {} data type(s), {} operator descriptor(s)",
        bundle.data_types.len(),
        bundle.operators.len()
    );
    for op in bundle.operators.iter() {
        println!("  - {:<14} on {}", op.rep_kind.to_string(), op.domain_qdt);
    }

    // ------------------------------------------------------------------
    // 2. Policy — the execution context, orthogonal to the intent.
    // ------------------------------------------------------------------
    let context = ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(4096)
            .with_seed(42)
            .with_target(Target::ring(4))
            .with_optimization_level(2),
    );
    let job = bundle.with_context(context);

    // ------------------------------------------------------------------
    // 3. Execution — the runtime schedules the job onto a backend.
    // ------------------------------------------------------------------
    let runtime = Runtime::with_default_backends();
    let id = runtime.submit(job)?;
    let result = runtime.run_job(id)?;

    println!("\nbackend: {} (engine {})", result.backend, result.engine);
    if let Some(metrics) = &result.gate_metrics {
        println!(
            "transpiled: {} gates ({} two-qubit), depth {}",
            metrics.total_gates, metrics.two_qubit_gates, metrics.depth
        );
    }
    println!("\ntop outcomes out of {} shots:", result.shots);
    for (word, probability) in result.top_k(4) {
        println!(
            "  {word}  p = {probability:.3}  cut = {}",
            cut_value_of_bitstring(&graph, &word)
        );
    }
    let expected_cut = result.expectation(|w| cut_value_of_bitstring(&graph, w));
    println!("\nexpected cut  = {expected_cut:.2}");
    println!("optimal cut   = 4 (assignments 1010 / 0101)");
    println!("random guess  = 2.0");
    Ok(())
}
