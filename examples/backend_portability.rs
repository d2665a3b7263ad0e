//! The paper's headline demonstration (§5): the **same typed problem** runs on
//! a gate-model backend and an annealing backend by changing only the
//! operator formulation and the context — the quantum data type is shared,
//! bit for bit, and both paths decode through the same explicit schema.
//!
//! Run with: `cargo run --release --example backend_portability`

use qml_core::graph::{all_optimal_bitstrings, cut_value_of_bitstring, cycle};
use qml_core::prelude::*;

fn main() -> Result<()> {
    let graph = cycle(4);
    let (optimal_cut, optimal_assignments) = all_optimal_bitstrings(&graph);

    // --- shared typed problem ------------------------------------------------
    let qaoa = qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))?;
    let ising = maxcut_ising_program(&graph)?;
    assert_eq!(
        qaoa.data_types, ising.data_types,
        "the quantum data type is shared verbatim"
    );
    println!("shared quantum data type:");
    println!(
        "{}",
        serde_json::to_string_pretty(&qaoa.data_types[0]).unwrap()
    );

    // --- two contexts ---------------------------------------------------------
    let gate_ctx = ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(4096)
            .with_seed(42)
            .with_target(Target::ring(4))
            .with_optimization_level(2),
    );
    let mut anneal_cfg = AnnealConfig::with_reads(1000);
    anneal_cfg.seed = Some(42);
    let anneal_ctx = ContextDescriptor::for_anneal("anneal.neal_simulator", anneal_cfg);

    // --- run both through the same runtime ------------------------------------
    let runtime = Runtime::with_default_backends();
    let gate_id = runtime.submit(qaoa.with_context(gate_ctx))?;
    let anneal_id = runtime.submit(ising.with_context(anneal_ctx))?;
    let gate = runtime.run_job(gate_id)?;
    let anneal = runtime.run_job(anneal_id)?;

    println!(
        "\n{:<28} {:>18} {:>22}",
        "", "gate path (QAOA)", "anneal path (Ising)"
    );
    println!(
        "{:<28} {:>18} {:>22}",
        "backend", gate.backend, anneal.backend
    );
    println!("{:<28} {:>18} {:>22}", "samples", gate.shots, anneal.shots);
    let cut = |r: &ExecutionResult| r.expectation(|w| cut_value_of_bitstring(&graph, w));
    println!(
        "{:<28} {:>18.2} {:>22.2}",
        "expected cut",
        cut(&gate),
        cut(&anneal)
    );
    let p_opt = |r: &ExecutionResult| {
        optimal_assignments
            .iter()
            .map(|w| r.probability(w))
            .sum::<f64>()
    };
    println!(
        "{:<28} {:>18.2} {:>22.2}",
        "P(optimal assignment)",
        p_opt(&gate),
        p_opt(&anneal)
    );
    for word in &optimal_assignments {
        println!(
            "{:<28} {:>18.3} {:>22.3}",
            format!("P({word})"),
            gate.probability(word),
            anneal.probability(word)
        );
    }
    println!(
        "\nboth backends return the optimal cut assignments {:?} (cut = {optimal_cut})",
        optimal_assignments
    );
    Ok(())
}
