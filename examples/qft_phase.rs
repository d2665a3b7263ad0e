//! Listing 1–3 reproduction: the 10-qubit QFT motivational example expressed
//! through the middle layer instead of a backend-specific SDK.
//!
//! The program declares a typed phase register (Listing 2), asks for a
//! `QFT_TEMPLATE` with an explicit result schema and cost hint (Listing 3),
//! and executes it under the Listing 4 context — Aer-like simulator, basis
//! `[sx, rz, cx]`, linear 10-qubit coupling map, optimization level 2 —
//! comparing the descriptor's cost hint against the transpiled reality.
//!
//! Run with: `cargo run --release --example qft_phase`

use qml_core::prelude::*;

fn main() -> Result<()> {
    // Intent (Listings 2 + 3): a 10-carrier phase register plus QFT + measure.
    let bundle = qft_program(10, QftParams::default())?;
    println!("--- quantum data type (Listing 2) ---");
    println!(
        "{}",
        serde_json::to_string_pretty(&bundle.data_types[0]).unwrap()
    );
    println!("\n--- QFT operator descriptor (Listing 3) ---");
    println!(
        "{}",
        serde_json::to_string_pretty(&bundle.operators[0]).unwrap()
    );

    let descriptor_hint = bundle.operators[0].cost_hint.unwrap();
    // The result carries raw counts: keep the register and the measurement's
    // result schema (operator 1) to decode them on demand.
    let register = bundle.data_types[0].clone();
    let schema = bundle.operators[1].result_schema.clone().unwrap();

    // Policy (Listing 4): Aer-like engine, 10 000 shots as in Listing 1,
    // basis [sx, rz, cx], linear coupling 0-1-…-9, optimization level 2.
    let context = ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(10_000)
            .with_seed(42)
            .with_target(Target::linear(10))
            .with_optimization_level(2),
    );
    let job = bundle.with_context(context);

    let runtime = Runtime::with_default_backends();
    let id = runtime.submit(job)?;
    let result = runtime.run_job(id)?;

    println!(
        "\n--- execution ({} shots on {}) ---",
        result.shots, result.engine
    );
    let metrics = result.gate_metrics.unwrap();
    println!(
        "descriptor cost hint : twoq = {:?}, depth = {:?}",
        descriptor_hint.twoq, descriptor_hint.depth
    );
    println!(
        "transpiled reality   : twoq = {}, depth = {}, total gates = {}, swaps inserted = {}",
        metrics.two_qubit_gates, metrics.depth, metrics.total_gates, metrics.swaps_inserted
    );

    // The QFT of |0…0⟩ is the uniform distribution over all 1024 phases: the
    // decoded phases should cover the full circle roughly evenly.
    println!(
        "\ndistinct outcomes observed: {} of 1024",
        result.counts.len()
    );
    println!("a few decoded phase readouts (AS_PHASE, phase_scale = 1/1024):");
    let decoded = DecodedCounts::decode(&result.counts, &schema, &register)?;
    for (word, _) in result.top_k(5) {
        let DecodedValue::Phase { index, fraction } = decoded.decoded[&word] else {
            panic!("{word} did not decode to a phase");
        };
        assert!(index < 1024 && fraction == index as f64 / 1024.0, "{word}");
        println!("  {word}  ->  index {index:4}  phase {fraction:.4} turns");
    }
    let max_p = result.top_k(1).first().map(|(_, p)| *p).unwrap_or_default();
    println!("\nmost likely single outcome has p = {max_p:.4} (uniform would be ~0.001)");
    Ok(())
}
