//! The paper's proof of concept as checked code.
//!
//! [`repro`] regenerates the paper's experiments E1–E7 (its figures,
//! listings and claims) and the ablations A1–A4, asserting every claim; the
//! `repro` binary runs it on stdout and this crate's test on a sink. The
//! helpers build the workloads exactly as the examples do, so the
//! experiments, examples and integration tests all exercise the same code
//! paths.
//!
//! Printing belongs to the binaries (they own stdout); the library writes
//! only to the [`std::io::Write`] it is handed.

#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use qml_core::backends::{AnnealBackend, Backend, ExecutionResult, GateBackend};
use qml_core::graph::{cut_value_of_bitstring, cycle, Graph};
use qml_core::prelude::*;
use qml_core::types::ParamValue;

mod repro;
pub use repro::repro;

/// The Listing 4 style gate context: Aer-like engine, hardware basis on a
/// ring, optimization level 2, seeded.
pub(crate) fn gate_context(samples: u64, ring: usize) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(samples)
            .with_seed(42)
            .with_target(Target::ring(ring))
            .with_optimization_level(2),
    )
}

/// The Fig. 3 anneal context: `num_reads` reads, seeded.
pub(crate) fn anneal_context(reads: u64) -> ContextDescriptor {
    let mut cfg = AnnealConfig::with_reads(reads);
    cfg.seed = Some(42);
    ContextDescriptor::for_anneal("anneal.neal_simulator", cfg)
}

/// The paper's Max-Cut QAOA job (Fig. 2) at fixed p = 1 angles.
pub(crate) fn fig2_job(samples: u64) -> JobBundle {
    qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
        .expect("valid QAOA bundle")
        .with_context(gate_context(samples, 4))
}

/// The paper's Max-Cut annealing job (Fig. 3).
pub(crate) fn fig3_job(reads: u64) -> JobBundle {
    maxcut_ising_program(&cycle(4))
        .expect("valid Ising bundle")
        .with_context(anneal_context(reads))
}

/// The Listing 1 QFT job: 10-qubit QFT, 10 000 shots, linear coupling map.
pub(crate) fn listing1_job(shots: u64) -> JobBundle {
    qft_program(10, QftParams::default())
        .expect("valid QFT bundle")
        .with_context(ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator")
                .with_samples(shots)
                .with_seed(42)
                .with_target(Target::linear(10))
                .with_optimization_level(2),
        ))
}

/// Expected cut of an execution result on a graph.
pub(crate) fn expected_cut(graph: &Graph, result: &ExecutionResult) -> f64 {
    result.expectation(|word| cut_value_of_bitstring(graph, word))
}

/// Grid-search the p = 1 QAOA angles for a graph on the gate backend and
/// return `(gamma, beta, expected_cut)` of the best grid point.
pub(crate) fn qaoa_grid_search(graph: &Graph, steps: usize, samples: u64) -> (f64, f64, f64) {
    let template = qaoa_maxcut_program(graph, &QaoaSchedule::Symbolic { layers: 1 })
        .expect("valid symbolic QAOA bundle");
    let context = ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(samples)
            .with_seed(42),
    );
    let backend = GateBackend::new();
    let mut best = (0.0, 0.0, f64::MIN);
    for gi in 1..steps {
        for bi in 1..steps {
            let gamma = std::f64::consts::PI * gi as f64 / steps as f64;
            let beta = std::f64::consts::FRAC_PI_2 * bi as f64 / steps as f64;
            let mut bindings = BTreeMap::new();
            bindings.insert("gamma_0".to_string(), ParamValue::Float(gamma));
            bindings.insert("beta_0".to_string(), ParamValue::Float(beta));
            let job = template.bind(&bindings).with_context(context.clone());
            let result = backend.execute(&job).expect("gate execution");
            let value = expected_cut(graph, &result);
            if value > best.2 {
                best = (gamma, beta, value);
            }
        }
    }
    best
}

/// Run a job on the gate backend.
pub(crate) fn run_gate(job: &JobBundle) -> ExecutionResult {
    GateBackend::new().execute(job).expect("gate execution")
}

/// Run a job on the annealing backend.
pub(crate) fn run_anneal(job: &JobBundle) -> ExecutionResult {
    AnnealBackend::new().execute(job).expect("anneal execution")
}

#[cfg(test)]
mod tests {
    /// Every assertion of the `repro` binary, under `cargo test`.
    #[test]
    fn paper_claims_hold() {
        super::repro(&mut std::io::sink()).unwrap();
    }
}
