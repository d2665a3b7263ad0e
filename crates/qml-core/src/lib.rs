//! # qml — an HPC-inspired, technology-agnostic quantum middle layer
//!
//! `qml-core` is the facade crate of the workspace reproducing *"An
//! HPC-Inspired Blueprint for a Technology-Agnostic Quantum Middle Layer"*
//! (Markidis, Netzer, Pennati, Peng — SC Workshops '25). It re-exports every
//! layer of the stack so applications can depend on a single crate:
//!
//! | Layer | Crate | Paper section |
//! |-------|-------|---------------|
//! | Typed data / operator / context descriptors, job bundles | [`types`] | §4.1–§4.4 |
//! | Algorithmic libraries (QFT, QAOA, Ising, arithmetic, state prep) | [`algorithms`] | §4.4 |
//! | Graphs, Max-Cut, classical baselines | [`graph`] | §5 |
//! | State-vector simulator (Aer substitute) | [`sim`] | §5 |
//! | Transpiler: basis, routing, optimization | [`transpile`] | §4.3 |
//! | BQM + simulated annealer (Ocean substitute) | [`anneal`] | §5 |
//! | QEC context service | [`qec`] | §4.3.2 |
//! | Gate + annealing backends | [`backends`] | §5 |
//! | Registry, scheduler, job runtime, context services | [`runtime`] | §2, §4.3.1 |
//! | Batch service: sweeps, fair scheduling, transpile cache | [`service`] | §2 |
//!
//! ## Quickstart
//!
//! ```
//! use qml_core::prelude::*;
//!
//! // 1. Intent: the paper's Max-Cut instance as a typed QAOA program.
//! let graph = qml_core::graph::cycle(4);
//! let bundle = qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))?;
//!
//! // 2. Policy: a gate-simulator context (swap this to re-target the program).
//! let job = bundle.with_context(ContextDescriptor::for_gate(
//!     ExecConfig::new("gate.aer_simulator").with_samples(1024).with_seed(42),
//! ));
//!
//! // 3. Execution through the runtime's scheduler.
//! let runtime = Runtime::with_default_backends();
//! let id = runtime.submit(job)?;
//! let result = runtime.run_job(id)?;
//! assert_eq!(result.shots, 1024);
//! # Ok::<(), qml_core::types::QmlError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

/// Algorithmic libraries emitting operator descriptor sequences.
pub use qml_algorithms as algorithms;
/// Binary quadratic models and the simulated annealer (the Ocean substitute).
pub use qml_anneal as anneal;
/// Gate-model and annealing backends.
pub use qml_backends as backends;
/// Graphs, Max-Cut, and classical baselines.
pub use qml_graph as graph;
/// Error correction as an orthogonal context service.
pub use qml_qec as qec;
/// Backend registry, scheduler, job runtime, and context services.
pub use qml_runtime as runtime;
/// Multi-tenant batch-execution service: sweeps, fair scheduler, caches.
pub use qml_service as service;
/// Dense state-vector simulator (the Qiskit Aer substitute).
pub use qml_sim as sim;
/// Basis translation, routing, and optimization passes.
pub use qml_transpile as transpile;
/// Typed descriptors: quantum data types, operators, contexts, job bundles.
pub use qml_types as types;

/// One-stop prelude for applications.
pub mod prelude {
    pub use qml_algorithms::{
        ising_register, maxcut_ising_program, qaoa_maxcut_program, qft_program, QaoaAngles,
        QaoaSchedule, QftParams, RING_P1_ANGLES,
    };
    pub use qml_backends::{AnnealBackend, Backend, Counts, ExecutionResult, GateBackend};
    pub use qml_runtime::{BackendRegistry, Runtime, Scheduler};
    pub use qml_service::{QmlService, SweepRequest};
    pub use qml_types::prelude::*;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_full_pipeline() {
        let graph = qml_graph::cycle(4);
        let bundle =
            qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap();
        let runtime = Runtime::with_default_backends();
        let id = runtime
            .submit(
                bundle.with_context(ContextDescriptor::for_gate(
                    ExecConfig::new("gate.aer_simulator")
                        .with_samples(256)
                        .with_seed(7),
                )),
            )
            .unwrap();
        let result = runtime.run_job(id).unwrap();
        assert_eq!(result.shots, 256);
    }
}
