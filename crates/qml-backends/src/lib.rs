//! # qml-backends — gate and annealing backends for the middle layer
//!
//! Backends are where the paper's late binding happens: the same validated
//! [`qml_types::JobBundle`] (typed data + operator descriptors + context) is
//! realized either as a transpiled circuit on the state-vector simulator
//! ([`GateBackend`], the Qiskit-Aer path of Fig. 2) or as a binary quadratic
//! model on the Metropolis annealer ([`AnnealBackend`], the Ocean-neal path
//! of Fig. 3). Both report the same [`ExecutionResult`] shape: counts over
//! classical words, decoded on demand through the bundle's explicit result
//! schema.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod anneal;
pub mod cache;
pub mod gate;
pub mod lowering;
pub mod results;
pub mod testing;
pub mod traits;

pub use anneal::{AnnealBackend, DEFAULT_SWEEPS};
pub use cache::{
    AnnealPlan, AnnealPlanKey, CacheStats, GatePlan, GatePlanKey, TranspileCache,
    DEFAULT_PLAN_CAPACITY,
};
pub use gate::{listing4_context, GateBackend};
pub use lowering::{lower_to_bqm, lower_to_circuit, LoweredBqm, LoweredCircuit};
pub use results::{Counts, EnergyStats, ExecutionResult};
pub use testing::{FaultPlan, FaultyBackend};
pub use traits::{Backend, PlanFetch};
