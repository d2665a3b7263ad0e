//! # qml-runtime — registry, scheduler, job lifecycle, and context services
//!
//! The runtime is the layer between packaged job bundles and backends:
//!
//! * [`BackendRegistry`] — the available backends (gate simulator, annealer,
//!   and any user-registered implementation of [`qml_backends::Backend`]).
//! * [`Scheduler`] — honours an explicit engine request from the context, and
//!   otherwise ranks family-compatible backends by descriptor cost hints —
//!   the paper's HPC-scheduler analogy (§2).
//! * [`Runtime`] — job submission, status tracking, and the one execution
//!   routine: a job runs as one backend call
//!   ([`qml_backends::Backend::execute_sealed`]) on a placement chosen
//!   before the call, through one shared transpilation/lowering cache.
//!   [`Runtime::run_job`] places one queued job, runs it and returns its
//!   result; the job table keeps only each job's status.
//! * [`pool`] — the one worker loop, fed by a [`JobSource`]: the
//!   feed-while-running [`WorkerPool`] keeps it alive so long-lived services
//!   accept and execute work continuously. A [`JobDispatch`] carries the
//!   sealed bundles it runs and their placement, so a serving tier places
//!   each job once and keeps its own job table; the runtime's serves only
//!   [`Runtime::submit`] and `run_job`. A worker runs a dispatch's members
//!   one call each and reports each one as it finishes.
//! * [`services`] — orthogonal context services (§4.3.1): a communication
//!   estimator for partitioned (multi-QPU) execution. Nothing on the job
//!   path calls it yet; `tests/runtime_scheduling.rs` is its caller.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

pub mod executor;
pub mod pool;
pub mod registry;
pub mod services;

pub use executor::{JobId, JobOutcome, JobStatus, Runtime};
pub use pool::{JobDispatch, JobSource, WorkerPool};
pub use registry::{BackendRegistry, Placement, Scheduler};
pub use services::{estimate_communication, CommunicationEstimate};
