//! # qml-service — multi-tenant batch-execution service for the middle layer
//!
//! The paper's middle layer hands validated job bundles to an HPC-style
//! scheduler (§2). This crate is the serving tier above [`qml_runtime`]: the
//! piece that amortizes descriptor validation, lowering, and transpilation
//! across the repeated submissions a production quantum cloud actually sees.
//!
//! * [`SweepRequest`] — **parameter sweeps**: one intent bundle plus N
//!   binding sets and/or N contexts, expanded into jobs server-side, so a
//!   variational optimizer ships its circuit once per iteration batch instead
//!   of once per point.
//! * [`QmlService`] — submission, batch tracking, and execution. The service
//!   runs as a **streaming loop**: [`QmlService::start`] spawns a long-lived
//!   worker pool that accepts `submit`/`submit_sweep` *while running* and is
//!   shut down through its [`ServiceHandle`] — [`drain`](ServiceHandle::drain)
//!   finishes admitted work, [`abort`](ServiceHandle::abort) stops at the next
//!   dispatch boundary. [`QmlService::run_pending`] is `start` followed at
//!   once by `drain`. Every job reaches its backend the same way: a pool worker
//!   executes each job of the scheduler's dispatch as its own
//!   [`execute_sealed`](qml_backends::Backend::execute_sealed) call through
//!   the shared cache, and a backend that panics fails that one job instead
//!   of taking the worker down.
//! * **Per-tenant fair scheduling** — deficit round robin over cost-ranked
//!   per-tenant queues, with [`TenantPolicy`] weights, in-flight caps, and
//!   token-bucket [`RateLimit`]s, so one tenant's thousand-point sweep cannot
//!   starve another tenant's single job.
//! * **Measured-cost fairness** — deficit is reconciled against *observed*
//!   busy-seconds, not placement guesses: a job is priced at its plan's
//!   measured EWMA in an online per-plan-key [`CostModel`](cost_model::CostModel) once the plan
//!   has one, else at its own prior, and every recorded outcome charges the
//!   estimate error, clamped per job, back to the tenant's deficit
//!   (`COST_EWMA_ALPHA` = 0.4, `CHARGE_BACK_CLAMP` = 16), so a systematically
//!   under-estimated workload cannot hog device time. The scheduler reads
//!   no clock: the service passes every policy decision its `now`.
//! * **Micro-batched dispatch** — up to [`ServiceConfig::max_batch`]
//!   plan-compatible jobs of one tenant coalesce into one dispatch: one
//!   scheduler round-trip, after which the worker runs each member as its
//!   own backend call (the plan cache realizes the group's plan once), with
//!   deficit, tokens, and in-flight slots still spent per member so fairness
//!   accounting is unchanged.
//! * **Service classes** — every job carries a
//!   [`ServiceClass`](qml_types::ServiceClass) (`Latency`, optionally with a
//!   deadline, or the default `Throughput`). Within a tenant, latency jobs
//!   run first (earliest-deadline-first among them) and are dispatched under
//!   a small fixed micro-batch cap (two members), while throughput jobs
//!   batch up to [`ServiceConfig::max_batch`]; a latency arrival preempts
//!   *coalescing* of a throughput batch, never its execution. Cross-tenant
//!   DRR stays class-blind, so classes never bypass fairness. Per-class
//!   queue/dispatch/deadline-miss counters surface as [`ClassStats`].
//! * **Fleet routing & failure domains** — each backend plane can front a
//!   fleet of heterogeneous devices ([`DeviceSpec`]: capability descriptor,
//!   bounded concurrency). Dispatch routes every job to the cheapest
//!   *capable healthy* device with a free slot by per-device measured cost
//!   (capability-feasible round robin before history exists); a job with no
//!   such device waits in its tenant's queue. A device fault walks the health
//!   ladder (healthy → degraded → down) while the faulted job is requeued —
//!   exactly once per attempt, never back onto a device that failed it —
//!   with outcomes preserved bit-for-bit (see [`fleet`]).
//! * The runtime's shared **transpilation/lowering cache** (see
//!   [`qml_backends::TranspileCache`]) makes repeated `(program, target)`
//!   submissions skip `qml-transpile` entirely; hit/miss counters surface in
//!   the service metrics.
//! * [`ServiceMetrics`] — a snapshot of throughput, queue depth, cache hit
//!   rates, scheduler-fairness counters, and per-backend/per-tenant
//!   utilization (including per-tenant wait-time and in-flight gauges).
//! * **Observability** — end-to-end per-job stage tracing
//!   (`submitted → admitted → dispatched → plan → bound → executed →
//!   outcome`, see [`ServiceConfig::with_tracing`]), per-tenant and
//!   per-backend queue-wait / execute-latency percentiles, and one
//!   versioned [`ObservabilitySnapshot`] folding every metric surface
//!   together — exported as JSON ([`QmlService::snapshot`] /
//!   [`ObservabilitySnapshot::to_jsonl`]) or greppable `key=value` text.
//!
//! ## Example
//!
//! ```
//! use qml_service::{QmlService, SweepRequest};
//! use qml_algorithms::{qaoa_maxcut_program, QaoaSchedule, RING_P1_ANGLES};
//! use qml_graph::cycle;
//! use qml_types::{ContextDescriptor, ExecConfig, Target};
//!
//! // One intent, four seeded restarts: a 4-job sweep that transpiles once.
//! let program =
//!     qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))?;
//! let mut sweep = SweepRequest::new("qaoa-restarts", program);
//! for seed in 0..4 {
//!     sweep = sweep.with_context(ContextDescriptor::for_gate(
//!         ExecConfig::new("gate.aer_simulator")
//!             .with_samples(256)
//!             .with_seed(seed)
//!             .with_target(Target::ring(4)),
//!     ));
//! }
//!
//! let service = QmlService::new();
//! let batch = service.submit_sweep("tenant-a", sweep)?;
//! let report = service.run_pending();
//! assert_eq!(report.completed, 4);
//! assert_eq!(service.metrics().cache.hits, 3, "one transpilation, three reuses");
//! assert_eq!(service.batch_jobs(batch).len(), 4);
//! # Ok::<(), qml_types::QmlError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

mod core;
pub mod cost_model;
pub mod fleet;
pub mod metrics;
pub mod observe;
pub mod scheduler;
pub mod service;
pub mod sweep;

pub use cost_model::COST_UNITS_PER_SECOND;
pub use fleet::{DeviceSpec, DeviceUtilization, FleetRouter, COST_TIE_BAND};
pub use metrics::{
    BackendUtilization, CacheStats, ClassStats, RunSummary, SchedulerMetrics, ServiceMetrics,
    TenantStats,
};
pub use observe::{LatencyBreakdown, ObservabilitySnapshot, SNAPSHOT_VERSION};
pub use scheduler::{RateLimit, TenantPolicy};
pub use service::{BatchId, QmlService, ServiceConfig, ServiceHandle};
pub use sweep::SweepRequest;
