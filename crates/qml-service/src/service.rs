//! The submission queue, the streaming service loop, and graceful shutdown.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use qml_backends::ExecutionResult;
use qml_observe::{
    NoopTracer, RingTracer, Stage, TraceEvent, TraceStats, Tracer, DEFAULT_TRACE_CAPACITY,
};
use qml_runtime::{Feed, JobId, JobOutcome, JobSource, JobStatus, Runtime, WorkerPool};
use qml_types::{CapabilityDescriptor, JobBundle, JobRequirements, QmlError, Result};

use crate::fleet::{DeviceSpec, DeviceUtilization, FleetRouter, DEFAULT_DOWN_THRESHOLD};
use crate::metrics::{BackendUtilization, RunSummary, ServiceMetrics, TenantStats};
use crate::observe::{MetricsRegistry, ObservabilitySnapshot};
use crate::scheduler::{
    Admission, FairScheduler, Mode, OutcomeDisposition, SchedPoll, TenantPolicy,
};
use crate::sweep::SweepRequest;

/// Identifier of a submitted batch (single bundles get one too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BatchId(pub u64);

/// Service construction parameters: pool width plus the per-tenant
/// scheduling policies the fair scheduler enforces.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the streaming pool (and in `run_pending` drains).
    pub workers: usize,
    /// Largest number of plan-compatible throughput-class jobs the fair
    /// scheduler may coalesce into one device-level dispatch (see the
    /// micro-batching notes on [`QmlService`]). `1` disables batching; the
    /// default is [`DEFAULT_MAX_BATCH`]. Latency-class dispatches
    /// ([`ServiceClass::Latency`](qml_types::ServiceClass)) are always capped
    /// at two members, whatever this says.
    pub max_batch: usize,
    /// Policy applied to tenants without an explicit entry in
    /// [`ServiceConfig::tenant_policies`].
    pub default_policy: TenantPolicy,
    /// Per-tenant policy overrides (weight, in-flight cap, rate limit).
    pub tenant_policies: BTreeMap<String, TenantPolicy>,
    /// EWMA smoothing factor of the online cost model (weight of the newest
    /// measured busy-seconds observation per plan key); `≤ 0.0` disables the
    /// model entirely, restoring pure estimate-unit admission. See
    /// [`CostModel::new`](crate::cost_model::CostModel::new). Default
    /// [`DEFAULT_COST_EWMA_ALPHA`](crate::cost_model::DEFAULT_COST_EWMA_ALPHA).
    pub cost_ewma_alpha: f64,
    /// Per-job bound on the measured-cost deficit charge-back, as a multiple
    /// of the job's charged cost: a single outcome may correct the tenant's
    /// deficit by at most `charge_back_clamp × estimated` cost units in
    /// either direction, so one wild outlier (page-fault storm, cold cache
    /// stampede) cannot bankrupt a tenant for many rotations. `≤ 0` disables
    /// charge-back (estimate-unit fairness, the pre-measured behavior).
    /// Default [`DEFAULT_CHARGE_BACK_CLAMP`].
    pub charge_back_clamp: f64,
    /// Retain per-job stage events in a bounded in-memory ring
    /// ([`RingTracer`]); when false (the default) the service observes
    /// through [`NoopTracer`] — latency histograms and the metrics snapshot
    /// still work, but [`QmlService::trace_events`] returns nothing and the
    /// per-event cost is a single inlined boolean load.
    pub tracing: bool,
    /// Ring capacity (events) when [`ServiceConfig::tracing`] is on; once
    /// exceeded the oldest undrained events are overwritten and counted in
    /// [`TraceStats::dropped`]. Default [`DEFAULT_TRACE_CAPACITY`].
    pub trace_capacity: usize,
    /// Explicit fleet devices. A backend plane with no entry here gets one
    /// implicit unlimited device (`"<backend-name>#0"`), so the fleet layer
    /// is always live but single-device planes behave exactly as before.
    pub devices: Vec<DeviceSpec>,
    /// Consecutive device faults that move a device from degraded to down
    /// (see [`qml_types::HealthState`]). Default
    /// [`DEFAULT_DOWN_THRESHOLD`]; values of 0 are treated as 1.
    pub down_threshold: u32,
    /// Route one recovery probe job to a down device every this many
    /// settled outcomes. `0` (the default) disables probing: a down device
    /// stays down.
    pub probe_interval: u64,
}

/// Default [`ServiceConfig::max_batch`]: large enough that sweep traffic
/// amortizes dispatch and realization overhead, small enough that a batch
/// does not serialize a whole sweep onto one worker of a small pool.
pub const DEFAULT_MAX_BATCH: usize = 8;

/// Default [`ServiceConfig::charge_back_clamp`]: generous enough that a
/// genuine 10×-under-estimated job is charged back in full (correction
/// ≤ 16 × estimate covers it), tight enough that a 1000× outlier is
/// amortized over the cost model instead of the deficit ledger.
pub const DEFAULT_CHARGE_BACK_CLAMP: f64 = 16.0;

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::with_workers(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(8),
        )
    }
}

impl ServiceConfig {
    /// A configuration with the given pool width and default policies.
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers,
            max_batch: DEFAULT_MAX_BATCH,
            default_policy: TenantPolicy::default(),
            tenant_policies: BTreeMap::new(),
            cost_ewma_alpha: crate::cost_model::DEFAULT_COST_EWMA_ALPHA,
            charge_back_clamp: DEFAULT_CHARGE_BACK_CLAMP,
            tracing: false,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            devices: Vec::new(),
            down_threshold: DEFAULT_DOWN_THRESHOLD,
            probe_interval: 0,
        }
    }

    /// Register one fleet device, builder-style (see
    /// [`ServiceConfig::devices`]).
    pub fn with_device(mut self, spec: DeviceSpec) -> Self {
        self.devices.push(spec);
        self
    }

    /// Set the degraded→down fault threshold, builder-style (see
    /// [`ServiceConfig::down_threshold`]).
    pub fn with_down_threshold(mut self, threshold: u32) -> Self {
        self.down_threshold = threshold;
        self
    }

    /// Enable down-device recovery probes every `interval` settled
    /// outcomes, builder-style (see [`ServiceConfig::probe_interval`]).
    pub fn with_probe_interval(mut self, interval: u64) -> Self {
        self.probe_interval = interval;
        self
    }

    /// Enable (or disable) per-job stage-event tracing, builder-style (see
    /// [`ServiceConfig::tracing`]).
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Set the trace ring capacity, builder-style (see
    /// [`ServiceConfig::trace_capacity`]). Values of 0 are treated as 1.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity.max(1);
        self
    }

    /// Cap (or disable, with `1`) micro-batching, builder-style. Values of 0
    /// are treated as 1.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Set the cost model's EWMA smoothing factor, builder-style (see
    /// [`ServiceConfig::cost_ewma_alpha`]).
    pub fn with_cost_ewma_alpha(mut self, alpha: f64) -> Self {
        self.cost_ewma_alpha = alpha;
        self
    }

    /// Set (or, with `0.0`, disable) the per-job charge-back clamp,
    /// builder-style (see [`ServiceConfig::charge_back_clamp`]).
    pub fn with_charge_back_clamp(mut self, clamp: f64) -> Self {
        self.charge_back_clamp = clamp;
        self
    }

    /// Attach a per-tenant policy override, builder-style.
    pub fn with_tenant_policy(mut self, tenant: impl Into<String>, policy: TenantPolicy) -> Self {
        self.tenant_policies.insert(tenant.into(), policy);
        self
    }

    /// The policy governing `tenant`.
    pub fn policy_for(&self, tenant: &str) -> &TenantPolicy {
        self.tenant_policies
            .get(tenant)
            .unwrap_or(&self.default_policy)
    }
}

/// One tracked batch: its jobs and owner.
#[derive(Debug, Clone)]
struct BatchRecord {
    tenant: Arc<str>,
    job_ids: Vec<JobId>,
}

#[derive(Default)]
struct ServiceState {
    next_batch: u64,
    batches: BTreeMap<BatchId, BatchRecord>,
    job_tenant: BTreeMap<JobId, Arc<str>>,
    jobs_submitted: u64,
    jobs_completed: u64,
    jobs_failed: u64,
    /// Fleet device that produced each job's terminal outcome.
    job_device: BTreeMap<JobId, Arc<str>>,
    per_backend: BTreeMap<String, BackendUtilization>,
    per_tenant: BTreeMap<Arc<str>, TenantStats>,
    last_run: Option<RunSummary>,
}

/// Jobs executed by one pool run, for its [`RunSummary`].
#[derive(Default)]
struct PoolCounters {
    jobs: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
}

/// The shared core behind every [`QmlService`] clone and every pool worker.
struct ServiceInner {
    runtime: Arc<Runtime>,
    config: ServiceConfig,
    state: Mutex<ServiceState>,
    sched: Mutex<FairScheduler>,
    /// Shared observability sink (stage-event tracer + latency histograms);
    /// the same registry the scheduler and — tracer only — the runtime
    /// report through, so every layer's events share one clock epoch.
    obs: Arc<MetricsRegistry>,
}

impl ServiceInner {
    /// Fold one finished job into the service metrics, then reconcile its
    /// measured duration with the fair scheduler
    /// ([`FairScheduler::record_outcome`]: cost-model update + deficit
    /// charge-back) and release its in-flight slot. Called from pool workers
    /// as jobs complete (the locks are taken sequentially, never nested).
    /// Order matters: the state fold happens *before* the scheduler release,
    /// so once `wait_idle` observes quiescence every finished job is already
    /// visible in `metrics()`.
    fn record_outcome(&self, outcome: &JobOutcome, counters: &PoolCounters) {
        let seconds = outcome.duration.as_secs_f64();
        let ok = outcome.result.is_ok();
        let fault = matches!(&outcome.result, Err(e) if e.is_device_fault());
        // Settle the fleet device first: free its slot, walk the health
        // ladder, and — for a device fault with a capable device left to
        // try — fail the job over. The runtime requeue inside the closure
        // only flips a *failed* record back to queued, so an outcome that
        // already settled can never be duplicated.
        let disposition = self.sched.lock().settle_outcome(
            outcome.id,
            outcome.device.as_deref(),
            seconds,
            ok,
            fault,
            || self.runtime.requeue(outcome.id),
        );
        if disposition == OutcomeDisposition::Requeued {
            // Not a terminal outcome: only the plane's busy-seconds accrue
            // (the device really ran that long, and per-backend totals must
            // keep folding over the per-device gauges, which count faulted
            // attempts). Completion counters, traces, and the run summary
            // wait for the terminal attempt.
            if let Some(backend) = &outcome.backend {
                let mut state = self.state.lock();
                state
                    .per_backend
                    .entry(backend.clone())
                    .or_default()
                    .busy_seconds += seconds;
            }
            return;
        }
        counters.jobs.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.lock();
        let tenant = state.job_tenant.get(&outcome.id).cloned();
        if let Some(device) = &outcome.device {
            state.job_device.insert(outcome.id, Arc::clone(device));
        }
        // Backend attribution covers failed executions too: the pool reports
        // the placed backend even when the run errored.
        if let Some(backend) = &outcome.backend {
            let util = state.per_backend.entry(backend.clone()).or_default();
            util.jobs += 1;
            util.busy_seconds += outcome.duration.as_secs_f64();
        }
        match &outcome.result {
            Ok(_) => {
                counters.completed.fetch_add(1, Ordering::Relaxed);
                state.jobs_completed += 1;
                if let Some(tenant) = tenant.clone() {
                    state.per_tenant.entry(tenant).or_default().completed += 1;
                }
            }
            Err(_) => {
                counters.failed.fetch_add(1, Ordering::Relaxed);
                state.jobs_failed += 1;
                if let Some(tenant) = tenant.clone() {
                    state.per_tenant.entry(tenant).or_default().failed += 1;
                }
            }
        }
        drop(state);
        // Observability is fed *before* the scheduler releases the job's
        // in-flight slot: once `wait_idle` observes quiescence, every
        // finished job's `executed`/`outcome` events and latency samples are
        // already visible.
        let measured_us = outcome.duration.as_micros() as u64;
        self.obs
            .observe_exec(tenant.as_deref(), outcome.backend.as_deref(), measured_us);
        if self.obs.tracing_enabled() {
            self.obs.trace(
                outcome.id,
                tenant.as_ref(),
                None,
                Stage::Executed { measured_us },
            );
            self.obs.trace(
                outcome.id,
                tenant.as_ref(),
                None,
                Stage::Outcome {
                    ok: outcome.result.is_ok(),
                },
            );
        }
        self.sched.lock().record_outcome(
            outcome.id,
            outcome.duration.as_secs_f64(),
            outcome.result.is_ok(),
        );
    }

    /// A point-in-time [`ServiceMetrics`] snapshot (shared by the service
    /// and its streaming handle).
    fn metrics(&self) -> ServiceMetrics {
        let cache = self.runtime.cache();
        // Locks are taken one at a time (scheduler gauges first, then the
        // submission/outcome state), never nested.
        let (scheduler, gauges, per_device, per_class) = {
            let sched = self.sched.lock();
            (
                sched.metrics,
                sched.gauges(),
                sched.device_snapshot(),
                sched.class_snapshot(),
            )
        };
        let state = self.state.lock();
        let mut per_tenant: BTreeMap<String, TenantStats> = state
            .per_tenant
            .iter()
            .map(|(name, stats)| (name.to_string(), *stats))
            .collect();
        for (name, gauge) in gauges {
            let stats = per_tenant.entry(name.to_string()).or_default();
            stats.dispatched = gauge.dispatched;
            stats.in_flight = gauge.in_flight;
            stats.throttled = gauge.throttled;
            stats.total_wait_seconds = gauge.total_wait_seconds;
            stats.busy_seconds = gauge.busy_seconds;
        }
        ServiceMetrics {
            jobs_submitted: state.jobs_submitted,
            jobs_completed: state.jobs_completed,
            jobs_failed: state.jobs_failed,
            queue_depth: self.runtime.queue_depth(),
            cache: cache.stats(),
            gate_cache: cache.gate_stats(),
            anneal_cache: cache.anneal_stats(),
            scheduler,
            per_backend: state.per_backend.clone(),
            per_device,
            per_class,
            per_tenant,
            last_run: state.last_run,
        }
    }

    /// The unified observability snapshot: [`ServiceInner::metrics`] plus
    /// latency percentiles, cost gauges, and tracer health.
    fn snapshot(&self) -> ObservabilitySnapshot {
        self.obs.snapshot(self.metrics())
    }
}

/// Pool workers pull their next job straight from the fair scheduler.
impl JobSource for ServiceInner {
    fn next_job(&self, _worker: usize) -> Feed {
        match self.sched.lock().next_job(Instant::now()) {
            SchedPoll::Dispatch(dispatch) => Feed::Job(dispatch),
            SchedPoll::Idle => Feed::Idle,
            SchedPoll::Shutdown => Feed::Shutdown,
        }
    }

    fn job_skipped(&self, id: JobId) {
        self.sched.lock().release(id);
    }
}

/// The multi-tenant execution service.
///
/// Submissions (single bundles or [`SweepRequest`]s) are validated and
/// expanded eagerly, recorded on the underlying [`Runtime`], and admitted to
/// a **per-tenant fair scheduler** (deficit round robin over cost-ranked
/// queues, with optional weights, in-flight caps, and token-bucket rate
/// limits — see [`TenantPolicy`]). Execution happens either
///
/// * **streaming** — [`QmlService::start`] spawns a long-lived worker pool
///   that keeps accepting `submit`/`submit_sweep` *while running* and is shut
///   down gracefully through the returned [`ServiceHandle`]; or
/// * **one-shot** — [`QmlService::run_pending`]: `start` followed at once by
///   [`ServiceHandle::drain`].
///
/// **Micro-batching.** When the scheduler picks a tenant, it opportunistically
/// coalesces up to [`ServiceConfig::max_batch`] queued jobs of that tenant
/// that share a device-level batch key — same backend, same realization plan
/// (see [`qml_backends::Backend::batch_key`]) — into one dispatch, executed
/// through the backend's `execute_batch_timed`: one transpilation/lowering
/// serves the whole group even on a cold cache. Fairness accounting is unchanged
/// (deficit, rate-limit tokens, and in-flight slots are spent per member), so
/// under contention batches stay within the tenant's DRR budget, while an
/// uncontended tenant batches up to the cap. Formation counts surface in
/// [`SchedulerMetrics`](crate::SchedulerMetrics).
///
/// All executions share the runtime's transpilation/lowering cache across
/// tenants. `QmlService` is cheaply cloneable; clones share all state, which
/// is how submitter threads hand jobs to a running service:
///
/// ```
/// use qml_service::{QmlService, ServiceConfig};
/// use qml_algorithms::{qaoa_maxcut_program, QaoaSchedule, RING_P1_ANGLES};
/// use qml_graph::cycle;
/// use qml_types::{ContextDescriptor, ExecConfig, Target};
///
/// let service = QmlService::with_config(ServiceConfig::with_workers(2));
/// let handle = service.start()?;            // pool is now live
///
/// // Submit from another thread *while the service runs*.
/// let submitter = {
///     let service = service.clone();
///     std::thread::spawn(move || {
///         let program = qaoa_maxcut_program(
///             &cycle(4),
///             &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]),
///         )
///         .unwrap();
///         let context = ContextDescriptor::for_gate(
///             ExecConfig::new("gate.aer_simulator")
///                 .with_samples(64)
///                 .with_seed(7)
///                 .with_target(Target::ring(4)),
///         );
///         service.submit("live-tenant", program.with_context(context)).unwrap()
///     })
/// };
/// let (_batch, job) = submitter.join().unwrap();
///
/// let summary = handle.drain();             // finish everything, then stop
/// assert_eq!(summary.completed, 1);
/// assert_eq!(service.result(job).unwrap().shots, 64);
/// # Ok::<(), qml_types::QmlError>(())
/// ```
pub struct QmlService {
    inner: Arc<ServiceInner>,
}

impl Clone for QmlService {
    fn clone(&self) -> Self {
        QmlService {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Default for QmlService {
    fn default() -> Self {
        QmlService::new()
    }
}

impl QmlService {
    /// A service over the built-in backends with default worker count.
    pub fn new() -> Self {
        QmlService::with_config(ServiceConfig::default())
    }

    /// A service over the built-in backends with explicit configuration.
    pub fn with_config(config: ServiceConfig) -> Self {
        QmlService::with_runtime(Runtime::with_default_backends(), config)
    }

    /// A service over a caller-provided runtime (custom backends, shared
    /// cache, ...).
    pub fn with_runtime(mut runtime: Runtime, config: ServiceConfig) -> Self {
        let tracer: Arc<dyn Tracer> = if config.tracing {
            Arc::new(RingTracer::with_capacity(config.trace_capacity))
        } else {
            Arc::new(NoopTracer)
        };
        let obs = Arc::new(MetricsRegistry::new(tracer));
        // The runtime shares the service's tracer so plan/bind attribution
        // from workers lands in the same event stream (same clock epoch) as
        // the service's submit/dispatch/outcome stages.
        runtime.set_tracer(Arc::clone(obs.tracer()));
        let mut sched = FairScheduler::new(
            config.max_batch,
            config.cost_ewma_alpha,
            config.charge_back_clamp,
            Arc::clone(&obs),
        );
        // Every registered backend plane fronts a fleet: explicitly
        // configured devices where given, otherwise one implicit unlimited
        // device per plane — the fleet code path is always exercised, and a
        // single-device plane behaves exactly like the pre-fleet service.
        let mut specs = config.devices.clone();
        for backend in runtime.scheduler().registry().backends() {
            if specs.iter().all(|s| s.backend.name() != backend.name()) {
                specs.push(DeviceSpec::new(
                    format!("{}#0", backend.name()),
                    Arc::clone(backend),
                    CapabilityDescriptor::unlimited(),
                ));
            }
        }
        sched.set_fleet(FleetRouter::new(
            specs,
            config.cost_ewma_alpha,
            config.down_threshold,
            config.probe_interval,
        ));
        QmlService {
            inner: Arc::new(ServiceInner {
                runtime: Arc::new(runtime),
                config,
                state: Mutex::new(ServiceState::default()),
                sched: Mutex::new(sched),
                obs,
            }),
        }
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.inner.runtime
    }

    /// Submit one bundle for a tenant. Returns the batch (of size one) and
    /// the job id. Accepted while a streaming pool is running: the job is
    /// picked up by the fair scheduler without any drain/restart.
    pub fn submit(&self, tenant: &str, bundle: JobBundle) -> Result<(BatchId, JobId)> {
        let batch = self.submit_jobs(tenant, vec![bundle])?;
        let job = self.inner.state.lock().batches[&batch].job_ids[0];
        Ok((batch, job))
    }

    /// Expand and submit a parameter sweep for a tenant. The whole sweep is
    /// validated before any job is queued: a malformed sweep is rejected
    /// atomically. Like [`QmlService::submit`], sweeps are accepted while
    /// the service is running.
    pub fn submit_sweep(&self, tenant: &str, sweep: SweepRequest) -> Result<BatchId> {
        let jobs = sweep.expand()?;
        self.submit_jobs(tenant, jobs)
    }

    fn submit_jobs(&self, tenant: &str, bundles: Vec<JobBundle>) -> Result<BatchId> {
        // Validate everything up front so a batch is admitted all-or-nothing.
        for bundle in &bundles {
            bundle.validate()?;
        }
        // Place each job once, before taking any lock: the fair scheduler
        // spends DRR deficit in estimated-cost units, and the placement is
        // carried to the worker so the bundle is never placed twice. The
        // placed backend also stamps its device-level batch key (plan
        // identity folded with the backend name) so the scheduler can
        // coalesce plan-compatible jobs into micro-batches.
        let mut prepared = Vec::with_capacity(bundles.len());
        for bundle in bundles {
            let placement = self.inner.runtime.scheduler().place(&bundle).ok();
            let cost = placement.as_ref().map(|p| p.estimated_cost).unwrap_or(0.0);
            let batch_key = placement.as_ref().and_then(|p| {
                use qml_types::bundle::{fnv1a64_init, fnv1a64_update};
                let key = p.backend.batch_key(&bundle)?;
                let mut hash = fnv1a64_update(fnv1a64_init(), p.backend.name().as_bytes());
                hash = fnv1a64_update(hash, &key.to_le_bytes());
                Some(hash)
            });
            // An explicit `duration_us` cost hint is the submitter's own
            // wall-clock claim: it seeds the measured-cost model (and prices
            // this admission) until real measurements take over.
            let hint_seconds = hint_seconds(&bundle);
            // Fleet requirements are derived once here and carried with the
            // job, so routing — and re-routing after a device fault — never
            // re-parses descriptors.
            let requirements = JobRequirements::of(&bundle);
            // The service class (and any relative deadline) rides the bundle;
            // the deadline clock starts at submission, not dispatch, so queue
            // wait counts against it.
            let class = bundle.service_class();
            let deadline = class.deadline().map(|budget| Instant::now() + budget);
            prepared.push((
                bundle,
                Admission {
                    // Placeholder until the runtime assigns the real id at
                    // submission below.
                    id: JobId(0),
                    cost,
                    hint_seconds,
                    placement,
                    batch_key,
                    requirements: Some(requirements),
                    class,
                    deadline,
                    retry: false,
                },
            ));
        }
        // Fleet feasibility, still before anything is recorded: a job no
        // device on its placed plane could *ever* serve (too wide, wrong
        // optimization level) rejects the whole batch atomically, instead
        // of queueing work that can only bounce until it fails.
        {
            let sched = self.inner.sched.lock();
            for (_, adm) in &prepared {
                if let (Some(placement), Some(requirements)) = (&adm.placement, &adm.requirements) {
                    if !sched.feasible(placement.backend.name(), requirements) {
                        return Err(QmlError::Validation(format!(
                            "no device in the '{}' fleet can serve this job \
                             (width {}, optimization level {})",
                            placement.backend.name(),
                            requirements.qubits,
                            requirements.opt_level
                        )));
                    }
                }
            }
        }
        let jobs = {
            let mut submitted = Vec::with_capacity(prepared.len());
            for (bundle, mut adm) in prepared {
                adm.id = self.inner.runtime.submit(bundle)?;
                submitted.push(adm);
            }
            submitted
        };
        // Record batch/tenant bookkeeping *before* admitting anything to the
        // fair scheduler: a running pool may dispatch and finish a job the
        // instant it is admitted, and record_outcome must already find its
        // tenant. Locks are taken sequentially, never nested.
        let tenant: Arc<str> = self
            .inner
            .sched
            .lock()
            .intern(tenant, self.inner.config.policy_for(tenant));
        let batch = {
            let mut state = self.inner.state.lock();
            let id = BatchId(state.next_batch);
            state.next_batch += 1;
            state.jobs_submitted += jobs.len() as u64;
            let tenant_stats = state.per_tenant.entry(Arc::clone(&tenant)).or_default();
            tenant_stats.submitted += jobs.len() as u64;
            for adm in &jobs {
                state.job_tenant.insert(adm.id, Arc::clone(&tenant));
            }
            state.batches.insert(
                id,
                BatchRecord {
                    tenant: Arc::clone(&tenant),
                    job_ids: jobs.iter().map(|adm| adm.id).collect(),
                },
            );
            id
        };
        let mut sched = self.inner.sched.lock();
        for adm in jobs {
            // `submitted` lands immediately before the scheduler's own
            // `admitted` event, under the same lock: per-job stage order and
            // timestamp order agree by construction.
            if self.inner.obs.tracing_enabled() {
                self.inner
                    .obs
                    .trace(adm.id, Some(&tenant), adm.batch_key, Stage::Submitted);
            }
            sched.admit_job(&tenant, adm);
        }
        Ok(batch)
    }

    /// Jobs of a batch, in expansion order (empty for unknown batches).
    pub fn batch_jobs(&self, batch: BatchId) -> Vec<JobId> {
        self.inner
            .state
            .lock()
            .batches
            .get(&batch)
            .map(|b| b.job_ids.clone())
            .unwrap_or_default()
    }

    /// Status of a job.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.inner.runtime.status(id)
    }

    /// Result of a completed job.
    pub fn result(&self, id: JobId) -> Option<ExecutionResult> {
        self.inner.runtime.result(id)
    }

    /// Start the streaming service loop: a long-lived pool of
    /// [`ServiceConfig::workers`] threads that executes admitted jobs
    /// continuously under the fair scheduler and keeps accepting
    /// submissions while running.
    ///
    /// Returns a [`ServiceHandle`] whose [`drain`](ServiceHandle::drain) /
    /// [`abort`](ServiceHandle::abort) shut the loop down gracefully. At
    /// most one pool may run at a time; starting a second is an error.
    pub fn start(&self) -> Result<ServiceHandle> {
        {
            let mut sched = self.inner.sched.lock();
            if sched.mode != Mode::Stopped {
                return Err(QmlError::Validation(
                    "service is already running a streaming pool".into(),
                ));
            }
            sched.mode = Mode::Running;
        }
        let counters = Arc::new(PoolCounters::default());
        let sink = {
            let inner = Arc::clone(&self.inner);
            let counters = Arc::clone(&counters);
            Arc::new(move |outcome: JobOutcome| inner.record_outcome(&outcome, &counters))
        };
        let source: Arc<dyn JobSource> = Arc::clone(&self.inner) as Arc<dyn JobSource>;
        let pool = WorkerPool::spawn(&self.inner.runtime, self.inner.config.workers, source, sink);
        Ok(ServiceHandle {
            inner: Arc::clone(&self.inner),
            workers: pool.workers(),
            pool: Some(pool),
            counters,
            started: Instant::now(),
        })
    }

    /// Execute every queued job and fold the outcomes into the service
    /// metrics. A thin submit-then-drain wrapper over the streaming loop:
    /// equivalent to [`QmlService::start`] followed immediately by
    /// [`ServiceHandle::drain`]. Returns the drain summary.
    ///
    /// # Panics
    ///
    /// Panics if a streaming pool is already running — drain it (or abort
    /// it) through its [`ServiceHandle`] instead.
    pub fn run_pending(&self) -> RunSummary {
        self.start()
            .expect("run_pending requires no streaming pool to be active")
            .drain()
    }

    /// Block until `job` reaches a terminal state ([`JobStatus::Completed`]
    /// or [`JobStatus::Failed`]) or `timeout` elapses, returning the last
    /// observed status (`None` for unknown ids). Intended for callers of a
    /// *running* service; without a pool this only times out.
    pub fn wait_for(&self, job: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.status(job);
            match status {
                Some(JobStatus::Completed) | Some(JobStatus::Failed(_)) | None => return status,
                _ if Instant::now() >= deadline => return status,
                _ => thread::sleep(Duration::from_micros(500)),
            }
        }
    }

    /// Block until the service is quiescent — no job admitted to the fair
    /// scheduler is queued or in flight — or `timeout` elapses. Returns
    /// true if quiescence was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let sched = self.inner.sched.lock();
                if sched.queued() == 0 && sched.in_flight() == 0 {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_micros(500));
        }
    }

    /// A point-in-time snapshot of service health.
    pub fn metrics(&self) -> ServiceMetrics {
        self.inner.metrics()
    }

    /// The unified observability snapshot: [`QmlService::metrics`] folded
    /// together with per-tenant / per-backend latency percentiles,
    /// cost-model gauges, and trace-buffer health. Serialize it with
    /// [`ObservabilitySnapshot::to_json`] /
    /// [`to_jsonl`](ObservabilitySnapshot::to_jsonl), or grep it via
    /// [`dump_kv`](ObservabilitySnapshot::dump_kv).
    pub fn snapshot(&self) -> ObservabilitySnapshot {
        self.inner.snapshot()
    }

    /// Drain the retained per-job stage events (oldest first). Empty unless
    /// [`ServiceConfig::tracing`] is on. Draining frees the ring: drained
    /// events are never counted as dropped.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner.obs.tracer().drain()
    }

    /// Trace-buffer health: events recorded, events dropped to ring
    /// overflow, and the configured capacity.
    pub fn trace_stats(&self) -> TraceStats {
        self.inner.obs.tracer().stats()
    }

    /// Tenant that submitted a job (if known). The returned id is shared
    /// with the service's own tenant table — no per-call allocation.
    pub fn tenant_of(&self, id: JobId) -> Option<Arc<str>> {
        self.inner.state.lock().job_tenant.get(&id).cloned()
    }

    /// The fleet device that produced a job's **terminal** outcome, if the
    /// job was device-routed. Requeued attempts are not recorded: by the
    /// time this returns a device, the result is final.
    pub fn device_of(&self, id: JobId) -> Option<Arc<str>> {
        self.inner.state.lock().job_device.get(&id).cloned()
    }

    /// Per-device fleet gauges keyed by device id: health, dispatch /
    /// completion / failover counters, busy-seconds, queue depth.
    /// `busy_seconds` folds: summing one plane's devices reproduces that
    /// plane's [`BackendUtilization`] busy-seconds.
    pub fn device_metrics(&self) -> BTreeMap<String, DeviceUtilization> {
        self.inner.sched.lock().device_snapshot()
    }

    /// Cordon a fleet device for maintenance: it accepts no new routes,
    /// in-flight work finishes normally, and anything parked on its queue is
    /// released for siblings to steal. Healthy state and fault counters are
    /// untouched — [`QmlService::uncordon_device`] restores routing exactly
    /// as it was. Returns false for unknown device ids.
    pub fn cordon_device(&self, device: &str) -> bool {
        self.inner.sched.lock().cordon(device)
    }

    /// Lift a cordon placed by [`QmlService::cordon_device`]. Returns false
    /// for unknown device ids.
    pub fn uncordon_device(&self, device: &str) -> bool {
        self.inner.sched.lock().uncordon(device)
    }

    /// Tenant that owns a batch (if known). Shared id, no per-call
    /// allocation.
    pub fn batch_tenant(&self, batch: BatchId) -> Option<Arc<str>> {
        self.inner
            .state
            .lock()
            .batches
            .get(&batch)
            .map(|b| Arc::clone(&b.tenant))
    }
}

/// The bundle's explicit wall-clock claim, if any: its operators' cost
/// hints folded with [`CostHint::saturating_add`], whose duration survives
/// only when **every** operator carries one — the aggregate never
/// over-claims precision, so a lone hinted operator among unhinted ones
/// cannot price (and seed the cost model for) the whole bundle.
///
/// [`CostHint::saturating_add`]: qml_types::CostHint::saturating_add
fn hint_seconds(bundle: &JobBundle) -> Option<f64> {
    let total = bundle
        .operators
        .iter()
        .map(|op| op.cost_hint.unwrap_or_default())
        .reduce(|a, b| a.saturating_add(&b))?;
    total.duration_us.map(|us| us / 1e6)
}

/// Control handle for a running streaming pool (returned by
/// [`QmlService::start`]).
///
/// Exactly one of [`drain`](ServiceHandle::drain) /
/// [`abort`](ServiceHandle::abort) should end the run. Dropping the handle
/// without either aborts the pool (current jobs finish, the rest stay
/// queued) so worker threads are never leaked.
pub struct ServiceHandle {
    inner: Arc<ServiceInner>,
    pool: Option<WorkerPool>,
    counters: Arc<PoolCounters>,
    started: Instant,
    workers: usize,
}

impl ServiceHandle {
    /// Graceful shutdown: execute everything admitted (rate limits are
    /// waived so throttled tenants cannot stall shutdown; weights and
    /// in-flight caps still apply), wait for in-flight work, stop the pool.
    /// Jobs submitted directly to the underlying [`Runtime`] — bypassing the
    /// fair scheduler — are swept by a one-shot drain at the end, so nothing
    /// queued anywhere is left behind. Returns the summary of the whole run.
    pub fn drain(mut self) -> RunSummary {
        self.shutdown(Mode::Draining)
    }

    /// Hard stop: workers finish the job they are on and exit at the next
    /// job boundary. Undispatched jobs stay queued and run on the next
    /// [`QmlService::start`] or [`QmlService::run_pending`]. Returns the
    /// summary of the run so far.
    pub fn abort(mut self) -> RunSummary {
        self.shutdown(Mode::Aborting)
    }

    /// The unified observability snapshot of the running service — same as
    /// [`QmlService::snapshot`], offered on the handle so operators holding
    /// only the handle can poll health mid-run.
    pub fn snapshot(&self) -> ObservabilitySnapshot {
        self.inner.snapshot()
    }

    /// One JSON line of the current [`ObservabilitySnapshot`] — append to a
    /// `.jsonl` log to record a performance trajectory over a run's life.
    pub fn dump_jsonl(&self) -> String {
        self.inner.snapshot().to_jsonl()
    }

    fn shutdown(&mut self, mode: Mode) -> RunSummary {
        self.inner.sched.lock().mode = mode;
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
        if mode == Mode::Draining && self.inner.runtime.queue_depth() > 0 {
            // Jobs submitted directly to `service.runtime()` bypass the fair
            // scheduler, but a drain still owes them execution — run_pending
            // drained the whole runtime queue before the streaming loop
            // existed, and that contract is kept. Sweep the leftovers with
            // the runtime's one-shot drain and fold them into this summary.
            for outcome in self.inner.runtime.run_all_detailed(self.workers) {
                self.inner.record_outcome(&outcome, &self.counters);
            }
        }
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let jobs = self.counters.jobs.load(Ordering::Relaxed) as usize;
        let summary = RunSummary {
            jobs,
            completed: self.counters.completed.load(Ordering::Relaxed) as usize,
            failed: self.counters.failed.load(Ordering::Relaxed) as usize,
            workers: self.workers,
            wall_seconds,
            jobs_per_second: if wall_seconds > 0.0 {
                jobs as f64 / wall_seconds
            } else {
                0.0
            },
        };
        self.inner.state.lock().last_run = Some(summary);
        self.inner.sched.lock().mode = Mode::Stopped;
        summary
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if self.pool.is_some() {
            self.shutdown(Mode::Aborting);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qml_algorithms::{maxcut_ising_program, qaoa_maxcut_program, QaoaSchedule, RING_P1_ANGLES};
    use qml_graph::cycle;
    use qml_types::{AnnealConfig, ContextDescriptor, ExecConfig, Target};

    fn gate_program() -> JobBundle {
        qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap()
    }

    fn gate_context(seed: u64) -> ContextDescriptor {
        ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator")
                .with_samples(64)
                .with_seed(seed)
                .with_target(Target::ring(4)),
        )
    }

    #[test]
    fn single_submission_round_trip() {
        let service = QmlService::with_config(ServiceConfig::with_workers(2));
        let (batch, job) = service
            .submit("alice", gate_program().with_context(gate_context(1)))
            .unwrap();
        assert_eq!(service.status(job), Some(JobStatus::Queued));
        assert_eq!(service.metrics().queue_depth, 1);
        let report = service.run_pending();
        assert_eq!(report.completed, 1);
        assert_eq!(service.result(job).unwrap().shots, 64);
        assert_eq!(service.batch_jobs(batch), vec![job]);
        assert_eq!(service.tenant_of(job).as_deref(), Some("alice"));
        assert_eq!(service.metrics().queue_depth, 0);
    }

    #[test]
    fn per_tenant_and_per_backend_accounting() {
        let service = QmlService::with_config(ServiceConfig::with_workers(2));
        service
            .submit("alice", gate_program().with_context(gate_context(1)))
            .unwrap();
        service
            .submit(
                "bob",
                maxcut_ising_program(&cycle(4)).unwrap().with_context(
                    ContextDescriptor::for_anneal(
                        "anneal.neal_simulator",
                        AnnealConfig::with_reads(50),
                    ),
                ),
            )
            .unwrap();
        service.run_pending();
        let metrics = service.metrics();
        assert_eq!(metrics.per_tenant["alice"].completed, 1);
        assert_eq!(metrics.per_tenant["bob"].completed, 1);
        assert_eq!(metrics.per_tenant["alice"].dispatched, 1);
        assert_eq!(metrics.per_tenant["alice"].in_flight, 0);
        assert_eq!(metrics.per_backend["qml-gate-simulator"].jobs, 1);
        assert_eq!(metrics.per_backend["qml-simulated-annealer"].jobs, 1);
        assert!(metrics.per_backend["qml-gate-simulator"].busy_seconds > 0.0);
        assert_eq!(metrics.scheduler.dispatched, 2);
    }

    #[test]
    fn invalid_sweep_is_rejected_atomically() {
        let service = QmlService::with_config(ServiceConfig::with_workers(1));
        let sweep = SweepRequest::new(
            "bad",
            qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Symbolic { layers: 1 }).unwrap(),
        );
        assert!(service.submit_sweep("alice", sweep).is_err());
        assert_eq!(service.metrics().jobs_submitted, 0);
        assert_eq!(service.metrics().queue_depth, 0);
    }

    #[test]
    fn metrics_snapshot_reports_last_run() {
        let service = QmlService::with_config(ServiceConfig::with_workers(2));
        let mut sweep = SweepRequest::new("seeds", gate_program());
        for seed in 0..6 {
            sweep = sweep.with_context(gate_context(seed));
        }
        service.submit_sweep("alice", sweep).unwrap();
        let report = service.run_pending();
        assert_eq!(report.jobs, 6);
        assert!(report.jobs_per_second > 0.0);
        let metrics = service.metrics();
        assert_eq!(metrics.last_run, Some(report));
        assert_eq!(metrics.gate_cache.misses, 1);
        assert_eq!(metrics.gate_cache.hits, 5);
    }

    #[test]
    fn tenant_ids_are_interned_not_cloned() {
        let service = QmlService::with_config(ServiceConfig::with_workers(1));
        let (batch_a, job_a) = service
            .submit("alice", gate_program().with_context(gate_context(1)))
            .unwrap();
        let (_, job_b) = service
            .submit("alice", gate_program().with_context(gate_context(2)))
            .unwrap();
        let a = service.tenant_of(job_a).unwrap();
        let b = service.tenant_of(job_b).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one shared allocation per tenant");
        let batch = service.batch_tenant(batch_a).unwrap();
        assert!(Arc::ptr_eq(&a, &batch));
    }

    #[test]
    fn start_twice_is_rejected() {
        let service = QmlService::with_config(ServiceConfig::with_workers(1));
        let handle = service.start().unwrap();
        assert!(service.start().is_err());
        handle.drain();
        // After a shutdown the service can be started again.
        service.start().unwrap().drain();
    }

    #[test]
    fn panicking_backend_fails_its_job_and_strands_nothing() {
        use qml_backends::testing::{faulty, FaultPlan};
        use qml_backends::GateBackend;
        use qml_runtime::{BackendRegistry, Scheduler};

        const JOBS: usize = 6;
        let mut registry = BackendRegistry::new();
        registry.register(faulty(
            GateBackend::new(),
            FaultPlan::none().with_panic_nth([2]),
        ));
        // Solo dispatches, so the one scheduled panic takes exactly one job.
        let service = QmlService::with_runtime(
            Runtime::new(Scheduler::new(registry)),
            ServiceConfig::with_workers(2).with_max_batch(1),
        );
        let jobs: Vec<JobId> = (0..JOBS as u64)
            .map(|seed| {
                let bundle = gate_program().with_context(gate_context(seed));
                service.submit("alice", bundle).unwrap().1
            })
            .collect();

        let report = service.start().unwrap().drain();
        assert_eq!(report.failed, 1);
        assert_eq!(report.completed, JOBS - 1);
        assert_eq!(service.inner.sched.lock().in_flight(), 0);
        let failures: Vec<String> = jobs
            .iter()
            .filter_map(|id| match service.status(*id) {
                Some(JobStatus::Failed(msg)) => Some(msg),
                other => {
                    assert_eq!(other, Some(JobStatus::Completed));
                    None
                }
            })
            .collect();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("backend panicked"), "{}", failures[0]);

        // Both workers survived: the pool starts and drains again.
        service
            .submit("alice", gate_program().with_context(gate_context(99)))
            .unwrap();
        assert_eq!(service.start().unwrap().drain().completed, 1);
    }

    #[test]
    fn runtime_direct_submissions_still_drain() {
        // Jobs handed straight to the runtime bypass the fair scheduler;
        // run_pending (and any drain) must still execute them.
        let service = QmlService::with_config(ServiceConfig::with_workers(2));
        let direct = service
            .runtime()
            .submit(gate_program().with_context(gate_context(7)))
            .unwrap();
        service
            .submit("alice", gate_program().with_context(gate_context(8)))
            .unwrap();
        let report = service.run_pending();
        assert_eq!(report.jobs, 2);
        assert_eq!(report.completed, 2);
        assert_eq!(service.status(direct), Some(JobStatus::Completed));
        assert_eq!(service.metrics().queue_depth, 0);
    }

    #[test]
    fn sub_unit_burst_does_not_starve_a_rate_limited_tenant() {
        // burst = 0.25 can never hold a whole token; it must behave as 1.0
        // rather than silently zeroing the tenant's throughput.
        use crate::scheduler::RateLimit;
        let config = ServiceConfig::with_workers(1).with_tenant_policy(
            "drip",
            TenantPolicy::default().with_rate_limit(RateLimit::per_second(1000.0).with_burst(0.25)),
        );
        let service = QmlService::with_config(config);
        for seed in 0..3 {
            service
                .submit("drip", gate_program().with_context(gate_context(seed)))
                .unwrap();
        }
        let handle = service.start().unwrap();
        assert!(
            service.wait_idle(std::time::Duration::from_secs(30)),
            "sub-unit burst must not starve the tenant"
        );
        assert_eq!(handle.drain().completed, 3);
    }

    #[test]
    fn dropping_the_handle_aborts_instead_of_leaking() {
        let service = QmlService::with_config(ServiceConfig::with_workers(1));
        {
            let _handle = service.start().unwrap();
        }
        // Pool is gone: a fresh start succeeds and drains cleanly.
        service
            .submit("alice", gate_program().with_context(gate_context(1)))
            .unwrap();
        let report = service.run_pending();
        assert_eq!(report.completed, 1);
    }
}
