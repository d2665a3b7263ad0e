//! The submission queue, the streaming service loop, and graceful shutdown.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use qml_backends::ExecutionResult;
use qml_observe::{
    NoopTracer, RingTracer, Stage, TraceEvent, TraceStats, Tracer, DEFAULT_TRACE_CAPACITY,
};
use qml_runtime::{JobDispatch, JobId, JobOutcome, JobSource, JobStatus, Runtime, WorkerPool};
use qml_types::{CapabilityDescriptor, JobBundle, JobRequirements, QmlError, Result, SealedBundle};

use crate::fleet::{DeviceSpec, DeviceUtilization, FleetRouter};
use crate::metrics::{BackendUtilization, RunSummary, ServiceMetrics, TenantStats};
use crate::observe::{MetricsRegistry, ObservabilitySnapshot};
use crate::scheduler::{FairScheduler, Job, Mode, SchedPoll, TenantPolicy};
use crate::sweep::SweepRequest;

/// Identifier of a submitted batch (single bundles get one too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BatchId(pub u64);

/// Service construction parameters: pool width plus the per-tenant
/// scheduling policies the fair scheduler enforces.
///
/// The measured-cost loop and the fleet's health ladder run at fixed
/// constants, not knobs: [`COST_EWMA_ALPHA`](crate::COST_EWMA_ALPHA),
/// [`CHARGE_BACK_CLAMP`](crate::CHARGE_BACK_CLAMP) and
/// [`DOWN_THRESHOLD`](crate::DOWN_THRESHOLD).
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
    /// Explicit fleet devices. A registered backend plane with no entry
    /// here gets one implicit unlimited device (`"<backend-name>#0"`), so
    /// every plane a job can be placed on has a device to route to.
    pub devices: Vec<DeviceSpec>,
    /// Route one recovery probe job to a down device every this many
    /// settled outcomes. `0` (the default) disables probing: a down device
    /// stays down.
    pub probe_interval: u64,
}

/// Default [`ServiceConfig::max_batch`]: large enough that sweep traffic
/// amortizes dispatch and realization overhead, small enough that a batch
/// does not serialize a whole sweep onto one worker of a small pool.
pub const DEFAULT_MAX_BATCH: usize = 8;

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
            tracing: false,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            devices: Vec::new(),
            probe_interval: 0,
        }
    }

    /// Register one fleet device, builder-style (see
    /// [`ServiceConfig::devices`]).
    pub fn with_device(mut self, spec: DeviceSpec) -> Self {
        self.devices.push(spec);
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

/// Everything the service counts, under its one lock: the fair scheduler
/// (queues, in-flight records, fleet, per-tenant and per-class ledgers)
/// and the few facts only the service layer knows.
struct ServiceState {
    sched: FairScheduler,
    next_batch: u64,
    next_job: u64,
    /// Jobs of each batch, in expansion order.
    batches: BTreeMap<BatchId, Vec<JobId>>,
    /// Every admitted job's status, result and terminal device.
    jobs: BTreeMap<JobId, JobRecord>,
    /// Bundles of settled jobs, freed by the next submission on its own
    /// thread: freeing them on the workers cost `compile_cold` about a
    /// quarter of its throughput.
    retired: Vec<SealedBundle>,
    last_run: Option<RunSummary>,
}

/// What the service reports about one job. Its status is written at three
/// points, each under the service lock: `Queued` at admission, `Running`
/// when a worker takes its dispatch, and terminal — or `Queued` again after
/// a failover — in the critical section that settles its outcome.
#[derive(Debug)]
struct JobRecord {
    status: JobStatus,
    result: Option<ExecutionResult>,
    /// The fleet device that produced the terminal outcome.
    device: Option<Arc<str>>,
}

/// The shared core behind every [`QmlService`] clone and every pool worker.
struct ServiceInner {
    /// Dropped first, so the plan cache's large frees come after the job
    /// table's small ones and make the allocator merge them then, not in
    /// the next allocation-heavy call (measured: 15–25 ms stalls).
    state: Mutex<ServiceState>,
    /// Notified by [`ServiceInner::change`] after every state change that
    /// can make work dispatchable or a waiter's condition true; idle workers,
    /// `wait_for` and `wait_idle` block on it in [`ServiceInner::wait_until`].
    wake: Condvar,
    runtime: Arc<Runtime>,
    config: ServiceConfig,
    /// Shared observability sink (stage-event tracer + latency histograms);
    /// the same registry the scheduler and — tracer only — the runtime
    /// report through, so every layer's events share one clock epoch.
    obs: Arc<MetricsRegistry>,
}

impl ServiceInner {
    /// Settle one finished job in one critical section, at one clock read:
    /// [`FairScheduler::settle_outcome`] frees its fleet slot and either
    /// fails a device fault over to another device or books the terminal
    /// outcome (tenant, class and device counts, cost model, deficit
    /// charge-back); then the `executed`/`outcome` observations land. All
    /// of it happens before the lock is released, so once `wait_idle`
    /// observes quiescence every finished job is visible in `metrics()` and
    /// in the trace, with its status. Called from pool workers as jobs
    /// complete.
    fn record_outcome(&self, outcome: &JobOutcome) {
        let seconds = outcome.duration.as_secs_f64();
        let fault = matches!(&outcome.result, Err(e) if e.is_device_fault());
        self.change(|state| {
            let settled = state.sched.settle_outcome(
                outcome.id,
                seconds,
                outcome.result.is_ok(),
                fault,
                Instant::now(),
            );
            // A failed-over job is queued again: its result, device, traces and
            // latency samples wait for the attempt that settles it.
            let record = state
                .jobs
                .get_mut(&outcome.id)
                .expect("admitted at submission");
            let Some((tenant, bundle)) = settled else {
                record.status = JobStatus::Queued;
                return;
            };
            state.retired.push(bundle);
            let measured_us = outcome.duration.as_micros() as u64;
            self.obs
                .observe_exec(&tenant, &outcome.backend, measured_us);
            if self.obs.tracing_enabled() {
                let ok = outcome.result.is_ok();
                for stage in [Stage::Executed { measured_us }, Stage::Outcome { ok }] {
                    self.obs.trace(outcome.id, Some(&tenant), None, stage);
                }
            }
            record.device = outcome.device.clone();
            match &outcome.result {
                Ok(result) => {
                    record.status = JobStatus::Completed;
                    // The worker frees the original, grown piecemeal while
                    // sampling; keeping it stalled the next service's first jobs
                    // for 10–30 ms (perfbench `mixed_latency` setup).
                    record.result = Some(result.clone());
                }
                Err(err) => record.status = JobStatus::Failed(err.to_string()),
            }
        });
    }

    /// Apply `apply` to the state under the lock, then wake every waiter
    /// to re-check: the one way a state change reaches blocked threads.
    fn change<T>(&self, apply: impl FnOnce(&mut ServiceState) -> T) -> T {
        let answer = apply(&mut self.state.lock());
        self.wake.notify_all();
        answer
    }

    /// The one way the service waits: `poll` the state under the lock
    /// until it answers `Ok`, blocking on [`ServiceInner::wake`] after each
    /// `Err` until notified or until the instant the `Err` names. A spurious
    /// or early wake costs one more poll. Poisoning is recovered from, as
    /// the mutex itself does.
    fn wait_until<T>(
        &self,
        mut poll: impl FnMut(&mut ServiceState) -> std::result::Result<T, Option<Instant>>,
    ) -> T {
        let mut guard = self.state.lock();
        loop {
            guard = match poll(&mut guard) {
                Ok(answer) => return answer,
                Err(None) => self
                    .wake
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner),
                Err(Some(at)) => {
                    let timeout = at.saturating_duration_since(Instant::now());
                    let woken = self.wake.wait_timeout(guard, timeout);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
    }

    /// A point-in-time [`ServiceMetrics`] snapshot (shared by the service
    /// and its streaming handle).
    fn metrics(&self) -> ServiceMetrics {
        let cache = self.runtime.cache();
        let (all, gate, anneal) = (cache.stats(), cache.gate_stats(), cache.anneal_stats());
        let state = self.state.lock();
        let totals = state.sched.totals();
        let per_device = state.sched.device_snapshot();
        // A plane's totals fold its devices' gauges; a requeued attempt is no job.
        let mut per_backend = BTreeMap::<String, BackendUtilization>::new();
        for device in per_device.values().filter(|d| d.dispatched > 0) {
            let util = per_backend.entry(device.plane.clone()).or_default();
            util.jobs += device.completed + device.failed - device.requeued;
            util.busy_seconds += device.busy_seconds;
        }
        ServiceMetrics {
            jobs_submitted: totals.submitted,
            jobs_completed: totals.completed,
            jobs_failed: totals.failed,
            queue_depth: state.sched.queued(),
            cache: all,
            gate_cache: gate,
            anneal_cache: anneal,
            scheduler: state.sched.metrics,
            per_backend,
            per_device,
            per_class: state.sched.class_snapshot(),
            per_tenant: state.sched.tenant_snapshot(),
            last_run: state.last_run,
        }
    }

    /// The unified observability snapshot: [`ServiceInner::metrics`] plus
    /// latency percentiles, cost gauges, and tracer health.
    fn snapshot(&self) -> ObservabilitySnapshot {
        self.obs.snapshot(self.metrics())
    }
}

/// Pool workers pull their next job straight from the fair scheduler, and
/// wait while it has nothing to dispatch: until notified, or until a
/// throttled tenant's bucket holds a token.
impl JobSource for ServiceInner {
    fn next_job(&self, _worker: usize) -> Option<JobDispatch> {
        self.wait_until(|state| match state.sched.next_job(Instant::now()) {
            SchedPoll::Dispatch(dispatch) => {
                for id in dispatch.ids() {
                    let record = state.jobs.get_mut(&id).expect("admitted at submission");
                    record.status = JobStatus::Running;
                }
                Ok(Some(dispatch))
            }
            SchedPoll::Idle(wake) => Err(wake),
            SchedPoll::Shutdown => Ok(None),
        })
    }
}

/// The multi-tenant execution service.
///
/// Submissions (single bundles or [`SweepRequest`]s) are validated and
/// expanded eagerly, recorded in the service's job table, and admitted to
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
        // Every registered backend plane fronts a fleet: explicitly
        // configured devices where given, otherwise one implicit unlimited
        // device per plane, so every dispatch is routed to a device.
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
        let fleet = FleetRouter::new(specs, config.probe_interval);
        let state = ServiceState {
            sched: FairScheduler::new(config.max_batch, Arc::clone(&obs), fleet),
            next_batch: 0,
            next_job: 0,
            batches: BTreeMap::new(),
            jobs: BTreeMap::new(),
            retired: Vec::new(),
            last_run: None,
        };
        QmlService {
            inner: Arc::new(ServiceInner {
                runtime: Arc::new(runtime),
                config,
                state: Mutex::new(state),
                wake: Condvar::new(),
                obs,
            }),
        }
    }

    /// Submit one bundle for a tenant. Returns the batch (of size one) and
    /// the job id. Accepted while a streaming pool is running: the job is
    /// picked up by the fair scheduler without any drain/restart. A bundle
    /// that fails validation, that no registered backend can take, or that
    /// no device of its backend's fleet could ever serve is rejected here,
    /// before it is given an id.
    pub fn submit(&self, tenant: &str, bundle: JobBundle) -> Result<(BatchId, JobId)> {
        let (batch, first) = self.submit_jobs(tenant, vec![SealedBundle::seal(bundle)?])?;
        Ok((batch, first.expect("a batch of one has a job")))
    }

    /// Expand and submit a parameter sweep for a tenant. The whole sweep is
    /// validated and placed before any job is queued: a malformed sweep, or
    /// one with a member [`QmlService::submit`] would reject, is rejected
    /// atomically. Like `submit`, sweeps are accepted while the service is
    /// running.
    pub fn submit_sweep(&self, tenant: &str, sweep: SweepRequest) -> Result<BatchId> {
        let jobs = sweep.expand_sealed()?;
        Ok(self.submit_jobs(tenant, jobs)?.0)
    }

    /// Admit sealed bundles as one batch; returns it with its first job.
    /// Sealing is the one validation boundary: every bundle here is already
    /// validated, and its program hashes are memoized for the batch key and
    /// the workers' plan lookup.
    fn submit_jobs(
        &self,
        tenant: &str,
        bundles: Vec<SealedBundle>,
    ) -> Result<(BatchId, Option<JobId>)> {
        // Place each job once, before taking any lock: an unplaceable job
        // rejects the whole batch before any id is assigned. The fair
        // scheduler spends DRR deficit in estimated-cost units, and the
        // placement rides every dispatch to the worker, which never places.
        // The placed backend also stamps its device-level batch key (plan
        // identity folded with the backend name) so the scheduler can
        // coalesce plan-compatible jobs into micro-batches.
        let mut prepared = Vec::with_capacity(bundles.len());
        for bundle in bundles {
            let placement = self.inner.runtime.scheduler().place(&bundle)?;
            let batch_key = placement.backend.batch_key(&bundle).map(|key| {
                use qml_types::bundle::{fnv1a64_init, fnv1a64_update};
                let hash = fnv1a64_update(fnv1a64_init(), placement.backend.name().as_bytes());
                fnv1a64_update(hash, &key.to_le_bytes())
            });
            // An explicit `duration_us` cost hint is the submitter's own
            // wall-clock claim: it seeds the measured-cost model (and prices
            // this admission) until real measurements take over.
            let hint_seconds = hint_seconds(&bundle);
            // Fleet requirements are derived once here and carried with the
            // job, so routing — and re-routing after a device fault — never
            // re-parses descriptors.
            let requirements = JobRequirements::of(&bundle);
            let job = Job {
                // Placeholders until the id is assigned and the deadline is
                // stamped, both at admission below.
                id: JobId(0),
                class: bundle.service_class(),
                bundle,
                cost: placement.estimated_cost,
                placement,
                batch_key,
                requirements,
                deadline: None,
                retry: false,
            };
            prepared.push((job, hint_seconds));
        }
        // One critical section and one clock read for the whole batch: a
        // worker's dispatch `now` is read under the same lock, so
        // `submitted ≤ now` holds by construction, and each deadline is
        // exactly its class budget after submission (queue wait counts
        // against it).
        let (batch, first, retired) = self.inner.change(|state| {
            let now = Instant::now();
            // Fleet feasibility, before anything is recorded: a job no device on
            // its placed plane could *ever* serve (too wide, wrong optimization
            // level) rejects the whole batch atomically, instead of queueing
            // work that can only bounce until it fails.
            for (job, _) in &prepared {
                let plane = job.placement.backend.name();
                if !state.sched.feasible(plane, &job.requirements) {
                    return Err(QmlError::Validation(format!(
                        "no device in the '{plane}' fleet can serve this job \
                         (width {}, optimization level {})",
                        job.requirements.qubits, job.requirements.opt_level
                    )));
                }
            }
            let tenant = state
                .sched
                .intern(tenant, self.inner.config.policy_for(tenant), now);
            let batch = BatchId(state.next_batch);
            state.next_batch += 1;
            let mut job_ids = Vec::with_capacity(prepared.len());
            for (mut job, hint_seconds) in prepared {
                job.id = JobId(state.next_job);
                state.next_job += 1;
                state.jobs.insert(
                    job.id,
                    JobRecord {
                        status: JobStatus::Queued,
                        result: None,
                        device: None,
                    },
                );
                job.deadline = job.class.deadline().map(|budget| now + budget);
                job_ids.push(job.id);
                // `submitted` lands immediately before the scheduler's own
                // `admitted` event, under the same lock: per-job stage order and
                // timestamp order agree by construction.
                if self.inner.obs.tracing_enabled() {
                    self.inner
                        .obs
                        .trace(job.id, Some(&tenant), job.batch_key, Stage::Submitted);
                }
                state.sched.admit_job(&tenant, job, hint_seconds, now);
            }
            let first = job_ids.first().copied();
            state.batches.insert(batch, job_ids);
            Ok((batch, first, std::mem::take(&mut state.retired)))
        })?;
        drop(retired);
        Ok((batch, first))
    }

    /// Jobs of a batch, in expansion order (empty for unknown batches).
    pub fn batch_jobs(&self, batch: BatchId) -> Vec<JobId> {
        self.inner
            .state
            .lock()
            .batches
            .get(&batch)
            .cloned()
            .unwrap_or_default()
    }

    /// Status of a job.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        Some(self.inner.state.lock().jobs.get(&id)?.status.clone())
    }

    /// Result of a completed job.
    pub fn result(&self, id: JobId) -> Option<ExecutionResult> {
        self.inner.state.lock().jobs.get(&id)?.result.clone()
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
        let at_start = {
            let mut state = self.inner.state.lock();
            if state.sched.mode != Mode::Stopped {
                return Err(QmlError::Validation(
                    "service is already running a streaming pool".into(),
                ));
            }
            state.sched.mode = Mode::Running;
            state.sched.totals()
        };
        let sink = {
            let inner = Arc::clone(&self.inner);
            Arc::new(move |outcome: JobOutcome| inner.record_outcome(&outcome))
        };
        let source: Arc<dyn JobSource> = Arc::clone(&self.inner) as Arc<dyn JobSource>;
        let pool = WorkerPool::spawn(&self.inner.runtime, self.inner.config.workers, source, sink);
        Ok(ServiceHandle {
            inner: Arc::clone(&self.inner),
            pool: Some(pool),
            at_start,
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
    /// *running* service; without a pool this only times out. A job being
    /// failed over to another device reads `Queued`, never `Failed`.
    pub fn wait_for(&self, job: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        self.inner.wait_until(|state| match state.jobs.get(&job) {
            Some(record)
                if matches!(record.status, JobStatus::Queued | JobStatus::Running)
                    && Instant::now() < deadline =>
            {
                Err(Some(deadline))
            }
            record => Ok(record.map(|record| record.status.clone())),
        })
    }

    /// Block until the service is quiescent — no job admitted to the fair
    /// scheduler is queued or in flight — or `timeout` elapses. Returns
    /// true if quiescence was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.inner.wait_until(|state| {
            let idle = state.sched.queued() == 0 && state.sched.in_flight() == 0;
            if idle || Instant::now() >= deadline {
                Ok(idle)
            } else {
                Err(Some(deadline))
            }
        })
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

    /// The fleet device that produced a job's **terminal** outcome (`None`
    /// until the job settles). Requeued attempts are not recorded: by the
    /// time this returns a device, the result is final.
    pub fn device_of(&self, id: JobId) -> Option<Arc<str>> {
        self.inner.state.lock().jobs.get(&id)?.device.clone()
    }

    /// Per-device fleet gauges keyed by device id: health, dispatch /
    /// completion / failover counters, busy-seconds, in-flight members.
    /// `busy_seconds` folds: summing one plane's devices reproduces that
    /// plane's [`BackendUtilization`] busy-seconds.
    pub fn device_metrics(&self) -> BTreeMap<String, DeviceUtilization> {
        self.inner.state.lock().sched.device_snapshot()
    }

    /// Cordon a fleet device for maintenance: it accepts no new routes and
    /// in-flight work finishes normally. A job that only this device could
    /// take waits in its tenant's queue until the cordon lifts. Health
    /// state and fault counters are untouched —
    /// [`QmlService::uncordon_device`] restores routing exactly as it was.
    /// Returns false for unknown device ids.
    pub fn cordon_device(&self, device: &str) -> bool {
        self.inner.change(|state| state.sched.cordon(device))
    }

    /// Lift a cordon placed by [`QmlService::cordon_device`]. Returns false
    /// for unknown device ids.
    pub fn uncordon_device(&self, device: &str) -> bool {
        self.inner.change(|state| state.sched.uncordon(device))
    }
}

/// The bundle's explicit wall-clock claim, if any: its operators' cost
/// hints folded with [`CostHint::saturating_add`], whose duration survives
/// only when **every** operator carries one — the aggregate never
/// over-claims precision, so a lone hinted operator among unhinted ones
/// cannot price (and seed the cost model for) the whole bundle. Each
/// operator's duration is finite and non-negative (the seal checks it), but
/// a sum of them can still overflow to infinity: such a claim is no claim.
///
/// [`CostHint::saturating_add`]: qml_types::CostHint::saturating_add
fn hint_seconds(bundle: &JobBundle) -> Option<f64> {
    let total = bundle
        .operators
        .iter()
        .map(|op| op.cost_hint.unwrap_or_default())
        .reduce(|a, b| a.saturating_add(&b))?;
    total
        .duration_us
        .filter(|us| us.is_finite())
        .map(|us| us / 1e6)
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
    /// The service totals when the pool started: a run's summary is the
    /// difference at shutdown.
    at_start: TenantStats,
    started: Instant,
}

impl ServiceHandle {
    /// Graceful shutdown: execute everything admitted (rate limits are
    /// waived so throttled tenants cannot stall shutdown; weights and
    /// in-flight caps still apply), wait for in-flight work, stop the pool.
    /// Returns the summary of the whole run.
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
        self.inner.change(|state| state.sched.mode = mode);
        let pool = self.pool.take().expect("shut down once");
        let workers = pool.workers();
        pool.join();
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let mut state = self.inner.state.lock();
        let totals = state.sched.totals();
        let completed = (totals.completed - self.at_start.completed) as usize;
        let failed = (totals.failed - self.at_start.failed) as usize;
        let jobs = completed + failed;
        let summary = RunSummary {
            jobs,
            completed,
            failed,
            workers,
            wall_seconds,
            jobs_per_second: if wall_seconds > 0.0 {
                jobs as f64 / wall_seconds
            } else {
                0.0
            },
        };
        state.last_run = Some(summary);
        state.sched.mode = Mode::Stopped;
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
    fn unplaceable_bundles_are_rejected_before_admission() {
        // No backend serves the engine: `submit` rejects the bundle, and a
        // sweep with one such member is rejected whole, before any id is
        // assigned — nothing is counted as submitted or queued.
        let service = QmlService::with_config(ServiceConfig::with_workers(1));
        let pulse = ContextDescriptor::for_gate(ExecConfig::new("pulse.qblox_cluster"));
        let err = service
            .submit("alice", gate_program().with_context(pulse.clone()))
            .unwrap_err();
        assert!(matches!(err, QmlError::Unsupported(_)), "{err}");
        let sweep = SweepRequest::new("mixed", gate_program())
            .with_context(gate_context(1))
            .with_context(pulse);
        assert!(service.submit_sweep("alice", sweep).is_err());
        let metrics = service.metrics();
        assert_eq!(metrics.jobs_submitted, 0);
        assert_eq!(metrics.queue_depth, 0);
        assert!(metrics.per_tenant.is_empty(), "no tenant was admitted");

        // The next admitted job is the service's first.
        let (batch, job) = service
            .submit("alice", gate_program().with_context(gate_context(2)))
            .unwrap();
        assert_eq!((batch, job), (BatchId(0), JobId(0)));
        assert_eq!(service.run_pending().completed, 1);
    }

    #[test]
    fn an_overflowing_duration_hint_admits_at_a_finite_cost() {
        // Every operator claims 1e308 µs, each finite; their sum is +inf.
        // Priced at +inf, the job would make the DRR quantum infinite while
        // it heads a queue, and the deficits NaN.
        use qml_types::CostHint;

        let service = QmlService::with_config(ServiceConfig::with_workers(1).with_tracing(true));
        let mut bundle = gate_program().with_context(gate_context(1));
        assert!(bundle.operators.len() >= 2);
        for op in &mut bundle.operators {
            op.cost_hint = Some(CostHint::unknown().with_duration_us(1e308));
        }
        let (_, job) = service.submit("alice", bundle).unwrap();
        let admitted: Vec<f64> = service
            .trace_events()
            .into_iter()
            .filter_map(|event| match event.stage {
                Stage::Admitted { cost } if event.job == job.0 => Some(cost),
                _ => None,
            })
            .collect();
        assert_eq!(admitted.len(), 1);
        assert!(admitted[0].is_finite(), "admitted at {}", admitted[0]);
        assert_eq!(service.run_pending().completed, 1);
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
    fn settled_bundles_are_freed_by_the_next_submission() {
        let service = QmlService::with_config(ServiceConfig::with_workers(2));
        for seed in 0..3 {
            let bundle = gate_program().with_context(gate_context(seed));
            service.submit("alice", bundle).unwrap();
        }
        service.run_pending();
        assert_eq!(service.inner.state.lock().retired.len(), 3);
        let (_, job) = service
            .submit("alice", gate_program().with_context(gate_context(9)))
            .unwrap();
        assert!(service.inner.state.lock().retired.is_empty());
        assert_eq!(service.status(job), Some(JobStatus::Queued));
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
        assert_eq!(service.inner.state.lock().sched.in_flight(), 0);
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
