//! The submission queue, the streaming service loop, and graceful shutdown.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use qml_backends::ExecutionResult;
use qml_observe::{NoopTracer, RingTracer, TraceEvent, TraceStats, Tracer, DEFAULT_TRACE_CAPACITY};
use qml_runtime::{JobDispatch, JobId, JobOutcome, JobSource, JobStatus, Runtime, WorkerPool};
use qml_types::{CapabilityDescriptor, JobBundle, Result, SealedBundle};

use crate::core::ServiceCore;
use crate::fleet::{DeviceSpec, DeviceUtilization, FleetRouter};
use crate::metrics::{RunSummary, ServiceMetrics};
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
/// constants, not knobs: `COST_EWMA_ALPHA` (0.4), `CHARGE_BACK_CLAMP` (16)
/// and `DOWN_THRESHOLD` (2).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the streaming pool (and in `run_pending` drains).
    pub workers: usize,
    /// Largest number of plan-compatible throughput-class jobs the fair
    /// scheduler may coalesce into one device-level dispatch (see the
    /// micro-batching notes on [`QmlService`]). `1` disables batching; the
    /// default is `DEFAULT_MAX_BATCH` (8). Latency-class dispatches
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
pub(crate) const DEFAULT_MAX_BATCH: usize = 8;

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
    pub(crate) fn policy_for(&self, tenant: &str) -> &TenantPolicy {
        self.tenant_policies
            .get(tenant)
            .unwrap_or(&self.default_policy)
    }
}

/// The shared shell behind every [`QmlService`] clone and every pool
/// worker: the [`ServiceCore`] under one lock, and the condition variable
/// its waiters block on.
struct ServiceInner {
    /// Dropped first, so the plan cache's large frees come after the job
    /// table's small ones and make the allocator merge them then, not in
    /// the next allocation-heavy call (measured: 15–25 ms stalls).
    core: Mutex<ServiceCore>,
    /// Notified by [`ServiceInner::change`] after every event, so idle
    /// workers, `wait_for` and `wait_idle` re-check in
    /// [`ServiceInner::wait_until`].
    wake: Condvar,
    runtime: Arc<Runtime>,
    config: ServiceConfig,
    /// Shared observability sink (stage-event tracer + latency histograms);
    /// the same registry the core and — tracer only — the runtime report
    /// through, so every layer's events share one clock epoch.
    obs: Arc<MetricsRegistry>,
}

impl ServiceInner {
    /// The one way an event reaches the core: lock, read the clock once,
    /// apply `event`, then wake every waiter to re-check.
    fn change<T>(&self, event: impl FnOnce(&mut ServiceCore, Instant) -> T) -> T {
        let answer = event(&mut self.core.lock(), Instant::now());
        self.wake.notify_all();
        answer
    }

    /// The one way the service waits: `poll` the core under the lock at a
    /// fresh clock read until it answers `Ok`, blocking on
    /// [`ServiceInner::wake`] after each `Err` until notified or until the
    /// instant the `Err` names. A spurious or early wake costs one more
    /// poll. Poisoning is recovered from, as the mutex itself does.
    fn wait_until<T>(
        &self,
        mut poll: impl FnMut(&mut ServiceCore, Instant) -> std::result::Result<T, Option<Instant>>,
    ) -> T {
        let mut guard = self.core.lock();
        loop {
            let now = Instant::now();
            let at = match poll(&mut guard, now) {
                Ok(answer) => return answer,
                Err(at) => at,
            };
            let timeout = at.map_or(Duration::MAX, |at| at.saturating_duration_since(now));
            let woken = self.wake.wait_timeout(guard, timeout);
            guard = woken.unwrap_or_else(PoisonError::into_inner).0;
        }
    }
}

/// Pool workers take their next job from the core, and wait while it has
/// nothing to dispatch: until notified, or until a throttled tenant's
/// bucket holds a token.
impl JobSource for ServiceInner {
    fn next_job(&self, _worker: usize) -> Option<JobDispatch> {
        self.wait_until(|core, now| match core.take(now) {
            SchedPoll::Dispatch(dispatch) => Ok(Some(dispatch)),
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
/// that share a batch key — same backend, same realization plan (see
/// [`qml_backends::Backend::batch_key`]) — into one dispatch: one scheduler
/// round-trip, after which the worker runs each member as its own backend
/// call against the plan the cache holds. Fairness accounting is unchanged
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
#[derive(Clone)]
pub struct QmlService {
    inner: Arc<ServiceInner>,
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
        // Workers' plan/bind events land in the service's event stream.
        runtime.set_tracer(Arc::clone(obs.tracer()));
        // Every registered plane fronts a fleet: the configured devices, or
        // one implicit unlimited device, so every dispatch has a device.
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
        let sched = FairScheduler::new(config.max_batch, Arc::clone(&obs), fleet);
        QmlService {
            inner: Arc::new(ServiceInner {
                core: Mutex::new(ServiceCore::new(sched, Arc::clone(&obs))),
                wake: Condvar::new(),
                runtime: Arc::new(runtime),
                config,
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
        // Place each job once, before taking the lock: an unplaceable job
        // rejects the whole batch before any id is assigned, and the
        // placement rides every dispatch to the worker.
        let prepared = bundles
            .into_iter()
            .map(|bundle| {
                let placement = self.inner.runtime.scheduler().place(&bundle)?;
                Ok(Job::placed(bundle, placement))
            })
            .collect::<Result<Vec<_>>>()?;
        // One critical section and one clock read for the whole batch, so
        // `submitted ≤ now` holds for every dispatch; the retired bundles
        // are freed here, after the lock.
        let policy = self.inner.config.policy_for(tenant);
        let (batch, first, _retired) =
            (self.inner).change(|core, now| core.admit(tenant, policy, prepared, now))?;
        Ok((batch, first))
    }

    /// Jobs of a batch, in expansion order (empty for unknown batches).
    pub fn batch_jobs(&self, batch: BatchId) -> Vec<JobId> {
        self.inner.core.lock().batch_jobs(batch)
    }

    /// Status of a job.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.inner.core.lock().status(id)
    }

    /// Result of a completed job.
    pub fn result(&self, id: JobId) -> Option<ExecutionResult> {
        self.inner.core.lock().result(id)
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
        self.inner.change(|core, now| core.start(now))?;
        let sink = {
            let inner = Arc::clone(&self.inner);
            Arc::new(move |outcome: JobOutcome| {
                inner.change(|core, now| core.settle(&outcome, now))
            })
        };
        let source: Arc<dyn JobSource> = Arc::clone(&self.inner) as Arc<dyn JobSource>;
        let pool = WorkerPool::spawn(&self.inner.runtime, self.inner.config.workers, source, sink);
        Ok(ServiceHandle {
            service: self.clone(),
            pool: Some(pool),
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
        // A timeout past the clock's range is no deadline.
        let deadline = Instant::now().checked_add(timeout);
        self.inner.wait_until(|core, now| match core.status(job) {
            Some(JobStatus::Queued | JobStatus::Running) if deadline.is_none_or(|d| now < d) => {
                Err(deadline)
            }
            status => Ok(status),
        })
    }

    /// Block until the service is quiescent — no job admitted to the fair
    /// scheduler is queued or in flight — or `timeout` elapses. Returns
    /// true if quiescence was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now().checked_add(timeout);
        self.inner.wait_until(|core, now| match core.is_idle() {
            false if deadline.is_none_or(|d| now < d) => Err(deadline),
            idle => Ok(idle),
        })
    }

    /// A point-in-time snapshot of service health.
    pub fn metrics(&self) -> ServiceMetrics {
        let cache = self.inner.runtime.cache();
        let stats = [cache.stats(), cache.gate_stats(), cache.anneal_stats()];
        self.inner.core.lock().metrics(stats)
    }

    /// The unified observability snapshot: [`QmlService::metrics`] folded
    /// together with per-tenant / per-backend latency percentiles,
    /// cost-model gauges, and trace-buffer health. Serialize it with
    /// [`to_jsonl`](ObservabilitySnapshot::to_jsonl), or grep it via
    /// [`dump_kv`](ObservabilitySnapshot::dump_kv).
    pub fn snapshot(&self) -> ObservabilitySnapshot {
        self.inner.obs.snapshot(self.metrics())
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
        self.inner.core.lock().device_of(id)
    }

    /// Per-device fleet gauges keyed by device id: health, dispatch /
    /// completion / failover counters, busy-seconds, in-flight members.
    /// `busy_seconds` folds: summing one plane's devices reproduces that
    /// plane's [`BackendUtilization`](crate::BackendUtilization) busy-seconds.
    pub fn device_metrics(&self) -> BTreeMap<String, DeviceUtilization> {
        self.inner.core.lock().devices()
    }

    /// Cordon a fleet device for maintenance: it accepts no new routes and
    /// in-flight work finishes normally. A job that only this device could
    /// take waits in its tenant's queue until the cordon lifts. Health
    /// state and fault counters are untouched —
    /// [`QmlService::uncordon_device`] restores routing exactly as it was.
    /// Returns false for unknown device ids.
    pub fn cordon_device(&self, device: &str) -> bool {
        self.inner.change(|core, _| core.cordon(device))
    }

    /// Lift a cordon placed by [`QmlService::cordon_device`]. Returns false
    /// for unknown device ids.
    pub fn uncordon_device(&self, device: &str) -> bool {
        self.inner.change(|core, _| core.uncordon(device))
    }
}

/// Control handle for a running streaming pool (returned by
/// [`QmlService::start`]).
///
/// Exactly one of [`drain`](ServiceHandle::drain) /
/// [`abort`](ServiceHandle::abort) should end the run. Dropping the handle
/// without either aborts the pool (current jobs finish, the rest stay
/// queued) so worker threads are never leaked.
pub struct ServiceHandle {
    service: QmlService,
    pool: Option<WorkerPool>,
}

impl ServiceHandle {
    /// Graceful shutdown: execute everything admitted (rate limits are
    /// waived so throttled tenants cannot stall shutdown; weights and
    /// in-flight caps still apply), wait for in-flight work, stop the pool.
    /// Returns the summary of the whole run.
    pub fn drain(mut self) -> RunSummary {
        self.shutdown(Mode::Draining)
    }

    /// Hard stop: workers finish the dispatch they are on (every member of a
    /// micro-batch) and exit at the next dispatch boundary. Undispatched
    /// jobs stay queued and run on the next [`QmlService::start`] or
    /// [`QmlService::run_pending`]. Returns the summary of the run so far.
    pub fn abort(mut self) -> RunSummary {
        self.shutdown(Mode::Aborting)
    }

    /// Shut the pool down in `mode`: wake the workers to it, wait for them
    /// to exit, then close the run.
    fn shutdown(&mut self, mode: Mode) -> RunSummary {
        let inner = &self.service.inner;
        inner.change(|core, _| core.shut(mode));
        let pool = self.pool.take().expect("shut down once");
        let workers = pool.workers();
        pool.join();
        inner.change(|core, now| core.stop(workers, now))
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
    use qml_observe::Stage;
    use qml_types::QmlError;
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
        for op in Arc::make_mut(&mut bundle.operators) {
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
        assert_eq!(service.inner.core.lock().retired().len(), 3);
        let (_, job) = service
            .submit("alice", gate_program().with_context(gate_context(9)))
            .unwrap();
        assert!(service.inner.core.lock().retired().is_empty());
        assert_eq!(service.status(job), Some(JobStatus::Queued));
    }

    #[test]
    fn a_timeout_past_the_clocks_range_waits_without_a_deadline() {
        // `Instant::now() + Duration::MAX` overflows: such a timeout is no
        // deadline, and the wait ends when the job settles.
        let service = QmlService::with_config(ServiceConfig::with_workers(1));
        let bundle = gate_program().with_context(gate_context(1));
        let (_, job) = service.submit("alice", bundle).unwrap();
        let handle = service.start().unwrap();
        assert_eq!(
            service.wait_for(job, Duration::MAX),
            Some(JobStatus::Completed)
        );
        assert!(service.wait_idle(Duration::MAX));
        assert_eq!(handle.drain().completed, 1);
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
        assert_eq!(service.inner.core.lock().sched().in_flight(), 0);
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
