//! The service's state machine: everything the service knows, and one
//! method per event that changes it. [`ServiceCore`] owns the fair scheduler
//! (queues, in-flight records, fleet, ledgers), the job table, the batch
//! table and the retired bundles. It does no synchronization, no waiting and
//! no execution, and reads no clock: every event takes `now`, so a run is a
//! deterministic function of its events ("sans I/O"). `service.rs` places a
//! job, then locks, reads the clock once, calls one event and notifies its
//! waiters; this module's tests drive the same events on a virtual clock.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use qml_backends::ExecutionResult;
use qml_observe::Stage;
use qml_runtime::{JobId, JobOutcome, JobStatus};
use qml_types::{QmlError, Result, SealedBundle};

use crate::fleet::DeviceUtilization;
use crate::metrics::{BackendUtilization, CacheStats, RunSummary, ServiceMetrics, TenantStats};
use crate::observe::MetricsRegistry;
use crate::scheduler::{FairScheduler, Job, Mode, SchedPoll, TenantPolicy};
use crate::service::BatchId;

/// The service's state and its events.
pub(crate) struct ServiceCore {
    sched: FairScheduler,
    /// The scheduler's registry: `submitted`, `executed` and `outcome` land here.
    obs: Arc<MetricsRegistry>,
    next_batch: u64,
    next_job: u64,
    /// Jobs of each batch, in expansion order.
    batches: BTreeMap<BatchId, Vec<JobId>>,
    /// Every admitted job, with its terminal outcome once it has one. A job
    /// without one is `Running` while the scheduler has it in flight and
    /// `Queued` otherwise: its state is stored once.
    jobs: BTreeMap<JobId, Option<Settled>>,
    /// Bundles of settled jobs, handed to the next admission's caller to
    /// free: freeing them on the workers cost `compile_cold` about a quarter
    /// of its throughput.
    retired: Vec<SealedBundle>,
    /// The totals and the instant at the current run's start.
    run: Option<(TenantStats, Instant)>,
    last_run: Option<RunSummary>,
}

/// A job's terminal outcome and the fleet device that produced it.
struct Settled {
    result: std::result::Result<ExecutionResult, String>,
    device: Option<Arc<str>>,
}

impl ServiceCore {
    /// A stopped core over `sched`, which reports through `obs`.
    pub(crate) fn new(sched: FairScheduler, obs: Arc<MetricsRegistry>) -> Self {
        ServiceCore {
            sched,
            obs,
            next_batch: 0,
            next_job: 0,
            batches: BTreeMap::new(),
            jobs: BTreeMap::new(),
            retired: Vec::new(),
            run: None,
            last_run: None,
        }
    }

    /// Admit placed jobs as one batch of `tenant`'s at `now`; returns the
    /// batch, its first job and the retired bundles for the caller to free.
    /// A job no device could *ever* serve rejects the whole batch before
    /// anything is recorded.
    pub(crate) fn admit(
        &mut self,
        tenant: &str,
        policy: &TenantPolicy,
        jobs: Vec<Job>,
        now: Instant,
    ) -> Result<(BatchId, Option<JobId>, Vec<SealedBundle>)> {
        for job in &jobs {
            let plane = job.placement.backend.name();
            if !self.sched.feasible(plane, &job.requirements) {
                return Err(QmlError::Validation(format!(
                    "no device in the '{plane}' fleet can serve this job \
                     (width {}, optimization level {})",
                    job.requirements.qubits, job.requirements.opt_level
                )));
            }
        }
        let tenant = self.sched.intern(tenant, policy, now);
        let batch = BatchId(self.next_batch);
        self.next_batch += 1;
        let mut ids = Vec::with_capacity(jobs.len());
        for mut job in jobs {
            job.id = JobId(self.next_job);
            self.next_job += 1;
            self.jobs.insert(job.id, None);
            // A budget past the clock's range is no deadline.
            job.deadline = job
                .class
                .deadline()
                .and_then(|budget| now.checked_add(budget));
            ids.push(job.id);
            // Immediately before the scheduler's `admitted`, so stage order
            // and timestamp order agree.
            if self.obs.tracing_enabled() {
                (self.obs).trace(job.id, Some(&tenant), job.batch_key, Stage::Submitted);
            }
            self.sched.admit_job(&tenant, job, now);
        }
        let first = ids.first().copied();
        self.batches.insert(batch, ids);
        Ok((batch, first, std::mem::take(&mut self.retired)))
    }

    /// A worker asks for work at `now` (see [`FairScheduler::next_job`]).
    pub(crate) fn take(&mut self, now: Instant) -> SchedPoll {
        self.sched.next_job(now)
    }

    /// Settle one finished job at `now` (see
    /// [`FairScheduler::settle_outcome`]). A failed-over job is queued again,
    /// and its result, device and observations wait for the attempt that
    /// settles it; an outcome for a job not in flight settles nothing.
    pub(crate) fn settle(&mut self, outcome: &JobOutcome, now: Instant) {
        let (id, ok) = (outcome.id, outcome.result.is_ok());
        let seconds = outcome.duration.as_secs_f64();
        let fault = matches!(&outcome.result, Err(e) if e.is_device_fault());
        let Some((tenant, bundle)) = self.sched.settle_outcome(id, seconds, ok, fault, now) else {
            return;
        };
        self.retired.push(bundle);
        let measured_us = outcome.duration.as_micros() as u64;
        self.obs
            .observe_exec(&tenant, &outcome.backend, measured_us);
        if self.obs.tracing_enabled() {
            for stage in [Stage::Executed { measured_us }, Stage::Outcome { ok }] {
                self.obs.trace(id, Some(&tenant), None, stage);
            }
        }
        // A copy: keeping the worker-grown original stalled the next
        // service's first jobs for 10–30 ms (perfbench `mixed_latency`).
        let result = match &outcome.result {
            Ok(result) => Ok(result.clone()),
            Err(err) => Err(err.to_string()),
        };
        let device = outcome.device.clone();
        *self.jobs.get_mut(&id).expect("admitted") = Some(Settled { result, device });
    }

    /// Cordon a fleet device: it takes no new routes. False for unknown ids.
    pub(crate) fn cordon(&mut self, device: &str) -> bool {
        self.sched.cordon(device)
    }

    /// Lift a cordon. False for unknown device ids.
    pub(crate) fn uncordon(&mut self, device: &str) -> bool {
        self.sched.uncordon(device)
    }

    /// A pool starts at `now`: dispatch under full policy from here on.
    pub(crate) fn start(&mut self, now: Instant) -> Result<()> {
        if self.sched.mode != Mode::Stopped {
            return Err(QmlError::Validation(
                "service is already running a streaming pool".into(),
            ));
        }
        self.sched.mode = Mode::Running;
        self.run = Some((self.sched.totals(), now));
        Ok(())
    }

    /// Begin a shutdown: [`Mode::Draining`] dispatches everything admitted
    /// (rate limits waived), [`Mode::Aborting`] dispatches nothing more.
    pub(crate) fn shut(&mut self, mode: Mode) {
        self.sched.mode = mode;
    }

    /// The pool's `workers` have exited at `now`: the run is over, and its
    /// summary is the difference of the totals since [`ServiceCore::start`].
    pub(crate) fn stop(&mut self, workers: usize, now: Instant) -> RunSummary {
        let (at_start, started) = self.run.take().expect("a run to stop");
        let totals = self.sched.totals();
        let completed = (totals.completed - at_start.completed) as usize;
        let failed = (totals.failed - at_start.failed) as usize;
        let (jobs, wall_seconds) = (
            completed + failed,
            now.saturating_duration_since(started).as_secs_f64(),
        );
        let jobs_per_second = if wall_seconds > 0.0 {
            jobs as f64 / wall_seconds
        } else {
            0.0
        };
        let summary = RunSummary {
            jobs,
            completed,
            failed,
            workers,
            wall_seconds,
            jobs_per_second,
        };
        self.last_run = Some(summary);
        self.sched.mode = Mode::Stopped;
        summary
    }

    /// A job's status: terminal once settled, else `Running` while in
    /// flight and `Queued` otherwise (`None` for unknown ids).
    pub(crate) fn status(&self, id: JobId) -> Option<JobStatus> {
        Some(match self.jobs.get(&id)? {
            Some(Settled { result: Ok(_), .. }) => JobStatus::Completed,
            Some(Settled { result: Err(e), .. }) => JobStatus::Failed(e.clone()),
            None if self.sched.is_in_flight(id) => JobStatus::Running,
            None => JobStatus::Queued,
        })
    }

    /// The result of a completed job.
    pub(crate) fn result(&self, id: JobId) -> Option<ExecutionResult> {
        self.jobs.get(&id)?.as_ref()?.result.as_ref().ok().cloned()
    }

    /// The device that produced a job's terminal outcome.
    pub(crate) fn device_of(&self, id: JobId) -> Option<Arc<str>> {
        self.jobs.get(&id)?.as_ref()?.device.clone()
    }

    /// Jobs of a batch, in expansion order (empty for unknown batches).
    pub(crate) fn batch_jobs(&self, batch: BatchId) -> Vec<JobId> {
        self.batches.get(&batch).cloned().unwrap_or_default()
    }

    /// True when no admitted job is queued or in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.sched.queued() == 0 && self.sched.in_flight() == 0
    }

    /// Per-device fleet gauges keyed by device id.
    pub(crate) fn devices(&self) -> BTreeMap<String, DeviceUtilization> {
        self.sched.device_snapshot()
    }

    /// A point-in-time [`ServiceMetrics`], with the plan cache's overall,
    /// gate and anneal counters passed in.
    pub(crate) fn metrics(
        &self,
        [cache, gate_cache, anneal_cache]: [CacheStats; 3],
    ) -> ServiceMetrics {
        let totals = self.sched.totals();
        let per_device = self.devices();
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
            queue_depth: self.sched.queued(),
            cache,
            gate_cache,
            anneal_cache,
            scheduler: self.sched.metrics,
            per_backend,
            per_device,
            per_class: self.sched.class_snapshot(),
            per_tenant: self.sched.tenant_snapshot(),
            last_run: self.last_run,
        }
    }
}

#[cfg(test)]
impl ServiceCore {
    /// The bundles waiting for the next admission to free them.
    pub(crate) fn retired(&self) -> &[SealedBundle] {
        &self.retired
    }

    /// The fair scheduler, for tests that inspect its queues and flights.
    pub(crate) fn sched(&self) -> &FairScheduler {
        &self.sched
    }
}

#[cfg(test)]
mod tests {
    //! A seeded, single-threaded harness: each schedule drives the core's
    //! events in a random order on a virtual clock, with scripted outcomes,
    //! and checks the ledger laws after every step.

    use std::collections::BTreeSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    use qml_observe::RingTracer;
    use qml_runtime::JobDispatch;
    use qml_types::{CapabilityDescriptor, ServiceClass};

    use super::*;
    use crate::cost_model::COST_UNITS_PER_SECOND;
    use crate::fleet::{DeviceSpec, FleetRouter};
    use crate::scheduler::testing::placement;
    use crate::scheduler::RateLimit;

    /// Schedules per run of the test, and events per schedule before the
    /// closing drain.
    const SCHEDULES: u64 = 1_000;
    const STEPS: usize = 64;

    /// SplitMix64: a schedule is a function of its seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() % (hi - lo + 1) as u64) as usize
        }

        fn percent(&mut self, p: u64) -> bool {
            self.next() % 100 < p
        }
    }

    /// What a scripted backend reports for one member.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Script {
        Ok,
        Failed,
        DeviceFault,
    }

    /// One delivered outcome, kept so it can be delivered again.
    #[derive(Debug, Clone)]
    struct Delivered {
        id: JobId,
        script: Script,
        device: Option<Arc<str>>,
        micros: u64,
    }

    impl Delivered {
        fn outcome(&self) -> JobOutcome {
            let result = match self.script {
                Script::Ok => Ok(ExecutionResult {
                    backend: "scripted".into(),
                    engine: "gate.aer_simulator".into(),
                    register: "s".into(),
                    shots: 1,
                    counts: [("0", 1)].into_iter().collect(),
                    gate_metrics: None,
                    energy_stats: None,
                    qec_estimate: None,
                }),
                Script::Failed => Err(QmlError::Validation("scripted failure".into())),
                Script::DeviceFault => Err(QmlError::DeviceFault("scripted fault".into())),
            };
            JobOutcome {
                id: self.id,
                result,
                backend: "scripted".into(),
                device: self.device.clone(),
                duration: Duration::from_micros(self.micros),
                worker: 0,
            }
        }
    }

    /// Where a schedule is, for failure messages: its step and last event.
    struct Step(usize, &'static str);

    impl std::fmt::Display for Step {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "step {} ({})", self.0, self.1)
        }
    }

    struct Harness {
        rng: Rng,
        core: ServiceCore,
        /// The virtual clock: `base + elapsed`.
        base: Instant,
        elapsed: Duration,
        tenants: Vec<(String, TenantPolicy)>,
        /// Each device's id and concurrency, in fleet order.
        devices: Vec<(String, usize)>,
        max_batch: usize,
        /// Members the simulated workers hold: taken and not yet settled.
        executing: Vec<(JobId, Option<Arc<str>>)>,
        delivered: Vec<Delivered>,
        admitted: usize,
        /// A drain has reached `Shutdown` since the closing phase began.
        drained: bool,
        aborts: u64,
        duplicates: u64,
        step: usize,
        event: &'static str,
    }

    impl Harness {
        /// The configuration a seed draws: 2–3 tenants with weights and
        /// optional in-flight caps and rate limits, 1–3 devices of
        /// concurrency 1–3, `max_batch` 1–3, probes on or off, tracing on
        /// one schedule in four.
        fn new(seed: u64) -> Harness {
            let mut rng = Rng(seed);
            let tenants = (0..rng.range(2, 3))
                .map(|t| {
                    let mut policy = TenantPolicy::default().with_weight(rng.range(1, 3) as f64);
                    if rng.percent(40) {
                        policy = policy.with_max_in_flight(rng.range(1, 3));
                    }
                    if rng.percent(40) {
                        policy = policy.with_rate_limit(RateLimit {
                            jobs_per_second: [0.0, 300.0, 2000.0][rng.range(0, 2)],
                            burst: rng.range(1, 3) as f64,
                        });
                    }
                    (format!("t{t}"), policy)
                })
                .collect();
            let backend = placement().backend;
            let specs: Vec<DeviceSpec> = (0..rng.range(1, 3))
                .map(|d| {
                    let caps = CapabilityDescriptor::unlimited();
                    DeviceSpec::new(format!("dev{d}"), Arc::clone(&backend), caps)
                        .with_concurrency(rng.range(1, 3))
                })
                .collect();
            let devices = specs
                .iter()
                .map(|s| (s.id.clone(), s.concurrency))
                .collect();
            let max_batch = rng.range(1, 3);
            let probe_interval = [0, 0, 2, 5][rng.range(0, 3)];
            let obs = Arc::new(MetricsRegistry::new(if seed.is_multiple_of(4) {
                Arc::new(RingTracer::with_capacity(64))
            } else {
                Arc::new(qml_observe::NoopTracer)
            }));
            let fleet = FleetRouter::new(specs, probe_interval);
            let sched = FairScheduler::new(max_batch, Arc::clone(&obs), fleet);
            Harness {
                rng,
                core: ServiceCore::new(sched, obs),
                base: Instant::now(),
                elapsed: Duration::ZERO,
                tenants,
                devices,
                max_batch,
                executing: Vec::new(),
                delivered: Vec::new(),
                admitted: 0,
                drained: false,
                aborts: 0,
                duplicates: 0,
                step: 0,
                event: "",
            }
        }

        fn now(&self) -> Instant {
            self.base + self.elapsed
        }

        fn mode(&self) -> Mode {
            self.core.sched().mode
        }

        /// One schedule: random events, then a drain that must settle
        /// every admitted job. Returns how often it exercised a failover, a
        /// micro-batch, an abort and a duplicate outcome.
        fn run(seed: u64) -> [u64; 4] {
            let mut h = Harness::new(seed);
            for _ in 0..STEPS {
                match h.rng.range(0, 99) {
                    0..=21 => h.admit(),
                    22..=51 => _ = h.take(),
                    52..=76 => h.settle(),
                    77..=81 => h.duplicate(),
                    82..=86 => h.tick(),
                    87..=91 => h.cordon(),
                    _ => h.lifecycle(),
                }
                h.check();
            }
            h.close();
            let metrics = h.core.sched().metrics;
            [metrics.requeued, metrics.batches, h.aborts, h.duplicates]
        }

        fn admit(&mut self) {
            self.event = "admit";
            let (name, policy) = self.tenants[self.rng.range(0, self.tenants.len() - 1)].clone();
            let n = self.rng.range(1, 3);
            let jobs = (0..n).map(|_| self.job()).collect();
            let now = self.now();
            // The caller of a panicking admission survives it (`submit`
            // unwinds out of the lock), so the core must have kept nothing:
            // the ledger laws see whatever it did keep.
            let admit = || self.core.admit(&name, &policy, jobs, now);
            let Ok(admitted) = catch_unwind(AssertUnwindSafe(admit)) else {
                return;
            };
            let (batch, first, _retired) = admitted.unwrap();
            assert_eq!(first, Some(JobId(self.admitted as u64)), "ids are dense");
            assert_eq!(self.core.batch_jobs(batch).len(), n);
            assert!(
                self.core.retired.is_empty(),
                "admission hands back every retired bundle"
            );
            self.admitted += n;
        }

        /// A job of either class, on one of two plan keys or none, priced
        /// 0–4, or at a duration hint one time in five. One deadline in ten
        /// lies past the clock's range.
        fn job(&mut self) -> Job {
            let class = match self.rng.range(0, 3) {
                0 => ServiceClass::latency(),
                1 if self.rng.percent(10) => ServiceClass::latency_within(Duration::MAX),
                1 => ServiceClass::latency_within(Duration::from_millis(
                    self.rng.range(1, 20) as u64
                )),
                _ => ServiceClass::Throughput,
            };
            let batch_key = [None, Some(1), Some(2)][self.rng.range(0, 2)];
            let cost = self.rng.range(0, 4) as f64;
            let hint = self
                .rng
                .percent(20)
                .then(|| self.rng.range(1, 500) as f64 * 1e-6);
            let cost = hint.map_or(cost, |seconds| seconds * COST_UNITS_PER_SECOND);
            Job {
                class,
                batch_key,
                ..Job::new(JobId(0), cost)
            }
        }

        /// A worker asks for work; true when it must wait for an event.
        fn take(&mut self) -> bool {
            self.event = "take";
            let now = self.now();
            match self.core.take(now) {
                SchedPoll::Dispatch(dispatch) => self.hold(dispatch),
                // The worker blocks until the token it was told about.
                SchedPoll::Idle(Some(at)) => self.elapsed += at.saturating_duration_since(now),
                SchedPoll::Idle(None) => return true,
                SchedPoll::Shutdown => self.shutdown(),
            }
            false
        }

        fn hold(&mut self, dispatch: JobDispatch) {
            let cap = if dispatch.class.is_latency() {
                2
            } else {
                self.max_batch
            };
            assert!(
                (1..=cap).contains(&dispatch.len()),
                "a dispatch of {} members against a cap of {cap}",
                dispatch.len()
            );
            assert!(dispatch.device.is_some(), "every dispatch names its device");
            for id in dispatch.ids() {
                self.executing.push((id, dispatch.device.clone()));
            }
        }

        /// A worker was told to exit. A drain gets there only when nothing
        /// is queued or in flight; an abort's workers first finish the
        /// members they hold. Then the pool has joined and the run stops.
        fn shutdown(&mut self) {
            match self.mode() {
                Mode::Stopped => return,
                Mode::Running => panic!("a running core answered Shutdown"),
                Mode::Draining => {
                    assert!(self.core.is_idle(), "a drain stopped with work left");
                    assert!(
                        self.executing.is_empty(),
                        "a drain stopped with members held"
                    );
                    self.drained = true;
                }
                Mode::Aborting => {
                    self.aborts += 1;
                    while !self.executing.is_empty() {
                        self.settle();
                    }
                }
            }
            let summary = self.core.stop(2, self.now());
            assert_eq!(summary.jobs, summary.completed + summary.failed);
            assert_eq!(self.core.last_run, Some(summary));
        }

        /// A held member finishes: ok, failed, or a device fault.
        fn settle(&mut self) {
            self.event = "settle";
            if self.executing.is_empty() {
                return;
            }
            let index = self.rng.range(0, self.executing.len() - 1);
            let (id, device) = self.executing.swap_remove(index);
            let script = match self.rng.range(0, 99) {
                0..=59 => Script::Ok,
                60..=74 => Script::Failed,
                _ => Script::DeviceFault,
            };
            let micros = self.rng.range(5, 3_000) as u64;
            let delivered = Delivered {
                id,
                script,
                device,
                micros,
            };
            let now = self.now();
            self.core.settle(&delivered.outcome(), now);
            self.delivered.push(delivered);
        }

        /// An outcome arrives a second time for a job no worker holds: it
        /// must change nothing, least of all a settled job's status.
        fn duplicate(&mut self) {
            self.event = "duplicate";
            let stale: Vec<&Delivered> = self
                .delivered
                .iter()
                .filter(|d| !self.core.sched().is_in_flight(d.id))
                .collect();
            if stale.is_empty() {
                return;
            }
            let again = stale[self.rng.range(0, stale.len() - 1)].clone();
            self.duplicates += 1;
            let before = (self.core.status(again.id), self.core.sched().totals());
            let now = self.now();
            self.core.settle(&again.outcome(), now);
            let after = (self.core.status(again.id), self.core.sched().totals());
            assert_eq!(
                before, after,
                "a duplicate outcome for {:?} changed it",
                again.id
            );
        }

        fn tick(&mut self) {
            self.event = "tick";
            self.elapsed += Duration::from_micros(self.rng.range(0, 3_000) as u64);
        }

        fn cordon(&mut self) {
            self.event = "cordon";
            let (device, _) = &self.devices[self.rng.range(0, self.devices.len() - 1)];
            if self.rng.percent(50) {
                assert!(self.core.cordon(device));
            } else {
                assert!(self.core.uncordon(device));
            }
            assert!(!self.core.cordon("no-such-device"));
        }

        /// Start a stopped core, or begin a drain or an abort of a running
        /// one; a second start while running is refused.
        fn lifecycle(&mut self) {
            self.event = "lifecycle";
            let now = self.now();
            match self.mode() {
                Mode::Stopped => self.core.start(now).unwrap(),
                Mode::Running => match self.rng.range(0, 2) {
                    0 => assert!(self.core.start(now).is_err(), "a second start"),
                    1 => self.core.shut(Mode::Draining),
                    _ => self.core.shut(Mode::Aborting),
                },
                Mode::Draining | Mode::Aborting => {}
            }
        }

        /// Lift every cordon and drain to a stop: every admitted job must
        /// settle, none may be lost or stuck.
        fn close(&mut self) {
            for (device, _) in &self.devices {
                self.core.uncordon(device);
            }
            self.drained = false;
            for _ in 0..100_000 {
                self.event = "close";
                let now = self.now();
                match self.mode() {
                    Mode::Stopped if self.drained => break,
                    Mode::Stopped => self.core.start(now).unwrap(),
                    Mode::Running => self.core.shut(Mode::Draining),
                    Mode::Draining | Mode::Aborting => {
                        if !self.executing.is_empty() && self.rng.percent(50) {
                            self.settle();
                        } else if self.take() {
                            let held = !self.executing.is_empty();
                            assert!(held, "the drain is stuck: nothing to dispatch or settle");
                        }
                    }
                }
                self.check();
            }
            assert!(self.drained, "the closing drain never reached Shutdown");
            let settled = self.core.jobs.values().filter(|job| job.is_some()).count();
            assert_eq!(settled, self.admitted, "every admitted job settles");
            let metrics = self.core.metrics(Default::default());
            let settled = metrics.jobs_completed + metrics.jobs_failed;
            assert_eq!(settled as usize, self.admitted, "the metrics agree");
            assert_eq!(metrics.queue_depth, 0);
        }

        /// The ledger laws, after every step.
        fn check(&mut self) {
            self.step += 1;
            let at = Step(self.step, self.event);
            let core = &self.core;
            let sched = core.sched();
            let queued = sched.queued_ids();
            let flying = sched.in_flight_ids();

            // Each admitted job sits in exactly one of its tenant's queue,
            // the in-flight table or the terminal records, and its status
            // says which. Ids are dense from 0, so they index `places`.
            assert_eq!(core.jobs.len(), self.admitted, "{at}: the job table");
            let mut places = vec![(0u8, ""); self.admitted];
            let mut place = |id: JobId, name| match places.get_mut(id.0 as usize) {
                Some(place) => *place = (place.0 + 1, name),
                None => panic!("{at}: {id:?} was never admitted"),
            };
            queued.iter().for_each(|(_, id)| place(*id, "queued"));
            flying.iter().for_each(|(_, id, _)| place(*id, "in flight"));
            for (id, _) in core.jobs.iter().filter(|(_, job)| job.is_some()) {
                place(*id, "terminal");
            }
            for (index, (count, place)) in places.into_iter().enumerate() {
                let id = JobId(index as u64);
                assert_eq!(count, 1, "{at}: {id:?} sits in {count} places");
                let status = core.status(id).expect("admitted");
                let agrees = matches!(
                    (place, &status),
                    ("queued", JobStatus::Queued)
                        | ("in flight", JobStatus::Running)
                        | ("terminal", JobStatus::Completed | JobStatus::Failed(_))
                );
                assert!(agrees, "{at}: {id:?} is {place} but reads {status:?}");
            }

            // The workers hold exactly what is in flight.
            let held: BTreeSet<JobId> = self.executing.iter().map(|(id, _)| *id).collect();
            let in_flight: BTreeSet<JobId> = flying.iter().map(|(_, id, _)| *id).collect();
            assert_eq!(
                held.len(),
                self.executing.len(),
                "{at}: a member held twice"
            );
            assert_eq!(held, in_flight, "{at}: held members vs in-flight table");

            // Σ tenant in flight == Σ device in flight == the table's
            // length, and each device within its concurrency.
            let tenants = sched.tenant_snapshot();
            let devices = sched.device_snapshot();
            let by_tenant: u64 = tenants.values().map(|t| t.in_flight).sum();
            let by_device: u64 = devices.values().map(|d| d.in_flight).sum();
            assert_eq!(by_tenant, by_device, "{at}: tenant vs device in flight");
            assert_eq!(
                by_device,
                flying.len() as u64,
                "{at}: device gauges vs table"
            );
            for (index, (device, concurrency)) in self.devices.iter().enumerate() {
                let gauge = devices[device].in_flight;
                let table = flying.iter().filter(|(_, _, d)| *d == index).count() as u64;
                assert_eq!(gauge, table, "{at}: {device}'s in-flight gauge");
                assert!(
                    gauge as usize <= *concurrency,
                    "{at}: {device} over {concurrency}"
                );
            }

            // Per tenant: submitted == completed + failed + queued + in flight.
            for (name, t) in &tenants {
                let q = queued.iter().filter(|(n, _)| **n == **name).count() as u64;
                let f = flying.iter().filter(|(n, _, _)| **n == **name).count() as u64;
                assert_eq!(t.in_flight, f, "{at}: {name}'s in-flight gauge");
                assert_eq!(
                    t.submitted,
                    t.completed + t.failed + q + f,
                    "{at}: {name}: submitted = completed + failed + queued + in flight"
                );
            }
            assert_eq!(sched.queued(), queued.len(), "{at}: queue depth");
        }
    }

    #[test]
    fn seeded_schedules_keep_the_ledger_laws() {
        let seeds: Vec<u64> = match std::env::var("CORE_SEED") {
            Ok(seed) => vec![seed.parse().expect("CORE_SEED is a u64")],
            Err(_) => (0..SCHEDULES).collect(),
        };
        let mut exercised = [0u64; 4];
        for seed in seeds {
            let run = catch_unwind(AssertUnwindSafe(|| Harness::run(seed)));
            let Ok(counts) = run else {
                panic!(
                    "schedule {seed} broke a ledger law; replay it alone with \
                     CORE_SEED={seed} cargo test -p qml-service core::tests"
                );
            };
            for (sum, count) in exercised.iter_mut().zip(counts) {
                *sum += count;
            }
        }
        if std::env::var("CORE_SEED").is_err() {
            let [requeued, batches, aborts, duplicates] = exercised;
            assert!(
                requeued > 0 && batches > 0,
                "failovers {requeued}, batches {batches}"
            );
            assert!(
                aborts > 0 && duplicates > 0,
                "aborts {aborts}, duplicates {duplicates}"
            );
        }
    }
}
