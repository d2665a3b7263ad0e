//! Per-tenant fair scheduling: deficit round robin over cost-ranked queues.
//!
//! The service's streaming loop must not let one tenant's 1000-point sweep
//! starve another tenant's single job. The classic answer is **deficit round
//! robin** (DRR): each tenant owns a queue; the scheduler visits tenants in
//! rotation, crediting each visited tenant `weight × quantum` of "deficit"
//! (budget, in descriptor-cost units) and dispatching that tenant's head job
//! only once the accumulated deficit covers the job's estimated cost. Heavy
//! jobs therefore consume proportionally more turns, and a tenant with
//! double the weight gets double the cost-throughput under contention —
//! while an uncontended tenant still uses the whole pool.
//!
//! Layered on the DRR core, per [`TenantPolicy`]:
//!
//! * **weight** — the tenant's share of dispatch budget under contention;
//! * **max in-flight** — a cap on the tenant's concurrently executing jobs,
//!   so a wide pool cannot be monopolized even between scheduler rounds;
//! * **token-bucket rate limit** — sustained jobs/second plus a burst
//!   allowance, enforced while the service is live (a graceful
//!   [`drain`](crate::ServiceHandle::drain) ignores rate limits so shutdown
//!   terminates even for throttled tenants; weights and in-flight caps keep
//!   applying).
//!
//! Within one tenant, jobs are ordered **class first**: every
//! latency-class job ([`ServiceClass::Latency`]) precedes every
//! throughput-class job. Inside the latency class the order is earliest
//! deadline first (EDF; deadline-free latency jobs rank behind any
//! deadline, FIFO among themselves). Inside the throughput class jobs stay
//! cost-ranked (longest first), the classic LPT heuristic, applied per
//! tenant so it cannot leak across tenant boundaries. Classes reorder work
//! *within* a tenant only; the DRR rotation, weights, deficits and rate
//! limits across tenants are class-blind, so the fairness bands weights
//! promise are untouched.
//!
//! **Measured-cost fairness.** Deficit used to be spent purely in
//! placement-estimate units fixed at admission — so a tenant whose jobs were
//! systematically under-estimated silently received a multiple of its fair
//! share of device time. Two feedback loops close that gap:
//!
//! * an online [`CostModel`](crate::cost_model) (EWMA of measured
//!   busy-seconds per plan key) consulted at admission — and lazily
//!   repricing queued jobs at dispatch — so a plan with history is charged
//!   its *measured* cost; and
//! * **deficit charge-back** on every recorded outcome: the tenant's deficit
//!   is corrected by `(measured − charged)` cost units (clamped per job),
//!   so misestimates cannot compound across rotations — weighted fairness
//!   holds in busy-seconds, not in guess units.
//!
//! The scheduler is pure bookkeeping like the [`FleetRouter`] it drives: no
//! locks and no clocks. Every entry point that needs the time takes it as a
//! `now` argument, so a run is a deterministic function of its inputs. One
//! file per idea: `drr` (rotation, quantum and the one dispatch path),
//! `order` (class, EDF and LPT queue order), `policy` (tenant policy and
//! token buckets), `pricing` (admission cost and charge-back) and `batch`
//! (micro-batch coalescing).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use qml_observe::Stage;
use qml_runtime::{JobDispatch, JobId, Placement};
use qml_types::{JobRequirements, SealedBundle, ServiceClass};

use crate::cost_model::CostModel;
use crate::fleet::{DeviceUtilization, FleetRouter};
use crate::metrics::{ClassStats, TenantStats};
use crate::observe::MetricsRegistry;

mod batch;
mod drr;
mod order;
mod policy;
mod pricing;

use policy::TenantQueue;
pub use policy::{RateLimit, TenantPolicy};

/// Fairness counters for the scheduler as a whole, surfaced through
/// [`ServiceMetrics`](crate::ServiceMetrics).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SchedulerMetrics {
    /// Dispatch attempts (each worker call that scanned the tenant rotation).
    pub rounds: u64,
    /// Jobs handed to workers.
    pub dispatched: u64,
    /// Tenant visits skipped because the tenant's token bucket was empty.
    pub throttled: u64,
    /// Tenant visits skipped because the tenant was at its in-flight cap.
    pub capped: u64,
    /// Scans that found nothing dispatchable (the caller then blocked).
    pub idle_polls: u64,
    /// Micro-batches formed: dispatches that coalesced ≥ 2 plan-compatible
    /// jobs into one device-level `execute_batch_timed` call.
    #[serde(default)]
    pub batches: u64,
    /// Jobs dispatched as members of a micro-batch (heads included).
    /// `dispatched - batched_jobs` is the solo-dispatch count.
    #[serde(default)]
    pub batched_jobs: u64,
    /// Outcomes with a measured duration folded into the cost model and the
    /// estimate-error gauges.
    #[serde(default)]
    pub cost_samples: u64,
    /// Total absolute estimate error across all measured outcomes, in cost
    /// units (`|measured − estimated|`, measured at
    /// [`COST_UNITS_PER_SECOND`](crate::COST_UNITS_PER_SECOND) units per
    /// busy-second).
    #[serde(default)]
    pub estimate_error_units: f64,
    /// Total magnitude of applied deficit charge-backs, in cost units
    /// (post-clamp; 0 while estimates are accurate).
    #[serde(default)]
    pub charge_back_units: f64,
    /// Device-faulted member jobs re-admitted onto another fleet device
    /// (failover): each increments a job's attempt count without producing
    /// a terminal outcome.
    #[serde(default)]
    pub requeued: u64,
}

impl SchedulerMetrics {
    /// Mean number of jobs per formed micro-batch (0.0 before any batch).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_jobs as f64 / self.batches as f64
        }
    }

    /// Jobs dispatched solo (not part of any micro-batch).
    pub fn solo_jobs(&self) -> u64 {
        self.dispatched.saturating_sub(self.batched_jobs)
    }

    /// Mean absolute estimate error per measured outcome, in cost units
    /// (0.0 before any measurement). The scheduler's accuracy gauge: large
    /// values mean DRR budgets were charged far from what jobs really cost.
    pub fn mean_abs_estimate_error(&self) -> f64 {
        if self.cost_samples == 0 {
            0.0
        } else {
            self.estimate_error_units / self.cost_samples as f64
        }
    }
}

/// Dispatch/outcome counters for one service class, merged into
/// [`ClassStats`](crate::ClassStats) snapshots.
#[derive(Debug, Clone, Copy, Default)]
struct ClassLedger {
    dispatched: u64,
    completed: u64,
    failed: u64,
    /// Terminal outcomes that settled after the job's absolute deadline
    /// (deadline-free jobs can never miss).
    deadline_miss: u64,
}

/// What the scheduler knows about one job. The same record is admitted,
/// queued, dispatched and — after a device fault — re-admitted: it is moved
/// from stage to stage, never rebuilt.
#[derive(Debug)]
pub(crate) struct Job {
    pub id: JobId,
    /// The sealed bundle the job executes. It rides the record through the
    /// queue, the in-flight table and any failover; a dispatch shares it (a
    /// reference-count bump), and a terminal settlement hands it back.
    pub bundle: SealedBundle,
    /// Admitted: the static placement estimate. Queued: the priced
    /// admission cost (see [`FairScheduler::admit_job`]). In flight: the
    /// cost charged against the tenant's deficit at dispatch.
    pub cost: f64,
    /// The **plane-level** placement computed once, at admission: its plane
    /// is what the fleet routes within, its backend is swapped for the
    /// routed device's own instance on the dispatch, and the record keeps
    /// the plane-level original so a faulted job re-admits as if fresh.
    pub placement: Placement,
    /// Device-level batching key ([`qml_backends::Backend::batch_key`] folded
    /// with the backend identity): queued jobs of one tenant sharing a key
    /// may be coalesced into a single dispatch, and the key indexes the cost
    /// model. `None` never coalesces.
    pub batch_key: Option<u64>,
    /// What the job demands of a fleet device (register width, opt level),
    /// derived once at submission.
    pub requirements: JobRequirements,
    /// The job's service class; orders the queue ahead of any cost rank.
    pub class: ServiceClass,
    /// Absolute completion deadline (submission + the class's relative
    /// deadline); EDF key within the latency class and the deadline-miss
    /// reference at settlement.
    pub deadline: Option<Instant>,
    /// True for a device-fault re-admission: the original dispatch already
    /// spent a rate-limit token, so the retry is exempt from the token
    /// bucket — retrying must not double-charge.
    pub retry: bool,
}

/// One admitted, not-yet-dispatched job.
#[derive(Debug)]
struct QueuedJob {
    job: Job,
    submitted: Instant,
}

/// A dispatched-but-unfinished job: who to release, what was charged
/// (`job.cost`), and which plan-cost entry to feed. Settling or releasing
/// the job removes the record, so no path can free its slots twice.
#[derive(Debug)]
struct InFlight {
    tenant: Arc<str>,
    job: Job,
    /// The fleet device executing the job, chosen before the record was
    /// created: a job is in flight only while it holds a slot there.
    device: usize,
}

/// Lifecycle phase of the streaming loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// No pool is attached; nothing dispatches.
    Stopped,
    /// Live: dispatch under full policy enforcement.
    Running,
    /// Graceful shutdown: keep dispatching (rate limits waived) until every
    /// queue is empty and nothing is in flight, then stop the pool.
    Draining,
    /// Hard stop: dispatch nothing further; workers exit at the next job
    /// boundary and undispatched jobs stay queued for a later restart.
    Aborting,
}

/// The scheduler's answer to a worker asking for work.
#[derive(Debug, Clone)]
pub(crate) enum SchedPoll {
    Dispatch(JobDispatch),
    /// Nothing is dispatchable at `now`. `Some(at)`: a throttled tenant's
    /// bucket holds a whole token at `at`; every other idle cause clears only
    /// on an admission, a settlement, a mode change or a cordon change.
    Idle(Option<Instant>),
    Shutdown,
}

/// Deficit-round-robin scheduler state shared by all pool workers.
#[derive(Debug)]
pub(crate) struct FairScheduler {
    pub(crate) mode: Mode,
    /// Largest number of plan-compatible **throughput-class** jobs one
    /// dispatch may coalesce (1 disables micro-batching).
    max_batch: usize,
    tenants: BTreeMap<Arc<str>, TenantQueue>,
    /// Visit order; tenants are appended on first admission and never
    /// removed (an empty queue is skipped in O(1)).
    rotation: Vec<Arc<str>>,
    cursor: usize,
    /// True once the tenant at `cursor` has received its arrival credit for
    /// the current pointer visit; cleared whenever the pointer advances.
    /// This is what lets one visit span several `next_job` calls (a heavy
    /// tenant serves its whole quantum) without re-crediting per call.
    credited: bool,
    /// Dispatched-but-unfinished jobs: in-flight accounting plus the charged
    /// cost and plan key needed to reconcile the outcome's measured cost.
    in_flight: BTreeMap<JobId, InFlight>,
    /// Online EWMA of measured busy-seconds per plan key, consulted at
    /// admission (see [`FairScheduler::admit_job`]).
    cost_model: CostModel,
    /// Number of tenants whose queues are currently non-empty, so a
    /// dispatch scan's contention checks are O(1) instead of O(tenants).
    nonempty: usize,
    /// Queued latency-class jobs across **all** tenants: the O(1) signal
    /// that stops a forming throughput batch from growing (preempt
    /// coalescing, never execution).
    queued_latency: usize,
    /// Memoized [`FairScheduler::quantum`], invalidated (set to `None`) by
    /// every queue removal and by any admission that lands at a queue head
    /// (class ordering means a new head can *lower* that tenant's head
    /// cost, so raising in place is no longer sound) — repeated scans of
    /// unchanged queues recompute nothing.
    cached_quantum: Option<f64>,
    /// Shared observability sink: `admitted`/`dispatched` stage events plus
    /// the per-tenant / per-backend queue-wait histograms.
    obs: Arc<MetricsRegistry>,
    /// Device-level router: which fleet device within a placement's plane
    /// runs each dispatch, plus per-device health, slots and gauges. Every
    /// dispatch is routed to one of its devices.
    fleet: FleetRouter,
    /// Per-class dispatch/outcome counters (latency, throughput).
    latency_ledger: ClassLedger,
    throughput_ledger: ClassLedger,
    pub(crate) metrics: SchedulerMetrics,
}

impl FairScheduler {
    /// A stopped scheduler routing over `fleet`.
    pub(crate) fn new(max_batch: usize, obs: Arc<MetricsRegistry>, fleet: FleetRouter) -> Self {
        FairScheduler {
            mode: Mode::Stopped,
            max_batch: max_batch.max(1),
            tenants: BTreeMap::new(),
            rotation: Vec::new(),
            cursor: 0,
            credited: false,
            in_flight: BTreeMap::new(),
            cost_model: CostModel::default(),
            nonempty: 0,
            queued_latency: 0,
            cached_quantum: Some(1.0),
            obs,
            fleet,
            latency_ledger: ClassLedger::default(),
            throughput_ledger: ClassLedger::default(),
            metrics: SchedulerMetrics::default(),
        }
    }

    /// Per-device gauges for metrics merges.
    pub(crate) fn device_snapshot(&self) -> BTreeMap<String, DeviceUtilization> {
        self.fleet.snapshot()
    }

    /// Admission feasibility: true when some fleet device on `plane`
    /// (healthy or not) could ever serve a job with these requirements.
    pub(crate) fn feasible(&self, plane: &str, req: &JobRequirements) -> bool {
        self.fleet.capable_exists(plane, req)
    }

    /// Intern a tenant name, creating its queue (under `policy`, its token
    /// bucket full at `now`) on first sight. Returns the shared id so the
    /// caller can deduplicate its own tenant-name storage.
    pub(crate) fn intern(&mut self, tenant: &str, policy: &TenantPolicy, now: Instant) -> Arc<str> {
        if let Some((name, _)) = self.tenants.get_key_value(tenant) {
            return Arc::clone(name);
        }
        let name: Arc<str> = Arc::from(tenant);
        self.tenants
            .insert(Arc::clone(&name), TenantQueue::new(policy.clone(), now));
        self.rotation.push(Arc::clone(&name));
        name
    }

    /// Admit one job into its tenant's queue at `now`: price it (see
    /// [`pricing`]) and insert it in class, EDF and LPT order (see
    /// [`order`]). `hint_seconds` is the bundle's explicit `duration_us`
    /// cost hint, in seconds. A fresh job counts as one submission of its
    /// tenant; a failover re-admission (`job.retry`) does not.
    pub(crate) fn admit_job(
        &mut self,
        tenant: &Arc<str>,
        mut job: Job,
        hint_seconds: Option<f64>,
        now: Instant,
    ) {
        if !job.retry {
            if let Some(queue) = self.tenants.get_mut(tenant) {
                queue.stats.submitted += 1;
            }
        }
        job.cost = self.admission_cost(&job, hint_seconds);
        if self.obs.tracing_enabled() {
            self.obs.trace(
                job.id,
                Some(tenant),
                job.batch_key,
                Stage::Admitted { cost: job.cost },
            );
        }
        self.enqueue(
            tenant,
            QueuedJob {
                job,
                submitted: now,
            },
        );
    }

    /// Settle one finished member at `now`: the scheduler's one outcome
    /// entry point. Returns the job's tenant and its bundle when the outcome
    /// is terminal — nothing reads the bundle again, and handing it back
    /// lets the caller choose the thread that frees it — and `None` when a
    /// device fault was absorbed by a failover (or the id was not in
    /// flight). Removing the in-flight record is the exactly-once guard: a
    /// second outcome for the same dispatch finds nothing to settle.
    ///
    /// First the fleet device the dispatch was routed to settles: its slot
    /// frees, and its gauges and health ladder absorb the observation
    /// (busy-seconds accrue even for faulted attempts — the device was
    /// genuinely occupied).
    ///
    /// If the outcome was a **device fault** and a capable, not-yet-excluded
    /// device remains on the job's plane, the job fails over: the faulted
    /// device joins the job's exclusion set, and the job — bundle included —
    /// re-enters its tenant queue through [`FairScheduler::admit_job`] with
    /// its original plane-level placement, class and deadline. Each failover
    /// adds one exclusion over a finite device set, so a job completes
    /// elsewhere or fails terminally — it can never bounce forever.
    ///
    /// Otherwise the outcome is terminal: the tenant's and the class's
    /// completion or failure counts, a deadline miss if `now` is past the
    /// job's deadline, and the measured-cost reconciliation (see
    /// [`pricing`]).
    pub(crate) fn settle_outcome(
        &mut self,
        id: JobId,
        seconds: f64,
        ok: bool,
        fault: bool,
        now: Instant,
    ) -> Option<(Arc<str>, SealedBundle)> {
        let InFlight {
            tenant,
            mut job,
            device,
        } = self.in_flight.remove(&id)?;
        if let Some(queue) = self.tenants.get_mut(&tenant) {
            queue.stats.in_flight = queue.stats.in_flight.saturating_sub(1);
        }
        self.fleet.release_slot(device);
        self.fleet
            .observe(device, job.batch_key, seconds, ok, fault);
        let can_retry = fault
            && self.fleet.retry_candidate_exists(
                job.placement.backend.name(),
                &job.requirements,
                id.0,
                device,
            );
        if can_retry {
            self.fleet.exclude(id.0, device);
            self.fleet.note_requeued(device);
            self.metrics.requeued += 1;
            if self.obs.tracing_enabled() {
                let attempt = self.fleet.exclusion_count(id.0) as u32;
                self.obs.trace(
                    id,
                    Some(&tenant),
                    job.batch_key,
                    Stage::Requeued { attempt },
                );
            }
            // The already-paid rate-limit token is preserved through
            // `retry`: a failover is the same job, not a fresh submission.
            job.retry = true;
            self.admit_job(&tenant, job, None, now);
            return None;
        }
        self.fleet.clear_exclusions(id.0);
        let missed = job.deadline.is_some_and(|deadline| now > deadline);
        let ledger = self.ledger_mut(job.class);
        if ok {
            ledger.completed += 1;
        } else {
            ledger.failed += 1;
        }
        if missed {
            ledger.deadline_miss += 1;
        }
        if let Some(queue) = self.tenants.get_mut(&tenant) {
            if ok {
                queue.stats.completed += 1;
            } else {
                queue.stats.failed += 1;
            }
        }
        self.obs
            .observe_class_exec(job.class.name(), (seconds * 1e6) as u64);
        self.reconcile_cost(&tenant, &job, seconds, ok);
        Some((tenant, job.bundle))
    }

    /// Jobs admitted but not yet dispatched.
    pub(crate) fn queued(&self) -> usize {
        self.tenants.values().map(|t| t.queue.len()).sum()
    }

    /// Jobs dispatched but not yet finished.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// True when some tenant other than `name` has queued work — the O(1)
    /// form: the non-empty count exceeds this tenant's own contribution.
    fn contended(&self, name: &Arc<str>) -> bool {
        let own = self.tenants.get(name).is_some_and(|t| !t.queue.is_empty());
        self.nonempty > usize::from(own)
    }

    /// Per-tenant counts and gauges, keyed by tenant name.
    pub(crate) fn tenant_snapshot(&self) -> BTreeMap<String, TenantStats> {
        self.tenants
            .iter()
            .map(|(name, t)| (name.to_string(), t.stats))
            .collect()
    }

    /// Service-wide submission and outcome totals: the per-tenant
    /// `submitted`, `completed` and `failed` counts summed (the other
    /// fields stay zero).
    pub(crate) fn totals(&self) -> TenantStats {
        self.tenants
            .values()
            .fold(TenantStats::default(), |mut sum, t| {
                sum.submitted += t.stats.submitted;
                sum.completed += t.stats.completed;
                sum.failed += t.stats.failed;
                sum
            })
    }

    /// The mutable per-class ledger for `class`.
    fn ledger_mut(&mut self, class: ServiceClass) -> &mut ClassLedger {
        if class.is_latency() {
            &mut self.latency_ledger
        } else {
            &mut self.throughput_ledger
        }
    }

    /// Snapshot the per-class queue split and outcome counters for a
    /// metrics merge (keys are the class names, `"latency"` /
    /// `"throughput"`).
    pub(crate) fn class_snapshot(&self) -> BTreeMap<String, ClassStats> {
        let throughput_queued = self.queued().saturating_sub(self.queued_latency);
        [
            ("latency", &self.latency_ledger, self.queued_latency),
            ("throughput", &self.throughput_ledger, throughput_queued),
        ]
        .into_iter()
        .map(|(name, ledger, queued)| {
            (
                name.to_string(),
                ClassStats {
                    queued: queued as u64,
                    dispatched: ledger.dispatched,
                    completed: ledger.completed,
                    failed: ledger.failed,
                    deadline_miss: ledger.deadline_miss,
                },
            )
        })
        .collect()
    }

    /// Cordon a fleet device for maintenance (no new routes). See
    /// [`FleetRouter::cordon`].
    pub(crate) fn cordon(&mut self, device: &str) -> bool {
        self.fleet.cordon(device)
    }

    /// Lift a cordon. See [`FleetRouter::uncordon`].
    pub(crate) fn uncordon(&mut self, device: &str) -> bool {
        self.fleet.uncordon(device)
    }
}

#[cfg(test)]
pub(crate) mod testing {
    //! Shorthands shared by the scheduler's per-idea test modules.

    use super::*;

    pub(crate) fn noop_registry() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::new(Arc::new(qml_observe::NoopTracer)))
    }

    /// One tiny sealed bundle, shared by every test job: the scheduler only
    /// carries a bundle, it never reads one.
    pub(crate) fn sealed_bundle() -> SealedBundle {
        use qml_types::{JobBundle, OperatorDescriptor, QuantumDataType, RepKind};
        use std::sync::OnceLock;

        static BUNDLE: OnceLock<SealedBundle> = OnceLock::new();
        BUNDLE
            .get_or_init(|| {
                let qdt = QuantumDataType::ising_spins("s", "s", 2).unwrap();
                let prep = OperatorDescriptor::builder("prep", RepKind::PrepUniform, "s")
                    .build()
                    .unwrap();
                SealedBundle::seal(JobBundle::new("test", vec![qdt], vec![prep])).unwrap()
            })
            .clone()
    }

    /// The placement every test job carries: the gate plane.
    pub(crate) fn placement() -> Placement {
        Placement {
            backend: Arc::new(qml_backends::GateBackend::new()),
            engine: "gate.aer_simulator".into(),
            estimated_cost: 0.0,
        }
    }

    /// A fleet of one unlimited device on the gate plane: it takes every
    /// test job at once, so routing never holds a dispatch back.
    pub(crate) fn unlimited_fleet() -> FleetRouter {
        let device = crate::fleet::DeviceSpec::new(
            "gate#0",
            placement().backend,
            qml_types::CapabilityDescriptor::unlimited(),
        );
        FleetRouter::new(vec![device], 0)
    }

    /// A running scheduler (micro-batching at 8) over the
    /// [`unlimited_fleet`] with one tenant per entry, interned at
    /// `Instant::now()`.
    pub(crate) fn sched_with(policies: &[(&str, TenantPolicy)]) -> (FairScheduler, Vec<Arc<str>>) {
        let mut sched = FairScheduler::new(8, noop_registry(), unlimited_fleet());
        sched.mode = Mode::Running;
        let now = Instant::now();
        let names = policies
            .iter()
            .map(|(name, policy)| sched.intern(name, policy, now))
            .collect();
        (sched, names)
    }

    impl Job {
        /// A plain throughput-class job with only an id and a static cost.
        pub(crate) fn new(id: JobId, cost: f64) -> Self {
            Job {
                id,
                bundle: sealed_bundle(),
                cost,
                placement: placement(),
                batch_key: None,
                requirements: JobRequirements {
                    qubits: 2,
                    opt_level: 1,
                },
                class: ServiceClass::Throughput,
                deadline: None,
                retry: false,
            }
        }
    }

    impl FairScheduler {
        /// Admit a throughput-class job from the positional fields most
        /// scheduler tests exercise, at `Instant::now()`.
        pub(crate) fn admit(
            &mut self,
            tenant: &Arc<str>,
            id: JobId,
            cost: f64,
            hint_seconds: Option<f64>,
            batch_key: Option<u64>,
        ) {
            let job = Job {
                batch_key,
                ..Job::new(id, cost)
            };
            self.admit_job(tenant, job, hint_seconds, Instant::now());
        }

        /// Admit a latency-class job with an explicit absolute deadline
        /// (what the service resolves from `ServiceClass::deadline()` at
        /// submission).
        pub(crate) fn admit_latency(
            &mut self,
            tenant: &Arc<str>,
            id: JobId,
            cost: f64,
            deadline: Option<Instant>,
        ) {
            let job = Job {
                class: ServiceClass::latency(),
                deadline,
                ..Job::new(id, cost)
            };
            self.admit_job(tenant, job, None, Instant::now());
        }

        /// The model's predicted cost (in deficit units) for a plan key, if
        /// it has one — what the next admission of this plan is charged.
        pub(crate) fn predicted_cost(&self, batch_key: u64) -> Option<f64> {
            self.cost_model
                .predict_seconds(batch_key)
                .map(|s| (s * crate::COST_UNITS_PER_SECOND).max(pricing::MIN_JOB_COST))
        }

        /// A tenant's current DRR deficit.
        pub(crate) fn deficit_of(&self, tenant: &Arc<str>) -> f64 {
            self.tenants[tenant].deficit
        }

        /// The cost the tenant's head job was admitted at.
        pub(crate) fn head_cost_of(&self, tenant: &Arc<str>) -> Option<f64> {
            self.tenants[tenant].queue.front().map(|q| q.job.cost)
        }

        /// The tenant's token-bucket fill.
        pub(crate) fn tokens_of(&self, tenant: &Arc<str>) -> f64 {
            self.tenants[tenant].tokens
        }

        /// Settle a job's outcome as no device fault: what most scheduler
        /// tests feed back after a dispatch.
        pub(crate) fn settle_final(&mut self, id: JobId, seconds: f64, ok: bool, now: Instant) {
            self.settle_outcome(id, seconds, ok, false, now);
        }

        /// Free a dispatched job's in-flight slot without an outcome: no
        /// measurement exists, so neither the cost model nor the deficit is
        /// touched. What tests that only check dispatch order feed back.
        pub(crate) fn release(&mut self, id: JobId) {
            if let Some(flight) = self.in_flight.remove(&id) {
                if let Some(tenant) = self.tenants.get_mut(&flight.tenant) {
                    tenant.stats.in_flight = tenant.stats.in_flight.saturating_sub(1);
                }
                self.fleet.release_slot(flight.device);
                self.fleet.clear_exclusions(id.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::*;
    use super::*;

    #[test]
    fn interning_deduplicates_names() {
        let (mut sched, names) = sched_with(&[("alice", TenantPolicy::default())]);
        let again = sched.intern("alice", &TenantPolicy::default(), Instant::now());
        assert!(Arc::ptr_eq(&names[0], &again));
    }
}
