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
//! cost-ranked (longest first) — the same LPT heuristic the one-shot pool
//! used, now applied per tenant so it can no longer leak across tenant
//! boundaries. Classes reorder work *within* a tenant only; the DRR
//! rotation, weights, deficits and rate limits across tenants are
//! class-blind, so the fairness bands weights promise are untouched.
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

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use qml_observe::Stage;
use qml_runtime::{JobDispatch, JobId, Placement};
use qml_types::{JobRequirements, MeasuredCost, ServiceClass};

use crate::cost_model::{CostModel, COST_UNITS_PER_SECOND};
use crate::fleet::{DeviceUtilization, FleetRouter, ParkedDispatch};
use crate::metrics::ClassStats;
use crate::observe::MetricsRegistry;

/// Smallest effective DRR weight; keeps the pass bound finite for
/// pathological configurations (weight ≤ 0).
const MIN_WEIGHT: f64 = 1e-3;

/// Floor applied to every admitted job's cost estimate. A job whose
/// placement failed (or whose descriptors carry no cost hints) estimates
/// 0.0 — and a zero-cost job spends **zero deficit**, so one tenant's
/// hint-less queue would drain entirely in a single parked visit, the exact
/// monopoly DRR exists to prevent. Flooring at the quantum's own base unit
/// (1.0, see [`FairScheduler::quantum`]) makes a hint-less job cost exactly
/// one visit's budget.
pub(crate) const MIN_JOB_COST: f64 = 1.0;

/// How many queued jobs (beyond the head) one dispatch may inspect while
/// coalescing a micro-batch. Same-plan jobs share a cost estimate and the
/// queue is cost-ranked, so compatible jobs sit contiguously near the head;
/// the window only bounds the pathological interleaved case, which runs
/// under the scheduler lock every worker contends on.
const MAX_BATCH_SCAN: usize = 64;

/// Micro-batch cap of a latency-class dispatch
/// ([`ServiceClass::Latency`]): pairs of plan-compatible latency jobs still
/// amortize one realization, but a latency dispatch never grows past two
/// members — a latency job must not wait out a long device-level batch call,
/// so tail latency stays bounded by roughly one queue-mate even under a
/// saturating throughput backlog.
const LATENCY_MAX_BATCH: usize = 2;

/// Upper bound on DRR passes per dispatch attempt. With the quantum equal
/// to the largest currently queued head cost, any head job becomes
/// dispatchable within `1 / weight ≤ 1 / MIN_WEIGHT` visits, so this is
/// never hit by a finite configuration; it is a defensive backstop, not a
/// tuning knob.
const MAX_PASSES: usize = 1024;

/// A token-bucket rate limit on one tenant's dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateLimit {
    /// Sustained dispatch rate, in jobs per second. `0.0` means "burst
    /// only": the tenant may dispatch up to `burst` jobs and is then
    /// throttled until the next drain.
    pub jobs_per_second: f64,
    /// Bucket capacity: how many dispatches may happen back-to-back before
    /// the sustained rate applies. Dispatching costs one whole token, so
    /// values below 1.0 are treated as 1.0 (a bucket that can never reach a
    /// full token would starve the tenant outright).
    pub burst: f64,
}

impl RateLimit {
    /// A limit of `jobs_per_second` with a burst allowance of the same size
    /// (at least one job).
    pub fn per_second(jobs_per_second: f64) -> Self {
        RateLimit {
            jobs_per_second,
            burst: jobs_per_second.max(1.0),
        }
    }

    /// Replace the burst allowance, builder-style.
    pub fn with_burst(mut self, burst: f64) -> Self {
        self.burst = burst;
        self
    }

    /// The bucket capacity actually enforced (see [`RateLimit::burst`]).
    fn effective_burst(&self) -> f64 {
        self.burst.max(1.0)
    }
}

/// Scheduling policy applied to one tenant (or, via
/// [`ServiceConfig::default_policy`](crate::ServiceConfig), to every tenant
/// without an explicit one).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantPolicy {
    /// Relative share of dispatch budget under contention. A weight-2 tenant
    /// receives twice the cost-throughput of a weight-1 tenant while both
    /// have work queued. Values ≤ 0 are clamped to a small epsilon.
    pub weight: f64,
    /// Maximum number of this tenant's jobs executing concurrently
    /// (`None` = unlimited). A configured cap of 0 is treated as 1.
    pub max_in_flight: Option<usize>,
    /// Token-bucket rate limit (`None` = unlimited).
    pub rate_limit: Option<RateLimit>,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            weight: 1.0,
            max_in_flight: None,
            rate_limit: None,
        }
    }
}

impl TenantPolicy {
    /// Set the DRR weight, builder-style.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Cap the tenant's concurrently executing jobs, builder-style.
    pub fn with_max_in_flight(mut self, max: usize) -> Self {
        self.max_in_flight = Some(max);
        self
    }

    /// Attach a token-bucket rate limit, builder-style.
    pub fn with_rate_limit(mut self, limit: RateLimit) -> Self {
        self.rate_limit = Some(limit);
        self
    }
}

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
    /// Scans that found nothing dispatchable (the caller backed off).
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
    /// [`COST_UNITS_PER_SECOND`] units per busy-second).
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

/// Live per-tenant gauges owned by the scheduler, merged into
/// [`TenantStats`](crate::TenantStats) snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TenantGauges {
    pub dispatched: u64,
    pub in_flight: u64,
    pub throttled: u64,
    pub total_wait_seconds: f64,
    pub busy_seconds: f64,
}

/// Dispatch/outcome counters for one service class, merged into
/// [`ClassStats`](crate::ClassStats) snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ClassLedger {
    pub dispatched: u64,
    pub completed: u64,
    pub failed: u64,
    /// Terminal outcomes that settled after the job's absolute deadline
    /// (deadline-free jobs can never miss).
    pub deadline_miss: u64,
}

/// One admitted, not-yet-dispatched job.
#[derive(Debug, Clone)]
struct QueuedJob {
    id: JobId,
    /// The estimated cost of `placement` at admission, floored at
    /// [`MIN_JOB_COST`] (placement failures estimate 0.0 before the floor;
    /// such jobs still dispatch and fail at execution).
    cost: f64,
    /// The placement computed at admission, handed to the worker so the
    /// bundle is not placed a second time at execution.
    placement: Option<Placement>,
    /// Device-level batching key ([`qml_backends::Backend::batch_key`] folded
    /// with the backend identity): queued jobs of one tenant sharing a key
    /// may be coalesced into a single dispatch. `None` never coalesces.
    batch_key: Option<u64>,
    /// What the job demands of a fleet device (register width, opt level),
    /// derived once at submission. `None` routes capability-blind.
    requirements: Option<JobRequirements>,
    /// The job's service class; orders the queue ahead of any cost rank.
    class: ServiceClass,
    /// Absolute completion deadline (submission + the class's relative
    /// deadline); EDF key within the latency class and the deadline-miss
    /// reference at settlement.
    deadline: Option<Instant>,
    /// True for a device-fault re-admission (PR 8 failover): the original
    /// dispatch already spent a rate-limit token, so the retry is exempt
    /// from the token bucket — retrying must not double-charge.
    retry: bool,
    submitted: Instant,
}

/// Queue-order predicate for class-aware admission: true while the queued
/// job `q` keeps its position ahead of an arrival with (`class`,
/// `deadline`, `cost`). Encodes the full ordering rule — latency before
/// throughput, EDF (deadline-free last, FIFO ties) inside latency, LPT
/// inside throughput — so one `partition_point` call places any arrival.
fn keeps_position(
    q: &QueuedJob,
    class: ServiceClass,
    deadline: Option<Instant>,
    cost: f64,
) -> bool {
    match (q.class, class) {
        (ServiceClass::Latency { .. }, ServiceClass::Throughput) => true,
        (ServiceClass::Throughput, ServiceClass::Latency { .. }) => false,
        (ServiceClass::Latency { .. }, ServiceClass::Latency { .. }) => {
            match (q.deadline, deadline) {
                (None, None) => true,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(queued), Some(arriving)) => queued <= arriving,
            }
        }
        (ServiceClass::Throughput, ServiceClass::Throughput) => q.cost >= cost,
    }
}

/// One tenant's queue plus its DRR/rate-limit state.
#[derive(Debug)]
struct TenantQueue {
    policy: TenantPolicy,
    /// Cost-ranked (descending) pending jobs; FIFO among equal costs.
    queue: VecDeque<QueuedJob>,
    /// DRR deficit counter, in cost units.
    deficit: f64,
    /// Token bucket fill (only meaningful with a rate limit).
    tokens: f64,
    last_refill: Instant,
    in_flight: usize,
    dispatched: u64,
    throttled: u64,
    total_wait_seconds: f64,
    /// Measured busy wall-clock attributed to this tenant's finished jobs.
    busy_seconds: f64,
}

impl TenantQueue {
    fn new(policy: TenantPolicy, now: Instant) -> Self {
        let tokens = policy
            .rate_limit
            .map(|l| l.effective_burst())
            .unwrap_or(0.0);
        TenantQueue {
            policy,
            queue: VecDeque::new(),
            deficit: 0.0,
            tokens,
            last_refill: now,
            in_flight: 0,
            dispatched: 0,
            throttled: 0,
            total_wait_seconds: 0.0,
            busy_seconds: 0.0,
        }
    }

    /// Advance the token bucket to `now`. Monotone by construction: a stale
    /// `now` (older than the last refill — e.g. an instant captured before
    /// another thread's refill was serialized ahead of it) adds nothing and
    /// **keeps** `last_refill`, so the already-credited interval can never
    /// be double-counted by a later, fresher call.
    fn refill(&mut self, now: Instant) {
        if let Some(limit) = self.policy.rate_limit {
            let elapsed = now
                .saturating_duration_since(self.last_refill)
                .as_secs_f64();
            if elapsed > 0.0 {
                self.tokens =
                    (self.tokens + elapsed * limit.jobs_per_second).min(limit.effective_burst());
                self.last_refill = now;
            }
        }
    }

    /// Forfeit banked DRR credit while **keeping debt**: a vetoed or
    /// drained tenant must not hoard budget for later bursts, but a deficit
    /// driven negative by measured-cost charge-back is real over-consumption
    /// and must survive until the tenant has paid it off.
    fn forfeit_credit(&mut self) {
        self.deficit = self.deficit.min(0.0);
    }
}

/// What the scheduler remembers about a dispatched-but-unfinished job: who
/// to release, what was charged, and which plan-cost entry to feed.
#[derive(Debug, Clone)]
struct InFlight {
    tenant: Arc<str>,
    /// The cost charged against the tenant's deficit at dispatch.
    cost: f64,
    batch_key: Option<u64>,
    /// Requirements carried for re-routing after a device fault.
    requirements: Option<JobRequirements>,
    /// The **plane-level** placement from admission (before any device
    /// backend swap), so a faulted job can be re-admitted as if fresh.
    placement: Option<Placement>,
    /// The fleet device the dispatch was routed to; cleared once that
    /// device's slot has been settled (so no path can free it twice).
    device: Option<usize>,
    /// The job's service class, carried for per-class outcome accounting
    /// and for class-preserving re-admission after a device fault.
    class: ServiceClass,
    /// Absolute deadline (if any): checked against the settlement clock to
    /// count `deadline_miss`, and preserved across fault requeues.
    deadline: Option<Instant>,
}

/// A coalesced batch member plus the attribution its `dispatched` stage
/// event needs — the final batch size is only known once the whole batch is
/// assembled, so the events are emitted by `next_job`, not `coalesce`.
struct BatchMember {
    id: JobId,
    /// Submit→dispatch wait, microseconds.
    wait_us: u64,
    /// Deficit spent dispatching this member.
    cost: f64,
}

/// The cost a queued job is charged **now**: the cost model's current
/// prediction for its plan key when one exists, else the cost fixed at
/// admission. Jobs queue for whole rotations while measurements stream in;
/// spending the *live* prediction (rather than the admission-time guess)
/// keeps the quantum and every deficit debit in measured units as soon as a
/// plan has history — without an O(queue) reprice pass per observation.
fn effective_cost(model: &CostModel, job: &QueuedJob) -> f64 {
    job.batch_key
        .and_then(|key| model.predict_seconds(key))
        .map(|seconds| (seconds * COST_UNITS_PER_SECOND).max(MIN_JOB_COST))
        .unwrap_or(job.cost)
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

/// The scheduler's answer to a worker asking for work (the service adapts
/// this to [`qml_runtime::Feed`]).
#[derive(Debug, Clone)]
pub(crate) enum SchedPoll {
    Dispatch(JobDispatch),
    Idle,
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
    /// admission (see [`FairScheduler::admit`]).
    cost_model: CostModel,
    /// Per-job bound on the deficit charge-back, as a multiple of the job's
    /// charged cost; `≤ 0` disables charge-back entirely.
    charge_back_clamp: f64,
    /// Number of tenants whose queues are currently non-empty, so the hot
    /// poll path's contention checks are O(1) instead of O(tenants).
    nonempty: usize,
    /// Queued latency-class jobs across **all** tenants: the O(1) signal
    /// that stops a forming throughput batch from growing (preempt
    /// coalescing, never execution).
    queued_latency: usize,
    /// Memoized [`FairScheduler::quantum`], invalidated (set to `None`) by
    /// every queue removal and by any admission that lands at a queue head
    /// (class ordering means a new head can *lower* that tenant's head
    /// cost, so raising in place is no longer sound) — an idle poll storm
    /// still recomputes nothing.
    cached_quantum: Option<f64>,
    /// Shared observability sink: `admitted`/`dispatched` stage events plus
    /// the per-tenant / per-backend queue-wait histograms.
    obs: Arc<MetricsRegistry>,
    /// Device-level router: which fleet device within a placement's plane
    /// runs each dispatch, plus per-device health / queues / gauges. An
    /// [`empty`](FleetRouter::empty) fleet leaves every plane un-fleeted
    /// (dispatches are device-blind, exactly the pre-fleet behavior).
    fleet: FleetRouter,
    /// Per-class dispatch/outcome counters (latency, throughput).
    latency_ledger: ClassLedger,
    throughput_ledger: ClassLedger,
    pub(crate) metrics: SchedulerMetrics,
}

/// Everything one admission needs, bundled so the call sites (submission,
/// fault requeue, tests) stay readable as fields grow with the scheduler.
#[derive(Debug)]
pub(crate) struct Admission {
    pub id: JobId,
    /// Static placement estimate (the lowest-trust cost source).
    pub cost: f64,
    /// Explicit `duration_us` hint in seconds, if the bundle carried one.
    pub hint_seconds: Option<f64>,
    pub placement: Option<Placement>,
    pub batch_key: Option<u64>,
    pub requirements: Option<JobRequirements>,
    pub class: ServiceClass,
    /// Absolute deadline (submission instant + the class's relative
    /// deadline), resolved by the caller so requeues preserve the original.
    pub deadline: Option<Instant>,
    /// True when re-admitting after a device fault: the original dispatch
    /// already paid the rate-limit token, so the retry must not be charged
    /// (or throttled) again.
    pub retry: bool,
}

impl Admission {
    /// A plain throughput-class admission with only an id and a static
    /// cost — what most scheduler tests need.
    #[cfg(test)]
    pub(crate) fn job(id: JobId, cost: f64) -> Self {
        Admission {
            id,
            cost,
            hint_seconds: None,
            placement: None,
            batch_key: None,
            requirements: None,
            class: ServiceClass::Throughput,
            deadline: None,
            retry: false,
        }
    }
}

/// How [`FairScheduler::settle_outcome`] disposed of one member outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutcomeDisposition {
    /// The outcome stands; the caller finishes the terminal bookkeeping
    /// (service counters, traces, [`FairScheduler::record_outcome`]).
    Final,
    /// A device fault was absorbed: the job was re-admitted with the
    /// faulted device excluded. Nothing about it is terminal yet.
    Requeued,
}

impl FairScheduler {
    pub(crate) fn new(
        max_batch: usize,
        ewma_alpha: f64,
        charge_back_clamp: f64,
        obs: Arc<MetricsRegistry>,
    ) -> Self {
        FairScheduler {
            mode: Mode::Stopped,
            max_batch: max_batch.max(1),
            tenants: BTreeMap::new(),
            rotation: Vec::new(),
            cursor: 0,
            credited: false,
            in_flight: BTreeMap::new(),
            cost_model: CostModel::new(ewma_alpha),
            charge_back_clamp,
            nonempty: 0,
            queued_latency: 0,
            cached_quantum: Some(1.0),
            obs,
            fleet: FleetRouter::empty(),
            latency_ledger: ClassLedger::default(),
            throughput_ledger: ClassLedger::default(),
            metrics: SchedulerMetrics::default(),
        }
    }

    /// Install the device fleet (built by the service from its config).
    pub(crate) fn set_fleet(&mut self, fleet: FleetRouter) {
        self.fleet = fleet;
    }

    /// Per-device gauges for metrics merges.
    pub(crate) fn device_snapshot(&self) -> BTreeMap<String, DeviceUtilization> {
        self.fleet.snapshot()
    }

    /// Admission feasibility: true when some fleet device on `plane`
    /// (healthy or not) could ever serve a job with these requirements.
    /// Un-fleeted planes accept everything.
    pub(crate) fn feasible(&self, plane: &str, req: &JobRequirements) -> bool {
        self.fleet.capable_exists(plane, Some(req))
    }

    /// The model's predicted cost (in deficit units) for a plan key, if it
    /// has one — what the next admission of this plan will be charged.
    #[cfg(test)]
    pub(crate) fn predicted_cost(&self, batch_key: u64) -> Option<f64> {
        self.cost_model
            .predict_seconds(batch_key)
            .map(|s| (s * COST_UNITS_PER_SECOND).max(MIN_JOB_COST))
    }

    /// A tenant's current DRR deficit (test observability).
    #[cfg(test)]
    pub(crate) fn deficit_of(&self, tenant: &Arc<str>) -> f64 {
        self.tenants[tenant].deficit
    }

    /// The cost the tenant's head job was admitted at (test observability).
    #[cfg(test)]
    pub(crate) fn head_cost_of(&self, tenant: &Arc<str>) -> Option<f64> {
        self.tenants[tenant].queue.front().map(|j| j.cost)
    }

    /// Intern a tenant name, creating its queue (under `policy`) on first
    /// sight. Returns the shared id so the caller can deduplicate its own
    /// tenant-name storage.
    pub(crate) fn intern(&mut self, tenant: &str, policy: &TenantPolicy) -> Arc<str> {
        if let Some((name, _)) = self.tenants.get_key_value(tenant) {
            return Arc::clone(name);
        }
        let name: Arc<str> = Arc::from(tenant);
        self.tenants.insert(
            Arc::clone(&name),
            TenantQueue::new(policy.clone(), Instant::now()),
        );
        self.rotation.push(Arc::clone(&name));
        name
    }

    /// Admit one job into its tenant's queue, keeping the queue ordered by
    /// class (latency before throughput), then EDF inside the latency class
    /// and cost rank (descending; FIFO among equal costs — the per-tenant
    /// LPT order) inside throughput.
    ///
    /// The cost charged against the tenant's deficit is resolved in order of
    /// trust:
    ///
    /// 1. the **cost model's measured prediction** for the job's plan key —
    ///    a plan with execution history admits at what it actually costs;
    /// 2. an explicit **`duration_us` cost hint** (`hint_seconds`), which
    ///    also seeds the model so the first measured outcome refines rather
    ///    than replaces it;
    /// 3. the static **placement estimate** (descriptor scheduling weight).
    ///
    /// Whatever wins is floored at [`MIN_JOB_COST`] so zero-cost estimates
    /// (failed placements, hint-less descriptors) still spend DRR deficit —
    /// a zero-cost queue must not drain in a single parked visit.
    pub(crate) fn admit_job(&mut self, tenant: &Arc<str>, adm: Admission) {
        let Admission {
            id,
            cost,
            hint_seconds,
            placement,
            batch_key,
            requirements,
            class,
            deadline,
            retry,
        } = adm;
        // A disabled model (alpha ≤ 0) bypasses the whole measured-cost
        // path, hints included: admissions are pure estimate-unit, exactly
        // the pre-measured scheduler.
        let cost = match batch_key.filter(|_| !self.cost_model.is_disabled()) {
            Some(key) => match self.cost_model.predict_seconds(key) {
                Some(seconds) => seconds * COST_UNITS_PER_SECOND,
                None => match hint_seconds {
                    Some(hint) => {
                        self.cost_model.seed(key, hint);
                        hint * COST_UNITS_PER_SECOND
                    }
                    None => cost,
                },
            },
            None => cost,
        }
        .max(MIN_JOB_COST);
        if self.obs.tracing_enabled() {
            self.obs
                .trace(id, Some(tenant), batch_key, Stage::Admitted { cost });
        }
        let queue = self
            .tenants
            .get_mut(tenant)
            .expect("tenant interned before admission");
        let job = QueuedJob {
            id,
            cost,
            placement,
            batch_key,
            requirements,
            class,
            deadline,
            retry,
            submitted: Instant::now(),
        };
        if queue.queue.is_empty() {
            self.nonempty += 1;
        }
        if class.is_latency() {
            self.queued_latency += 1;
        }
        // Binary search: the queue is kept sorted by the class-then-EDF/LPT
        // rule, and partition_point places ties after their peers (stable
        // FIFO), so admitting an N-point sweep costs O(N log N) comparisons
        // instead of O(N^2) — this runs under the scheduler lock workers
        // contend on.
        let at = queue
            .queue
            .partition_point(|q| keeps_position(q, class, deadline, cost));
        queue.queue.insert(at, job);
        // A non-head insertion cannot change any tenant's head, so the memo
        // stays valid; a new head can raise *or lower* the max head cost
        // (a cheap latency job now outranks an expensive throughput head),
        // so it invalidates rather than adjusts in place.
        if at == 0 {
            self.cached_quantum = None;
        }
    }

    /// Test shorthand: a throughput-class [`Admission`] from the positional
    /// fields most scheduler tests exercise.
    #[cfg(test)]
    pub(crate) fn admit(
        &mut self,
        tenant: &Arc<str>,
        id: JobId,
        cost: f64,
        hint_seconds: Option<f64>,
        placement: Option<Placement>,
        batch_key: Option<u64>,
    ) {
        self.admit_job(
            tenant,
            Admission {
                hint_seconds,
                placement,
                batch_key,
                ..Admission::job(id, cost)
            },
        );
    }

    /// Release the in-flight slot of a **skipped** job (lost claim): no
    /// measurement exists, so neither the cost model nor the deficit is
    /// touched. Finished jobs go through [`FairScheduler::record_outcome`].
    pub(crate) fn release(&mut self, id: JobId) {
        if let Some(flight) = self.in_flight.remove(&id) {
            if let Some(tenant) = self.tenants.get_mut(&flight.tenant) {
                tenant.in_flight = tenant.in_flight.saturating_sub(1);
            }
            if let Some(device) = flight.device {
                self.fleet.release_slot(device);
            }
            self.fleet.clear_exclusions(id.0);
        }
    }

    /// Reconcile a finished job's **measured** busy-seconds against what its
    /// dispatch was charged, then release its in-flight slot.
    ///
    /// Three things happen, in order:
    ///
    /// * the measurement feeds the per-plan-key cost model, so future
    ///   admissions of this plan are charged what it actually costs;
    /// * the estimate-error gauges update
    ///   ([`SchedulerMetrics::cost_samples`] /
    ///   [`SchedulerMetrics::estimate_error_units`], and the tenant's
    ///   busy-seconds);
    /// * **charge-back**: the tenant's deficit is corrected by
    ///   `measured − estimated` cost units, clamped to
    ///   `charge_back_clamp × estimated` per job (one wild outlier — a page
    ///   fault storm, a cold JIT — must not bankrupt a tenant for many
    ///   rotations; the cost model still absorbs the full observation). Net
    ///   effect: the tenant ends up having spent its *measured* cost, so a
    ///   systematic under-estimate can no longer compound into a fairness
    ///   hole across rotations.
    ///
    /// Charge-back only applies while the tenant is **contended** (some
    /// other tenant has queued work). An uncontended tenant's corrections
    /// are meaningless — there is nobody to be fair to — and letting them
    /// accumulate would bank unbounded credit (over-estimated jobs) or debt
    /// (under-estimated jobs) that distorts fairness the moment a competitor
    /// arrives, the mirror image of the banked-budget problem deficit resets
    /// exist to prevent.
    ///
    /// `ok` marks whether the job *succeeded*. A failed job's duration is
    /// failure latency, not execution cost — a member that dies in
    /// microseconds at bind time must not deflate its plan's EWMA (and
    /// under-charge every later admission of that key), must not count as
    /// an accuracy sample, and earns no charge-back refund (fail-fast spam
    /// at refunded cost would be a monopoly of its own). Failed jobs still
    /// release their slot and accrue their measured busy-seconds.
    pub(crate) fn record_outcome(&mut self, id: JobId, seconds: f64, ok: bool) {
        if !seconds.is_finite() || seconds < 0.0 {
            return self.release(id);
        }
        let Some(flight) = self.in_flight.remove(&id) else {
            return;
        };
        if let Some(device) = flight.device {
            // Device-routed outcomes normally settle their slot in
            // `settle_outcome` first (which clears this field); freeing here
            // covers direct callers such as the drain sweep.
            self.fleet.release_slot(device);
        }
        self.fleet.clear_exclusions(id.0);
        // Per-class terminal accounting: completion/failure tallies, the
        // class's execute histogram, and — for deadline-carrying latency
        // jobs only — whether this outcome settled past its deadline.
        let missed = flight
            .deadline
            .is_some_and(|deadline| Instant::now() > deadline);
        let ledger = self.ledger_mut(flight.class);
        if ok {
            ledger.completed += 1;
        } else {
            ledger.failed += 1;
        }
        if missed {
            ledger.deadline_miss += 1;
        }
        self.obs
            .observe_class_exec(flight.class.name(), (seconds * 1e6) as u64);
        if ok {
            if let Some(key) = flight.batch_key {
                self.cost_model.observe(key, seconds);
                // The observation can reprice any queued head of this plan,
                // so the memoized quantum is stale. Outcomes arrive at the
                // same rate as dispatches, so this keeps the rescan
                // amortized O(1) per job — idle polls still never rescan.
                self.cached_quantum = None;
            }
        }
        // Floor the measured side at MIN_JOB_COST (expressed in seconds),
        // exactly as admission floors every charge: without it, sub-floor
        // jobs would be partially refunded and a fast queue could again
        // drain in one parked visit — the monopoly the floor exists to
        // prevent.
        let measured = MeasuredCost::new(
            flight.batch_key,
            flight.cost,
            seconds.max(MIN_JOB_COST / COST_UNITS_PER_SECOND),
        );
        let error = measured.error_units(COST_UNITS_PER_SECOND);
        if ok {
            self.metrics.cost_samples += 1;
            self.metrics.estimate_error_units += error.abs();
        }
        let Some(tenant) = self.tenants.get_mut(&flight.tenant) else {
            return;
        };
        tenant.in_flight = tenant.in_flight.saturating_sub(1);
        tenant.busy_seconds += seconds;
        let contended = self.nonempty > usize::from(!tenant.queue.is_empty());
        let clamp = self.charge_back_clamp * flight.cost;
        if ok && contended && clamp > 0.0 {
            let delta = error.clamp(-clamp, clamp);
            if delta != 0.0 {
                tenant.deficit -= delta;
                self.metrics.charge_back_units += delta.abs();
            }
        }
    }

    /// Settle one member outcome against its fleet device **before** any
    /// terminal bookkeeping, deciding whether the outcome stands or the job
    /// fails over to another device.
    ///
    /// Always: the device's slot frees, its gauges and health ladder absorb
    /// the observation (busy-seconds accrue even for faulted attempts — the
    /// device was genuinely occupied), and a down transition evacuates the
    /// device's parked queue.
    ///
    /// If the outcome was a **device fault** and a capable, not-yet-excluded
    /// device remains on the job's plane, the job is requeued:
    /// `runtime_requeue` flips its runtime record back to queued (returning
    /// `false` aborts the failover — e.g. the record already settled), the
    /// faulted device joins the job's exclusion set, and the job re-enters
    /// its tenant queue through the normal admission path with its original
    /// plane-level placement. Each failover adds one exclusion over a finite
    /// device set, so a job completes elsewhere or fails terminally — it
    /// can never bounce forever, and `runtime_requeue`'s queued-only state
    /// transition guarantees exactly-once outcomes.
    pub(crate) fn settle_outcome(
        &mut self,
        id: JobId,
        device: Option<&str>,
        seconds: f64,
        ok: bool,
        fault: bool,
        runtime_requeue: impl FnOnce() -> bool,
    ) -> OutcomeDisposition {
        let Some(device) = device.and_then(|d| self.fleet.device_index(d)) else {
            self.fleet.clear_exclusions(id.0);
            return OutcomeDisposition::Final;
        };
        let plan_key = self.in_flight.get(&id).and_then(|f| f.batch_key);
        self.fleet.release_slot(device);
        if let Some(flight) = self.in_flight.get_mut(&id) {
            flight.device = None;
        }
        self.fleet.observe(device, plan_key, seconds, ok, fault);
        if fault {
            let can_retry = self.in_flight.get(&id).is_some_and(|flight| {
                flight.placement.as_ref().is_some_and(|placement| {
                    self.fleet.retry_candidate_exists(
                        placement.backend.name(),
                        flight.requirements.as_ref(),
                        id.0,
                        device,
                    )
                })
            });
            if can_retry && runtime_requeue() {
                let flight = self.in_flight.remove(&id).expect("present per can_retry");
                if let Some(tenant) = self.tenants.get_mut(&flight.tenant) {
                    tenant.in_flight = tenant.in_flight.saturating_sub(1);
                }
                self.fleet.exclude(id.0, device);
                self.fleet.note_requeued(device);
                self.metrics.requeued += 1;
                if self.obs.tracing_enabled() {
                    let attempt = self.fleet.exclusion_count(id.0) as u32;
                    self.obs.trace(
                        id,
                        Some(&flight.tenant),
                        flight.batch_key,
                        Stage::Requeued { attempt },
                    );
                }
                let tenant = Arc::clone(&flight.tenant);
                // Class, deadline, and (via `retry`) the already-paid
                // rate-limit token are preserved: a failover is the same
                // job, not a fresh submission.
                self.admit_job(
                    &tenant,
                    Admission {
                        id,
                        cost: flight.cost,
                        hint_seconds: None,
                        placement: flight.placement,
                        batch_key: flight.batch_key,
                        requirements: flight.requirements,
                        class: flight.class,
                        deadline: flight.deadline,
                        retry: true,
                    },
                );
                return OutcomeDisposition::Requeued;
            }
        }
        self.fleet.clear_exclusions(id.0);
        OutcomeDisposition::Final
    }

    /// Stamp a dispatch with its routed device: take one slot per member,
    /// remember the device on every member's in-flight record, and swap the
    /// placement's backend for the device's own instance (in-flight records
    /// keep the plane-level placement for any post-fault re-admit).
    fn route_to_device(&mut self, device: usize, mut dispatch: JobDispatch) -> JobDispatch {
        self.fleet.take_slots(device, dispatch.len());
        let ids: Vec<JobId> = dispatch.ids().collect();
        for id in ids {
            if let Some(flight) = self.in_flight.get_mut(&id) {
                flight.device = Some(device);
            }
        }
        if let Some(backend) = self.fleet.backend(device) {
            if let Some(placement) = dispatch.placement.as_mut() {
                placement.backend = backend;
            }
        }
        dispatch.device = self.fleet.device_id(device);
        dispatch
    }

    /// Jobs admitted but not yet dispatched.
    pub(crate) fn queued(&self) -> usize {
        self.tenants.values().map(|t| t.queue.len()).sum()
    }

    /// Jobs dispatched but not yet finished.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Snapshot the per-tenant gauges for a metrics merge.
    pub(crate) fn gauges(&self) -> Vec<(Arc<str>, TenantGauges)> {
        self.tenants
            .iter()
            .map(|(name, t)| {
                (
                    Arc::clone(name),
                    TenantGauges {
                        dispatched: t.dispatched,
                        in_flight: t.in_flight as u64,
                        throttled: t.throttled,
                        total_wait_seconds: t.total_wait_seconds,
                        busy_seconds: t.busy_seconds,
                    },
                )
            })
            .collect()
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

    /// Cordon a fleet device for maintenance (no new routes; parked work is
    /// stolen by siblings). See [`FleetRouter::cordon`].
    pub(crate) fn cordon(&mut self, device: &str) -> bool {
        self.fleet.cordon(device)
    }

    /// Lift a cordon. See [`FleetRouter::uncordon`].
    pub(crate) fn uncordon(&mut self, device: &str) -> bool {
        self.fleet.uncordon(device)
    }

    /// Advance the rotation pointer, clearing the arrival credit.
    fn advance(&mut self) {
        let n = self.rotation.len().max(1);
        self.cursor = (self.cursor + 1) % n;
        self.credited = false;
    }

    /// The DRR quantum: the largest *currently queued* head cost (each
    /// tenant's head is its most expensive pending job, so this is the max
    /// over all queued jobs). Reflects the current queues rather than a
    /// high-water mark: a historically expensive job must not permanently
    /// inflate every tenant's per-visit budget, or a whale with many cheap
    /// jobs could serve `old_max_cost` jobs per visit and starve small
    /// tenants — the exact failure mode this module exists to prevent.
    ///
    /// Memoized: admissions raise the cached value in place; removals and
    /// cost-model observations (which can reprice any queued head)
    /// invalidate it. Only the first dispatch attempt after either pays the
    /// O(tenants) rescan — every idle poll (the hot path all workers execute
    /// whenever nothing is dispatchable) is O(1).
    fn quantum(&mut self) -> f64 {
        if let Some(quantum) = self.cached_quantum {
            return quantum;
        }
        let model = &self.cost_model;
        let quantum = self
            .tenants
            .values()
            .filter_map(|t| t.queue.front())
            .map(|job| effective_cost(model, job))
            .fold(1.0, f64::max);
        self.cached_quantum = Some(quantum);
        quantum
    }

    /// Remove and return the job at `index` of `name`'s queue, maintaining
    /// the non-empty-tenant counter and invalidating the memoized quantum —
    /// the single mutation path for queue removals.
    fn take_job(&mut self, name: &Arc<str>, index: usize) -> QueuedJob {
        let tenant = self.tenants.get_mut(name).expect("tenant exists");
        let job = tenant.queue.remove(index).expect("index in bounds");
        if tenant.queue.is_empty() {
            self.nonempty -= 1;
        }
        if job.class.is_latency() {
            self.queued_latency -= 1;
        }
        self.cached_quantum = None;
        job
    }

    /// One DRR dispatch attempt, shared by every pool worker.
    ///
    /// The pointer parks on one tenant at a time. On *arrival* the tenant is
    /// credited `weight × quantum` of deficit, once; the pointer then stays
    /// parked while successive calls dispatch that tenant's jobs, each
    /// spending its estimated cost from the deficit — so a weight-3 tenant
    /// serves three times the cost of a weight-1 tenant per rotation. The
    /// pointer advances when the tenant's remaining deficit no longer covers
    /// its head job (the deficit is *kept*, classic DRR, so heavy jobs
    /// eventually accumulate enough turns) or when the tenant is vetoed —
    /// empty queue, in-flight cap, or an empty token bucket (the deficit is
    /// *reset*: a non-competing tenant must not bank budget for later
    /// bursts).
    ///
    /// A full cycle of vetoes means nothing is dispatchable:
    /// [`SchedPoll::Idle`] — or [`SchedPoll::Shutdown`] once a drain has
    /// emptied every queue with nothing left in flight. Cycles containing a
    /// deficit-blocked tenant repeat (each arrival strictly grows that
    /// deficit, so the loop terminates within `1/weight` cycles).
    pub(crate) fn next_job(&mut self, now: Instant) -> SchedPoll {
        self.metrics.rounds += 1;
        match self.mode {
            Mode::Stopped | Mode::Aborting => return SchedPoll::Shutdown,
            Mode::Running | Mode::Draining => {}
        }
        // Parked fleet work is served ahead of the rotation: its fairness
        // accounting (deficit, tokens, in-flight slots) was already charged
        // when the DRR loop dispatched it — only a device slot was missing,
        // and one just freed (or an idle sibling is stealing the work).
        if let Some((device, parked)) = self.fleet.pop_parked() {
            return SchedPoll::Dispatch(self.route_to_device(device, parked.dispatch));
        }
        let drain = self.mode == Mode::Draining;
        let n = self.rotation.len();
        let quantum = self.quantum();
        let mut consecutive_vetoes = 0usize;
        for _visit in 0..n.saturating_mul(MAX_PASSES) {
            let name = Arc::clone(&self.rotation[self.cursor]);
            let tenant = self.tenants.get_mut(&name).expect("rotation entry exists");
            // A device-fault requeue already paid its token at the original
            // dispatch: the throttle veto (and the token spend below) must
            // not charge it twice.
            let head_retry = tenant.queue.front().is_some_and(|job| job.retry);
            // Veto checks: a vetoed tenant is not competing this round.
            let vetoed = if tenant.queue.is_empty() {
                true
            } else if tenant
                .policy
                .max_in_flight
                .is_some_and(|cap| tenant.in_flight >= cap.max(1))
            {
                self.metrics.capped += 1;
                true
            } else if !drain && !head_retry && tenant.policy.rate_limit.is_some() {
                tenant.refill(now);
                if tenant.tokens < 1.0 {
                    tenant.throttled += 1;
                    self.metrics.throttled += 1;
                    true
                } else {
                    false
                }
            } else {
                false
            };
            if vetoed {
                // A vetoed tenant is not competing: forfeit banked credit
                // (debt from measured-cost charge-back survives).
                tenant.forfeit_credit();
                consecutive_vetoes += 1;
                if consecutive_vetoes >= n {
                    break;
                }
                self.advance();
                continue;
            }
            consecutive_vetoes = 0;
            if !self.credited {
                tenant.deficit += tenant.policy.weight.max(MIN_WEIGHT) * quantum;
                self.credited = true;
            }
            let head_cost = effective_cost(
                &self.cost_model,
                tenant.queue.front().expect("non-empty queue"),
            );
            if tenant.deficit < head_cost {
                // Blocked by deficit: keep it and move on; the next arrival
                // credits more.
                self.advance();
                continue;
            }
            // Fleet backpressure: if no capable device on the head's plane
            // can take the job right now (every slot busy, every queue
            // full), defer it — the deficit is kept, exactly like a
            // deficit block, so the tenant loses no budget to a saturated
            // or failing fleet.
            let accept = {
                let head = tenant.queue.front().expect("non-empty queue");
                match head.placement.as_ref().map(|p| p.backend.name()) {
                    Some(plane) => {
                        self.fleet
                            .can_accept(plane, head.requirements.as_ref(), head.id.0)
                    }
                    None => true,
                }
            };
            if !accept {
                self.advance();
                continue;
            }
            let job = self.take_job(&name, 0);
            let tenant = self.tenants.get_mut(&name).expect("rotation entry exists");
            let spend_token = !drain && !job.retry && tenant.policy.rate_limit.is_some();
            tenant.deficit -= head_cost;
            if spend_token {
                tenant.tokens -= 1.0;
            }
            tenant.in_flight += 1;
            tenant.dispatched += 1;
            // Saturating: `submitted` stamps are taken under the same lock,
            // but a caller-supplied stale `now` must clamp a "negative" wait
            // to zero rather than corrupt the gauge.
            let head_wait = now.saturating_duration_since(job.submitted);
            tenant.total_wait_seconds += head_wait.as_secs_f64();
            self.metrics.dispatched += 1;
            self.ledger_mut(job.class).dispatched += 1;
            self.in_flight.insert(
                job.id,
                InFlight {
                    tenant: Arc::clone(&name),
                    cost: head_cost,
                    batch_key: job.batch_key,
                    requirements: job.requirements,
                    placement: job.placement.clone(),
                    device: None,
                    class: job.class,
                    deadline: job.deadline,
                },
            );
            let members = self.coalesce(&name, &job, drain);
            let head_wait_us = head_wait.as_micros() as u64;
            self.obs.observe_wait(
                &name,
                job.placement.as_ref().map(|p| p.backend.name()),
                head_wait_us,
            );
            self.obs.observe_class_wait(job.class.name(), head_wait_us);
            if self.obs.tracing_enabled() {
                let batch_size = (members.len() + 1) as u32;
                self.obs.trace(
                    job.id,
                    Some(&name),
                    job.batch_key,
                    Stage::Dispatched {
                        queue_wait_us: head_wait_us,
                        batch_size,
                        deficit_spent: head_cost,
                    },
                );
                for member in &members {
                    self.obs.trace(
                        member.id,
                        Some(&name),
                        job.batch_key,
                        Stage::Dispatched {
                            queue_wait_us: member.wait_us,
                            batch_size,
                            deficit_spent: member.cost,
                        },
                    );
                }
            }
            let tenant = self.tenants.get_mut(&name).expect("rotation entry exists");
            if tenant.queue.is_empty() {
                tenant.forfeit_credit();
            }
            let dispatch = JobDispatch {
                id: job.id,
                rest: members.into_iter().map(|m| m.id).collect(),
                placement: job.placement.clone(),
                device: None,
                class: job.class,
            };
            let plane = job.placement.as_ref().map(|p| p.backend.name().to_string());
            let route = plane.and_then(|plane| {
                self.fleet
                    .select(&plane, job.requirements.as_ref(), job.batch_key, job.id.0)
            });
            return match route {
                Some(device) if self.fleet.has_free_slot(device) => {
                    SchedPoll::Dispatch(self.route_to_device(device, dispatch))
                }
                Some(device) => {
                    // Routed, but every slot on the chosen device is busy:
                    // park the whole dispatch on its queue. A freed slot —
                    // or an idle sibling stealing it — serves it ahead of
                    // the rotation on a later poll.
                    self.fleet.park(
                        device,
                        ParkedDispatch {
                            dispatch,
                            requirements: job.requirements,
                        },
                    );
                    continue;
                }
                // Un-fleeted plane (or placement-less job): dispatch
                // device-blind, the pre-fleet behavior.
                None => SchedPoll::Dispatch(dispatch),
            };
        }
        if drain && self.queued() == 0 && self.in_flight.is_empty() {
            return SchedPoll::Shutdown;
        }
        self.metrics.idle_polls += 1;
        SchedPoll::Idle
    }

    /// The batch-size cap of one dispatch, given the head's service class: a
    /// latency-class head always uses the fixed [`LATENCY_MAX_BATCH`] — its
    /// whole point is a short device call — and a throughput head is capped
    /// at `max_batch`.
    fn effective_max_batch(&self, class: ServiceClass) -> usize {
        if class.is_latency() {
            LATENCY_MAX_BATCH
        } else {
            self.max_batch
        }
    }

    /// Opportunistically extend a just-dispatched head job into a
    /// **micro-batch**: pop further queued jobs of the same tenant that share
    /// the head's batch key (same backend, same realization plan) *and its
    /// service class*, spending deficit and rate-limit tokens and taking
    /// in-flight slots **per member**, exactly as solo dispatches would —
    /// fairness accounting is unchanged; the batch merely rides one worker
    /// round-trip and one device-level `execute_batch_timed` call.
    ///
    /// Under contention (any other tenant has queued work) a member is only
    /// taken while the tenant's remaining deficit covers its cost, so DRR
    /// weights keep their exact meaning: a weight-3 tenant coalesces up to
    /// three cost units per visit where a weight-1 tenant dispatches solo.
    /// An **uncontended** tenant batches up to the class cap regardless of
    /// deficit — there is nobody to be fair to — with the deficit clamped at
    /// zero so no batching debt leaks into the next contended period.
    ///
    /// The cap is per class (see
    /// [`effective_max_batch`](FairScheduler::effective_max_batch)), and a
    /// queued latency job — any tenant's — stops a throughput batch from
    /// growing past its head (preempt coalescing, never execution).
    ///
    /// Clock discipline: the caller's `now` is *not* reused here. Member
    /// token refills and wait-time accounting read a **fresh instant** taken
    /// after the head's bookkeeping, so a member admitted between the
    /// caller's clock read and this scan can never observe a `now` older
    /// than its own `submitted` stamp (its wait would clamp to zero and, in
    /// older std, panicked), and refill arithmetic never runs backwards.
    fn coalesce(&mut self, name: &Arc<str>, head: &QueuedJob, drain: bool) -> Vec<BatchMember> {
        let mut rest = Vec::new();
        let Some(key) = head.batch_key else {
            return rest;
        };
        let now = Instant::now();
        // O(1) contention check: some *other* tenant has queued work iff the
        // non-empty count exceeds this tenant's own contribution.
        let tenant = self.tenants.get_mut(name).expect("tenant exists");
        let contended = self.nonempty > usize::from(!tenant.queue.is_empty());
        let cap = self.effective_max_batch(head.class);
        if cap <= 1 {
            return rest;
        }
        // Preempt **coalescing**, never execution: a queued latency-class
        // job — any tenant's — stops a throughput batch from growing past
        // its head, so the latency job's dispatch is at most one short
        // device call away. Batches already executing are untouched.
        if !head.class.is_latency() && self.queued_latency > 0 {
            return rest;
        }
        let mut idx = 0usize;
        let mut scanned = 0usize;
        loop {
            let tenant = self.tenants.get_mut(name).expect("tenant exists");
            if rest.len() + 1 >= cap || idx >= tenant.queue.len() || scanned >= MAX_BATCH_SCAN {
                break;
            }
            scanned += 1;
            if tenant.queue[idx].batch_key != Some(key) {
                idx += 1;
                continue;
            }
            // Members must share the head's class: one batch rides one cap
            // and one latency promise. (A latency head never reaches a
            // throughput member anyway — class ordering puts every latency
            // job ahead — so this guards the converse.)
            if tenant.queue[idx].class.is_latency() != head.class.is_latency() {
                idx += 1;
                continue;
            }
            // A batch routes by its head's device exclusions: a member
            // excluded from some device the head is not could ride back
            // onto the device that faulted it. Only coalesce members whose
            // exclusion set is a subset of the head's.
            if !self
                .fleet
                .exclusions_subset(tenant.queue[idx].id.0, head.id.0)
            {
                idx += 1;
                continue;
            }
            let member_cost = effective_cost(&self.cost_model, &tenant.queue[idx]);
            if contended && tenant.deficit < member_cost {
                break;
            }
            if tenant
                .policy
                .max_in_flight
                .is_some_and(|cap| tenant.in_flight >= cap.max(1))
            {
                break;
            }
            // Retries are token-exempt (already paid at original dispatch):
            // they neither stop the batch on an empty bucket nor spend.
            if !drain && !tenant.queue[idx].retry && tenant.policy.rate_limit.is_some() {
                tenant.refill(now);
                if tenant.tokens < 1.0 {
                    break;
                }
                tenant.tokens -= 1.0;
            }
            let member = self.take_job(name, idx);
            let tenant = self.tenants.get_mut(name).expect("tenant exists");
            tenant.deficit -= member_cost;
            if !contended {
                tenant.deficit = tenant.deficit.max(0.0);
            }
            tenant.in_flight += 1;
            tenant.dispatched += 1;
            let wait = now.saturating_duration_since(member.submitted);
            tenant.total_wait_seconds += wait.as_secs_f64();
            self.metrics.dispatched += 1;
            self.ledger_mut(member.class).dispatched += 1;
            self.in_flight.insert(
                member.id,
                InFlight {
                    tenant: Arc::clone(name),
                    cost: member_cost,
                    batch_key: member.batch_key,
                    requirements: member.requirements,
                    placement: member.placement.clone(),
                    device: None,
                    class: member.class,
                    deadline: member.deadline,
                },
            );
            let wait_us = wait.as_micros() as u64;
            self.obs.observe_wait(
                name,
                member.placement.as_ref().map(|p| p.backend.name()),
                wait_us,
            );
            self.obs.observe_class_wait(member.class.name(), wait_us);
            rest.push(BatchMember {
                id: member.id,
                wait_us,
                cost: member_cost,
            });
        }
        if !rest.is_empty() {
            self.metrics.batches += 1;
            self.metrics.batched_jobs += rest.len() as u64 + 1;
        }
        rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::time::Duration;

    fn noop_registry() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::new(Arc::new(qml_observe::NoopTracer)))
    }

    fn sched_with(policies: &[(&str, TenantPolicy)]) -> (FairScheduler, Vec<Arc<str>>) {
        let mut sched = FairScheduler::new(8, 0.4, 16.0, noop_registry());
        sched.mode = Mode::Running;
        let names = policies
            .iter()
            .map(|(name, policy)| sched.intern(name, policy))
            .collect();
        (sched, names)
    }

    #[test]
    fn interning_deduplicates_names() {
        let (mut sched, names) = sched_with(&[("alice", TenantPolicy::default())]);
        let again = sched.intern("alice", &TenantPolicy::default());
        assert!(Arc::ptr_eq(&names[0], &again));
    }

    #[test]
    fn round_robin_alternates_between_equal_tenants() {
        let (mut sched, names) = sched_with(&[
            ("a", TenantPolicy::default()),
            ("b", TenantPolicy::default()),
        ]);
        // a gets jobs 0..4, b gets 10..14, all equal cost.
        for i in 0..4 {
            sched.admit(&names[0], JobId(i), 1.0, None, None, None);
            sched.admit(&names[1], JobId(10 + i), 1.0, None, None, None);
        }
        let now = Instant::now();
        let mut order = Vec::new();
        while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
            sched.release(dispatch.id);
            order.push(dispatch.id.0 / 10); // 0 = tenant a, 1 = tenant b
        }
        // Strict alternation: no tenant dispatches twice in a row while the
        // other has work.
        for pair in order.windows(2) {
            assert_ne!(pair[0], pair[1], "alternation broken: {order:?}");
        }
        assert_eq!(order.len(), 8);
    }

    #[test]
    fn single_job_tenant_preempts_a_long_sweep() {
        let (mut sched, names) = sched_with(&[
            ("whale", TenantPolicy::default()),
            ("minnow", TenantPolicy::default()),
        ]);
        for i in 0..100 {
            sched.admit(&names[0], JobId(i), 5.0, None, None, None);
        }
        sched.admit(&names[1], JobId(1000), 5.0, None, None, None);
        let now = Instant::now();
        let mut dispatched_before_minnow = 0;
        loop {
            match sched.next_job(now) {
                SchedPoll::Dispatch(JobDispatch {
                    id: JobId(1000), ..
                }) => break,
                SchedPoll::Dispatch(dispatch) => {
                    sched.release(dispatch.id);
                    dispatched_before_minnow += 1;
                }
                other => panic!("unexpected poll {other:?}"),
            }
        }
        assert!(
            dispatched_before_minnow <= 2,
            "minnow waited behind {dispatched_before_minnow} whale jobs"
        );
    }

    #[test]
    fn weights_bias_the_dispatch_ratio() {
        let (mut sched, names) = sched_with(&[
            ("heavy", TenantPolicy::default().with_weight(3.0)),
            ("light", TenantPolicy::default()),
        ]);
        for i in 0..60 {
            sched.admit(&names[0], JobId(i), 1.0, None, None, None);
            sched.admit(&names[1], JobId(100 + i), 1.0, None, None, None);
        }
        let now = Instant::now();
        let mut heavy_in_first_40 = 0;
        for _ in 0..40 {
            match sched.next_job(now) {
                SchedPoll::Dispatch(dispatch) => {
                    sched.release(dispatch.id);
                    if dispatch.id.0 < 100 {
                        heavy_in_first_40 += 1;
                    }
                }
                other => panic!("unexpected poll {other:?}"),
            }
        }
        // 3:1 weights → roughly 30 of the first 40 dispatches are heavy's.
        assert!(
            (25..=35).contains(&heavy_in_first_40),
            "expected ~30 heavy dispatches, got {heavy_in_first_40}"
        );
    }

    #[test]
    fn in_flight_cap_blocks_further_dispatches() {
        let (mut sched, names) =
            sched_with(&[("capped", TenantPolicy::default().with_max_in_flight(1))]);
        sched.admit(&names[0], JobId(0), 1.0, None, None, None);
        sched.admit(&names[0], JobId(1), 1.0, None, None, None);
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert!(
            matches!(sched.next_job(now), SchedPoll::Idle),
            "cap of 1 respected"
        );
        assert!(sched.metrics.capped > 0);
        sched.release(first.id);
        assert!(matches!(sched.next_job(now), SchedPoll::Dispatch(_)));
    }

    #[test]
    fn burst_only_rate_limit_throttles_after_burst() {
        let (mut sched, names) = sched_with(&[(
            "limited",
            TenantPolicy::default().with_rate_limit(RateLimit {
                jobs_per_second: 0.0,
                burst: 2.0,
            }),
        )]);
        for i in 0..5 {
            sched.admit(&names[0], JobId(i), 1.0, None, None, None);
        }
        let now = Instant::now();
        for _ in 0..2 {
            let SchedPoll::Dispatch(dispatch) = sched.next_job(now) else {
                panic!("burst tokens should dispatch");
            };
            sched.release(dispatch.id);
        }
        assert!(matches!(sched.next_job(now), SchedPoll::Idle));
        assert!(sched.metrics.throttled > 0);
        // A drain waives the rate limit so shutdown terminates.
        sched.mode = Mode::Draining;
        assert!(matches!(sched.next_job(now), SchedPoll::Dispatch(_)));
    }

    #[test]
    fn drain_shuts_down_only_when_empty_and_nothing_in_flight() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        sched.admit(&names[0], JobId(0), 1.0, None, None, None);
        sched.mode = Mode::Draining;
        let now = Instant::now();
        let SchedPoll::Dispatch(dispatch) = sched.next_job(now) else {
            panic!("drain dispatches pending work");
        };
        // Still in flight: other workers idle rather than exit.
        assert!(matches!(sched.next_job(now), SchedPoll::Idle));
        sched.release(dispatch.id);
        assert!(matches!(sched.next_job(now), SchedPoll::Shutdown));
    }

    #[test]
    fn abort_stops_dispatching_immediately() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        sched.admit(&names[0], JobId(0), 1.0, None, None, None);
        sched.mode = Mode::Aborting;
        assert!(matches!(
            sched.next_job(Instant::now()),
            SchedPoll::Shutdown
        ));
        assert_eq!(sched.queued(), 1, "aborted work stays queued");
    }

    #[test]
    fn historical_expensive_job_does_not_inflate_the_quantum() {
        // A cost-500 job once existed and was dispatched long ago. Later a
        // whale queues many cost-1 jobs and a minnow queues one: the quantum
        // must reflect the *current* queues (1.0), so the whale serves ~one
        // job per visit and the minnow still preempts within a couple of
        // dispatches — a stale high-water quantum would let the whale serve
        // hundreds per visit.
        let (mut sched, names) = sched_with(&[
            ("whale", TenantPolicy::default()),
            ("minnow", TenantPolicy::default()),
        ]);
        let now = Instant::now();
        sched.admit(&names[0], JobId(9999), 500.0, None, None, None);
        let SchedPoll::Dispatch(big) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        sched.release(big.id);

        for i in 0..300 {
            sched.admit(&names[0], JobId(i), 1.0, None, None, None);
        }
        sched.admit(&names[1], JobId(1000), 1.0, None, None, None);
        let mut whale_before_minnow = 0;
        loop {
            match sched.next_job(now) {
                SchedPoll::Dispatch(JobDispatch {
                    id: JobId(1000), ..
                }) => break,
                SchedPoll::Dispatch(dispatch) => {
                    sched.release(dispatch.id);
                    whale_before_minnow += 1;
                }
                other => panic!("unexpected poll {other:?}"),
            }
        }
        assert!(
            whale_before_minnow <= 2,
            "stale quantum: {whale_before_minnow} whale jobs before the minnow"
        );
    }

    #[test]
    fn zero_cost_jobs_still_spend_deficit_no_monopoly() {
        // Regression: hint-less bundles (and failed placements) admit with a
        // 0.0 cost estimate. Before the MIN_JOB_COST floor such jobs spent
        // zero deficit, so the first-visited tenant's queue drained entirely
        // in one parked visit — the exact monopoly DRR exists to prevent.
        // With the floor, dispatch order interleaves strictly.
        let (mut sched, names) = sched_with(&[
            ("hintless", TenantPolicy::default()),
            ("normal", TenantPolicy::default()),
        ]);
        for i in 0..6 {
            sched.admit(&names[0], JobId(i), 0.0, None, None, None);
            sched.admit(&names[1], JobId(100 + i), 1.0, None, None, None);
        }
        let now = Instant::now();
        let mut order = Vec::new();
        while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
            sched.release(dispatch.id);
            order.push(dispatch.id.0 / 100); // 0 = hintless, 1 = normal
        }
        assert_eq!(order.len(), 12);
        for pair in order.windows(2) {
            assert_ne!(
                pair[0], pair[1],
                "hint-less tenant monopolized the rotation: {order:?}"
            );
        }
    }

    #[test]
    fn uncontended_tenant_coalesces_up_to_max_batch() {
        // A solo tenant has nobody to be fair to: plan-compatible jobs
        // coalesce into micro-batches of max_batch regardless of deficit.
        let (mut sched, names) = sched_with(&[("solo", TenantPolicy::default())]);
        for i in 0..10 {
            sched.admit(&names[0], JobId(i), 1.0, None, None, Some(42));
        }
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.len(), 8, "uncontended batches to the cap");
        assert_eq!(
            first.ids().collect::<Vec<_>>(),
            (0..8).map(JobId).collect::<Vec<_>>(),
            "members coalesce in queue order"
        );
        for id in first.ids() {
            sched.release(id);
        }
        let SchedPoll::Dispatch(second) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(second.len(), 2, "the remainder forms the next batch");
        assert_eq!(sched.metrics.batches, 2);
        assert_eq!(sched.metrics.batched_jobs, 10);
        assert_eq!(sched.metrics.dispatched, 10, "accounting is per member");
        assert!((sched.metrics.mean_batch_size() - 5.0).abs() < 1e-12);
        assert_eq!(sched.metrics.solo_jobs(), 0);
    }

    #[test]
    fn contended_batches_stay_within_the_drr_budget() {
        // Under contention a batch may only spend the deficit its tenant was
        // credited: weight 3 affords three equal-cost members per visit,
        // weight 1 dispatches solo — the ratio weights promise is untouched.
        let (mut sched, names) = sched_with(&[
            ("heavy", TenantPolicy::default().with_weight(3.0)),
            ("light", TenantPolicy::default()),
        ]);
        for i in 0..9 {
            sched.admit(&names[0], JobId(i), 1.0, None, None, Some(1));
        }
        for i in 0..3 {
            sched.admit(&names[1], JobId(100 + i), 1.0, None, None, Some(2));
        }
        let now = Instant::now();
        let SchedPoll::Dispatch(heavy) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(heavy.len(), 3, "weight-3 budget covers three members");
        heavy.ids().for_each(|id| sched.release(id));
        let SchedPoll::Dispatch(light) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(light.len(), 1, "weight-1 tenant dispatches solo");
        sched.release(light.id);
    }

    #[test]
    fn different_batch_keys_never_coalesce() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        sched.admit(&names[0], JobId(0), 1.0, None, None, Some(7));
        sched.admit(&names[0], JobId(1), 1.0, None, None, Some(8));
        sched.admit(&names[0], JobId(2), 1.0, None, None, Some(7));
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        // Key 7 members coalesce across the interleaved key-8 job...
        assert_eq!(first.ids().collect::<Vec<_>>(), vec![JobId(0), JobId(2)]);
        first.ids().for_each(|id| sched.release(id));
        // ...which then dispatches alone.
        let SchedPoll::Dispatch(second) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(second.ids().collect::<Vec<_>>(), vec![JobId(1)]);
    }

    #[test]
    fn rate_limited_batches_spend_one_token_per_member() {
        let (mut sched, names) = sched_with(&[(
            "limited",
            TenantPolicy::default().with_rate_limit(RateLimit {
                jobs_per_second: 0.0,
                burst: 3.0,
            }),
        )]);
        for i in 0..6 {
            sched.admit(&names[0], JobId(i), 1.0, None, None, Some(5));
        }
        let now = Instant::now();
        let SchedPoll::Dispatch(burst) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(burst.len(), 3, "the batch stops at the token budget");
        assert!(matches!(sched.next_job(now), SchedPoll::Idle));
    }

    #[test]
    fn capped_tenant_batches_stop_at_the_in_flight_cap() {
        let (mut sched, names) =
            sched_with(&[("capped", TenantPolicy::default().with_max_in_flight(2))]);
        for i in 0..6 {
            sched.admit(&names[0], JobId(i), 1.0, None, None, Some(5));
        }
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.len(), 2, "cap of 2 bounds the batch");
        assert!(matches!(sched.next_job(now), SchedPoll::Idle));
        first.ids().for_each(|id| sched.release(id));
        assert!(matches!(sched.next_job(now), SchedPoll::Dispatch(_)));
    }

    /// Drive a two-tenant scheduler where tenant `under`'s jobs are admitted
    /// at 10×-too-low estimates while tenant `exact`'s are accurate; both
    /// actually run for `real_seconds`. Feedback (measured outcomes) is
    /// delivered `feedback_lag` dispatches late, simulating pipelined
    /// workers. Returns the per-tenant busy-seconds after `dispatches` jobs.
    fn drive_mis_estimated(
        sched: &mut FairScheduler,
        real_seconds: f64,
        feedback_lag: usize,
        dispatches: usize,
    ) -> (f64, f64) {
        let now = Instant::now();
        let mut pending: VecDeque<JobId> = VecDeque::new();
        let mut busy = [0.0f64; 2];
        for _ in 0..dispatches {
            let SchedPoll::Dispatch(dispatch) = sched.next_job(now) else {
                panic!("queues are deep enough to keep dispatching");
            };
            assert_eq!(dispatch.len(), 1, "keyless jobs dispatch solo");
            busy[(dispatch.id.0 / 1000) as usize] += real_seconds;
            pending.push_back(dispatch.id);
            while pending.len() > feedback_lag {
                let id = pending.pop_front().expect("non-empty");
                sched.record_outcome(id, real_seconds, true);
            }
        }
        (busy[0], busy[1])
    }

    fn mis_estimated_sched(charge_back_clamp: f64) -> (FairScheduler, Vec<Arc<str>>) {
        let mut sched = FairScheduler::new(1, 0.4, charge_back_clamp, noop_registry());
        sched.mode = Mode::Running;
        let names: Vec<Arc<str>> = [("under", ()), ("exact", ())]
            .iter()
            .map(|(name, _)| sched.intern(name, &TenantPolicy::default()))
            .collect();
        // Every job really costs 10 ms (= 10 cost units). `under`'s jobs are
        // hint-less (floored at MIN_JOB_COST = 1.0, a 10× under-estimate);
        // `exact`'s are admitted at their true cost.
        for i in 0..400 {
            sched.admit(&names[0], JobId(i), 0.0, None, None, None);
            sched.admit(&names[1], JobId(1000 + i), 10.0, None, None, None);
        }
        (sched, names)
    }

    #[test]
    fn under_estimated_tenant_monopolizes_without_charge_back() {
        // The regression this PR fixes: with charge-back disabled (clamp 0,
        // the old estimate-unit scheduler), a tenant whose jobs are 10×
        // under-estimated receives ~10× its fair share of busy-seconds at
        // equal weight.
        let (mut sched, _names) = mis_estimated_sched(0.0);
        let (under, exact) = drive_mis_estimated(&mut sched, 0.010, 0, 220);
        assert!(
            under / exact > 5.0,
            "without charge-back the mis-estimated tenant must dominate \
             (got {under:.3}s vs {exact:.3}s)"
        );
    }

    #[test]
    fn charge_back_converges_busy_seconds_to_the_weight_ratio() {
        // With measured-cost charge-back, equal weights mean equal
        // busy-seconds even though one tenant's estimates are 10× too low:
        // the ratio must land within 25% of the 1:1 weight ratio.
        let (mut sched, _names) = mis_estimated_sched(16.0);
        let (under, exact) = drive_mis_estimated(&mut sched, 0.010, 0, 220);
        let ratio = under / exact;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "busy-seconds ratio {ratio:.3} outside the 25% band \
             ({under:.3}s vs {exact:.3}s)"
        );
    }

    #[test]
    fn charge_back_converges_with_pipelined_feedback() {
        // Outcomes land 4 dispatches late (workers execute while the
        // scheduler keeps dispatching); the correction still converges.
        let (mut sched, _names) = mis_estimated_sched(16.0);
        let (under, exact) = drive_mis_estimated(&mut sched, 0.010, 4, 220);
        let ratio = under / exact;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "busy-seconds ratio {ratio:.3} outside the 25% band under \
             delayed feedback ({under:.3}s vs {exact:.3}s)"
        );
    }

    #[test]
    fn measured_outcomes_reprice_later_admissions() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        sched.admit(&names[0], JobId(0), 1.0, None, None, Some(5));
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        sched.record_outcome(first.id, 0.020, true);
        // The model learned 20 ms for plan key 5: the next admission of the
        // same plan is charged 20 cost units no matter what it estimates.
        assert_eq!(sched.predicted_cost(5), Some(20.0));
        sched.admit(&names[0], JobId(1), 1.0, None, None, Some(5));
        assert_eq!(sched.head_cost_of(&names[0]), Some(20.0));
        // A different plan key is untouched.
        sched.admit(&names[0], JobId(2), 3.0, None, None, Some(6));
        assert_eq!(sched.predicted_cost(6), None);
        assert_eq!(sched.metrics.cost_samples, 1);
        assert!(sched.metrics.estimate_error_units > 18.9);
        assert!(sched.metrics.mean_abs_estimate_error() > 18.9);
    }

    #[test]
    fn measurements_reprice_already_queued_jobs_and_the_quantum() {
        // Jobs queued at a wild over-estimate are repriced the moment their
        // plan is measured: subsequent dispatches spend measured units and
        // the quantum deflates with them, so visit bursts shrink from
        // guess scale to measured scale without an O(queue) reprice pass.
        let (mut sched, names) = sched_with(&[
            ("a", TenantPolicy::default()),
            ("b", TenantPolicy::default()),
        ]);
        // Both tenants run the *same* plan (one key), guessed at 80 units.
        for i in 0..4 {
            sched.admit(&names[0], JobId(i), 80.0, None, None, Some(1));
            sched.admit(&names[1], JobId(100 + i), 80.0, None, None, Some(1));
        }
        assert_eq!(sched.quantum(), 80.0);
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.len(), 1, "no deficit left for 80-unit members");
        // The measurement says 2 ms (= 2 units): every queued job of the
        // plan is repriced at once, quantum included.
        sched.record_outcome(first.id, 0.002, true);
        let quantum = sched.quantum();
        assert!(
            (quantum - 2.0).abs() < 1e-9,
            "queued heads must be repriced by the model, quantum {quantum}"
        );
        // The next dispatch spends measured units: the charge-back refund
        // (~78) now covers tenant a's three remaining jobs at 2 units each —
        // at the stale 80-unit guess it would not cover even one member.
        let SchedPoll::Dispatch(second) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(
            second.len(),
            3,
            "repriced members coalesce within the refunded deficit"
        );
    }

    #[test]
    fn duration_hints_seed_the_model_and_price_admission() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        // An explicit 5 ms duration hint prices the job at 5 cost units and
        // seeds the model (samples = 0: a prior, not a measurement).
        sched.admit(&names[0], JobId(0), 80.0, Some(0.005), None, Some(9));
        assert_eq!(sched.head_cost_of(&names[0]), Some(5.0));
        assert_eq!(sched.predicted_cost(9), Some(5.0));
        // Once a real measurement lands it blends with (not replaces) the
        // hinted prior, and later hints no longer matter.
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        sched.record_outcome(first.id, 0.015, true);
        let repriced = sched.predicted_cost(9).expect("model has the key");
        assert!(
            repriced > 5.0 && repriced < 15.0,
            "EWMA blends prior and measurement, got {repriced}"
        );
        sched.admit(&names[0], JobId(1), 80.0, Some(0.005), None, Some(9));
        assert_eq!(sched.head_cost_of(&names[0]), Some(repriced));
    }

    #[test]
    fn charge_back_is_clamped_per_job() {
        let (mut sched, names) = sched_with(&[
            ("outlier", TenantPolicy::default()),
            ("other", TenantPolicy::default()),
        ]);
        // Keep "other" queued so the outlier tenant is contended (charge-back
        // only applies under contention).
        sched.admit(&names[1], JobId(100), 1.0, None, None, None);
        sched.admit(&names[0], JobId(0), 1.0, None, None, None);
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        let before = sched.deficit_of(&names[0]);
        // A pathological 1-second (1000 cost units) outlier against a 1-unit
        // estimate: the correction is clamped at 16 × 1 = 16 units, not 999.
        sched.record_outcome(first.id, 1.0, true);
        let after = sched.deficit_of(&names[0]);
        assert!(
            (before - after - 16.0).abs() < 1e-9,
            "clamped charge-back expected 16 units, got {}",
            before - after
        );
        // The full observation still reaches the error gauges and the
        // charge-back total records the post-clamp magnitude.
        assert!(sched.metrics.estimate_error_units > 990.0);
        assert!((sched.metrics.charge_back_units - 16.0).abs() < 1e-9);
    }

    #[test]
    fn uncontended_outcomes_do_not_bank_credit_or_debt() {
        // A tenant running alone has nobody to be fair to: over-estimated
        // outcomes must not bank credit that would starve a late-arriving
        // competitor (and under-estimated ones must not bank debt).
        let (mut sched, names) = sched_with(&[("solo", TenantPolicy::default())]);
        for i in 0..4 {
            sched.admit(&names[0], JobId(i), 50.0, None, None, None);
        }
        let now = Instant::now();
        for _ in 0..4 {
            let SchedPoll::Dispatch(d) = sched.next_job(now) else {
                panic!("expected dispatch");
            };
            // Massively over-estimated: measured 1 ms against a 50-unit
            // charge would refund ~49 units per job if banked.
            sched.record_outcome(d.id, 0.001, true);
        }
        assert!(
            sched.deficit_of(&names[0]) <= 50.0 + 1e-9,
            "uncontended refunds must not bank deficit credit, got {}",
            sched.deficit_of(&names[0])
        );
        assert_eq!(sched.metrics.charge_back_units, 0.0);
    }

    #[test]
    fn debt_survives_vetoes_but_credit_does_not() {
        let (mut sched, names) = sched_with(&[
            ("debtor", TenantPolicy::default()),
            ("other", TenantPolicy::default()),
        ]);
        sched.admit(&names[0], JobId(0), 1.0, None, None, None);
        sched.admit(&names[1], JobId(100), 1.0, None, None, None);
        sched.admit(&names[1], JobId(101), 1.0, None, None, None);
        let now = Instant::now();
        // Dispatch the debtor's only job and measure it 10× its estimate:
        // the debtor now owes ~9 units.
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.id, JobId(0));
        sched.record_outcome(first.id, 0.010, true);
        let debt = sched.deficit_of(&names[0]);
        assert!(debt < -8.0, "expected ~-9 debt, got {debt}");
        // The debtor's queue is now empty: its next visit vetoes it. The
        // veto must forfeit credit only — the debt stays on the books.
        while let SchedPoll::Dispatch(d) = sched.next_job(now) {
            sched.release(d.id);
        }
        assert!(
            sched.deficit_of(&names[0]) < -8.0,
            "veto must not forgive measured-cost debt, got {}",
            sched.deficit_of(&names[0])
        );
    }

    #[test]
    fn failed_outcomes_do_not_feed_the_model_or_earn_refunds() {
        let (mut sched, names) = sched_with(&[
            ("flaky", TenantPolicy::default()),
            ("other", TenantPolicy::default()),
        ]);
        // Contention, so a refund would apply if failures earned one.
        sched.admit(&names[1], JobId(100), 1.0, None, None, None);
        sched.admit(&names[0], JobId(0), 50.0, None, None, Some(4));
        let now = Instant::now();
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.id, JobId(0));
        let before = sched.deficit_of(&names[0]);
        // The job dies at bind time after 1 µs: failure latency, not cost.
        sched.record_outcome(first.id, 1e-6, false);
        assert_eq!(
            sched.predicted_cost(4),
            None,
            "failure latency must not become the plan's cost estimate"
        );
        assert_eq!(sched.metrics.cost_samples, 0);
        assert_eq!(
            sched.deficit_of(&names[0]),
            before,
            "a fast failure earns no charge-back refund"
        );
        let (_, gauges) = &sched.gauges()[0];
        assert!(
            gauges.busy_seconds > 0.0,
            "the slot and wall-clock were real"
        );
        assert_eq!(sched.in_flight(), 0, "the slot is released");
    }

    #[test]
    fn disabled_model_ignores_duration_hints_too() {
        // alpha <= 0 must restore *pure* estimate-unit admission: hints are
        // part of the measured-cost path and must not reprice either.
        let mut sched = FairScheduler::new(8, 0.0, 16.0, noop_registry());
        sched.mode = Mode::Running;
        let name = sched.intern("t", &TenantPolicy::default());
        sched.admit(&name, JobId(0), 40.0, Some(0.005), None, Some(9));
        assert_eq!(sched.head_cost_of(&name), Some(40.0));
        assert_eq!(sched.predicted_cost(9), None, "no hint seeding either");
    }

    #[test]
    fn stale_now_cannot_rewind_the_refill_clock() {
        use std::time::Duration;
        let (mut sched, names) = sched_with(&[(
            "limited",
            TenantPolicy::default().with_rate_limit(RateLimit {
                jobs_per_second: 500.0,
                burst: 2.0,
            }),
        )]);
        for i in 0..8 {
            sched.admit(&names[0], JobId(i), 1.0, None, None, None);
        }
        let t0 = Instant::now();
        // Burst of 2, then one refilled token 2 ms later: 3 dispatches.
        for _ in 0..2 {
            let SchedPoll::Dispatch(d) = sched.next_job(t0) else {
                panic!("burst tokens should dispatch");
            };
            sched.release(d.id);
        }
        let t1 = t0 + Duration::from_millis(2);
        let SchedPoll::Dispatch(d) = sched.next_job(t1) else {
            panic!("one refilled token at t0+2ms");
        };
        sched.release(d.id);
        // A stale clock read (a worker that captured `now` before the t1
        // refill was serialized ahead of it) must be a no-op: it must not
        // rewind `last_refill` to t0 and double-credit the 0..2 ms interval.
        assert!(matches!(sched.next_job(t0), SchedPoll::Idle));
        let t2 = t0 + Duration::from_millis(4);
        let SchedPoll::Dispatch(d) = sched.next_job(t2) else {
            panic!("exactly one more token by t0+4ms");
        };
        sched.release(d.id);
        assert!(
            matches!(sched.next_job(t2), SchedPoll::Idle),
            "double-refill: the 0..2ms interval was credited twice"
        );
    }

    #[test]
    fn stale_now_clamps_wait_accounting_to_zero() {
        use std::time::Duration;
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        let past = Instant::now() - Duration::from_secs(5);
        sched.admit(&names[0], JobId(0), 1.0, None, None, None);
        let SchedPoll::Dispatch(d) = sched.next_job(past) else {
            panic!("expected dispatch");
        };
        sched.release(d.id);
        let (_, gauges) = &sched.gauges()[0];
        assert!(
            gauges.total_wait_seconds >= 0.0 && gauges.total_wait_seconds < 1.0,
            "a stale now must clamp the wait to zero, got {}",
            gauges.total_wait_seconds
        );
    }

    #[test]
    fn memoized_quantum_matches_a_brute_force_rescan() {
        fn brute_force(sched: &FairScheduler) -> f64 {
            sched
                .tenants
                .values()
                .filter_map(|t| t.queue.front())
                .map(|job| job.cost)
                .fold(1.0, f64::max)
        }
        let (mut sched, names) = sched_with(&[
            ("a", TenantPolicy::default()),
            ("b", TenantPolicy::default()),
        ]);
        let now = Instant::now();
        let costs = [5.0, 120.0, 1.0, 60.0, 3.0, 250.0, 9.0];
        for (i, cost) in costs.iter().enumerate() {
            sched.admit(&names[i % 2], JobId(i as u64), *cost, None, None, None);
            assert_eq!(sched.quantum(), brute_force(&sched), "after admit {i}");
        }
        // Drain, checking the memo against the rescan after every pop (the
        // 250-cost head leaving must deflate the quantum, not linger as a
        // high-water mark).
        while let SchedPoll::Dispatch(d) = sched.next_job(now) {
            sched.release(d.id);
            assert_eq!(sched.quantum(), brute_force(&sched), "after a pop");
        }
        assert_eq!(sched.quantum(), 1.0, "empty queues fall back to 1.0");
    }

    #[test]
    fn interned_but_empty_tenants_do_not_count_as_contention() {
        // The O(1) non-empty counter must mirror "has queued work", not
        // "exists": a second tenant with an empty queue leaves the first
        // uncontended, which batches to the cap regardless of deficit.
        let (mut sched, names) = sched_with(&[
            ("busy", TenantPolicy::default()),
            ("idle", TenantPolicy::default()),
        ]);
        let _ = &names[1];
        for i in 0..8 {
            sched.admit(&names[0], JobId(i), 1.0, None, None, Some(3));
        }
        let SchedPoll::Dispatch(first) = sched.next_job(Instant::now()) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.len(), 8, "an interned-but-empty tenant is nobody");
    }

    #[test]
    fn cost_ranked_within_a_tenant() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        sched.admit(&names[0], JobId(0), 1.0, None, None, None);
        sched.admit(&names[0], JobId(1), 9.0, None, None, None);
        sched.admit(&names[0], JobId(2), 4.0, None, None, None);
        let now = Instant::now();
        let mut order = Vec::new();
        while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
            sched.release(dispatch.id);
            order.push(dispatch.id.0);
        }
        assert_eq!(order, vec![1, 2, 0], "longest-first within the tenant");
    }

    /// Shorthand: admit a latency-class job with an explicit absolute
    /// deadline (what the service resolves from `ServiceClass::deadline()`
    /// at submission).
    fn admit_latency(
        sched: &mut FairScheduler,
        tenant: &Arc<str>,
        id: JobId,
        cost: f64,
        deadline: Option<Instant>,
    ) {
        sched.admit_job(
            tenant,
            Admission {
                class: ServiceClass::latency(),
                deadline,
                ..Admission::job(id, cost)
            },
        );
    }

    #[test]
    fn latency_class_precedes_throughput_with_edf_inside() {
        // Interleaved admissions across both classes; cost is deliberately
        // adversarial (the cheapest job is latency-class) so the test pins
        // class-then-EDF, not a cost accident.
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        let base = Instant::now();
        sched.admit(&names[0], JobId(0), 1.0, None, None, None);
        admit_latency(
            &mut sched,
            &names[0],
            JobId(1),
            0.1,
            Some(base + Duration::from_secs(5)),
        );
        sched.admit(&names[0], JobId(2), 9.0, None, None, None);
        admit_latency(&mut sched, &names[0], JobId(3), 0.1, None);
        admit_latency(
            &mut sched,
            &names[0],
            JobId(4),
            0.1,
            Some(base + Duration::from_secs(1)),
        );
        admit_latency(
            &mut sched,
            &names[0],
            JobId(5),
            0.1,
            Some(base + Duration::from_secs(5)),
        );
        let now = Instant::now();
        let mut order = Vec::new();
        while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
            sched.release(dispatch.id);
            order.push(dispatch.id.0);
        }
        // Latency first: EDF (1s, then the 5s pair FIFO), deadline-free
        // last; then throughput longest-first.
        assert_eq!(order, vec![4, 1, 5, 3, 2, 0], "class → EDF → LPT");
    }

    #[test]
    fn latency_batches_stop_at_the_latency_cap() {
        // One tenant, both classes sharing plan-compatible work: latency
        // dispatches ride the small fixed cap (2 in `sched_with`) while
        // throughput still coalesces to the full max_batch (8).
        let (mut sched, names) = sched_with(&[("solo", TenantPolicy::default())]);
        for i in 0..4 {
            sched.admit_job(
                &names[0],
                Admission {
                    class: ServiceClass::latency(),
                    batch_key: Some(7),
                    ..Admission::job(JobId(i), 1.0)
                },
            );
        }
        for i in 10..18 {
            sched.admit(&names[0], JobId(i), 1.0, None, None, Some(7));
        }
        let now = Instant::now();
        let mut sizes = Vec::new();
        while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
            let latency = dispatch.class.is_latency();
            sizes.push((latency, dispatch.len()));
            dispatch.ids().for_each(|id| sched.release(id));
        }
        assert_eq!(
            sizes,
            vec![(true, 2), (true, 2), (false, 8)],
            "latency caps at LATENCY_MAX_BATCH, throughput at max_batch"
        );
    }

    #[test]
    fn mixed_class_jobs_never_share_a_batch() {
        // Same tenant, same batch key: the throughput job is plan-compatible
        // with the latency head but must not ride its micro-batch — a
        // latency dispatch stays short by construction.
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        sched.admit_job(
            &names[0],
            Admission {
                class: ServiceClass::latency(),
                batch_key: Some(3),
                ..Admission::job(JobId(0), 1.0)
            },
        );
        sched.admit(&names[0], JobId(1), 1.0, None, None, Some(3));
        let SchedPoll::Dispatch(first) = sched.next_job(Instant::now()) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.ids().collect::<Vec<_>>(), vec![JobId(0)]);
        assert!(first.class.is_latency());
    }

    #[test]
    fn a_queued_latency_job_preempts_coalescing_never_execution() {
        let (mut sched, names) = sched_with(&[
            ("bulk", TenantPolicy::default().with_weight(4.0)),
            ("interactive", TenantPolicy::default()),
        ]);
        for i in 0..8 {
            sched.admit(&names[0], JobId(i), 1.0, None, None, Some(42));
        }
        admit_latency(&mut sched, &names[1], JobId(100), 1.0, None);
        let now = Instant::now();
        let mut first = true;
        let mut saw_latency = false;
        let mut batched_after = false;
        while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
            if first {
                // Execution is never preempted: the rotation still serves
                // bulk's head ahead of the waiting latency job.
                assert!(!dispatch.class.is_latency(), "DRR stays class-blind");
                first = false;
            }
            if dispatch.id == JobId(100) {
                saw_latency = true;
            } else if !saw_latency {
                assert_eq!(
                    dispatch.len(),
                    1,
                    "a queued latency job stops throughput coalescing"
                );
            } else {
                batched_after |= dispatch.len() > 1;
            }
            dispatch.ids().for_each(|id| sched.release(id));
        }
        assert!(saw_latency);
        assert!(
            batched_after,
            "coalescing resumes once the latency job left"
        );
    }

    #[test]
    fn requeued_jobs_are_not_charged_rate_limit_tokens_again() {
        // Regression: a device-fault requeue re-enters the queue with
        // `retry: true` because its original dispatch already paid the
        // token. Charging (or throttling) it again would double-bill every
        // failover.
        let (mut sched, names) = sched_with(&[(
            "limited",
            TenantPolicy::default().with_rate_limit(RateLimit {
                jobs_per_second: 0.0,
                burst: 1.0,
            }),
        )]);
        let now = Instant::now();
        // Spend the only token on a normal dispatch.
        sched.admit(&names[0], JobId(0), 1.0, None, None, None);
        let SchedPoll::Dispatch(paid) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        sched.release(paid.id);
        // Bucket empty: a fresh submission throttles...
        sched.admit(&names[0], JobId(1), 1.0, None, None, None);
        assert!(matches!(sched.next_job(now), SchedPoll::Idle));
        assert_eq!(sched.metrics.throttled, 1);
        // ...but a requeued job (higher cost, so it outranks the queued
        // fresh one) dispatches straight through and spends nothing.
        sched.admit_job(
            &names[0],
            Admission {
                retry: true,
                ..Admission::job(JobId(2), 2.0)
            },
        );
        let tokens_before = sched.tenants[&names[0]].tokens;
        let SchedPoll::Dispatch(retried) = sched.next_job(now) else {
            panic!("retry must bypass the empty bucket");
        };
        assert_eq!(retried.id, JobId(2));
        sched.release(retried.id);
        assert_eq!(
            sched.tenants[&names[0]].tokens, tokens_before,
            "the retry spends no token"
        );
        // The fresh job is still throttled — the retry bought it nothing.
        assert!(matches!(sched.next_job(now), SchedPoll::Idle));
    }

    #[test]
    fn deadline_misses_count_only_past_deadline_outcomes() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        let now = Instant::now();
        admit_latency(&mut sched, &names[0], JobId(0), 1.0, Some(now));
        admit_latency(
            &mut sched,
            &names[0],
            JobId(1),
            1.0,
            Some(now + Duration::from_secs(3600)),
        );
        sched.admit(&names[0], JobId(2), 1.0, None, None, None);
        // EDF: the already-expired deadline dispatches first.
        let SchedPoll::Dispatch(first) = sched.next_job(now) else {
            panic!("expected dispatch");
        };
        assert_eq!(first.id, JobId(0));
        sched.record_outcome(first.id, 1e-3, true);
        while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
            sched.record_outcome(dispatch.id, 1e-3, true);
        }
        let stats = sched.class_snapshot();
        assert_eq!(stats["latency"].deadline_miss, 1, "only the expired one");
        assert_eq!(stats["latency"].dispatched, 2);
        assert_eq!(stats["latency"].completed, 2);
        assert_eq!(stats["throughput"].completed, 1);
        assert_eq!(stats["throughput"].deadline_miss, 0);
    }

    #[test]
    fn class_snapshot_splits_the_queue_by_class() {
        let (mut sched, names) = sched_with(&[("t", TenantPolicy::default())]);
        admit_latency(&mut sched, &names[0], JobId(0), 1.0, None);
        admit_latency(&mut sched, &names[0], JobId(1), 1.0, None);
        for i in 2..5 {
            sched.admit(&names[0], JobId(i), 1.0, None, None, None);
        }
        let stats = sched.class_snapshot();
        assert_eq!(stats["latency"].queued, 2);
        assert_eq!(stats["throughput"].queued, 3);
        let SchedPoll::Dispatch(first) = sched.next_job(Instant::now()) else {
            panic!("expected dispatch");
        };
        assert!(first.class.is_latency());
        let stats = sched.class_snapshot();
        assert_eq!(stats["latency"].queued, 1, "the dispatched head left");
        assert_eq!(stats["latency"].dispatched, 1);
        assert_eq!(stats["throughput"].queued, 3);
        assert_eq!(stats["throughput"].dispatched, 0);
        sched.record_outcome(first.id, 1e-3, false);
        assert_eq!(sched.class_snapshot()["latency"].failed, 1);
    }

    mod class_proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// An all-latency tenant cannot starve an all-throughput tenant:
            /// classes reorder *within* a tenant only, so at equal weight
            /// and cost the cross-tenant DRR rotation keeps the two dispatch
            /// counts within one of each other while both have work.
            #[test]
            fn latency_tenants_cannot_starve_throughput_tenants(
                latency_jobs in 2usize..40,
                throughput_jobs in 2usize..40,
            ) {
                let (mut sched, names) = sched_with(&[
                    ("interactive", TenantPolicy::default()),
                    ("bulk", TenantPolicy::default()),
                ]);
                for i in 0..latency_jobs {
                    admit_latency(&mut sched, &names[0], JobId(i as u64), 1.0, None);
                }
                for i in 0..throughput_jobs {
                    sched.admit(&names[1], JobId(1000 + i as u64), 1.0, None, None, None);
                }
                let now = Instant::now();
                let (mut lat, mut thr) = (0usize, 0usize);
                while let SchedPoll::Dispatch(dispatch) = sched.next_job(now) {
                    sched.release(dispatch.id);
                    if dispatch.class.is_latency() {
                        lat += 1;
                    } else {
                        thr += 1;
                    }
                    if lat < latency_jobs && thr < throughput_jobs {
                        prop_assert!(
                            lat.abs_diff(thr) <= 1,
                            "class drift while contended: lat={} thr={}", lat, thr
                        );
                    }
                }
                prop_assert_eq!(lat, latency_jobs);
                prop_assert_eq!(thr, throughput_jobs);
            }
        }
    }
}
