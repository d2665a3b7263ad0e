//! Fleet routing: N heterogeneous devices per backend plane, with failure
//! domains.
//!
//! The scheduler used to treat each backend plane as one infinitely wide
//! device. A real deployment runs a *fleet* behind every plane — several
//! simulators of different register widths, annealers with different
//! schedule support — and devices fail. [`FleetRouter`] owns that layer:
//!
//! * each device carries a [`CapabilityDescriptor`], a bounded concurrency,
//!   its own parked-work queue, and a per-device [`CostModel`] (EWMA of
//!   measured busy-seconds per plan key);
//! * [`select`](FleetRouter::select) routes a job to the **cheapest capable
//!   healthy device**: devices with no cost history for the plan are
//!   explored first (capability-feasible round robin, which seeds their
//!   history); once every candidate has a prediction, any device within
//!   [`COST_TIE_BAND`] of the cheapest is eligible and the least-loaded one
//!   wins;
//! * observed [`DeviceFault`](qml_types::QmlError::DeviceFault) outcomes walk
//!   a device down the [`HealthState`] ladder (healthy → degraded →
//!   down at [`DOWN_THRESHOLD`] consecutive faults); any success — including a
//!   recovery probe, routed to a down device once per `probe_interval`
//!   settled outcomes — restores it to healthy;
//! * when a device goes down its parked queue is evacuated to live capable
//!   siblings, and idle devices steal compatible parked work across the
//!   fleet (`FleetRouter::pop_parked`);
//! * operators can [`cordon`](FleetRouter::cordon) a device for maintenance:
//!   it accepts no new routes, in-flight work finishes normally, parked work
//!   is evacuated to (or stolen by) capable siblings, and
//!   [`uncordon`](FleetRouter::uncordon) restores routing exactly as it was.
//!   A cordon is administrative, orthogonal to health: it never moves the
//!   health ladder, and feasibility checks ignore it (jobs for an
//!   all-cordoned plane wait rather than fail);
//! * per-job **exclusion sets** record which devices already faulted on a
//!   job, so a requeued job never lands on the device that failed it. The
//!   capable set is finite and every requeue adds one exclusion, so a job
//!   either completes elsewhere or fails terminally — never loops.
//!
//! The router is pure bookkeeping — no locks, no clocks (probe pacing counts
//! settled outcomes, not wall time), no I/O — so every routing decision is
//! deterministic given the outcome sequence, which is what makes the fleet
//! invariants property-testable.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use qml_backends::Backend;
use qml_runtime::JobDispatch;
use qml_types::{CapabilityDescriptor, HealthState, JobRequirements};

use crate::cost_model::CostModel;

/// Consecutive device faults that take a device from degraded to down.
pub const DOWN_THRESHOLD: u32 = 2;

/// Relative band around the cheapest capable device's predicted cost within
/// which devices are considered tied (the least-loaded tied device wins).
/// Cost predictions are EWMA estimates; treating a 10% spread as a tie
/// avoids herding every dispatch onto one device over measurement noise.
pub const COST_TIE_BAND: f64 = 0.10;

/// One device to register with the fleet: a stable id, the backend instance
/// that executes its work, what it can serve, and how many member jobs it
/// runs concurrently.
#[derive(Clone)]
pub struct DeviceSpec {
    /// Stable fleet-unique identifier (e.g. `"gate-a"`).
    pub id: String,
    /// The executing backend. Its [`Backend::name`] is the device's *plane*:
    /// placement picks the plane, the fleet picks the device within it.
    pub backend: Arc<dyn Backend>,
    /// What the device can realize.
    pub caps: CapabilityDescriptor,
    /// Concurrent member-job slots. Jobs routed to a device with no free
    /// slot park on its queue (up to the same headroom) until a slot frees
    /// or a sibling steals them.
    pub concurrency: usize,
}

impl DeviceSpec {
    /// A device with unbounded concurrency.
    pub fn new(
        id: impl Into<String>,
        backend: Arc<dyn Backend>,
        caps: CapabilityDescriptor,
    ) -> Self {
        DeviceSpec {
            id: id.into(),
            backend,
            caps,
            concurrency: usize::MAX,
        }
    }

    /// Bound the device's concurrent member-job slots, builder-style
    /// (values below 1 are treated as 1).
    pub fn with_concurrency(mut self, concurrency: usize) -> Self {
        self.concurrency = concurrency.max(1);
        self
    }
}

impl fmt::Debug for DeviceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceSpec")
            .field("id", &self.id)
            .field("plane", &self.backend.name())
            .field("caps", &self.caps)
            .field("concurrency", &self.concurrency)
            .finish()
    }
}

/// A whole micro-batch parked on a device's queue: the dispatch as the
/// scheduler assembled it (plane-level placement, device not yet stamped)
/// plus what re-routing it needs.
#[derive(Debug, Clone)]
pub(crate) struct ParkedDispatch {
    pub dispatch: JobDispatch,
    pub requirements: JobRequirements,
}

/// Serializable per-device gauges, surfaced through
/// [`ServiceMetrics::per_device`](crate::ServiceMetrics) and the
/// observability dump. Device gauges fold up to the per-backend totals:
/// summing `busy_seconds` over one plane's devices reproduces that plane's
/// [`BackendUtilization`](crate::BackendUtilization) busy-seconds.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DeviceUtilization {
    /// The backend plane the device belongs to.
    pub plane: String,
    /// Current health ladder position (`"healthy"` / `"degraded"` /
    /// `"down"`).
    pub health: String,
    /// Member jobs handed to this device's backend.
    pub dispatched: u64,
    /// Member outcomes that succeeded on this device.
    pub completed: u64,
    /// Member outcomes that failed on this device (device faults included).
    pub failed: u64,
    /// Faulted member jobs requeued away from this device.
    pub requeued: u64,
    /// Parked dispatches another device stole from this device's queue.
    pub stolen_from: u64,
    /// Measured busy wall-clock on this device, faulted attempts included.
    pub busy_seconds: f64,
    /// Member jobs currently parked on the device's queue.
    pub queue_depth: u64,
    /// Member jobs currently executing on the device.
    pub in_flight: u64,
    /// True while the device is administratively cordoned (no new routes).
    /// Absent from pre-cordon snapshots, hence the default.
    #[serde(default)]
    pub cordoned: bool,
}

/// Full runtime state of one fleet device.
struct DeviceState {
    id: Arc<str>,
    plane: String,
    backend: Arc<dyn Backend>,
    caps: CapabilityDescriptor,
    concurrency: usize,
    health: HealthState,
    /// Administrative maintenance flag: a cordoned device accepts no new
    /// routes and serves nothing from its parked queue, but in-flight work
    /// finishes and settles normally. Orthogonal to `health`.
    cordoned: bool,
    /// Consecutive device faults since the last success.
    fail_streak: u32,
    /// Per-device measured cost: the EWMA this device's own outcomes feed,
    /// so a slow device prices itself out of tie-bands it doesn't deserve.
    cost: CostModel,
    /// Dispatches routed here while every slot was busy.
    queue: VecDeque<ParkedDispatch>,
    in_flight: usize,
    dispatched: u64,
    completed: u64,
    failed: u64,
    requeued: u64,
    stolen_from: u64,
    busy_seconds: f64,
    /// `outcomes_seen` stamp of the last recovery probe routed here.
    last_probe_at: u64,
}

impl fmt::Debug for DeviceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceState")
            .field("id", &self.id)
            .field("plane", &self.plane)
            .field("health", &self.health)
            .field("cordoned", &self.cordoned)
            .field("in_flight", &self.in_flight)
            .field("queue", &self.queue.len())
            .finish()
    }
}

impl DeviceState {
    fn has_free_slot(&self) -> bool {
        self.in_flight < self.concurrency
    }

    fn has_headroom(&self) -> bool {
        self.queue.len() < self.concurrency
    }

    /// Queue pressure used for least-loaded tie-breaks and evacuation
    /// targets.
    fn load(&self) -> usize {
        self.in_flight + self.queued_members()
    }

    fn queued_members(&self) -> usize {
        self.queue.iter().map(|p| p.dispatch.len()).sum()
    }

    fn supports(&self, req: &JobRequirements) -> bool {
        self.caps.supports(req)
    }
}

/// Device-level router for all backend planes. See the module docs.
#[derive(Debug)]
pub struct FleetRouter {
    devices: Vec<DeviceState>,
    /// Per-job device exclusion sets (keyed by raw [`JobId`] value): devices
    /// that already faulted on the job and must not see it again.
    exclusions: BTreeMap<u64, BTreeSet<usize>>,
    /// Round-robin cursor for history-less routing and tie-breaks.
    rr: usize,
    /// Settled outcomes between recovery probes of a down device
    /// (0 disables probing: down is permanent).
    probe_interval: u64,
    /// Total settled outcomes, the clock probe pacing counts in.
    outcomes_seen: u64,
}

impl FleetRouter {
    /// A router over `specs`. [`DOWN_THRESHOLD`] consecutive faults take a
    /// device down, and a down device receives one recovery probe every
    /// `probe_interval` settled outcomes (0 = never).
    pub fn new(specs: Vec<DeviceSpec>, probe_interval: u64) -> Self {
        let devices = specs
            .into_iter()
            .map(|spec| DeviceState {
                id: Arc::from(spec.id.as_str()),
                plane: spec.backend.name().to_string(),
                backend: spec.backend,
                caps: spec.caps,
                concurrency: spec.concurrency.max(1),
                health: HealthState::Healthy,
                cordoned: false,
                fail_streak: 0,
                cost: CostModel::default(),
                queue: VecDeque::new(),
                in_flight: 0,
                dispatched: 0,
                completed: 0,
                failed: 0,
                requeued: 0,
                stolen_from: 0,
                busy_seconds: 0.0,
                last_probe_at: 0,
            })
            .collect();
        FleetRouter {
            devices,
            exclusions: BTreeMap::new(),
            rr: 0,
            probe_interval,
            outcomes_seen: 0,
        }
    }

    /// Number of registered devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The index of the device with this id.
    pub fn device_index(&self, id: &str) -> Option<usize> {
        self.devices.iter().position(|d| &*d.id == id)
    }

    /// The id of the device at `index`.
    pub fn device_id(&self, index: usize) -> Option<Arc<str>> {
        self.devices.get(index).map(|d| Arc::clone(&d.id))
    }

    /// The current health of the device at `index`.
    pub fn health(&self, index: usize) -> Option<HealthState> {
        self.devices.get(index).map(|d| d.health)
    }

    fn is_excluded(&self, job: u64, device: usize) -> bool {
        self.exclusions
            .get(&job)
            .is_some_and(|set| set.contains(&device))
    }

    /// Record that `device` faulted on `job`: the job must never route there
    /// again (until the exclusion set is cleared by a terminal outcome).
    pub fn exclude(&mut self, job: u64, device: usize) {
        self.exclusions.entry(job).or_default().insert(device);
    }

    /// How many devices `job` is excluded from — equivalently, how many
    /// faulted attempts it has survived.
    pub fn exclusion_count(&self, job: u64) -> usize {
        self.exclusions.get(&job).map_or(0, BTreeSet::len)
    }

    /// Drop `job`'s exclusion set (its outcome is terminal).
    pub fn clear_exclusions(&mut self, job: u64) {
        self.exclusions.remove(&job);
    }

    /// True when `member`'s exclusion set is a subset of `head`'s — the
    /// condition for coalescing them into one dispatch (the batch routes by
    /// the head's exclusions; a member excluded from a device the head is
    /// not would otherwise ride back onto the device that faulted it).
    pub(crate) fn exclusions_subset(&self, member: u64, head: u64) -> bool {
        match self.exclusions.get(&member) {
            None => true,
            Some(m) => match self.exclusions.get(&head) {
                None => false,
                Some(h) => m.is_subset(h),
            },
        }
    }

    /// True when some device on `plane` can serve `req` at all, regardless
    /// of health or exclusions. This is the admission feasibility check: a
    /// job no device could ever serve is rejected at submission instead of
    /// bouncing through the queue forever.
    pub fn capable_exists(&self, plane: &str, req: &JobRequirements) -> bool {
        self.devices
            .iter()
            .any(|d| d.plane == plane && d.supports(req))
    }

    /// True when a requeue of `job` off `failed` has somewhere to go: a
    /// capable same-plane device that is neither the failed device nor
    /// already excluded. Deliberately health-agnostic — health changes, the
    /// exclusion set only grows, so checking capability alone guarantees a
    /// requeue loop terminates.
    pub fn retry_candidate_exists(
        &self,
        plane: &str,
        req: &JobRequirements,
        job: u64,
        failed: usize,
    ) -> bool {
        self.devices.iter().enumerate().any(|(i, d)| {
            i != failed && d.plane == plane && d.supports(req) && !self.is_excluded(job, i)
        })
    }

    /// True when the plane can take this job *now*: some capable,
    /// non-excluded device has a free slot or parking headroom. The
    /// scheduler calls this before spending a tenant's deficit so a
    /// saturated fleet defers the job (keeping the deficit) instead of
    /// over-committing a device.
    pub(crate) fn can_accept(&self, plane: &str, req: &JobRequirements, job: u64) -> bool {
        self.devices.iter().enumerate().any(|(i, d)| {
            d.plane == plane
                && !d.cordoned
                && d.supports(req)
                && !self.is_excluded(job, i)
                && (d.has_free_slot() || d.has_headroom())
        })
    }

    /// Round-robin pick over a non-empty candidate list: the first candidate
    /// at or after the cursor, which then moves past it.
    fn rr_pick(&mut self, candidates: &[usize]) -> usize {
        let n = self.devices.len().max(1);
        let cursor = self.rr % n;
        let pick = candidates
            .iter()
            .copied()
            .min_by_key(|&i| (i + n - cursor) % n)
            .expect("candidates non-empty");
        self.rr = pick + 1;
        pick
    }

    /// Route one job: the cheapest capable healthy device on `plane`, per
    /// the policy in the module docs. Returns `None` when no uncordoned,
    /// capable device is left for this job — every one is excluded, or the
    /// plane has none. Selecting a down device (probe or last resort) stamps
    /// its probe clock.
    pub fn select(
        &mut self,
        plane: &str,
        req: &JobRequirements,
        plan_key: Option<u64>,
        job: u64,
    ) -> Option<usize> {
        // Cordoned devices are filtered with the capability checks: a cordon
        // removes a device from routing entirely, while health only
        // deprioritizes it (probes and last resorts still reach a down
        // device — never a cordoned one).
        let candidates: Vec<usize> = self
            .devices
            .iter()
            .enumerate()
            .filter(|(i, d)| {
                d.plane == plane && !d.cordoned && d.supports(req) && !self.is_excluded(job, *i)
            })
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        // Recovery probe: a down device that has waited out the probe
        // interval receives this job; its outcome decides whether it
        // rejoins the rotation.
        if self.probe_interval > 0 {
            let due = candidates.iter().copied().find(|&i| {
                self.devices[i].health == HealthState::Down
                    && self.outcomes_seen - self.devices[i].last_probe_at >= self.probe_interval
            });
            if let Some(i) = due {
                self.devices[i].last_probe_at = self.outcomes_seen;
                self.rr = i + 1;
                return Some(i);
            }
        }
        let live: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| self.devices[i].health != HealthState::Down)
            .collect();
        if live.is_empty() {
            // Every capable device is down: last resort, round robin over
            // them — failing fast (and walking the exclusion set) beats
            // wedging the queue forever.
            let pick = self.rr_pick(&candidates);
            self.devices[pick].last_probe_at = self.outcomes_seen;
            return Some(pick);
        }
        // Prefer devices that can take the work now; fall back to the full
        // live set when everything is saturated (the job will park).
        let open: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&i| self.devices[i].has_free_slot() || self.devices[i].has_headroom())
            .collect();
        let live = if open.is_empty() { live } else { open };
        // Explore first: a device with no measurement for this plan routes
        // by round robin (healthy before degraded), seeding its history so
        // the cost comparison below becomes meaningful.
        let unknown: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&i| {
                plan_key.is_none_or(|key| self.devices[i].cost.predict_seconds(key).is_none())
            })
            .collect();
        if !unknown.is_empty() {
            let healthy: Vec<usize> = unknown
                .iter()
                .copied()
                .filter(|&i| self.devices[i].health == HealthState::Healthy)
                .collect();
            let pool = if healthy.is_empty() { unknown } else { healthy };
            return Some(self.rr_pick(&pool));
        }
        // Exploit: cheapest predicted cost wins, with everything within the
        // tie band eligible; healthier then less-loaded devices break ties.
        let key = plan_key.expect("no-history branch handled plan-less jobs");
        let predict = |i: usize| {
            self.devices[i]
                .cost
                .predict_seconds(key)
                .expect("every live candidate has history")
        };
        let cheapest = live
            .iter()
            .copied()
            .map(predict)
            .fold(f64::INFINITY, f64::min);
        let n = self.devices.len();
        let cursor = self.rr % n.max(1);
        let pick = live
            .iter()
            .copied()
            .filter(|&i| predict(i) <= cheapest * (1.0 + COST_TIE_BAND))
            .min_by_key(|&i| {
                let health_rank = match self.devices[i].health {
                    HealthState::Healthy => 0u8,
                    HealthState::Degraded => 1,
                    HealthState::Down => 2,
                };
                (health_rank, self.devices[i].load(), (i + n - cursor) % n)
            })
            .expect("band contains the cheapest device");
        self.rr = pick + 1;
        Some(pick)
    }

    /// True when the device at `index` has a free execution slot.
    pub fn has_free_slot(&self, index: usize) -> bool {
        self.devices
            .get(index)
            .is_some_and(DeviceState::has_free_slot)
    }

    /// Occupy `members` execution slots on a device (one per batch member).
    pub(crate) fn take_slots(&mut self, index: usize, members: usize) {
        if let Some(dev) = self.devices.get_mut(index) {
            dev.in_flight = dev.in_flight.saturating_add(members);
            dev.dispatched += members as u64;
        }
    }

    /// Free one execution slot (one batch member settled or was skipped).
    pub(crate) fn release_slot(&mut self, index: usize) {
        if let Some(dev) = self.devices.get_mut(index) {
            dev.in_flight = dev.in_flight.saturating_sub(1);
        }
    }

    /// Count a faulted member job requeued away from this device.
    pub(crate) fn note_requeued(&mut self, index: usize) {
        if let Some(dev) = self.devices.get_mut(index) {
            dev.requeued += 1;
        }
    }

    /// The backend executing on the device at `index`.
    pub(crate) fn backend(&self, index: usize) -> Option<Arc<dyn Backend>> {
        self.devices.get(index).map(|d| Arc::clone(&d.backend))
    }

    /// Park a dispatch on a device's queue until a slot frees (or a sibling
    /// steals it).
    pub(crate) fn park(&mut self, index: usize, parked: ParkedDispatch) {
        if let Some(dev) = self.devices.get_mut(index) {
            dev.queue.push_back(parked);
        }
    }

    /// Member jobs parked across every device's queue.
    pub(crate) fn parked_members(&self) -> usize {
        self.devices.iter().map(DeviceState::queued_members).sum()
    }

    /// Next parked dispatch ready to run, with the device that will run it.
    ///
    /// A device with a free slot serves its own queue first (FIFO). Failing
    /// that, an **idle** device (free slot, empty queue, not down) steals
    /// the newest compatible dispatch from a same-plane sibling's queue —
    /// newest because the victim will reach its oldest work first, so
    /// stealing from the back minimizes double-handling.
    pub(crate) fn pop_parked(&mut self) -> Option<(usize, ParkedDispatch)> {
        for i in 0..self.devices.len() {
            if self.devices[i].has_free_slot()
                && !self.devices[i].cordoned
                && !self.devices[i].queue.is_empty()
            {
                let entry = self.devices[i]
                    .queue
                    .pop_front()
                    .expect("checked non-empty");
                return Some((i, entry));
            }
        }
        // Cordoned devices never thieve, but they make fine victims: that is
        // how work still parked on a freshly cordoned device drains.
        for thief in 0..self.devices.len() {
            let idle = self.devices[thief].has_free_slot()
                && self.devices[thief].queue.is_empty()
                && self.devices[thief].health != HealthState::Down
                && !self.devices[thief].cordoned;
            if !idle {
                continue;
            }
            for victim in 0..self.devices.len() {
                if victim == thief || self.devices[victim].plane != self.devices[thief].plane {
                    continue;
                }
                for pos in (0..self.devices[victim].queue.len()).rev() {
                    let compatible = {
                        let entry = &self.devices[victim].queue[pos];
                        self.devices[thief].supports(&entry.requirements)
                            && entry
                                .dispatch
                                .ids()
                                .all(|id| !self.is_excluded(id.0, thief))
                    };
                    if compatible {
                        let entry = self.devices[victim]
                            .queue
                            .remove(pos)
                            .expect("position in bounds");
                        self.devices[victim].stolen_from += 1;
                        return Some((thief, entry));
                    }
                }
            }
        }
        None
    }

    /// Cordon the device with this id for maintenance: no new routes, no
    /// own-queue service, no thieving — in-flight work finishes and settles
    /// normally, and the parked queue is immediately evacuated to capable
    /// uncordoned same-plane siblings (entries with nowhere to go stay
    /// parked, draining through sibling steals or the eventual uncordon).
    /// Idempotent; returns false for unknown device ids.
    pub fn cordon(&mut self, id: &str) -> bool {
        let Some(index) = self.device_index(id) else {
            return false;
        };
        self.devices[index].cordoned = true;
        self.evacuate(index);
        true
    }

    /// Lift a cordon placed by [`FleetRouter::cordon`]: the device rejoins
    /// routing with its health, cost history, and counters exactly as the
    /// cordon left them. Idempotent; returns false for unknown device ids.
    pub fn uncordon(&mut self, id: &str) -> bool {
        let Some(index) = self.device_index(id) else {
            return false;
        };
        self.devices[index].cordoned = false;
        true
    }

    /// True while the device at `index` is cordoned.
    pub fn is_cordoned(&self, index: usize) -> bool {
        self.devices.get(index).is_some_and(|d| d.cordoned)
    }

    /// Settle one member outcome on a device: accrue busy-seconds (faulted
    /// attempts included — the device was genuinely occupied), feed the
    /// per-device cost model on success, and walk the health ladder. A
    /// device that transitions to down has its parked queue evacuated to
    /// live capable siblings. Returns `true` on a down transition.
    pub fn observe(
        &mut self,
        index: usize,
        plan_key: Option<u64>,
        seconds: f64,
        ok: bool,
        fault: bool,
    ) -> bool {
        self.outcomes_seen += 1;
        let Some(dev) = self.devices.get_mut(index) else {
            return false;
        };
        let measured = seconds.is_finite() && seconds >= 0.0;
        if measured {
            dev.busy_seconds += seconds;
        }
        let mut went_down = false;
        if ok {
            dev.completed += 1;
            dev.fail_streak = 0;
            dev.health = HealthState::Healthy;
            if let (Some(key), true) = (plan_key, measured) {
                dev.cost.observe(key, seconds);
            }
        } else {
            dev.failed += 1;
            if fault {
                dev.fail_streak += 1;
                let next = if dev.fail_streak >= DOWN_THRESHOLD {
                    HealthState::Down
                } else {
                    HealthState::Degraded
                };
                went_down = next == HealthState::Down && dev.health != HealthState::Down;
                dev.health = next;
            }
        }
        if went_down {
            self.evacuate(index);
        }
        went_down
    }

    /// Move a down (or freshly cordoned) device's parked queue to live
    /// uncordoned capable same-plane siblings (least-loaded first, headroom
    /// waived — absorbing a dead device's backlog beats bouncing it).
    /// Entries with no live capable alternative stay parked on the source
    /// device: a down device runs them as a last resort and fails them
    /// terminally through the exclusion walk, while a cordoned device holds
    /// them for sibling steals or the eventual uncordon — either beats
    /// wedging a drain forever.
    fn evacuate(&mut self, from: usize) {
        let parked = std::mem::take(&mut self.devices[from].queue);
        let mut kept = VecDeque::new();
        for entry in parked {
            let target = (0..self.devices.len())
                .filter(|&i| {
                    i != from
                        && self.devices[i].plane == self.devices[from].plane
                        && self.devices[i].health != HealthState::Down
                        && !self.devices[i].cordoned
                        && self.devices[i].supports(&entry.requirements)
                        && entry.dispatch.ids().all(|id| !self.is_excluded(id.0, i))
                })
                .min_by_key(|&i| self.devices[i].load());
            match target {
                Some(i) => self.devices[i].queue.push_back(entry),
                None => kept.push_back(entry),
            }
        }
        self.devices[from].queue = kept;
    }

    /// Per-device gauges keyed by device id.
    pub fn snapshot(&self) -> BTreeMap<String, DeviceUtilization> {
        self.devices
            .iter()
            .map(|d| {
                (
                    d.id.to_string(),
                    DeviceUtilization {
                        plane: d.plane.clone(),
                        health: d.health.name().to_string(),
                        dispatched: d.dispatched,
                        completed: d.completed,
                        failed: d.failed,
                        requeued: d.requeued,
                        stolen_from: d.stolen_from,
                        busy_seconds: d.busy_seconds,
                        queue_depth: d.queued_members() as u64,
                        in_flight: d.in_flight as u64,
                        cordoned: d.cordoned,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testing::{placement, sealed_bundle};
    use qml_backends::GateBackend;
    use qml_runtime::JobId;

    const PLANE: &str = "qml-gate-simulator";

    fn spec(id: &str, caps: CapabilityDescriptor) -> DeviceSpec {
        DeviceSpec::new(id, Arc::new(GateBackend::new()), caps)
    }

    fn fleet(n: usize) -> FleetRouter {
        let specs = (0..n)
            .map(|i| spec(&format!("dev-{i}"), CapabilityDescriptor::unlimited()))
            .collect();
        FleetRouter::new(specs, 0)
    }

    fn req(qubits: usize) -> JobRequirements {
        JobRequirements {
            qubits,
            opt_level: 1,
        }
    }

    #[test]
    fn history_less_routing_round_robins_over_capable_devices() {
        let mut fleet = fleet(3);
        let picks: Vec<usize> = (0..6)
            .map(|job| fleet.select(PLANE, &req(4), Some(7), job).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn capability_filter_excludes_narrow_devices() {
        let specs = vec![
            spec(
                "narrow",
                CapabilityDescriptor::unlimited().with_max_qubits(4),
            ),
            spec("wide", CapabilityDescriptor::unlimited()),
        ];
        let mut fleet = FleetRouter::new(specs, 0);
        for job in 0..4 {
            let pick = fleet.select(PLANE, &req(16), None, job).unwrap();
            assert_eq!(fleet.device_id(pick).unwrap().as_ref(), "wide");
        }
        assert!(fleet.capable_exists(PLANE, &req(16)));
        // A 4-qubit job fits both devices, so routing alternates again.
        let picks: BTreeSet<usize> = (10..14)
            .filter_map(|job| fleet.select(PLANE, &req(4), None, job))
            .collect();
        assert_eq!(picks.len(), 2, "narrow device rejoins for jobs that fit");
    }

    #[test]
    fn cheapest_device_wins_once_every_candidate_has_history() {
        let mut fleet = fleet(2);
        let key = Some(99);
        // Seed history: device 0 is 10x slower than device 1.
        fleet.observe(0, key, 1.0, true, false);
        fleet.observe(1, key, 0.1, true, false);
        for job in 10..16 {
            let pick = fleet.select(PLANE, &req(4), key, job).unwrap();
            assert_eq!(pick, 1, "the cheap device wins outside the tie band");
        }
    }

    #[test]
    fn tie_band_breaks_toward_the_least_loaded_device() {
        let mut fleet = fleet(2);
        let key = Some(5);
        fleet.observe(0, key, 0.100, true, false);
        fleet.observe(1, key, 0.105, true, false); // within 10% of device 0
        fleet.take_slots(0, 3);
        let pick = fleet.select(PLANE, &req(4), key, 1).unwrap();
        assert_eq!(pick, 1, "tied on cost, device 1 carries less load");
    }

    #[test]
    fn exclusions_are_respected_and_cleared() {
        let mut fleet = fleet(2);
        fleet.exclude(42, 0);
        for _ in 0..4 {
            assert_eq!(fleet.select(PLANE, &req(4), None, 42), Some(1));
        }
        assert_eq!(fleet.exclusion_count(42), 1);
        fleet.exclude(42, 1);
        assert_eq!(fleet.select(PLANE, &req(4), None, 42), None, "all excluded");
        assert!(!fleet.retry_candidate_exists(PLANE, &req(4), 42, 0));
        fleet.clear_exclusions(42);
        assert!(fleet.select(PLANE, &req(4), None, 42).is_some());
    }

    #[test]
    fn fault_streak_walks_the_health_ladder_and_success_resets_it() {
        let mut fleet = fleet(2);
        fleet.observe(0, None, 0.01, false, true);
        assert_eq!(fleet.health(0), Some(HealthState::Degraded));
        fleet.observe(0, None, 0.01, true, false);
        assert_eq!(fleet.health(0), Some(HealthState::Healthy), "success heals");
        fleet.observe(0, None, 0.01, false, true);
        let went_down = fleet.observe(0, None, 0.01, false, true);
        assert!(went_down, "threshold reached");
        assert_eq!(fleet.health(0), Some(HealthState::Down));
        // Non-fault failures (user errors) never move the ladder.
        fleet.observe(1, None, 0.01, false, false);
        assert_eq!(fleet.health(1), Some(HealthState::Healthy));
    }

    #[test]
    fn down_devices_receive_no_dispatches_while_a_live_candidate_exists() {
        let mut fleet = fleet(2);
        fleet.observe(0, None, 0.01, false, true);
        fleet.observe(0, None, 0.01, false, true);
        assert_eq!(fleet.health(0), Some(HealthState::Down));
        for job in 0..8 {
            assert_eq!(fleet.select(PLANE, &req(4), None, job), Some(1));
        }
        // All down: last resort still routes (the exclusion walk terminates
        // the job) rather than wedging.
        fleet.observe(1, None, 0.01, false, true);
        fleet.observe(1, None, 0.01, false, true);
        assert!(fleet.select(PLANE, &req(4), None, 100).is_some());
    }

    #[test]
    fn probe_interval_routes_a_recovery_job_to_a_down_device() {
        let mut fleet = FleetRouter::new(
            (0..2)
                .map(|i| spec(&format!("dev-{i}"), CapabilityDescriptor::unlimited()))
                .collect(),
            3,
        );
        for _ in 0..DOWN_THRESHOLD {
            fleet.observe(0, None, 0.01, false, true);
        }
        assert_eq!(fleet.health(0), Some(HealthState::Down));
        // Not due yet: traffic routes to the live device.
        assert_eq!(fleet.select(PLANE, &req(4), None, 1), Some(1));
        fleet.observe(1, None, 0.01, true, false);
        fleet.observe(1, None, 0.01, true, false);
        // 4 settled outcomes, the interval is 3: the down device gets one
        // probe...
        assert_eq!(fleet.select(PLANE, &req(4), None, 2), Some(0));
        // ...and only one, until the interval elapses again.
        assert_eq!(fleet.select(PLANE, &req(4), None, 3), Some(1));
        // The probe succeeds: the device rejoins as healthy.
        fleet.observe(0, None, 0.01, true, false);
        assert_eq!(fleet.health(0), Some(HealthState::Healthy));
    }

    #[test]
    fn down_transition_evacuates_the_parked_queue_to_live_siblings() {
        let mut fleet = fleet(3);
        let parked = ParkedDispatch {
            dispatch: JobDispatch::new(JobId(9), sealed_bundle(), placement()),
            requirements: req(4),
        };
        fleet.park(0, parked.clone());
        fleet.park(
            0,
            ParkedDispatch {
                dispatch: JobDispatch::new(JobId(10), sealed_bundle(), placement()),
                requirements: req(4),
            },
        );
        fleet.observe(0, None, 0.01, false, true);
        fleet.observe(0, None, 0.01, false, true);
        assert_eq!(fleet.health(0), Some(HealthState::Down));
        let snap = fleet.snapshot();
        assert_eq!(snap["dev-0"].queue_depth, 0, "queue evacuated");
        let elsewhere: u64 = snap["dev-1"].queue_depth + snap["dev-2"].queue_depth;
        assert_eq!(elsewhere, 2, "both dispatches moved to live siblings");
    }

    #[test]
    fn idle_devices_steal_compatible_parked_work() {
        let specs = (0..2)
            .map(|i| {
                spec(&format!("dev-{i}"), CapabilityDescriptor::unlimited()).with_concurrency(1)
            })
            .collect();
        let mut fleet = FleetRouter::new(specs, 0);
        // Saturate device 0 and park two dispatches behind its busy slot.
        fleet.take_slots(0, 1);
        fleet.park(
            0,
            ParkedDispatch {
                dispatch: JobDispatch::new(JobId(1), sealed_bundle(), placement()),
                requirements: req(4),
            },
        );
        fleet.park(
            0,
            ParkedDispatch {
                dispatch: JobDispatch::new(JobId(2), sealed_bundle(), placement()),
                requirements: req(4),
            },
        );
        // Device 1 is idle: it steals the newest parked dispatch.
        let (thief, entry) = fleet.pop_parked().unwrap();
        assert_eq!(thief, 1);
        assert_eq!(entry.dispatch.id(), JobId(2), "steals from the back");
        assert_eq!(fleet.snapshot()["dev-0"].stolen_from, 1);
        // Free device 0's slot: it serves its own queue head first.
        fleet.release_slot(0);
        let (owner, entry) = fleet.pop_parked().unwrap();
        assert_eq!(owner, 0);
        assert_eq!(entry.dispatch.id(), JobId(1));
        assert!(fleet.pop_parked().is_none());
    }

    #[test]
    fn cordon_evacuates_parked_work_to_uncordoned_siblings() {
        let mut fleet = fleet(3);
        // Busy slots force the dispatches to park rather than run.
        fleet.take_slots(0, 2);
        for id in [1, 2] {
            fleet.park(
                0,
                ParkedDispatch {
                    dispatch: JobDispatch::new(JobId(id), sealed_bundle(), placement()),
                    requirements: req(4),
                },
            );
        }
        assert!(fleet.cordon("dev-0"));
        let snap = fleet.snapshot();
        assert!(snap["dev-0"].cordoned);
        assert_eq!(snap["dev-0"].queue_depth, 0, "parked work evacuated");
        assert_eq!(snap["dev-1"].queue_depth + snap["dev-2"].queue_depth, 2);
        // Both dispatches now run on uncordoned devices.
        for _ in 0..2 {
            let (device, _) = fleet.pop_parked().expect("parked work drains");
            assert_ne!(device, 0, "cordoned device serves nothing");
        }
        assert!(fleet.pop_parked().is_none());
    }

    #[test]
    fn cordoned_devices_never_thieve_parked_work() {
        let specs = (0..2)
            .map(|i| {
                spec(&format!("dev-{i}"), CapabilityDescriptor::unlimited()).with_concurrency(1)
            })
            .collect();
        let mut fleet = FleetRouter::new(specs, 0);
        // Device 0 is saturated with a dispatch parked behind its busy
        // slot; device 1 — the only possible thief — is cordoned.
        fleet.take_slots(0, 1);
        fleet.park(
            0,
            ParkedDispatch {
                dispatch: JobDispatch::new(JobId(7), sealed_bundle(), placement()),
                requirements: req(4),
            },
        );
        assert!(fleet.cordon("dev-1"));
        assert!(
            fleet.pop_parked().is_none(),
            "a cordoned device cannot steal"
        );
        // Lifting the cordon restores the steal path.
        assert!(fleet.uncordon("dev-1"));
        let (thief, entry) = fleet.pop_parked().expect("idle sibling steals");
        assert_eq!(thief, 1);
        assert_eq!(entry.dispatch.id(), JobId(7));
    }

    #[test]
    fn exclusion_subset_gates_coalescing() {
        let mut fleet = fleet(3);
        assert!(fleet.exclusions_subset(1, 2), "no exclusions: compatible");
        fleet.exclude(1, 0);
        assert!(!fleet.exclusions_subset(1, 2), "member excluded, head not");
        fleet.exclude(2, 0);
        assert!(fleet.exclusions_subset(1, 2), "subset holds");
        assert!(fleet.exclusions_subset(2, 2));
        fleet.exclude(1, 1);
        assert!(!fleet.exclusions_subset(1, 2));
    }

    #[test]
    fn snapshot_gauges_track_dispatch_and_settlement() {
        let mut fleet = fleet(1);
        fleet.take_slots(0, 2);
        fleet.observe(0, Some(3), 0.5, true, false);
        fleet.release_slot(0);
        fleet.observe(0, Some(3), 0.25, false, true);
        fleet.release_slot(0);
        fleet.note_requeued(0);
        let snap = fleet.snapshot();
        let dev = &snap["dev-0"];
        assert_eq!(dev.dispatched, 2);
        assert_eq!(dev.completed, 1);
        assert_eq!(dev.failed, 1);
        assert_eq!(dev.requeued, 1);
        assert_eq!(dev.in_flight, 0);
        assert!(
            (dev.busy_seconds - 0.75).abs() < 1e-12,
            "faulted attempts accrue"
        );
        assert_eq!(dev.health, "degraded");
    }
}
