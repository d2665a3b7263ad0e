//! Fleet routing: N heterogeneous devices per backend plane, with failure
//! domains.
//!
//! The scheduler used to treat each backend plane as one infinitely wide
//! device. A real deployment runs a *fleet* behind every plane — several
//! simulators of different register widths, annealers with different
//! schedule support — and devices fail. [`FleetRouter`] owns that layer:
//!
//! * each device carries a [`CapabilityDescriptor`], a bounded concurrency
//!   and a per-device [`CostModel`] (EWMA of measured busy-seconds per plan
//!   key);
//! * [`select`](FleetRouter::select) routes a job to the **cheapest capable
//!   healthy device with a free slot**: devices with no cost history for the
//!   plan are explored first (capability-feasible round robin, which seeds
//!   their history); once every candidate has a prediction, any device
//!   within [`COST_TIE_BAND`] of the cheapest is eligible and the
//!   least-loaded one wins. A device never queues work: when no candidate
//!   has a free slot, `select` returns `None` and the job waits at the head
//!   of its tenant's queue until a slot frees;
//! * observed [`DeviceFault`](qml_types::QmlError::DeviceFault) outcomes walk
//!   a device down the [`HealthState`] ladder (healthy → degraded →
//!   down at `DOWN_THRESHOLD` consecutive faults); any success — including a
//!   recovery probe, routed to a down device once per `probe_interval`
//!   settled outcomes — restores it to healthy;
//! * operators can [`cordon`](FleetRouter::cordon) a device for maintenance:
//!   it accepts no new routes, in-flight work finishes normally, and
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

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use qml_backends::Backend;
use qml_types::{CapabilityDescriptor, HealthState, JobRequirements};

use crate::cost_model::CostModel;

/// Consecutive device faults that take a device from degraded to down.
pub(crate) const DOWN_THRESHOLD: u32 = 2;

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
    /// Concurrent member-job slots, the device's hardware bound. A device
    /// with no free slot is not routed to: the job waits in its tenant's
    /// queue until a slot frees.
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
    /// Measured busy wall-clock on this device, faulted attempts included.
    pub busy_seconds: f64,
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
    /// routes, but in-flight work finishes and settles normally. Orthogonal
    /// to `health`.
    cordoned: bool,
    /// Consecutive device faults since the last success.
    fail_streak: u32,
    /// Per-device measured cost: the EWMA this device's own outcomes feed,
    /// so a slow device prices itself out of tie-bands it doesn't deserve.
    cost: CostModel,
    in_flight: usize,
    dispatched: u64,
    completed: u64,
    failed: u64,
    requeued: u64,
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
            .finish()
    }
}

impl DeviceState {
    fn has_free_slot(&self) -> bool {
        self.in_flight < self.concurrency
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
    /// A router over `specs`. `DOWN_THRESHOLD` consecutive faults take a
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
                in_flight: 0,
                dispatched: 0,
                completed: 0,
                failed: 0,
                requeued: 0,
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

    /// The index of the device with this id.
    fn device_index(&self, id: &str) -> Option<usize> {
        self.devices.iter().position(|d| &*d.id == id)
    }

    /// The id of the device at `index`.
    pub(crate) fn device_id(&self, index: usize) -> Option<Arc<str>> {
        self.devices.get(index).map(|d| Arc::clone(&d.id))
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
    pub(crate) fn exclusion_count(&self, job: u64) -> usize {
        self.exclusions.get(&job).map_or(0, BTreeSet::len)
    }

    /// Drop `job`'s exclusion set (its outcome is terminal).
    pub(crate) fn clear_exclusions(&mut self, job: u64) {
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
    pub(crate) fn retry_candidate_exists(
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

    /// Route one job: the cheapest capable healthy device on `plane` with a
    /// free slot, per the policy in the module docs. Returns `None`, with no
    /// side effects, when the job must wait: no uncordoned, capable,
    /// non-excluded device is left for it; live candidates exist but none
    /// has a free slot; or every candidate is down and none has a free slot.
    /// Selecting a down device (probe or last resort) stamps its probe
    /// clock.
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
        // Recovery probe: a free down device that has waited out the probe
        // interval receives this job; its outcome decides whether it
        // rejoins the rotation.
        if self.probe_interval > 0 {
            let due = candidates.iter().copied().find(|&i| {
                self.devices[i].health == HealthState::Down
                    && self.devices[i].has_free_slot()
                    && self.outcomes_seen - self.devices[i].last_probe_at >= self.probe_interval
            });
            if let Some(i) = due {
                self.devices[i].last_probe_at = self.outcomes_seen;
                self.rr = i + 1;
                return Some(i);
            }
        }
        // Only a device with a free slot takes work. A busy live device
        // means wait: a down device is eligible only when every candidate
        // is down, never as a spill that would just burn an exclusion.
        let all_down = candidates
            .iter()
            .all(|&i| self.devices[i].health == HealthState::Down);
        let live: Vec<usize> = candidates
            .into_iter()
            .filter(|&i| {
                let dev = &self.devices[i];
                dev.has_free_slot() && (all_down || dev.health != HealthState::Down)
            })
            .collect();
        if live.is_empty() {
            return None;
        }
        if all_down {
            // Every capable device is down: last resort, round robin over
            // the free ones — failing fast (and walking the exclusion set)
            // beats wedging the queue forever.
            let pick = self.rr_pick(&live);
            self.devices[pick].last_probe_at = self.outcomes_seen;
            return Some(pick);
        }
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
                (health_rank, self.devices[i].in_flight, (i + n - cursor) % n)
            })
            .expect("band contains the cheapest device");
        self.rr = pick + 1;
        Some(pick)
    }

    /// Free execution slots on the device at `index`: a batch routed there
    /// takes at most this many members.
    pub(crate) fn free_slots(&self, index: usize) -> usize {
        let dev = self.devices.get(index);
        dev.map_or(0, |d| d.concurrency.saturating_sub(d.in_flight))
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

    /// Cordon the device with this id for maintenance: no new routes —
    /// in-flight work finishes and settles normally. Idempotent; returns
    /// false for unknown device ids.
    pub fn cordon(&mut self, id: &str) -> bool {
        let Some(index) = self.device_index(id) else {
            return false;
        };
        self.devices[index].cordoned = true;
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
    /// per-device cost model on success, and walk the health ladder.
    pub fn observe(
        &mut self,
        index: usize,
        plan_key: Option<u64>,
        seconds: f64,
        ok: bool,
        fault: bool,
    ) {
        self.outcomes_seen += 1;
        let Some(dev) = self.devices.get_mut(index) else {
            return;
        };
        let measured = seconds.is_finite() && seconds >= 0.0;
        if measured {
            dev.busy_seconds += seconds;
        }
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
                dev.health = if dev.fail_streak >= DOWN_THRESHOLD {
                    HealthState::Down
                } else {
                    HealthState::Degraded
                };
            }
        }
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
                        busy_seconds: d.busy_seconds,
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
    use qml_backends::GateBackend;

    const PLANE: &str = "qml-gate-simulator";

    impl FleetRouter {
        /// The current health of the device at `index`.
        fn health(&self, index: usize) -> Option<HealthState> {
            self.devices.get(index).map(|d| d.health)
        }
    }

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
        fleet.observe(0, None, 0.01, false, true);
        assert_eq!(
            fleet.health(0),
            Some(HealthState::Down),
            "threshold reached"
        );
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

    /// Two concurrency-1 devices on the gate plane, never probed.
    fn one_slot_fleet() -> FleetRouter {
        let specs = (0..2)
            .map(|i| {
                spec(&format!("dev-{i}"), CapabilityDescriptor::unlimited()).with_concurrency(1)
            })
            .collect();
        FleetRouter::new(specs, 0)
    }

    fn take_down(fleet: &mut FleetRouter, index: usize) {
        for _ in 0..DOWN_THRESHOLD {
            fleet.observe(index, None, 0.01, false, true);
        }
        assert_eq!(fleet.health(index), Some(HealthState::Down));
    }

    #[test]
    fn a_busy_live_device_means_wait_never_a_spill_onto_a_free_down_one() {
        let mut fleet = one_slot_fleet();
        take_down(&mut fleet, 0);
        fleet.take_slots(1, 1);
        assert_eq!(fleet.select(PLANE, &req(4), None, 7), None, "wait");
        assert_eq!(fleet.snapshot()["dev-0"].dispatched, 0);
        // The freed slot takes the job.
        fleet.release_slot(1);
        assert_eq!(fleet.select(PLANE, &req(4), None, 7), Some(1));
    }

    #[test]
    fn the_all_down_last_resort_takes_only_a_free_slot() {
        let mut fleet = one_slot_fleet();
        take_down(&mut fleet, 0);
        take_down(&mut fleet, 1);
        fleet.take_slots(0, 1);
        fleet.take_slots(1, 1);
        assert_eq!(fleet.select(PLANE, &req(4), None, 7), None, "all busy");
        fleet.release_slot(0);
        assert_eq!(fleet.select(PLANE, &req(4), None, 7), Some(0));
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
