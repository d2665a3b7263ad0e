//! Property tests for fleet routing invariants (PR 8).
//!
//! The [`FleetRouter`] is pure bookkeeping — no locks, no clocks, no I/O —
//! so its routing guarantees are testable as properties over randomized
//! fleets and job streams:
//!
//! * a routed job always lands on a device capable of serving it;
//! * once every candidate has cost history, the chosen device is within the
//!   tie band of the cheapest capable device;
//! * exclusion sets are respected across a requeue walk, and the walk
//!   terminates (the capable set is finite and exclusions only grow);
//! * cordoned devices receive no new routes (while staying admission-time
//!   feasible, so queued work waits out the maintenance window), and
//!   uncordoning restores the full candidate set;
//! * end to end, randomized fault schedules lose no job and duplicate no
//!   outcome: completed + failed always equals submitted.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use qml_core::backends::testing::{FaultPlan, FaultyBackend};
use qml_core::backends::{Backend, GateBackend};
use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::service::{
    DeviceSpec, FleetRouter, QmlService, ServiceConfig, SweepRequest, COST_TIE_BAND,
};

const PLANE: &str = "qml-gate-simulator";

fn unlimited_fleet(n: usize) -> FleetRouter {
    let specs = (0..n)
        .map(|i| {
            DeviceSpec::new(
                format!("dev-{i}"),
                Arc::new(GateBackend::new()) as Arc<dyn Backend>,
                CapabilityDescriptor::unlimited(),
            )
        })
        .collect();
    FleetRouter::new(specs, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Capability invariant: whatever the fleet shape and job stream, a
    /// routed job lands on a device wide enough to serve it, and routing
    /// returns `None` only when no device on the plane is capable.
    #[test]
    fn routed_jobs_always_land_on_a_capable_device(
        widths in proptest::collection::vec(2usize..=32, 1..5),
        jobs in proptest::collection::vec(1usize..=32, 1..32),
    ) {
        let specs = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                DeviceSpec::new(
                    format!("dev-{i}"),
                    Arc::new(GateBackend::new()) as Arc<dyn Backend>,
                    CapabilityDescriptor::unlimited().with_max_qubits(w),
                )
            })
            .collect();
        let mut fleet = FleetRouter::new(specs, 0);
        for (job, &qubits) in jobs.iter().enumerate() {
            let req = JobRequirements { qubits, opt_level: 1 };
            match fleet.select(PLANE, Some(&req), Some(7), job as u64) {
                Some(pick) => prop_assert!(
                    qubits <= widths[pick],
                    "job of width {qubits} routed to device of width {}",
                    widths[pick]
                ),
                None => prop_assert!(
                    widths.iter().all(|&w| w < qubits),
                    "routing gave up although a capable device exists"
                ),
            }
        }
    }

    /// Cost invariant: once every device has measured history for a plan,
    /// the selected device's predicted cost is within [`COST_TIE_BAND`] of
    /// the cheapest candidate's (a first observation seeds the EWMA with the
    /// raw measurement, so the seeded costs *are* the predictions here).
    #[test]
    fn with_history_the_choice_stays_within_the_tie_band_of_cheapest(
        costs in proptest::collection::vec(0.01f64..1.0, 2..5),
        job in 0u64..1000,
    ) {
        let mut fleet = unlimited_fleet(costs.len());
        let key = 42u64;
        for (i, &seconds) in costs.iter().enumerate() {
            fleet.observe(i, Some(key), seconds, true, false);
        }
        let pick = fleet.select(PLANE, None, Some(key), job).unwrap();
        let cheapest = costs.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!(
            costs[pick] <= cheapest * (1.0 + COST_TIE_BAND) + 1e-12,
            "picked {} but the cheapest candidate costs {}",
            costs[pick],
            cheapest
        );
    }

    /// Exclusion invariant: a requeue walk (fault → exclude → re-route)
    /// never revisits an excluded device, and terminates with `None` exactly
    /// when every device has faulted on the job.
    #[test]
    fn exclusion_sets_are_respected_across_requeue_walks(
        n in 2usize..5,
        job in 0u64..1000,
    ) {
        let mut fleet = unlimited_fleet(n);
        let mut excluded = BTreeSet::new();
        loop {
            match fleet.select(PLANE, None, None, job) {
                Some(pick) => {
                    prop_assert!(
                        !excluded.contains(&pick),
                        "routed back onto excluded device {pick}"
                    );
                    fleet.exclude(job, pick);
                    excluded.insert(pick);
                    prop_assert!(excluded.len() <= n, "walk failed to terminate");
                }
                None => {
                    // `None` only once every device is excluded.
                    prop_assert_eq!(excluded.len(), n);
                    break;
                }
            }
        }
    }
}

#[test]
fn cordoned_devices_accept_no_new_routes_until_uncordoned() {
    let mut fleet = unlimited_fleet(3);
    assert!(fleet.cordon("dev-1"));
    assert!(!fleet.cordon("dev-9"), "unknown ids are rejected");
    let picked: BTreeSet<usize> = (0..9)
        .filter_map(|job| {
            fleet.select(
                PLANE,
                Some(&JobRequirements {
                    qubits: 4,
                    opt_level: 1,
                }),
                None,
                job,
            )
        })
        .collect();
    assert_eq!(picked, BTreeSet::from([0, 2]), "dev-1 is out of rotation");
    // A cordon is administrative, not a capability change: admission-time
    // feasibility still sees the device, so queued jobs wait out the
    // maintenance window instead of failing.
    assert!(fleet.capable_exists(PLANE, None));
    assert!(fleet.snapshot()["dev-1"].cordoned);
    assert!(fleet.uncordon("dev-1"));
    assert!(!fleet.snapshot()["dev-1"].cordoned);
    let rejoined: BTreeSet<usize> = (100..109)
        .filter_map(|job| fleet.select(PLANE, None, None, job))
        .collect();
    assert_eq!(rejoined, BTreeSet::from([0, 1, 2]), "dev-1 rejoined");
}

#[test]
fn a_sweep_completes_around_a_cordoned_device() {
    // End to end through the service: cordon one of two devices before
    // submitting, and every job completes on the other while the cordoned
    // device dispatches nothing.
    let config = ServiceConfig::with_workers(2)
        .with_device(gate_device("gate-a", FaultPlan::none()))
        .with_device(gate_device("gate-b", FaultPlan::none()));
    let service = QmlService::with_config(config);
    assert!(service.cordon_device("gate-a"));
    assert!(!service.cordon_device("missing"));
    service.submit_sweep("tenant", qaoa_sweep(8)).unwrap();
    let report = service.run_pending();
    assert_eq!(report.completed, 8);
    let per_device = service.metrics().per_device;
    assert!(per_device["gate-a"].cordoned);
    assert_eq!(per_device["gate-a"].dispatched, 0, "cordoned device idles");
    assert_eq!(per_device["gate-b"].completed, 8);
    // Lift the cordon: the device takes traffic again.
    assert!(service.uncordon_device("gate-a"));
    service.submit_sweep("tenant", qaoa_sweep(8)).unwrap();
    assert_eq!(service.run_pending().completed, 8);
    let per_device = service.metrics().per_device;
    assert!(!per_device["gate-a"].cordoned);
    assert!(
        per_device["gate-a"].dispatched > 0,
        "uncordoned device serves"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cordon invariant: whatever subset of the fleet is cordoned, routing
    /// never lands on a cordoned device, and returns `None` exactly when
    /// every device is cordoned (the job waits — a cordon never fails work).
    /// Uncordoning restores the full candidate set.
    #[test]
    fn routing_never_lands_on_a_cordoned_device(
        n in 1usize..5,
        cordoned_mask in 0u32..32,
        jobs in proptest::collection::vec(0u64..1000, 1..16),
    ) {
        let mut fleet = unlimited_fleet(n);
        let cordoned: BTreeSet<usize> =
            (0..n).filter(|i| cordoned_mask & (1 << i) != 0).collect();
        for &i in &cordoned {
            let id = format!("dev-{i}");
            prop_assert!(fleet.cordon(&id));
            prop_assert!(fleet.is_cordoned(i));
        }
        for &job in &jobs {
            match fleet.select(PLANE, None, None, job) {
                Some(pick) => prop_assert!(
                    !cordoned.contains(&pick),
                    "job {job} routed to cordoned device {pick}"
                ),
                None => prop_assert!(
                    cordoned.len() == n,
                    "routing gave up although an uncordoned device exists"
                ),
            }
        }
        for &i in &cordoned {
            let id = format!("dev-{i}");
            prop_assert!(fleet.uncordon(&id));
        }
        for &job in &jobs {
            prop_assert!(fleet.select(PLANE, None, None, job).is_some());
        }
    }
}

fn gate_device(id: &str, plan: FaultPlan) -> DeviceSpec {
    DeviceSpec::new(
        id,
        Arc::new(FaultyBackend::new(GateBackend::new(), plan)) as Arc<dyn Backend>,
        CapabilityDescriptor::unlimited(),
    )
}

fn qaoa_sweep(jobs: u64) -> SweepRequest {
    let program =
        qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap();
    let mut sweep = SweepRequest::new("routing-prop", program);
    for seed in 0..jobs {
        sweep = sweep.with_context(ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator")
                .with_samples(32)
                .with_seed(seed)
                .with_target(Target::ring(4)),
        ));
    }
    sweep
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End-to-end exactly-once invariant: under a randomized fault schedule
    /// (transient faults on one device, an optional permanent death on a
    /// second, one guaranteed-healthy sibling) every submitted job settles
    /// exactly once — nothing lost, nothing duplicated — and, because a
    /// healthy capable device always exists, every job ultimately completes.
    #[test]
    fn no_job_is_lost_or_duplicated_under_randomized_failures(
        transient in proptest::collection::vec(0u64..12, 0..6),
        fail_from in 0u64..16,
        jobs in 4u64..10,
    ) {
        let plan_a = FaultPlan::none().with_fail_nth(transient.iter().copied());
        // Values past the schedule horizon mean "never dies".
        let plan_b = if fail_from < 8 {
            FaultPlan::none().with_fail_from(fail_from)
        } else {
            FaultPlan::none()
        };
        let config = ServiceConfig::with_workers(2)
            .with_device(gate_device("gate-a", plan_a))
            .with_device(gate_device("gate-b", plan_b))
            .with_device(gate_device("gate-c", FaultPlan::none()));
        let service = QmlService::with_config(config);
        let batch = service.submit_sweep("prop", qaoa_sweep(jobs)).unwrap();
        let summary = service.run_pending();

        // Every job settles exactly once, and because a healthy capable
        // device always exists, every job ultimately completes.
        prop_assert_eq!(summary.completed + summary.failed, jobs as usize);
        prop_assert_eq!(summary.failed, 0);
        let metrics = service.metrics();
        prop_assert_eq!(metrics.jobs_submitted, jobs);
        prop_assert_eq!(metrics.jobs_completed, jobs);
        prop_assert_eq!(metrics.jobs_failed, 0);
        prop_assert_eq!(metrics.queue_depth, 0);
        // One terminal result per submitted job.
        for id in service.batch_jobs(batch) {
            prop_assert!(service.result(id).is_some(), "job {id:?} lost its result");
        }
        // Per-device completions fold to the batch total: no outcome was
        // double-settled onto a device.
        let completed: u64 = metrics
            .per_device
            .values()
            .filter(|d| d.plane == PLANE)
            .map(|d| d.completed)
            .sum();
        prop_assert_eq!(completed, jobs);
    }
}
