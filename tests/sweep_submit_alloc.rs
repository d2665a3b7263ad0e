//! Acceptance test: **submitting a sweep stores, validates and hashes its
//! program once, not once per member.**
//!
//! A sweep's members share one program; only their bindings and names
//! differ. Expansion hands every member the base bundle's `Arc`-shared
//! program, and seals every member next to the previous one, so the
//! program is validated, and the symbolic program hash the batch key needs
//! is computed, for the first member and shared by the rest. The test
//! checks that every member points at one program allocation, then counts
//! the allocations of `submit_sweep` at two sweep sizes of the
//! `sweep_warm` benchmark's shape — the two-layer symbolic ring QAOA on 8
//! qubits, one binding per point — and bounds the difference per added
//! member. A copy of this program costs about 74 allocations and the
//! symbolic program hash (it renames the symbols and serializes every
//! descriptor to JSON) about 360, so the bound fails if a per-member copy
//! or hash comes back.
//!
//! The counting `#[global_allocator]` of `tests/counting_alloc` counts every
//! `alloc`/`alloc_zeroed`/`realloc` made while a measurement is open. This
//! file holds exactly one test, so it runs alone in its own process and no
//! concurrent test can disturb the count.

mod counting_alloc;

use std::collections::BTreeMap;
use std::sync::Arc;

use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::service::{QmlService, ServiceConfig, SweepRequest};

use counting_alloc::allocations;

/// Allocations one more sweep member may add to `submit_sweep`. Measured:
/// 47 per member — its name, metadata and bindings, and its admission to
/// the runtime and the fair scheduler; the bound is that plus a margin of
/// 42. When expansion copied the program twice per member and compared and
/// re-validated it when sealing, it was 198; when every layer validated
/// again and the batch key hashed every member, it was 803.
const PER_MEMBER: u64 = 89;

fn sweep(points: usize) -> SweepRequest {
    let base = qaoa_maxcut_program(&cycle(8), &QaoaSchedule::Symbolic { layers: 2 }).unwrap();
    let mut sweep = SweepRequest::new("scan", base).with_context(ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(32)
            .with_seed(7)
            .with_target(Target::linear(8))
            .with_optimization_level(3),
    ));
    for point in 0..points {
        let angle = 0.01 * point as f64;
        let binding: BTreeMap<String, ParamValue> = ["gamma_0", "beta_0", "gamma_1", "beta_1"]
            .iter()
            .map(|name| (name.to_string(), ParamValue::Float(angle)))
            .collect();
        sweep = sweep.with_binding_set(binding);
    }
    sweep
}

#[test]
fn a_sweep_hashes_its_program_once() {
    const SMALL: usize = 8;
    const LARGE: usize = 72;
    let members = sweep(SMALL).expand().unwrap();
    assert!(members.iter().all(|member| {
        Arc::ptr_eq(&member.operators, &members[0].operators)
            && Arc::ptr_eq(&member.data_types, &members[0].data_types)
    }));
    let service = QmlService::with_config(ServiceConfig::with_workers(1));
    // Warm the tenant's scheduler state and the service's maps.
    service.submit_sweep("warm", sweep(SMALL)).unwrap();
    let count = |points: usize| {
        let request = sweep(points);
        let (batch, n) = allocations(|| service.submit_sweep("tenant", request));
        batch.unwrap();
        n
    };
    let (small, large) = (count(SMALL), count(LARGE));
    let per_member = (large - small) / (LARGE - SMALL) as u64;
    assert!(
        per_member <= PER_MEMBER,
        "{per_member} allocations per sweep member ({small} for {SMALL} points, {large} for {LARGE})"
    );
    assert_eq!(service.run_pending().completed, SMALL + SMALL + LARGE);
}
