//! Acceptance test: **a cold job pays for its gates and bytes once.** On a
//! plan shaped like the `compile_cold` benchmark's — the 4-layer QAOA of a
//! G(8, 0.5) graph as JSON text, routed onto a line, `[sx, rz, cx]`,
//! level 3 — basis translation and the optimizer each allocate a fixed
//! number of times however many gates the circuit holds, decoding the JSON
//! costs a pinned number of allocations, and the finished plan's gate
//! vector has no spare capacity.
//!
//! Before the one-buffer passes, on these same jobs, the translation
//! allocated 996 times at 4 layers and 2 231 at 12 (about one `Vec` per
//! gate), the optimizer 258 and 430, and the plan's gate vector grew by
//! doubling, so 472 gates sat in room for 512. Decoding took 1 732
//! allocations when `ParamValue`'s untagged decode copied the value tree
//! once per variant it tried.
//!
//! The counting `#[global_allocator]` of `tests/counting_alloc` counts every
//! `alloc`/`alloc_zeroed`/`realloc` made while a measurement is open. This
//! file holds exactly one test, so it runs alone in its own process and no
//! concurrent test can disturb the count.

mod counting_alloc;

use qml_core::backends::lower_to_circuit;
use qml_core::graph::random_gnp;
use qml_core::prelude::*;
use qml_core::sim::{Circuit, Gate};
use qml_core::transpile::{
    decompose_to_basis, optimize, route, transpile, CouplingMap, TranspileTarget,
};

use counting_alloc::{allocations, largest_free};

const NODES: usize = 8;
const LEVEL: u8 = 3;

/// Allocations of `decompose_to_basis`: the output vector and the
/// measurement map.
const BASIS_ALLOCS: u64 = 2;
/// Allocations of `optimize` at level 3: the working buffer, its liveness
/// flags, chain links and chain heads, the pending runs, the resynthesized
/// output and its trim to length, and the measurement map.
const OPTIMIZE_ALLOCS: u64 = 8;
/// Allocations of `JobBundle::from_json` on the 4-layer bundle: the parsed
/// value tree and the descriptors built from it. The data types and the
/// operators are each decoded into a `Vec` and then moved into the bundle's
/// shared slice, one allocation more each than when the bundle held the
/// `Vec`s (466).
const FROM_JSON_ALLOCS: u64 = 468;

/// The benchmark's cold job: QAOA on G(8, 0.5) with `layers` fixed layers.
fn cold_job(layers: usize, seed: u64) -> JobBundle {
    let graph = random_gnp(NODES, 0.5, seed);
    let angles = (0..layers)
        .map(|layer| QaoaAngles {
            gamma: 0.3 + 0.1 * layer as f64,
            beta: 1.1 - 0.2 * layer as f64,
        })
        .collect();
    qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(angles))
        .unwrap()
        .with_context(ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator")
                .with_samples(16)
                .with_seed(seed)
                .with_target(Target::linear(NODES))
                .with_optimization_level(LEVEL),
        ))
}

/// The routed circuit of a job, and the counts of its translation and
/// optimization: (routed gates, basis allocations, optimize allocations).
fn pass_counts(bundle: &JobBundle) -> (usize, u64, u64) {
    let lowered = lower_to_circuit(bundle).unwrap().circuit;
    let routed = route(&lowered, &CouplingMap::linear(NODES))
        .unwrap()
        .circuit;
    let target = TranspileTarget::hardware(CouplingMap::linear(NODES));
    let (basis, basis_allocs) = allocations(|| decompose_to_basis(&routed, &target));
    let (optimized, optimize_allocs) = allocations(|| optimize(&basis, LEVEL));
    assert!(optimized.len() < basis.len());
    (routed.len(), basis_allocs, optimize_allocs)
}

#[test]
fn a_cold_job_allocates_per_pass_not_per_gate() {
    // Translation and optimization: a fixed count at two sizes.
    let (small, basis_small, optimize_small) = pass_counts(&cold_job(4, 1));
    let (large, basis_large, optimize_large) = pass_counts(&cold_job(12, 2));
    assert!(large > 2 * small, "{large} routed gates against {small}");
    assert_eq!((basis_small, basis_large), (BASIS_ALLOCS, BASIS_ALLOCS));
    assert_eq!(
        (optimize_small, optimize_large),
        (OPTIMIZE_ALLOCS, OPTIMIZE_ALLOCS)
    );

    // Decoding the descriptor.
    let bundle = cold_job(4, 3);
    let json = bundle.to_json().unwrap();
    let (parsed, decode_allocs) = allocations(|| JobBundle::from_json(&json).unwrap());
    assert_eq!(parsed, bundle);
    assert_eq!(decode_allocs, FROM_JSON_ALLOCS);

    // The plan's gate vector is exactly as long as its gates.
    let lowered = lower_to_circuit(&bundle).unwrap().circuit;
    let target = TranspileTarget::hardware(CouplingMap::linear(NODES));
    let plan: Circuit = transpile(&lowered, &target, LEVEL).unwrap().circuit;
    let gates = plan.len();
    let ((), freed) = largest_free(|| drop(plan));
    assert_eq!(freed, gates * std::mem::size_of::<Gate>(), "{gates} gates");
}
