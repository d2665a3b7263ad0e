//! Acceptance test: **a warm gate job on the sealed path allocates little
//! beyond one entry per observed word**, because nothing below the seal
//! validates or hashes the program again.
//!
//! The job is shaped like the `state_serial` benchmark: the two-layer ring
//! QAOA on 12 qubits, 1 024 shots, transpiled to a line at level 3. Like a
//! sweep member in the service, each job is sealed next to the one that
//! built the plan (`SealedBundle::seal_sharing`) before the count starts,
//! then runs through the one backend primitive, `execute_sealed`, on a warm
//! cache. Every distinct word costs one `String` key in the counts map;
//! the rest is a small constant. Hashing the program for its plan key costs
//! about 230 allocations, so this bound fails if a hash comes back onto the
//! execute path.
//!
//! The counting `#[global_allocator]` of `tests/counting_alloc` counts every
//! `alloc`/`alloc_zeroed`/`realloc` made while a measurement is open. This
//! file holds exactly one test, so it runs alone in its own process and no
//! concurrent test can disturb the count.

mod counting_alloc;

use qml_core::backends::{Backend, GateBackend, TranspileCache};
use qml_core::graph::cycle;
use qml_core::prelude::*;

use counting_alloc::allocations;

/// Allocations a warm sealed job may make beyond one per distinct word.
/// Measured over seeds 1–4: 105–111 — about 100 B-tree nodes of the counts
/// map, the rest the result's strings. The bound is that maximum plus a
/// margin of 82. Through the grouping batch driver (a `Vec` per batch and
/// per group, a `HashMap`, per-member tables) a job made 112–118; when the
/// backend validated and hashed every job itself, it made 495–505.
const PER_JOB_SLACK: u64 = 193;

#[test]
fn a_warm_sealed_job_allocates_about_one_entry_per_observed_word() {
    let angles = vec![
        QaoaAngles {
            gamma: 0.4,
            beta: 1.1,
        },
        QaoaAngles {
            gamma: 0.9,
            beta: 0.3,
        },
    ];
    let program = qaoa_maxcut_program(&cycle(12), &QaoaSchedule::Fixed(angles)).unwrap();
    let job = |seed| {
        program.clone().with_context(ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator")
                .with_samples(1024)
                .with_seed(seed)
                .with_target(Target::linear(12))
                .with_optimization_level(3),
        ))
    };
    let backend = GateBackend::new();
    let cache = TranspileCache::new();
    // Build the plan and size the thread scratch.
    let first = SealedBundle::seal(job(0)).unwrap();
    backend.execute_sealed(&first, &cache).0.unwrap();

    for seed in 1..=4 {
        let sealed = SealedBundle::seal_sharing(job(seed), &first).unwrap();
        let ((result, _), n) = allocations(|| backend.execute_sealed(&sealed, &cache));
        let words = result.unwrap().counts.len() as u64;
        assert!(
            words > 100,
            "a 12-qubit QAOA sample spreads over many words"
        );
        assert!(
            n <= words + PER_JOB_SLACK,
            "seed {seed}: {n} allocations for {words} distinct words"
        );
    }
    let stats = cache.gate_stats();
    assert_eq!((stats.misses, stats.hits), (1, 4));
}
