//! Acceptance test: **a warm gate job allocates about one entry per observed
//! word**, so decoding stays off the execute path.
//!
//! The job is shaped like the `state_serial` benchmark: the two-layer ring
//! QAOA on 12 qubits, 1 024 shots, transpiled to a line at level 3 and run
//! through a warm `execute_cached`. Every distinct word costs one `String`
//! key in the counts map; what else a job allocates (the thread scratch is
//! already sized, the plan is an `Arc` share) is a small constant. Decoding
//! every word on the execute path costs at least two more allocations per
//! word, so this bound fails if it comes back.
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

/// Allocations a warm job may make beyond one per distinct word. Measured
/// over seeds 1–12 at 12 qubits and 1 024 shots: 703–746 distinct words and
/// 352–362 further allocations; the bound is that maximum plus a margin of
/// 89. `execute_cached` takes a plain bundle and seals a copy of it on every
/// call, so nothing is memoized across calls: about 230 go to hashing the
/// program for its plan key; the copy shares the program, so it costs only
/// its name, context and metadata; about 100 are B-tree nodes of the counts
/// map, the rest the result's strings. When the copy copied the program too,
/// the further allocations were 434–444. The sealed path without the copy
/// and the hash is bounded in `tests/sealed_alloc.rs`.
const PER_JOB_SLACK: u64 = 451;

#[test]
fn a_warm_job_allocates_about_one_entry_per_observed_word() {
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
    backend.execute_cached(&job(0), &cache).unwrap();

    for seed in 1..=4 {
        let bundle = job(seed);
        let (result, n) = allocations(|| backend.execute_cached(&bundle, &cache));
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
