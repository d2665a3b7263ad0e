//! Acceptance test: **a held `ExecutionResult` owns exactly one word map.**
//!
//! Cloning a result allocates what it owns. With one counts map that is one
//! `String` per observed word, the map's B-tree nodes and the three name
//! strings: 1.15 allocations per word on the gate result below and 1.09 on
//! the anneal result. A decoded copy stored alongside would add at least one
//! more allocation per word, so the bound of 1.25 fails if per-word decoded
//! storage comes back on either backend plane.
//!
//! The counting `#[global_allocator]` of `tests/counting_alloc` counts every
//! `alloc`/`alloc_zeroed`/`realloc` made while a measurement is open. This
//! file holds exactly one test, so it runs alone in its own process and no
//! concurrent test can disturb the count.

mod counting_alloc;

use qml_core::backends::{AnnealBackend, Backend, ExecutionResult, GateBackend};
use qml_core::graph::cycle;
use qml_core::prelude::*;

use counting_alloc::allocations;

/// The allocations a clone of `result` makes per observed word.
fn clone_allocations_per_word(result: &ExecutionResult) -> f64 {
    let (copy, n) = allocations(|| result.clone());
    assert_eq!(&copy, result);
    n as f64 / result.counts.len() as f64
}

#[test]
fn a_held_result_owns_one_word_map() {
    let gate = GateBackend::new()
        .execute(
            &qaoa_maxcut_program(&cycle(10), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
                .unwrap()
                .with_context(ContextDescriptor::for_gate(
                    ExecConfig::new("gate.aer_simulator")
                        .with_samples(4096)
                        .with_seed(5),
                )),
        )
        .unwrap();
    let anneal = AnnealBackend::new()
        .execute(&maxcut_ising_program(&cycle(16)).unwrap().with_context(
            ContextDescriptor::for_anneal(
                "anneal.neal_simulator",
                AnnealConfig {
                    seed: Some(5),
                    num_sweeps: Some(2),
                    ..AnnealConfig::with_reads(2000)
                },
            ),
        ))
        .unwrap();

    for (plane, result) in [("gate", &gate), ("anneal", &anneal)] {
        assert!(result.counts.len() > 200, "{plane}: too few words to tell");
        let per_word = clone_allocations_per_word(result);
        assert!(
            (1.0..1.25).contains(&per_word),
            "{plane}: a clone made {per_word:.3} allocations per word"
        );
    }
}
