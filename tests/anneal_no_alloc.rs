//! Acceptance test: **the annealer allocates nothing per read beyond the
//! spins it returns**, and evaluating a model's energy allocates nothing.
//!
//! The counting `#[global_allocator]` of `tests/counting_alloc` counts every
//! `alloc`/`alloc_zeroed`/`realloc` made while a measurement is open. This
//! file holds exactly one test, so it runs alone in its own process (as
//! `tests/apply_no_alloc.rs` does) and no concurrent test can disturb the
//! count.

mod counting_alloc;

use qml_core::anneal::{AnnealParams, BinaryQuadraticModel, SimulatedAnnealer};

use counting_alloc::allocations;

#[test]
fn annealing_allocates_only_the_returned_spins_per_read() {
    let spin = BinaryQuadraticModel::from_ising(
        &[0.0; 4],
        &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)],
    );
    let binary = spin.to_binary();

    // Energies are evaluated in place, in both vartypes.
    for model in [&spin, &binary] {
        let (energy, n) = allocations(|| model.energy_spin(&[1, -1, 1, -1]));
        assert_eq!((energy, n), (-4.0, 0), "energy_spin");
        let (energy, n) = allocations(|| model.energy_binary(&[true, false, true, false]));
        assert_eq!((energy, n), (-4.0, 0), "energy_binary");
    }
    // The default schedule's field bound needs one per-variable buffer.
    let (field, n) = allocations(|| spin.max_effective_field());
    assert_eq!((field, n), (2.0, 1), "max_effective_field");

    // C4 has 16 states, so aggregating reads allocates a bounded amount:
    // 1000 more reads cost 1000 returned spin vectors, plus a handful of
    // growth steps of the vector the reads are collected into.
    let sampler = SimulatedAnnealer::new();
    let params = |reads| AnnealParams::with_reads(reads).with_sweeps(20).with_seed(3);
    for model in [&spin, &binary] {
        sampler.sample(model, &params(100));
        let (_, few) = allocations(|| sampler.sample(model, &params(100)));
        let (set, many) = allocations(|| sampler.sample(model, &params(1100)));
        assert_eq!(set.total_reads(), 1100);
        let extra = many - few;
        assert!(
            (1000..=1032).contains(&extra),
            "1000 more reads allocated {extra} more times ({few} → {many})"
        );
    }
}
