//! The Metropolis simulated-annealing sampler — the repository's substitute
//! for D-Wave Ocean's `neal.SimulatedAnnealingSampler`.
//!
//! Each read starts from a uniformly random spin configuration and performs
//! `num_sweeps` Metropolis sweeps while the inverse temperature follows the
//! schedule; flips are accepted with probability `min(1, exp(-β·ΔE))`. Reads
//! are independent, so they are distributed over rayon worker threads with a
//! per-read seed derived deterministically from the sampler seed — results
//! are reproducible regardless of thread count.
//!
//! # The sweep kernel
//!
//! **Cached ΔE.** The kernel reads the model as it is stored: its couplings
//! are compressed sparse rows (CSR), built once by
//! [`BinaryQuadraticModel::from_ising`], each coupling under both of its
//! variables in ascending neighbour order and pre-scaled by 4, so a call
//! derives nothing from its model. A read keeps `de[i]`, the energy change of
//! flipping spin `i`, and touches it only when a flip is accepted — the
//! technique of `neal`'s own kernel (Isakov, Zintchenko, Rønnow & Troyer,
//! "Optimised simulated annealing for Ising spin glasses", CPC 192, 2015).
//! On an accepted flip of spin `i` (value `s_i` before the flip),
//! `de[i] = −de[i]` and every neighbour `j` gets `de[j] += 4·J_ij·s_i·s_j`.
//! A proposal costs O(1) and an accepted flip O(degree), where recomputing
//! the local field cost O(degree) per proposal.
//!
//! **Exactness.** `de[i]` starts from the local-field expression itself,
//! `−2·s_i·(h_i + Σ_j J_ij·s_j)` summed in adjacency order, and each update
//! adds a ±1 sign product times a coupling scaled by 4. Scaling by ±2^k is
//! exact, so `de[i]` is always exactly `−2·s_i` times a field kept current
//! by additions. With integer or dyadic couplings those additions are exact
//! and every decision equals the one a fresh recomputation of the field
//! makes. With general float couplings a cached and a recomputed field can
//! differ in the last place; that changes a decision only if the uniform
//! draw lands within that ulp of the threshold, or a field is within
//! rounding of zero. The tests hold this sampler `==` to a
//! field-recomputing reference on both kinds of instance.
//!
//! **Exp-free acceptance.** An uphill proposal (ΔE > 0, y = β·ΔE) accepts
//! iff `u < exp(−y)` for a uniform draw `u`. For y ≥ 0 the Taylor series
//! brackets the threshold:
//! `1 − y + y²/2 − y³/6 ≤ e^(−y) ≤ 1 / (1 + y + y²/2 + y³/6)`. So
//! `u·(1 + y + y²/2 + y³/6) ≥ 1 + 1e-9` rejects, and
//! `u < 1 − y + y²/2 − y³/6 − 1e-9` accepts. The 1e-9 margin dwarfs the few
//! ulps of rounding in the polynomials and in `exp`, so the bracket never
//! contradicts `u < exp(−y)` as computed. Everything else falls back to
//! `exp`, including overflow to ∞ or NaN, because every comparison with NaN
//! is false.
//!
//! **RNG draws.** Nothing is drawn for ΔE < 0, a bool for ΔE = 0 and one
//! `f64` for ΔE > 0: the same stream as a sampler that recomputes the field
//! and calls `exp` on every uphill proposal.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::bqm::BinaryQuadraticModel;
use crate::sampleset::SampleSet;
use crate::schedule::Schedule;

/// Configuration of a simulated-annealing run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnealParams {
    /// Number of independent reads (anneals).
    pub num_reads: u64,
    /// Metropolis sweeps per read.
    pub num_sweeps: usize,
    /// Explicit β range; `None` derives a range from the problem.
    pub beta_range: Option<(f64, f64)>,
    /// Seed for reproducible sampling.
    pub seed: u64,
}

impl Default for AnnealParams {
    fn default() -> Self {
        AnnealParams {
            num_reads: 1000,
            num_sweeps: 1000,
            beta_range: None,
            seed: 0,
        }
    }
}

impl AnnealParams {
    /// Parameters with the given read count and defaults otherwise.
    pub fn with_reads(num_reads: u64) -> Self {
        AnnealParams {
            num_reads,
            ..AnnealParams::default()
        }
    }

    /// Builder-style sweep count.
    pub fn with_sweeps(mut self, num_sweeps: usize) -> Self {
        self.num_sweeps = num_sweeps;
        self
    }

    /// Builder-style seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style β range.
    pub fn with_beta_range(mut self, beta_min: f64, beta_max: f64) -> Self {
        self.beta_range = Some((beta_min, beta_max));
        self
    }
}

/// Safety margin of the Taylor bracket in [`metropolis_accepts`].
const BRACKET_MARGIN: f64 = 1e-9;

thread_local! {
    /// The ΔE buffer of the reads a thread runs: allocated once per block
    /// of reads, not once per read.
    static DELTAS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// One read: sweep `spins` in place through the β schedule, with `de` as
/// the ΔE cache.
fn anneal(
    model: &BinaryQuadraticModel,
    betas: &[f64],
    rng: &mut StdRng,
    spins: &mut [i8],
    de: &mut Vec<f64>,
) {
    de.clear();
    de.extend(spins.iter().enumerate().map(|(i, &s)| {
        // ΔE of flipping spin i: −2 s_i (h_i + Σ_j J_ij s_j).
        let field: f64 = model.linear(i)
            + model
                .row(i)
                .iter()
                .map(|&(j, w4)| 0.25 * w4 * f64::from(spins[j]))
                .sum::<f64>();
        -2.0 * f64::from(s) * field
    }));
    for &beta in betas {
        for i in 0..spins.len() {
            let delta = de[i];
            // Metropolis acceptance with a random tie-break on zero-cost
            // moves: a deterministic scan order plus "always accept Δ=0"
            // can lock the chain into a limit cycle on degenerate
            // plateaus (e.g. even cycles).
            let accept = if delta < 0.0 {
                true
            } else if delta == 0.0 {
                rng.gen::<bool>()
            } else {
                metropolis_accepts(rng.gen::<f64>(), beta * delta)
            };
            if accept {
                let s = spins[i];
                spins[i] = -s;
                de[i] = -delta;
                for &(j, w4) in model.row(i) {
                    de[j] += w4 * f64::from(s * spins[j]);
                }
            }
        }
    }
}

/// `u < exp(−y)` for `y = β·ΔE > 0`, settled by the Taylor bracket of the
/// module docs when it can be and by `exp` otherwise.
#[inline]
fn metropolis_accepts(u: f64, y: f64) -> bool {
    if u * (1.0 + y * (1.0 + y * (0.5 + y * (1.0 / 6.0)))) >= 1.0 + BRACKET_MARGIN {
        return false;
    }
    if u < 1.0 + y * (-1.0 + y * (0.5 - y * (1.0 / 6.0))) - BRACKET_MARGIN {
        return true;
    }
    u < (-y).exp()
}

/// A classical Metropolis simulated-annealing sampler.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimulatedAnnealer;

impl SimulatedAnnealer {
    /// Create a sampler.
    pub fn new() -> Self {
        SimulatedAnnealer
    }

    /// Sample the model: `num_reads` independent anneals, aggregated.
    pub fn sample(&self, bqm: &BinaryQuadraticModel, params: &AnnealParams) -> SampleSet {
        assert!(params.num_reads > 0, "num_reads must be positive");
        assert!(params.num_sweeps > 0, "num_sweeps must be positive");
        let n = bqm.num_variables();
        let schedule = match params.beta_range {
            Some((lo, hi)) => Schedule::geometric(lo, hi, params.num_sweeps),
            None => Schedule::default_for(bqm.max_effective_field(), params.num_sweeps),
        };
        let betas = schedule.betas();

        let reads: Vec<(Vec<i8>, f64)> = (0..params.num_reads)
            .into_par_iter()
            .map(|read| {
                let mut rng = StdRng::seed_from_u64(
                    params.seed ^ (read.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(read),
                );
                let mut spins: Vec<i8> = (0..n)
                    .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
                    .collect();
                DELTAS.with(|de| anneal(bqm, &betas, &mut rng, &mut spins, &mut de.borrow_mut()));
                let energy = bqm.energy_spin(&spins);
                (spins, energy)
            })
            .collect();

        SampleSet::from_reads(reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceModel;
    use proptest::prelude::*;

    /// Fields and couplings, the input of both model layouts.
    type Ising = (Vec<f64>, Vec<(usize, usize, f64)>);

    fn model((h, j): &Ising) -> BinaryQuadraticModel {
        BinaryQuadraticModel::from_ising(h, j)
    }

    /// The sampler as it was before the cached-ΔE kernel: the local field
    /// recomputed from the map model's adjacency on every proposal and `exp`
    /// on every uphill one. The oracle the kernel is held `==` to; it reads
    /// nothing of the stored model, not even its field.
    fn reference_sample((h, j): &Ising, params: &AnnealParams) -> SampleSet {
        let reference = ReferenceModel::from_ising(h, j);
        let n = reference.num_variables();
        let schedule = match params.beta_range {
            Some((lo, hi)) => Schedule::geometric(lo, hi, params.num_sweeps),
            None => Schedule::default_for(reference.max_effective_field(), params.num_sweeps),
        };
        let betas = schedule.betas();
        let adjacency = reference.adjacency();
        let linear: Vec<f64> = (0..n).map(|i| reference.linear(i)).collect();
        let reads = (0..params.num_reads)
            .map(|read| {
                let mut rng = StdRng::seed_from_u64(
                    params.seed ^ (read.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(read),
                );
                let mut spins: Vec<i8> = (0..n)
                    .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
                    .collect();
                for &beta in &betas {
                    for i in 0..n {
                        let field: f64 = linear[i]
                            + adjacency[i]
                                .iter()
                                .map(|&(j, w)| w * f64::from(spins[j]))
                                .sum::<f64>();
                        let delta = -2.0 * f64::from(spins[i]) * field;
                        let accept = if delta < 0.0 {
                            true
                        } else if delta == 0.0 {
                            rng.gen::<bool>()
                        } else {
                            rng.gen::<f64>() < (-beta * delta).exp()
                        };
                        if accept {
                            spins[i] = -spins[i];
                        }
                    }
                }
                let energy = reference.energy_spin(&spins);
                (spins, energy)
            })
            .collect();
        SampleSet::from_reads(reads)
    }

    fn assert_matches_reference(ising: &Ising, params: &AnnealParams) {
        assert_eq!(
            SimulatedAnnealer::new().sample(&model(ising), params),
            reference_sample(ising, params),
            "{params:?}"
        );
    }

    /// The paper's Max-Cut C4 Ising model.
    fn c4() -> Ising {
        let j = vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)];
        (vec![0.0; 4], j)
    }

    /// A slightly frustrated 8-spin ring with a defect coupling.
    fn defect_ring() -> Ising {
        let mut j = vec![];
        for i in 0..8usize {
            j.push((i, (i + 1) % 8, 1.0));
        }
        j.push((0, 4, 1.5));
        (vec![0.0; 8], j)
    }

    /// The `anneal_sweep` benchmark's shape: a Max-Cut Ising model on 48
    /// nodes and 169 random edges of weight in [0.5, 1.5].
    fn benchmark_shaped(seed: u64) -> Ising {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs: Vec<(usize, usize)> = (0..48)
            .flat_map(|u| (u + 1..48).map(move |v| (u, v)))
            .collect();
        let edges: Vec<(usize, usize, f64)> = (0..169)
            .map(|picked| {
                let other = rng.gen_range(picked..pairs.len());
                pairs.swap(picked, other);
                let (u, v) = pairs[picked];
                (u, v, rng.gen_range(0.5..=1.5))
            })
            .collect();
        (vec![0.0; 48], edges)
    }

    /// A random model whose every coefficient is an integer in [−12, 12] or
    /// a multiple of 1/4 in [−3, 3], so all sampler arithmetic is exact.
    fn arb_exact_ising() -> impl Strategy<Value = Ising> {
        (1usize..=12, any::<bool>()).prop_flat_map(|(n, dyadic)| {
            let scale = if dyadic { 0.25 } else { 1.0 };
            let coefficient = move || (-12i32..=12).prop_map(move |k| f64::from(k) * scale);
            let linear = proptest::collection::vec(coefficient(), n);
            let quadratic = proptest::collection::vec((0..n, 0..n, coefficient()), 0..(n * 3));
            (linear, quadratic).prop_map(|(h, q)| {
                let q: Vec<(usize, usize, f64)> =
                    q.into_iter().filter(|&(a, b, _)| a != b).collect();
                (h, q)
            })
        })
    }

    #[test]
    fn c4_annealing_finds_both_ground_states() {
        // The paper's Fig. 3 path: 1000 reads on the C4 Ising problem must
        // return the optimal cut assignments 1010 and 0101.
        let set = SimulatedAnnealer::new().sample(
            &model(&c4()),
            &AnnealParams::with_reads(1000)
                .with_sweeps(100)
                .with_seed(42),
        );
        assert_eq!(set.total_reads(), 1000);
        assert_eq!(set.lowest().unwrap().energy, -4.0);
        let ground: Vec<String> = set
            .ground_records(1e-9)
            .iter()
            .map(|r| r.bitstring())
            .collect();
        assert!(
            ground.contains(&"1010".to_string()),
            "ground states: {ground:?}"
        );
        assert!(
            ground.contains(&"0101".to_string()),
            "ground states: {ground:?}"
        );
        // Simulated annealing on this tiny frustration-free instance should
        // almost always reach the ground state.
        assert!(set.ground_state_probability(1e-9) > 0.9);
    }

    #[test]
    fn results_are_deterministic_per_seed() {
        let sampler = SimulatedAnnealer::new();
        let params = AnnealParams::with_reads(50).with_sweeps(50).with_seed(7);
        let a = sampler.sample(&model(&c4()), &params);
        let b = sampler.sample(&model(&c4()), &params);
        assert_eq!(a, b);
        let c = sampler.sample(&model(&c4()), &params.clone().with_seed(8));
        assert_ne!(a, c);
    }

    #[test]
    fn ferromagnet_aligns() {
        // J < 0 favours aligned spins; ground states all-up / all-down.
        let bqm = BinaryQuadraticModel::from_ising(
            &[0.0; 5],
            &[(0, 1, -1.0), (1, 2, -1.0), (2, 3, -1.0), (3, 4, -1.0)],
        );
        let set = SimulatedAnnealer::new().sample(
            &bqm,
            &AnnealParams::with_reads(200).with_sweeps(200).with_seed(3),
        );
        assert_eq!(set.lowest().unwrap().energy, -4.0);
        let ground: Vec<String> = set
            .ground_records(1e-9)
            .iter()
            .map(|r| r.bitstring())
            .collect();
        assert!(ground.contains(&"00000".to_string()) || ground.contains(&"11111".to_string()));
    }

    #[test]
    fn linear_field_breaks_symmetry() {
        // Strong positive h favours spin −1 (bit '1') on every variable.
        let bqm = BinaryQuadraticModel::from_ising(&[5.0, 5.0, 5.0], &[]);
        let set = SimulatedAnnealer::new().sample(
            &bqm,
            &AnnealParams::with_reads(100).with_sweeps(100).with_seed(1),
        );
        assert_eq!(set.lowest().unwrap().bitstring(), "111");
        assert_eq!(set.lowest().unwrap().energy, -15.0);
    }

    #[test]
    fn more_sweeps_do_not_hurt_solution_quality() {
        let (h, j) = defect_ring();
        let bqm = BinaryQuadraticModel::from_ising(&h, &j);
        let exact = ReferenceModel::from_ising(&h, &j).brute_force_ground_energy();
        let quick = SimulatedAnnealer::new().sample(
            &bqm,
            &AnnealParams::with_reads(50).with_sweeps(5).with_seed(11),
        );
        let thorough = SimulatedAnnealer::new().sample(
            &bqm,
            &AnnealParams::with_reads(50).with_sweeps(500).with_seed(11),
        );
        assert!(thorough.mean_energy() <= quick.mean_energy() + 1e-9);
        assert!((thorough.lowest().unwrap().energy - exact).abs() < 1e-9);
    }

    #[test]
    fn explicit_beta_range_is_respected() {
        let set = SimulatedAnnealer::new().sample(
            &model(&c4()),
            &AnnealParams::with_reads(20)
                .with_sweeps(20)
                .with_seed(2)
                .with_beta_range(0.01, 20.0),
        );
        assert_eq!(set.total_reads(), 20);
    }

    #[test]
    #[should_panic(expected = "num_reads")]
    fn zero_reads_panics() {
        SimulatedAnnealer::new().sample(
            &model(&c4()),
            &AnnealParams {
                num_reads: 0,
                ..AnnealParams::default()
            },
        );
    }

    #[test]
    fn sampler_equals_the_reference_on_c4_and_the_defect_ring() {
        for seed in [0, 2, 42] {
            for sweeps in [1, 5, 100] {
                let params = AnnealParams::with_reads(64)
                    .with_sweeps(sweeps)
                    .with_seed(seed);
                assert_matches_reference(&c4(), &params);
                assert_matches_reference(&defect_ring(), &params);
                assert_matches_reference(&c4(), &params.with_beta_range(0.01, 20.0));
            }
        }
        let params = AnnealParams::with_reads(50).with_sweeps(500).with_seed(11);
        assert_matches_reference(&defect_ring(), &params);
    }

    #[test]
    fn sampler_equals_the_reference_on_benchmark_shaped_float_instances() {
        for seed in [20250927, 7919] {
            let params = AnnealParams::with_reads(200)
                .with_sweeps(200)
                .with_seed(seed);
            assert_matches_reference(&benchmark_shaped(seed), &params);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// With exact arithmetic the cached ΔE is the recomputed field's
        /// ΔE, so every read takes the reference's path: `==`, not close.
        #[test]
        fn sampler_equals_the_reference_on_exact_weight_instances(
            ising in arb_exact_ising(),
            reads in 1u64..24,
            sweeps in 1usize..80,
            seed in any::<u64>(),
            explicit in any::<bool>(),
        ) {
            let mut params = AnnealParams::with_reads(reads).with_sweeps(sweeps).with_seed(seed);
            if explicit {
                params = params.with_beta_range(0.05, 12.0);
            }
            prop_assert_eq!(
                SimulatedAnnealer::new().sample(&model(&ising), &params),
                reference_sample(&ising, &params)
            );
        }

        /// The bracket decides like `u < exp(−y)` across the whole range of
        /// y the schedule produces, tiny to overflowing.
        #[test]
        fn bracket_agrees_with_exp_on_random_draws(
            u in 0.0f64..1.0,
            exponent in -330.0f64..310.0,
            mantissa in 1.0f64..10.0,
        ) {
            let y = mantissa * 10f64.powf(exponent);
            prop_assert!(metropolis_accepts(u, y) == (u < (-y).exp()), "u {u:e} y {y:e}");
        }
    }

    #[test]
    fn bracket_agrees_with_exp_on_hostile_values() {
        let below_one = 1.0 - f64::EPSILON / 2.0;
        let mut draws = vec![0.0, f64::MIN_POSITIVE, 1e-300, 2f64.powi(-53), 0.5];
        draws.extend([1.0 - 1e-9, below_one]);
        let deltas = [
            f64::from_bits(1), // the smallest subnormal
            f64::MIN_POSITIVE,
            1e-12,
            0.25,
            1.0,
            1.5957,
            36.0,
            745.2,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        // A `beta_range` of (1, ∞): β = 1 at the first sweep, ∞ after it.
        let mut betas = Schedule::geometric(1.0, f64::INFINITY, 4).betas();
        assert_eq!(betas[0], 1.0);
        assert_eq!(betas[1], f64::INFINITY);
        betas.extend([1e-300, 0.3, 1e300]);
        for &beta in &betas {
            for &delta in &deltas {
                let threshold = (-beta * delta).exp();
                // The draws at and one ulp around the threshold, where only
                // `exp` can decide.
                let mut us = draws.clone();
                if threshold > 0.0 && threshold < 1.0 {
                    let bits = threshold.to_bits();
                    us.extend([
                        f64::from_bits(bits - 1),
                        threshold,
                        f64::from_bits(bits + 1),
                    ]);
                }
                for &u in &us {
                    assert_eq!(
                        metropolis_accepts(u, beta * delta),
                        u < threshold,
                        "u {u:e} beta {beta:e} delta {delta:e}"
                    );
                }
            }
        }
    }
}
