//! The state-vector simulator: the repository's stand-in for IBM Qiskit Aer.
//!
//! The paper's gate path executes circuits on the Aer state-vector simulator
//! with a shot count and seed (Listing 4: `samples = 4096`, `seed = 42`).
//! [`Simulator`] reproduces exactly that contract: exact amplitudes, then
//! multinomial shot sampling with a reproducible seed, returned as
//! [`Counts`] over the measured words.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::circuit::{Circuit, CircuitView};
use crate::counts::Counts;
use crate::state::{DegenerateStateError, StateVector, PARALLEL_THRESHOLD};

/// Reusable per-worker simulation buffers: the 2ⁿ amplitude vector plus the
/// sampling CDF, draw and run scratch. A worker draining a 16-member device
/// micro-batch through [`Simulator::run_view_with_scratch`] grows these once
/// and reuses them for every member.
#[derive(Debug, Default)]
pub struct SimScratch {
    amps: Vec<crate::complex::Complex64>,
    cdf: Vec<f64>,
    draws: Vec<f64>,
    runs: Vec<(u64, u64)>,
}

impl SimScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

/// Run `f` with this worker thread's shared [`SimScratch`]. The gate backend
/// calls this once per batch member, so the members a worker executes reuse
/// one amplitude buffer — up to [`PARALLEL_THRESHOLD`] amplitudes. A larger
/// buffer (1 MB at 16 qubits, 256 MB at 24, plus half that of CDF) is
/// released on the way out instead of staying pinned to a long-lived worker
/// thread as a high-water mark: at that size the allocation is noise next to
/// the simulation it serves.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut SimScratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| {
        let mut scratch = s.borrow_mut();
        let out = f(&mut scratch);
        if scratch.amps.capacity() > PARALLEL_THRESHOLD {
            scratch.amps = Vec::new();
            scratch.cdf = Vec::new();
            scratch.draws = Vec::new();
            scratch.runs = Vec::new();
        }
        out
    })
}

/// Shot-sampled execution result.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// Observed bitstrings (character `j` = classical bit `j`) with counts.
    pub counts: Counts,
    /// Number of shots drawn.
    pub shots: u64,
    /// Seed used for sampling.
    pub seed: u64,
}

/// An ideal (noise-free) state-vector simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct Simulator;

impl Simulator {
    /// Create a simulator.
    pub fn new() -> Self {
        Simulator
    }

    /// Evolve |0...0⟩ through the circuit and return the final state vector
    /// (measurements are ignored — this is the exact, pre-measurement state).
    pub(crate) fn statevector(&self, circuit: &Circuit) -> StateVector {
        self.statevector_view(circuit)
    }

    /// Evolve |0...0⟩ through any [`CircuitView`] — a plain [`Circuit`] or a
    /// zero-copy [`crate::overlay::BoundCircuit`] — without materializing an
    /// owned circuit.
    pub fn statevector_view<C: CircuitView + ?Sized>(&self, view: &C) -> StateVector {
        let mut sv = StateVector::zero_state(view.width());
        sv.apply_view(view);
        sv
    }

    /// Run the circuit for `shots` samples of its measured qubits.
    ///
    /// # Panics
    /// Panics if the circuit declares no measurements — implicit "measure
    /// everything" defaults are exactly what the middle layer forbids — or if
    /// the final state is degenerate (all-zero / non-finite amplitudes);
    /// callers that must not panic use [`Simulator::try_run_view`].
    pub fn run(&self, circuit: &Circuit, shots: u64, seed: u64) -> SimulationResult {
        self.try_run_view(circuit, shots, seed)
            .expect("cannot sample a degenerate state")
    }

    /// [`Simulator::run`] generalized over [`CircuitView`], with the
    /// degenerate-state case surfaced as an error instead of a panic.
    /// Allocates fresh scratch; the batch hot path uses
    /// [`Simulator::run_view_with_scratch`].
    pub fn try_run_view<C: CircuitView + ?Sized>(
        &self,
        view: &C,
        shots: u64,
        seed: u64,
    ) -> Result<SimulationResult, DegenerateStateError> {
        let mut scratch = SimScratch::new();
        self.run_view_with_scratch(view, shots, seed, &mut scratch)
    }

    /// The job path: evolve the view's state into the scratch amplitude
    /// buffer (reused across calls — one allocation per worker per width,
    /// not one per job) and vector-sample its measured qubits through the
    /// scratch CDF, draw and run buffers with [`StateVector::sample_with`].
    /// A warm call allocates only the returned [`Counts`]' two blocks.
    ///
    /// # Panics
    /// Panics if the view declares no measurements.
    pub fn run_view_with_scratch<C: CircuitView + ?Sized>(
        &self,
        view: &C,
        shots: u64,
        seed: u64,
        scratch: &mut SimScratch,
    ) -> Result<SimulationResult, DegenerateStateError> {
        assert!(
            !view.measurement_map().is_empty(),
            "circuit has no measurements; the middle layer forbids implicit measurement"
        );
        let mut sv = StateVector::zero_state_in(view.width(), std::mem::take(&mut scratch.amps));
        sv.apply_view(view);
        let mut rng = StdRng::seed_from_u64(seed);
        let counts = sv.sample_with(
            view.measurement_map(),
            shots,
            &mut rng,
            &mut scratch.cdf,
            &mut scratch.draws,
            &mut scratch.runs,
        );
        // Hand the amplitude buffer back before propagating any sampling
        // error, so the pool survives degenerate jobs too.
        scratch.amps = sv.into_amps();
        Ok(SimulationResult {
            counts: counts?,
            shots,
            seed,
        })
    }

    /// Exact outcome distribution of the measured qubits (no sampling noise).
    pub fn exact_distribution(&self, circuit: &Circuit) -> BTreeMap<String, f64> {
        assert!(
            circuit.num_clbits() > 0,
            "circuit has no measurements; the middle layer forbids implicit measurement"
        );
        let sv = self.statevector(circuit);
        sv.marginal_probabilities(circuit.measured())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::qft_circuit;
    use crate::gate::Gate;

    #[test]
    fn bell_counts_only_00_and_11() {
        let mut qc = Circuit::new(2);
        qc.extend(&[Gate::H(0), Gate::Cx(0, 1)]);
        qc.measure_all();
        let result = Simulator::new().run(&qc, 4096, 42);
        assert_eq!(result.shots, 4096);
        assert_eq!(result.counts.len(), 2);
        assert!(result.counts.contains_key("00"));
        assert!(result.counts.contains_key("11"));
        assert!((result.counts.get("00").copied().unwrap_or(0) as f64 / 4096.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut qc = Circuit::new(3);
        qc.extend(&[Gate::H(0), Gate::H(1), Gate::H(2)]);
        qc.measure_all();
        let sim = Simulator::new();
        assert_eq!(sim.run(&qc, 1000, 7).counts, sim.run(&qc, 1000, 7).counts);
        assert_ne!(sim.run(&qc, 1000, 7).counts, sim.run(&qc, 1000, 8).counts);
    }

    #[test]
    #[should_panic(expected = "no measurements")]
    fn unmeasured_circuit_panics() {
        let mut qc = Circuit::new(1);
        qc.push(Gate::H(0));
        Simulator::new().run(&qc, 10, 0);
    }

    #[test]
    fn exact_distribution_matches_theory() {
        let mut qc = Circuit::new(1);
        qc.push(Gate::Ry(0, (2.0 * (0.3f64).asin()).into())); // P(1) = 0.09
        qc.measure_all();
        let dist = Simulator::new().exact_distribution(&qc);
        assert!((dist["1"] - 0.09).abs() < 1e-9);
        assert!((dist["0"] - 0.91).abs() < 1e-9);
    }

    #[test]
    fn listing1_qft_on_zero_state_is_uniform() {
        // The motivational example: 10-qubit QFT measured with 10 000 shots.
        // On |0...0⟩ the QFT produces the uniform distribution.
        let n = 10;
        let mut qc = qft_circuit(n, 0, true, false);
        qc.measure_all();
        let result = Simulator::new().run(&qc, 10_000, 1234);
        // Every outcome probability should be close to 1/1024 ≈ 0.001; check
        // that no outcome is wildly over-represented.
        let max = result.counts.values().max().copied().unwrap_or(0) as f64 / 10_000.0;
        assert!(max < 0.01, "max outcome probability {max}");
        assert_eq!(result.counts.values().sum::<u64>(), 10_000);
    }

    #[test]
    fn partial_measurement_word_length() {
        let mut qc = Circuit::new(4);
        qc.extend(&[Gate::X(2)]);
        qc.measure(&[2, 0]);
        let result = Simulator::new().run(&qc, 10, 3);
        assert_eq!(result.counts.get("10"), Some(&10));
    }

    #[test]
    fn scratch_pool_allocates_once_per_batch() {
        let mut qc = Circuit::new(4);
        qc.extend(&[Gate::H(0), Gate::Cx(0, 1), Gate::Cx(1, 2), Gate::Cx(2, 3)]);
        qc.measure_all();
        let sim = Simulator::new();
        let mut scratch = SimScratch::new();
        let baseline = sim.run(&qc, 256, 5);
        let mut buffer = None;
        for seed in 0..16u64 {
            let got = sim
                .run_view_with_scratch(&qc, 256, seed, &mut scratch)
                .unwrap();
            if seed == 5 {
                assert_eq!(got, baseline, "scratch path must match the plain path");
            }
            let amps = (scratch.amps.as_ptr(), scratch.amps.capacity());
            assert_eq!(
                *buffer.get_or_insert(amps),
                amps,
                "a batch of same-width circuits reuses one amplitude buffer"
            );
        }
    }

    #[test]
    fn thread_scratch_keeps_small_buffers_and_releases_large_ones() {
        let ghz = |n: usize| {
            let mut qc = Circuit::new(n);
            qc.push(Gate::H(0));
            qc.extend(&(1..n).map(|q| Gate::Cx(q - 1, q)).collect::<Vec<_>>());
            qc.measure_all();
            qc
        };
        let sim = Simulator::new();
        let run = |qc: &Circuit, seed| {
            with_thread_scratch(|scratch| sim.run_view_with_scratch(qc, 64, seed, scratch)).unwrap()
        };

        // A batch of 12-qubit members: one amplitude buffer, retained.
        let small = ghz(12);
        let mut buffer = None;
        for seed in 0..8 {
            assert_eq!(run(&small, seed), sim.run(&small, 64, seed));
            let amps = with_thread_scratch(|s| (s.amps.as_ptr(), s.amps.capacity()));
            assert_eq!(*buffer.get_or_insert(amps), amps);
        }
        with_thread_scratch(|scratch| {
            assert!(scratch.amps.capacity() >= 1 << 12);
            assert!(scratch.cdf.capacity() >= 1 << 12);
        });

        // 15 qubits is above PARALLEL_THRESHOLD: nothing stays behind.
        let big = ghz(15);
        const { assert!(1usize << 15 > PARALLEL_THRESHOLD) };
        assert_eq!(run(&big, 3), sim.run(&big, 64, 3));
        with_thread_scratch(|scratch| {
            assert_eq!(scratch.amps.capacity(), 0);
            assert_eq!(scratch.cdf.capacity(), 0);
            assert_eq!(scratch.draws.capacity(), 0);
        });
    }

    #[test]
    fn overlay_view_matches_clone_bound_execution() {
        use crate::overlay::BoundCircuit;
        use crate::param::ParamExpr;
        use std::sync::Arc;

        let mut qc = Circuit::new(3);
        qc.extend(&[
            Gate::H(0),
            Gate::Rzz(0, 1, ParamExpr::symbol(0).scale(2.0)),
            Gate::Rx(2, ParamExpr::symbol(1)),
        ]);
        qc.measure_all();
        let base = Arc::new(qc);
        let sites = base.symbolic_gate_indices();
        let values = [0.7, -1.3];

        let cloned = base.bind_sites(&sites, &values);
        let overlay = BoundCircuit::bind_sites(Arc::clone(&base), &sites, &values);

        let sim = Simulator::new();
        let via_clone = sim.run(&cloned, 2048, 42);
        let via_overlay = sim.try_run_view(&overlay, 2048, 42).unwrap();
        assert_eq!(via_clone, via_overlay);
    }

    #[test]
    fn statevector_access_without_measurement() {
        let mut qc = Circuit::new(2);
        qc.push(Gate::H(0));
        let sv = Simulator::new().statevector(&qc);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
    }
}
