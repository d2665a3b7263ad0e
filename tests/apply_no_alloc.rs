//! Acceptance test: **the statevector apply path allocates nothing** below
//! `PARALLEL_THRESHOLD`, and above it **only what starting threads costs, once
//! per run of gates** — not once per gate.
//!
//! The counting `#[global_allocator]` of `tests/counting_alloc` counts every
//! `alloc`/`alloc_zeroed`/`realloc` made while a measurement is open. This
//! file holds exactly one test, so it runs alone in its own process (as
//! `tests/bind_no_clone.rs` does) and no concurrent test can disturb the
//! count. The circuit is the `sweep_warm` benchmark plan: the symbolic
//! two-layer ring QAOA on 8 qubits, transpiled to `{sx, rz, cx}` on a line at
//! level 3 — 222 gates, permutations, diagonals and dense 2×2 kernels at
//! every stride from 1 to 128. The wide half uses 16 qubits: hand-built
//! circuits whose runs are known, and the `state_parallel` benchmark plan.

mod counting_alloc;

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qml_core::backends::{lower_to_circuit, GatePlan};
use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::sim::{
    BoundCircuit, Circuit, CircuitView, Complex64, Gate, SimScratch, Simulator, StateVector,
    PARALLEL_THRESHOLD,
};
use qml_core::transpile::{transpile, CouplingMap, TranspileTarget};

use counting_alloc::allocations;

const QUBITS: usize = 8;
const WIDE_QUBITS: usize = 16;

/// The benchmark's `sweep_warm` (8 qubits) and `state_parallel` (16) plan,
/// built the way the gate backend does.
fn ring_qaoa_plan(qubits: usize) -> GatePlan {
    let program =
        qaoa_maxcut_program(&cycle(qubits), &QaoaSchedule::Symbolic { layers: 2 }).unwrap();
    let lowered = lower_to_circuit(&program).unwrap();
    let target = TranspileTarget::hardware(CouplingMap::linear(qubits));
    let transpiled = transpile(&lowered.circuit, &target, 3).unwrap();
    GatePlan::new(
        transpiled.circuit,
        lowered.symbols,
        transpiled.metrics,
        lowered.register,
        lowered.schema,
    )
}

/// `zero_state_in` on a reused buffer plus `apply_view`, counted.
fn apply_counted<C: CircuitView + ?Sized>(view: &C, buf: Vec<Complex64>) -> (StateVector, u64) {
    allocations(|| {
        let mut state = StateVector::zero_state_in(view.width(), buf);
        state.apply_view(view);
        state
    })
}

/// Above `PARALLEL_THRESHOLD` one `apply_view` allocates what its parallel
/// regions cost — a region is one run of gates that stay below the top
/// qubits — however many gates the runs hold.
fn wide_apply_allocates_per_run_not_per_gate() {
    const { assert!(1usize << WIDE_QUBITS >= PARALLEL_THRESHOLD) };
    let top = WIDE_QUBITS - 1;
    // Gates on the low 11 qubits fit a sixteenth of the state: they share a
    // run on any machine. `copies` of each, so the gate count scales and the
    // number of runs does not.
    let low_gates = |copies: usize| -> Vec<Gate> {
        (0..10)
            .flat_map(|q| [Gate::Sx(q), Gate::Rz(q, 0.3.into()), Gate::Cx(q, q + 1)])
            .flat_map(|gate| std::iter::repeat_n(gate, copies))
            .collect()
    };
    // Three runs, cut by two gates on the top qubit.
    let three_runs = |copies: usize| {
        let mut qc = Circuit::new(WIDE_QUBITS);
        for cut in [Some(Gate::Sx(top)), Some(Gate::Cx(0, top)), None] {
            qc.extend(&low_gates(copies));
            qc.extend(cut.as_slice());
        }
        qc
    };
    let mut one_gate = Circuit::new(WIDE_QUBITS);
    one_gate.push(Gate::Sx(0));

    let mut buf = StateVector::zero_state(WIDE_QUBITS).into_amps();
    let mut count = |view: &dyn CircuitView| {
        let (state, n) = apply_counted(view, std::mem::take(&mut buf));
        buf = state.into_amps();
        n
    };
    // The first region also pays for whatever the process sets up once.
    count(&one_gate);
    let region = count(&one_gate);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    assert!(
        region <= 2 + 8 * threads,
        "one parallel region allocated {region} times on {threads} threads"
    );

    let single = count(&three_runs(1));
    let doubled = count(&three_runs(2));
    assert!(
        single <= 3 * region,
        "three runs allocated {single} times, one region {region}"
    );
    assert_eq!(
        doubled, single,
        "twice the gates in the same runs must allocate the same"
    );

    // The `state_parallel` plan: 462 gates, at most 12 regions.
    let plan = ring_qaoa_plan(WIDE_QUBITS);
    assert_eq!(
        plan.circuit.len(),
        462,
        "the state_parallel plan changed shape"
    );
    let overlay = plan.bind_overlay(&[0.4, 1.1, 0.9, 0.6]).unwrap();
    let whole_plan = count(&overlay);
    assert!(
        whole_plan <= 12 * region,
        "the 462-gate plan allocated {whole_plan} times, one region {region}"
    );

    // And the runs compute what gate-by-gate application does.
    let mut by_gate = StateVector::zero_state(WIDE_QUBITS);
    overlay.for_each_gate(&mut |gate| by_gate.apply(gate));
    assert!(
        buf == by_gate.amplitudes(),
        "runs differ from per-gate apply"
    );
}

#[test]
fn apply_allocates_nothing() {
    let plan = ring_qaoa_plan(QUBITS);
    assert_eq!(plan.circuit.len(), 222, "the sweep_warm plan changed shape");
    let values = [0.4, 1.1, 0.7, 0.3];

    // An overlay over the shared symbolic plan, and the same gates as an
    // owned concrete circuit: both walks of `apply_view`.
    let overlay: BoundCircuit = plan.bind_overlay(&values).unwrap();
    assert!(!overlay.overrides().is_empty());
    let circuit: Circuit = overlay.to_circuit();

    let buf = StateVector::zero_state(QUBITS).into_amps();
    let (state, n) = apply_counted(&circuit, buf);
    assert_eq!(n, 0, "apply_view over a Circuit allocated {n} times");
    let from_circuit = state.amplitudes().to_vec();

    let (state, n) = apply_counted(&overlay, state.into_amps());
    assert_eq!(n, 0, "apply_view over a BoundCircuit allocated {n} times");
    assert_eq!(state.amplitudes(), from_circuit.as_slice());

    // `run_view_with_scratch` on a warmed scratch: sampling builds the
    // result (a map of rendered words), so its allocations are counted on
    // their own — same state, same seed, warmed buffers — and the whole run
    // must make exactly that many: the apply phase adds none.
    let concrete = BoundCircuit::concrete(Arc::new(circuit));
    let (shots, seed) = (256, 11);
    let sim = Simulator::new();
    let mut scratch = SimScratch::new();
    let warm = sim
        .run_view_with_scratch(&concrete, shots, seed, &mut scratch)
        .unwrap();

    let (mut cdf, mut draws) = (Vec::new(), Vec::new());
    let sample = |cdf: &mut Vec<f64>, draws: &mut Vec<f64>| {
        let mut rng = StdRng::seed_from_u64(seed);
        state
            .sample_counts_with(concrete.measurement_map(), shots, &mut rng, cdf, draws)
            .unwrap()
    };
    sample(&mut cdf, &mut draws);
    let (counts, sampling) = allocations(|| sample(&mut cdf, &mut draws));
    assert_eq!(counts, warm.counts);

    let (again, whole_run) = allocations(|| {
        sim.run_view_with_scratch(&concrete, shots, seed, &mut scratch)
            .unwrap()
    });
    assert_eq!(again, warm);
    assert_eq!(scratch.amp_allocations(), 1);
    assert_eq!(
        whole_run, sampling,
        "run_view_with_scratch allocated {whole_run} times, sampling alone {sampling}"
    );

    // Same process, same counter: still the file's only test.
    wide_apply_allocates_per_run_not_per_gate();
}
