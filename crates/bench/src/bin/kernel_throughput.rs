//! Statevector kernel throughput: time per amplitude, gate by gate and plan
//! by plan.
//!
//! The first table applies one gate to a dense `n`-qubit state `2²⁰ / 2ⁿ`
//! times per pass, so every figure is nanoseconds per amplitude of state
//! swept, whatever `n` is. The gates are the transpiled basis (`rz`, `sx`,
//! `cx` in both orientations) plus the native two-qubit kernels (`swap`,
//! `cp`, `rzz`), placed at qubit 0, n/2 and n−1 — stride 1, a mid stride and
//! the top qubit, where a strided kernel is most likely to fall off a cliff
//! — for n ∈ {8, 12, 16}: L1-resident, L2-resident, and above
//! `PARALLEL_THRESHOLD`.
//!
//! A kernel that touches only part of the state (`cx` half, `cp` a quarter)
//! is still charged for all 2ⁿ amplitudes: the figure is what one gate costs
//! a job, and it is comparable with `sim.ns_per_amp_update` of the
//! benchmark's layer walk.
//!
//! Single gates are not how a circuit runs: below `PARALLEL_THRESHOLD`
//! `apply_view` fuses the gates into fewer kernel passes, above it it starts
//! threads once per run of gates. The second table pushes a whole plan — the
//! benchmark's two-layer ring QAOA, transpiled to `{sx, rz, cx}` on a line —
//! through `apply_view` at 8, 12, 14 and 16 qubits and prints nanoseconds
//! per amplitude update (gates × 2ⁿ per pass), the unit of
//! `sim.ns_per_amp_update`; below the threshold it also prints how many
//! kernel passes the fused program makes of the plan's gates.
//!
//! Both tables report the median and the best of ten samples.
//!
//! Run with: `cargo run --release -p qml-bench --bin kernel_throughput`

use std::hint::black_box;
use std::time::Instant;

use qml_core::backends::lower_to_circuit;
use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::sim::{fused_op_count, Circuit, Gate, StateVector, PARALLEL_THRESHOLD};
use qml_core::transpile::{transpile, CouplingMap, TranspileTarget};

/// Amplitudes one pass of the gate table sweeps.
const AMPLITUDES_PER_PASS: usize = 1 << 20;
/// Samples per row; a row reports their median and best.
const SAMPLES: usize = 10;

/// Median and best of [`SAMPLES`] timings of `passes` calls of `pass`, in
/// nanoseconds per unit, where one call does `units` units of work.
///
/// The median, not the mean: on a shared machine a sample that lost its
/// core for a few milliseconds would otherwise set the figure.
fn ns_per_unit(passes: usize, units: usize, mut pass: impl FnMut()) -> (f64, f64) {
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..passes {
                pass();
            }
            start.elapsed().as_nanos() as f64 / (passes * units) as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    (ns[SAMPLES / 2], ns[0])
}

/// The gates measured at "position" `q`: one-qubit gates sit on `q`,
/// two-qubit gates pair `q` with its neighbour (below it at the top qubit).
fn gates_at(q: usize, n: usize) -> Vec<(&'static str, Gate)> {
    let other = if q + 1 < n { q + 1 } else { q - 1 };
    let (low, high) = (q.min(other), q.max(other));
    vec![
        ("rz", Gate::Rz(q, 0.37.into())),
        ("sx", Gate::Sx(q)),
        ("cx_control_high", Gate::Cx(high, low)),
        ("cx_control_low", Gate::Cx(low, high)),
        ("swap", Gate::Swap(low, high)),
        ("cp", Gate::Cp(low, high, 0.81.into())),
        ("rzz", Gate::Rzz(low, high, 1.3.into())),
    ]
}

/// One gate at a time, about 2²⁴ amplitudes per sample.
fn gate_table() {
    for n in [8usize, 12, 16] {
        // A dense state: every amplitude non-zero, so no kernel profits from
        // multiplying zeros.
        let mut sv = StateVector::zero_state(n);
        for q in 0..n {
            sv.apply(&Gate::Ry(q, (0.3 + 0.1 * q as f64).into()));
        }
        let reps = AMPLITUDES_PER_PASS >> n;
        for q in [0, n / 2, n - 1] {
            for (name, gate) in gates_at(q, n) {
                let (median, best) = ns_per_unit(16, AMPLITUDES_PER_PASS, || {
                    for _ in 0..reps {
                        black_box(&mut sv).apply(&gate);
                    }
                });
                println!(
                    "kernel_throughput/{n}q/{name}@{q}: {median:.3} ns per amplitude, best {best:.3}"
                );
            }
        }
    }
}

/// The `state_serial` / `state_parallel` plan at `n` qubits.
fn ring_qaoa_plan(n: usize) -> Circuit {
    let angles = [(0.4, 1.1), (0.9, 0.6)].map(|(gamma, beta)| QaoaAngles { gamma, beta });
    let program = qaoa_maxcut_program(&cycle(n), &QaoaSchedule::Fixed(angles.to_vec())).unwrap();
    let lowered = lower_to_circuit(&program).unwrap();
    let target = TranspileTarget::hardware(CouplingMap::linear(n));
    transpile(&lowered.circuit, &target, 3).unwrap().circuit
}

/// Whole plans through `apply_view`, about 2²⁸ amplitude updates per sample.
fn plan_table() {
    for n in [8usize, 12, 14, 16] {
        let plan = ring_qaoa_plan(n);
        let updates = plan.len() << n;
        let passes = ((1usize << 28) / updates).max(1);
        let mut buf = Vec::new();
        let (median, best) = ns_per_unit(passes, updates, || {
            let mut sv = StateVector::zero_state_in(n, std::mem::take(&mut buf));
            sv.apply_view(&plan);
            buf = black_box(sv).into_amps();
        });
        let fused = if 1usize << n < PARALLEL_THRESHOLD {
            format!(", fused to {} kernel passes", fused_op_count(&plan))
        } else {
            String::new()
        };
        println!(
            "kernel_throughput/{n}q/ring_qaoa_plan ({} gates{fused}): {median:.3} ns per \
             amplitude update, best {best:.3} ({passes} passes per sample)",
            plan.len()
        );
    }
}

fn main() {
    gate_table();
    plan_table();
}
