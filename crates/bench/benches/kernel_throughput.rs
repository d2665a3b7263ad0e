//! Statevector kernel throughput: time per amplitude, gate by gate.
//!
//! Each benchmark applies one gate to an `n`-qubit state `2²⁰ / 2ⁿ` times,
//! so every printed figure is the time for **2²⁰ amplitudes of state swept**:
//! 1.05 ms ≙ 1 ns per amplitude, whatever `n` is. The gates are the
//! transpiled basis (`rz`, `sx`, `cx` in both orientations) plus the native
//! two-qubit kernels (`swap`, `cp`, `rzz`), placed at qubit 0, n/2 and n−1
//! — stride 1, a mid stride and the top qubit, where a strided kernel is
//! most likely to fall off a cliff — for n ∈ {8, 12, 16}: L1-resident,
//! L2-resident, and above `PARALLEL_THRESHOLD`.
//!
//! A kernel that touches only part of the state (`cx` half, `cp` a quarter)
//! is still charged for all 2ⁿ amplitudes: the figure is what one gate costs
//! a job, and it is comparable with `sim.ns_per_amp_update` of the benchmark's
//! layer walk.
//!
//! Run with: `cargo bench -p qml-bench --bench kernel_throughput`

use criterion::{criterion_group, criterion_main, Criterion};

use qml_core::sim::{Gate, StateVector};

const AMPLITUDES_PER_ITER: usize = 1 << 20;

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

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_throughput");
    group.sample_size(20);
    for n in [8usize, 12, 16] {
        // A dense state: every amplitude non-zero, so no kernel profits from
        // multiplying zeros.
        let mut sv = StateVector::zero_state(n);
        for q in 0..n {
            sv.apply(&Gate::Ry(q, (0.3 + 0.1 * q as f64).into()));
        }
        let reps = AMPLITUDES_PER_ITER >> n;
        for q in [0, n / 2, n - 1] {
            for (name, gate) in gates_at(q, n) {
                group.bench_function(format!("{n}q/{name}@{q}"), |b| {
                    b.iter(|| {
                        for _ in 0..reps {
                            sv.apply(&gate);
                        }
                    });
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
