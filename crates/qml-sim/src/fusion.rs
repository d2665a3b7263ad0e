//! Gate fusion for the serial statevector path: a gate stream in, a short
//! kernel program out.
//!
//! Below [`crate::state::PARALLEL_THRESHOLD`] a job's time is the number of
//! passes over the state, one per gate. [`Fusion`] takes the gates in order
//! and emits fewer [`Op`]s, each one pass of an existing kernel, by three
//! rules:
//!
//! 1. Consecutive one-qubit gates on one qubit multiply into one 2×2,
//!    deferred until a two-qubit gate touches the qubit or the stream ends.
//!    The product changes rounding (~1e-16 per amplitude).
//! 2. `cx(a, b)·D(b)·cx(a, b)` with `D = diag(d0, d1)` is the two-qubit
//!    diagonal with `d0` where the bits of `a` and `b` agree and `d1` where
//!    they differ: one pass of four phases over the quarters, each amplitude
//!    multiplied by the same factor the three passes would give it.
//! 3. `cx(a, b)·cx(b, a)·cx(a, b)` is `swap(a, b)`: the same moves.
//!
//! Rules 2 and 3 are bit-identical to the gates they replace. The stage
//! allocates nothing: the pending 2×2s sit in a [`MAX_QUBITS`] array on the
//! stack, and the rules need a lookback of the last two ops only, so an op
//! leaves for its kernel as soon as a third is emitted behind it. It runs per
//! execution on the bound gates, so plans and the plan cache are untouched.

use crate::circuit::CircuitView;
use crate::complex::Complex64;
use crate::gate::{matmul2, Gate};
use crate::state::MAX_QUBITS;

/// One step of a fused program, run by one kernel pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// A two-qubit gate as it came, or a `swap` fused from three `cx`.
    Gate(Gate),
    /// The product of consecutive one-qubit gates on a qubit, row-major.
    Matrix(usize, [Complex64; 4]),
    /// `even` where the two qubits' bits agree, `odd` where they differ.
    Parity(usize, usize, Complex64, Complex64),
}

/// The fusion stage: feed gates with [`Fusion::push`], end with
/// [`Fusion::finish`]; `run` receives the ops in program order.
pub(crate) struct Fusion<F: FnMut(&Op)> {
    /// The deferred product of each qubit's one-qubit gates since a
    /// two-qubit gate last touched it.
    pending: [Option<[Complex64; 4]>; MAX_QUBITS],
    /// The last ops emitted, oldest first, not yet handed to `run`:
    /// `tail[..len]`.
    tail: [Op; 2],
    len: usize,
    run: F,
}

impl<F: FnMut(&Op)> Fusion<F> {
    pub(crate) fn new(run: F) -> Self {
        Fusion {
            pending: [None; MAX_QUBITS],
            tail: [Op::Gate(Gate::X(0)); 2],
            len: 0,
            run,
        }
    }

    /// Take the next gate of the stream (its qubits below [`MAX_QUBITS`]).
    pub(crate) fn push(&mut self, gate: &Gate) {
        match gate.single_qubit_matrix() {
            Some(m) => {
                let pending = &mut self.pending[gate.qubits()[0]];
                *pending = Some(match pending {
                    // `m` acts after what is pending.
                    Some(p) => matmul2(&m, p),
                    None => m,
                });
            }
            None => self.two_qubit(gate),
        }
    }

    fn two_qubit(&mut self, gate: &Gate) {
        if let Gate::Cx(c, t) = *gate {
            if self.pending[c].is_none() {
                let tail = &self.tail[..self.len];
                match (tail, self.pending[t]) {
                    // Rule 3: nothing happened to either qubit since the two
                    // `cx` before this one.
                    ([.., Op::Gate(Gate::Cx(c1, t1)), Op::Gate(Gate::Cx(c2, t2))], None)
                        if (*c1, *t1, *c2, *t2) == (c, t, t, c) =>
                    {
                        self.len -= 2;
                        self.emit(Op::Gate(Gate::Swap(c, t)));
                        return;
                    }
                    // Rule 2: only a diagonal reached the target since the
                    // `cx` before this one, which flushed it.
                    ([.., Op::Gate(Gate::Cx(c1, t1))], Some(d))
                        if (*c1, *t1) == (c, t) && is_diagonal(&d) =>
                    {
                        self.len -= 1;
                        self.pending[t] = None;
                        self.emit(Op::Parity(c, t, d[0], d[3]));
                        return;
                    }
                    _ => {}
                }
            }
        }
        for q in gate.qubits() {
            self.flush(q);
        }
        self.emit(Op::Gate(*gate));
    }

    /// Emit qubit `q`'s pending product, if it has one.
    fn flush(&mut self, q: usize) {
        if let Some(m) = self.pending[q].take() {
            self.emit(Op::Matrix(q, m));
        }
    }

    /// Append `op` to the program; the oldest op of a full lookback runs.
    fn emit(&mut self, op: Op) {
        if self.len == self.tail.len() {
            (self.run)(&self.tail[0]);
            self.tail[0] = self.tail[1];
            self.len -= 1;
        }
        self.tail[self.len] = op;
        self.len += 1;
    }

    /// End of the stream: emit every pending product, then run the rest.
    pub(crate) fn finish(mut self) {
        for q in 0..MAX_QUBITS {
            self.flush(q);
        }
        for op in &self.tail[..self.len] {
            (self.run)(op);
        }
    }
}

/// Whether a 2×2's off-diagonal entries are exactly zero.
pub(crate) fn is_diagonal(m: &[Complex64; 4]) -> bool {
    m[1] == Complex64::ZERO && m[2] == Complex64::ZERO
}

/// The number of kernel passes the serial path runs for `view`'s gates: the
/// length of its fused program. The counter behind the serial path's timing
/// (the `kernel_throughput` plan rows print it).
///
/// # Panics
/// Panics if a gate acts on a qubit at or above [`MAX_QUBITS`], or carries an
/// unbound symbolic angle.
pub fn fused_op_count<C: CircuitView + ?Sized>(view: &C) -> usize {
    let mut count = 0;
    let mut fusion = Fusion::new(|_| count += 1);
    view.for_each_gate(&mut |gate| fusion.push(gate));
    fusion.finish();
    count
}
