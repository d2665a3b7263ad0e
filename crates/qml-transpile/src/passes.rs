//! Optimization passes over circuits.
//!
//! These are the classical peephole optimizations behind the context
//! descriptor's `optimization_level` option (Listing 4 uses level 2):
//!
//! * level 0 — no optimization,
//! * level 1 — drop identity rotations, cancel adjacent inverse pairs,
//! * level 2 — level 1 plus rotation merging, iterated to a fixpoint,
//! * level 3 — level 2 plus resynthesis of single-qubit gate runs into
//!   canonical `RZ·SX·RZ·SX·RZ` sequences.
//!
//! Every pass preserves the circuit's unitary up to global phase, and hence
//! every measured distribution.
//!
//! # One buffer, one chain per qubit
//!
//! [`optimize`] copies the gates once into a working buffer and runs every
//! pass of every round over it, in the manner of a peephole window
//! (McKeeman, "Peephole optimization", CACM 1965) kept per qubit. A removed
//! gate becomes a tombstone that the next sweep skips, so no pass rebuilds a
//! circuit and no removal shifts the gates behind it. Each qubit keeps a
//! chain of its live gates: the position of its last live gate, and for
//! every gate the position of the previous live gate on each of its qubits.
//! "The last gate sharing a qubit with this one" is the later of its
//! qubits' chain heads, and cancelling that gate pops it off those chains;
//! both are O(1), where a backward scan of the output would be O(gates).
//!
//! # Why the output is identical
//!
//! A sweep visits the live gates in order and makes, for each one, the
//! decision a pass that rebuilt the circuit would make: the chain head is the
//! gate a backward scan of the output so far would find, because a gate
//! cancelled against the head shares all of the head's qubits. Dropping
//! identity rotations is a filter, so it runs inside the cancel sweep that
//! follows it, which sees exactly the sequence a separate pass would have
//! produced. Rounds run drop + cancel, then (level ≥ 2) merge and drop +
//! cancel again, in the order and with the float operations of a
//! pass-per-circuit optimizer, which tests keep as a reference and compare
//! with `==`.
//!
//! A round opens with drop + cancel, which finds nothing after the first
//! round: drop + cancel is idempotent. Its output holds no identity
//! rotation, and a cancel sweep over a cancel sweep's output finds each
//! gate's chain head where the first sweep left it (a gate is only ever
//! cancelled as the head of every chain it is on, so no later live gate
//! shares a qubit with it), and that pair did not cancel. So level 1 is one
//! sweep, and level 2 is one drop + cancel followed by rounds of merge and
//! drop + cancel.
//!
//! # The fixpoint test
//!
//! Every rewrite removes gates: a dropped rotation one, a cancelled pair
//! two, a merge one. A round that leaves the number of live gates unchanged
//! therefore rewrote nothing, and its output is its input: that is the
//! fixpoint, tested without comparing circuits. At most eight rounds run.

use qml_sim::{Circuit, Gate, ParamExpr};

use crate::basis::{decompose_1q, sequence_matrix, u_angles_from_matrix};

const ANGLE_EPS: f64 = 1e-12;

/// Rounds of merge → drop → cancel before the optimizer stops short of a
/// fixpoint.
const MAX_ROUNDS: usize = 8;

/// No position: the end of a chain.
const NONE: usize = usize::MAX;

/// True if the rotation angle is an integer multiple of 2π (identity up to
/// global phase).
fn is_trivial_angle(theta: f64) -> bool {
    let reduced = theta.rem_euclid(std::f64::consts::TAU);
    reduced.abs() < ANGLE_EPS || (std::f64::consts::TAU - reduced).abs() < ANGLE_EPS
}

/// Constant-folding view of an angle expression: trivial only when the angle
/// is *known* to be an identity rotation. A symbolic angle is never trivial —
/// the pass must preserve it for late binding.
fn is_trivial_expr(theta: &ParamExpr) -> bool {
    theta.const_value().is_some_and(is_trivial_angle)
}

/// True for a rotation that is the identity (angle ≡ 0 mod 2π). Symbolic
/// rotations never are: their value is not known until binding.
fn is_identity_rotation(gate: &Gate) -> bool {
    match gate {
        Gate::Rz(_, t)
        | Gate::Rx(_, t)
        | Gate::Ry(_, t)
        | Gate::Phase(_, t)
        | Gate::Cp(_, _, t)
        | Gate::Rzz(_, _, t) => is_trivial_expr(t),
        _ => false,
    }
}

/// True if `a` followed by `b` is the identity (up to global phase).
fn is_inverse_pair(a: &Gate, b: &Gate) -> bool {
    if a.qubits() != b.qubits() {
        return false;
    }
    match (a, b) {
        (Gate::H(_), Gate::H(_))
        | (Gate::X(_), Gate::X(_))
        | (Gate::Y(_), Gate::Y(_))
        | (Gate::Z(_), Gate::Z(_))
        | (Gate::Cx(_, _), Gate::Cx(_, _))
        | (Gate::Cz(_, _), Gate::Cz(_, _))
        | (Gate::Swap(_, _), Gate::Swap(_, _)) => true,
        (Gate::S(_), Gate::Sdg(_)) | (Gate::Sdg(_), Gate::S(_)) => true,
        (Gate::T(_), Gate::Tdg(_)) | (Gate::Tdg(_), Gate::T(_)) => true,
        // Two rotations cancel when their angle sum is provably trivial —
        // which covers the symbolic case Rθ(s)·Rθ(−s), whose affine sum
        // collapses to the constant 0.
        (Gate::Rz(_, t1), Gate::Rz(_, t2))
        | (Gate::Rx(_, t1), Gate::Rx(_, t2))
        | (Gate::Ry(_, t1), Gate::Ry(_, t2))
        | (Gate::Phase(_, t1), Gate::Phase(_, t2))
        | (Gate::Cp(_, _, t1), Gate::Cp(_, _, t2))
        | (Gate::Rzz(_, _, t1), Gate::Rzz(_, _, t2)) => {
            t1.try_add(t2).is_some_and(|sum| is_trivial_expr(&sum))
        }
        _ => false,
    }
}

/// `a` followed by `b` as one rotation, when both are rotations of the same
/// kind on the same qubits. The sum is an affine-expression sum, so
/// `Sym + Sym` merges into one affine rotation and `Const + Const` folds; a
/// sum that would exceed [`qml_sim::MAX_PARAM_TERMS`] symbols is declined
/// (both gates are kept), which preserves semantics at a small size cost.
fn merged(a: &Gate, b: &Gate) -> Option<Gate> {
    if a.qubits() != b.qubits() {
        return None;
    }
    match (*a, *b) {
        (Gate::Rz(q, x), Gate::Rz(_, y)) => x.try_add(&y).map(|sum| Gate::Rz(q, sum)),
        (Gate::Rx(q, x), Gate::Rx(_, y)) => x.try_add(&y).map(|sum| Gate::Rx(q, sum)),
        (Gate::Ry(q, x), Gate::Ry(_, y)) => x.try_add(&y).map(|sum| Gate::Ry(q, sum)),
        (Gate::Phase(q, x), Gate::Phase(_, y)) => x.try_add(&y).map(|sum| Gate::Phase(q, sum)),
        (Gate::Cp(c, t, x), Gate::Cp(_, _, y)) => x.try_add(&y).map(|sum| Gate::Cp(c, t, sum)),
        (Gate::Rzz(c, t, x), Gate::Rzz(_, _, y)) => x.try_add(&y).map(|sum| Gate::Rzz(c, t, sum)),
        _ => None,
    }
}

/// What a sweep does with the gate it visits.
enum Rewrite {
    /// Keep the gate.
    Keep,
    /// Remove the gate.
    Drop,
    /// Remove the gate and the last live gate on its qubits: an inverse pair.
    Cancel,
    /// Remove the gate and replace the last live gate on its qubits by this
    /// one: a merged rotation.
    Merge(Gate),
}

/// Drop an identity rotation, or cancel an inverse pair.
fn drop_or_cancel(gate: &Gate, last: Option<&Gate>) -> Rewrite {
    if is_identity_rotation(gate) {
        Rewrite::Drop
    } else if last.is_some_and(|last| is_inverse_pair(last, gate)) {
        Rewrite::Cancel
    } else {
        Rewrite::Keep
    }
}

/// Merge a rotation into the last gate on its qubits.
fn merge(gate: &Gate, last: Option<&Gate>) -> Rewrite {
    match last.and_then(|last| merged(last, gate)) {
        Some(m) => Rewrite::Merge(m),
        None => Rewrite::Keep,
    }
}

/// The working buffer of [`optimize`] and the per-qubit chains through it.
struct Window {
    /// Gates in circuit order, tombstones included.
    gates: Vec<Gate>,
    /// `live[i]`: position `i` holds a gate rather than a tombstone.
    live: Vec<bool>,
    /// During a sweep, `links[i][k]` is the position of the previous live
    /// gate on the `k`-th qubit of the gate at `i`. During resynthesis,
    /// `links[i][0]` is the next gate of the pending run holding `i`.
    links: Vec<[usize; 2]>,
    /// `last[q]`: the position of the last live gate on qubit `q`.
    last: Vec<usize>,
    /// Number of live gates.
    live_count: usize,
}

/// A pending run of bound single-qubit gates on one qubit: a chain of
/// positions through [`Window::links`].
#[derive(Clone, Copy)]
struct Run {
    first: usize,
    last: usize,
    len: usize,
}

impl Run {
    const EMPTY: Run = Run {
        first: NONE,
        last: NONE,
        len: 0,
    };
}

impl Window {
    fn new(gates: Vec<Gate>, num_qubits: usize) -> Window {
        let len = gates.len();
        Window {
            gates,
            live: vec![true; len],
            links: vec![[NONE; 2]; len],
            last: vec![NONE; num_qubits],
            live_count: len,
        }
    }

    /// One pass: visit the live gates in order and apply the rewrite that
    /// `decide` picks for each, given the gate and the last live gate
    /// sharing a qubit with it.
    fn sweep(&mut self, decide: impl Fn(&Gate, Option<&Gate>) -> Rewrite) {
        self.last.fill(NONE);
        let mut write = 0;
        for read in 0..self.gates.len() {
            if !self.live[read] {
                continue;
            }
            let gate = self.gates[read];
            let qubits = gate.qubits();
            let before = qubits
                .iter()
                .map(|&q| self.last[q])
                .filter(|&i| i != NONE)
                .max();
            match (decide(&gate, before.map(|i| &self.gates[i])), before) {
                (Rewrite::Drop, _) => self.live_count -= 1,
                (Rewrite::Cancel, Some(i)) => {
                    // The cancelled gate has exactly these qubits, and heads
                    // each of their chains: pop it off them.
                    self.live[i] = false;
                    for (k, &q) in qubits.iter().enumerate() {
                        self.last[q] = self.links[i][k];
                    }
                    self.live_count -= 2;
                }
                (Rewrite::Merge(m), Some(i)) => {
                    self.gates[i] = m;
                    self.live_count -= 1;
                }
                _ => {
                    let mut links = [NONE; 2];
                    for (k, &q) in qubits.iter().enumerate() {
                        links[k] = self.last[q];
                    }
                    for &q in &qubits {
                        self.last[q] = write;
                    }
                    self.gates[write] = gate;
                    self.live[write] = true;
                    self.links[write] = links;
                    write += 1;
                }
            }
        }
        self.gates.truncate(write);
    }

    /// The live gates, in a vector of exactly their number.
    fn into_gates(self) -> Vec<Gate> {
        let mut out = Vec::with_capacity(self.live_count);
        out.extend(
            self.gates
                .iter()
                .zip(&self.live)
                .filter(|(_, &live)| live)
                .map(|(gate, _)| *gate),
        );
        out
    }

    /// Level 3: rewrite every maximal run of bound single-qubit gates on a
    /// qubit as `RZ·SX·RZ·SX·RZ` (or a single `RZ` when the run is
    /// diagonal), when that is shorter; then drop identity rotations. Only
    /// emits `rz`/`sx`, so the result stays within the paper's hardware
    /// basis. Symbolic rotations have no matrix: they end the runs on their
    /// qubit and pass through unchanged, so the pass stays safe on
    /// parametric plans.
    fn resynthesize(mut self) -> Vec<Gate> {
        let mut runs = vec![Run::EMPTY; self.last.len()];
        // One slot to spare, so the trim to length below always runs and
        // the pass allocates the same number of times on every plan.
        let mut out = Vec::with_capacity(self.live_count + 1);
        for i in 0..self.gates.len() {
            if !self.live[i] {
                continue;
            }
            let gate = self.gates[i];
            if !gate.is_two_qubit() && !gate.is_symbolic() {
                let run = &mut runs[gate.qubits()[0]];
                self.links[i][0] = NONE;
                if run.len == 0 {
                    run.first = i;
                } else {
                    self.links[run.last][0] = i;
                }
                run.last = i;
                run.len += 1;
            } else {
                for &q in &gate.qubits() {
                    self.flush(&mut runs[q], &mut out);
                }
                push_kept(&mut out, gate);
            }
        }
        for run in &mut runs {
            self.flush(run, &mut out);
        }
        out.shrink_to_fit();
        out
    }

    /// The gates of a pending run, in order.
    fn run_gates(&self, run: Run) -> impl Iterator<Item = &Gate> + '_ {
        std::iter::successors((run.len > 0).then_some(run.first), |&i| {
            let next = self.links[i][0];
            (next != NONE).then_some(next)
        })
        .map(|i| &self.gates[i])
    }

    /// Write a pending run to `out`, resynthesized when that is shorter,
    /// and empty it. A run of at most two gates is copied as it is: the
    /// ZXZXZ form always keeps its two SX, so it is never shorter.
    fn flush(&self, run: &mut Run, out: &mut Vec<Gate>) {
        let pending = std::mem::replace(run, Run::EMPTY);
        if pending.len > 2 {
            let q = self.gates[pending.first].qubits()[0];
            let m = sequence_matrix(self.run_gates(pending));
            let (theta, phi, lambda) = u_angles_from_matrix(&m);
            let resynth = decompose_1q(&Gate::U(q, theta, phi, lambda));
            let shorter = resynth
                .as_slice()
                .iter()
                .filter(|g| !is_identity_rotation(g));
            if shorter.clone().count() < pending.len {
                for &gate in shorter {
                    push_kept(out, gate);
                }
                return;
            }
        }
        for &gate in self.run_gates(pending) {
            push_kept(out, gate);
        }
    }
}

/// Append `gate` unless it is an identity rotation: the drop pass that ends
/// level 3, applied as resynthesis writes.
fn push_kept(out: &mut Vec<Gate>, gate: Gate) {
    if !is_identity_rotation(&gate) {
        out.push(gate);
    }
}

/// Optimize a gate buffer at `level`, taking it as the working buffer. The
/// result holds exactly its gates: its capacity is its length.
pub(crate) fn optimize_gates(mut gates: Vec<Gate>, num_qubits: usize, level: u8) -> Vec<Gate> {
    if level == 0 {
        gates.shrink_to_fit();
        return gates;
    }
    let mut window = Window::new(gates, num_qubits);
    window.sweep(drop_or_cancel);
    if level >= 2 {
        for _ in 0..MAX_ROUNDS {
            let before = window.live_count;
            window.sweep(merge);
            window.sweep(drop_or_cancel);
            if window.live_count == before {
                break;
            }
        }
    }
    if level >= 3 {
        window.resynthesize()
    } else {
        window.into_gates()
    }
}

/// Run the optimization pipeline for the given level (0–3).
pub fn optimize(circuit: &Circuit, level: u8) -> Circuit {
    if level == 0 {
        return circuit.clone();
    }
    let gates = optimize_gates(circuit.gates().to_vec(), circuit.num_qubits(), level);
    Circuit::from_gates(circuit.num_qubits(), gates, circuit.measured())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qml_sim::Simulator;

    fn assert_same_distribution(a: &Circuit, b: &Circuit) {
        let sim = Simulator::new();
        let da = sim.exact_distribution(a);
        let db = sim.exact_distribution(b);
        for (word, p) in &da {
            let q = db.get(word).copied().unwrap_or(0.0);
            assert!(
                (p - q).abs() < 1e-9,
                "distribution differs at {word}: {p} vs {q}"
            );
        }
    }

    fn probe_circuit() -> Circuit {
        let mut qc = Circuit::new(3);
        qc.extend(&[
            Gate::H(0),
            Gate::H(0), // cancels
            Gate::Rz(1, (0.4).into()),
            Gate::Rz(1, (-0.4).into()), // cancels via merge/drop
            Gate::Cx(0, 1),
            Gate::Cx(0, 1), // cancels
            Gate::Ry(2, (0.9).into()),
            Gate::Rz(2, (0.0).into()), // identity
            Gate::T(0),
            Gate::Tdg(0), // cancels
            Gate::Rzz(1, 2, (0.3).into()),
            Gate::Rzz(1, 2, (0.5).into()), // merges
            Gate::H(1),
        ]);
        qc.measure_all();
        qc
    }

    #[test]
    fn drop_identity_rotations_removes_trivial_angles() {
        let mut qc = Circuit::new(2);
        qc.extend(&[
            Gate::Rz(0, (0.0).into()),
            Gate::Rx(1, std::f64::consts::TAU.into()),
            Gate::Cp(0, 1, (0.0).into()),
            Gate::H(0),
        ]);
        qc.measure_all();
        let out = optimize(&qc, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out.gates()[0], Gate::H(0));
    }

    #[test]
    fn cancel_handles_interleaved_qubits() {
        // The two H(0) gates are separated by a gate on qubit 1 only; they
        // must still cancel.
        let mut qc = Circuit::new(2);
        qc.extend(&[Gate::H(0), Gate::Rz(1, (0.3).into()), Gate::H(0)]);
        qc.measure_all();
        let out = optimize(&qc, 1);
        assert_eq!(out.gate_counts().get("h"), None);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn cancel_does_not_cross_blocking_gates() {
        // A CX on qubit 0 sits between the two H(0): must NOT cancel.
        let mut qc = Circuit::new(2);
        qc.extend(&[Gate::H(0), Gate::Cx(0, 1), Gate::H(0)]);
        qc.measure_all();
        let out = optimize(&qc, 1);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn merge_rotations_sums_angles() {
        let mut qc = Circuit::new(1);
        qc.extend(&[Gate::Rz(0, (0.25).into()), Gate::Rz(0, (0.5).into())]);
        qc.measure_all();
        let out = optimize(&qc, 2);
        assert_eq!(out.len(), 1);
        match out.gates()[0] {
            Gate::Rz(0, t) => assert!((t.value() - 0.75).abs() < 1e-12),
            ref g => panic!("unexpected gate {g:?}"),
        }
    }

    #[test]
    fn optimization_levels_monotonically_shrink_the_probe() {
        let qc = probe_circuit();
        let sizes: Vec<usize> = (0..=3).map(|l| optimize(&qc, l).len()).collect();
        assert_eq!(sizes[0], qc.len());
        assert!(sizes[1] < sizes[0]);
        assert!(sizes[2] <= sizes[1]);
        assert!(sizes[3] <= sizes[2]);
    }

    #[test]
    fn every_level_preserves_the_distribution() {
        let qc = probe_circuit();
        for level in 0..=3 {
            let out = optimize(&qc, level);
            assert_same_distribution(&qc, &out);
        }
    }

    #[test]
    fn resynthesis_compacts_long_1q_runs() {
        let mut qc = Circuit::new(1);
        qc.extend(&[
            Gate::H(0),
            Gate::T(0),
            Gate::Rx(0, (0.3).into()),
            Gate::S(0),
            Gate::Ry(0, (-0.8).into()),
            Gate::Rz(0, (1.1).into()),
            Gate::H(0),
        ]);
        qc.measure_all();
        let out = optimize(&qc, 3);
        assert!(
            out.len() <= 5,
            "run of 7 gates should compress to ≤ 5, got {}",
            out.len()
        );
        assert_same_distribution(&qc, &out);
        let basis: Vec<String> = ["sx", "rz"].iter().map(|s| s.to_string()).collect();
        assert!(out.uses_only(&basis));
    }

    #[test]
    fn resynthesis_preserves_distribution_with_entanglers() {
        let mut qc = Circuit::new(2);
        qc.extend(&[
            Gate::H(0),
            Gate::T(0),
            Gate::Cx(0, 1),
            Gate::Rx(1, (0.7).into()),
            Gate::Ry(1, (0.2).into()),
            Gate::Cx(0, 1),
            Gate::H(1),
        ]);
        qc.measure_all();
        let out = optimize(&qc, 3);
        assert_same_distribution(&qc, &out);
    }

    #[test]
    fn optimize_level0_is_identity() {
        let qc = probe_circuit();
        assert_eq!(optimize(&qc, 0), qc);
    }

    #[test]
    fn fully_cancelling_circuit_reduces_to_nothing() {
        let mut qc = Circuit::new(2);
        qc.extend(&[Gate::Cx(0, 1), Gate::Cx(0, 1), Gate::H(0), Gate::H(0)]);
        qc.measure_all();
        let out = optimize(&qc, 2);
        assert!(out.is_empty());
        assert_eq!(out.num_clbits(), 2, "measurements survive optimization");
    }
}
