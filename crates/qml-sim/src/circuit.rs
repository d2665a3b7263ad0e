//! Quantum circuits: ordered gate lists with explicit measurement maps.
//!
//! A [`Circuit`] is the realization target the gate backend lowers operator
//! descriptors into and the unit the transpiler rewrites. Measurements are
//! explicit — a circuit with no `measure` entries produces no classical data,
//! honouring the middle layer's "no implicit measurements" rule.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::gate::Gate;

/// An ordered list of gates on `num_qubits` qubits plus an explicit
/// measurement map (qubit → classical bit position).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
    /// Qubits measured at the end of the circuit, in classical-bit order:
    /// `measured[j]` is the qubit whose outcome becomes classical bit `j`.
    measured: Vec<usize>,
}

/// Read-only access to an executable circuit: exactly what the simulator
/// needs to apply gates and sample measurements, abstracted so a shared
/// cached plan plus a per-job binding overlay
/// ([`crate::overlay::BoundCircuit`]) can execute without ever materializing
/// a copied [`Circuit`].
pub trait CircuitView {
    /// Number of qubits.
    fn width(&self) -> usize;
    /// The measurement map (classical bit `j` reads qubit
    /// `measurement_map()[j]`).
    fn measurement_map(&self) -> &[usize];
    /// Number of gates in application order.
    fn gate_count(&self) -> usize;
    /// The effective gate at position `i` in application order.
    fn gate_at(&self, i: usize) -> &Gate;
    /// Visit every effective gate in application order. Implementations with
    /// cheaper sequential access than random [`CircuitView::gate_at`] (e.g.
    /// an overlay's merge walk) override this.
    fn for_each_gate(&self, f: &mut dyn FnMut(&Gate)) {
        for i in 0..self.gate_count() {
            f(self.gate_at(i));
        }
    }
}

impl CircuitView for Circuit {
    fn width(&self) -> usize {
        self.num_qubits
    }

    fn measurement_map(&self) -> &[usize] {
        &self.measured
    }

    fn gate_count(&self) -> usize {
        self.gates.len()
    }

    fn gate_at(&self, i: usize) -> &Gate {
        &self.gates[i]
    }
}

impl Circuit {
    /// An empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
            measured: Vec::new(),
        }
    }

    /// A circuit over a finished gate vector, kept as it is (capacity
    /// included), with the measurement map `measured`. One range check
    /// covers the whole vector, instead of one per [`Circuit::push`].
    ///
    /// # Panics
    /// As [`Circuit::push`] and [`Circuit::measure`].
    pub fn from_gates(num_qubits: usize, gates: Vec<Gate>, measured: &[usize]) -> Self {
        if let Some(gate) = gates
            .iter()
            .find(|g| g.qubits().iter().any(|&q| q >= num_qubits))
        {
            panic!(
                "gate {} on qubits {:?} exceeds circuit width {num_qubits}",
                gate.name(),
                gate.qubits()
            );
        }
        let mut circuit = Circuit {
            num_qubits,
            gates,
            measured: Vec::with_capacity(measured.len()),
        };
        circuit.measure(measured);
        circuit
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits produced by the measurement map.
    pub fn num_clbits(&self) -> usize {
        self.measured.len()
    }

    /// The gates in application order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The measurement map (classical bit `j` reads qubit `measured()[j]`).
    pub fn measured(&self) -> &[usize] {
        &self.measured
    }

    /// Append a gate.
    ///
    /// # Panics
    /// Panics if the gate touches a qubit outside the circuit.
    pub fn push(&mut self, gate: Gate) {
        for q in gate.qubits() {
            assert!(
                q < self.num_qubits,
                "gate {} on qubit {q} exceeds circuit width {}",
                gate.name(),
                self.num_qubits
            );
        }
        self.gates.push(gate);
    }

    /// Append every gate of a slice.
    pub fn extend(&mut self, gates: &[Gate]) {
        for &g in gates {
            self.push(g);
        }
    }

    /// Append another circuit's gates (its measurements are ignored).
    pub fn compose(&mut self, other: &Circuit) {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot compose a wider circuit ({} qubits) into {} qubits",
            other.num_qubits,
            self.num_qubits
        );
        self.extend(&other.gates);
    }

    /// Declare that `qubits` are measured (in the given classical-bit order).
    ///
    /// # Panics
    /// Panics if a qubit is measured twice or is out of range.
    pub fn measure(&mut self, qubits: &[usize]) {
        for &q in qubits {
            assert!(q < self.num_qubits, "measured qubit {q} out of range");
            assert!(
                !self.measured.contains(&q),
                "qubit {q} is already measured (no double measurement)"
            );
            self.measured.push(q);
        }
    }

    /// Measure every qubit in index order.
    pub fn measure_all(&mut self) {
        let all: Vec<usize> = (0..self.num_qubits).collect();
        self.measure(&all);
    }

    /// Total gate count.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True if the circuit holds no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of two-qubit gates.
    pub fn count_two_qubit(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Number of single-qubit gates.
    pub fn count_single_qubit(&self) -> usize {
        self.gates.len() - self.count_two_qubit()
    }

    /// Gate counts keyed by gate name (the statistic Qiskit's `count_ops`
    /// reports and the paper's cost hints approximate).
    pub fn gate_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for g in &self.gates {
            *out.entry(g.name()).or_insert(0) += 1;
        }
        out
    }

    /// Circuit depth: the length of the longest chain of gates sharing
    /// qubits, computed greedily in program order.
    pub fn depth(&self) -> usize {
        let mut per_qubit = vec![0usize; self.num_qubits];
        let mut depth = 0usize;
        for g in &self.gates {
            let level = g.qubits().iter().map(|&q| per_qubit[q]).max().unwrap_or(0) + 1;
            for q in g.qubits() {
                per_qubit[q] = level;
            }
            depth = depth.max(level);
        }
        depth
    }

    /// True if any gate still carries unbound symbolic angles.
    pub fn is_symbolic(&self) -> bool {
        self.gates.iter().any(Gate::is_symbolic)
    }

    /// Indices of the gates carrying unbound symbolic angles — the
    /// substitution sites a cached parametric plan rewrites per binding.
    pub fn symbolic_gate_indices(&self) -> Vec<usize> {
        self.gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.is_symbolic())
            .map(|(i, _)| i)
            .collect()
    }

    /// Substitute a slot-indexed value table into every symbolic gate,
    /// returning the fully bound circuit. O(gates); no routing or basis work.
    pub fn bind(&self, values: &[f64]) -> Circuit {
        Circuit {
            num_qubits: self.num_qubits,
            gates: self.gates.iter().map(|g| g.bind(values)).collect(),
            measured: self.measured.clone(),
        }
    }

    /// Replace the gates at the given `(index, gate)` pairs in place — the
    /// overlay materialization helper ([`crate::overlay::BoundCircuit`]).
    pub(crate) fn rewrite_gates(&mut self, overrides: &[(usize, Gate)]) {
        for &(i, g) in overrides {
            self.gates[i] = g;
        }
    }

    /// Like [`Circuit::bind`], but only rewrites the given gate indices
    /// (obtained from [`Circuit::symbolic_gate_indices`]); the remaining
    /// gates are copied verbatim, so the cost is one memcpy + O(#sites).
    pub fn bind_sites(&self, sites: &[usize], values: &[f64]) -> Circuit {
        let mut out = self.clone();
        for &i in sites {
            out.gates[i] = out.gates[i].bind(values);
        }
        out
    }

    /// The inverse circuit: gates reversed and individually inverted.
    /// Measurements are not carried over (the inverse of a measured circuit
    /// is only meaningful up to the measurement).
    pub(crate) fn inverse(&self) -> Circuit {
        Circuit {
            num_qubits: self.num_qubits,
            gates: self.gates.iter().rev().map(Gate::inverse).collect(),
            measured: Vec::new(),
        }
    }

    /// Remap every gate and measurement through `map` (old index → new
    /// index) onto a circuit of `new_width` qubits.
    pub fn remap(&self, map: &[usize], new_width: usize) -> Circuit {
        assert_eq!(
            map.len(),
            self.num_qubits,
            "layout map must cover every qubit"
        );
        let mut out = Circuit::new(new_width);
        for g in &self.gates {
            out.push(g.remap(map));
        }
        out.measured = self.measured.iter().map(|&q| map[q]).collect();
        out
    }

    /// Does the circuit only use gates whose names appear in `basis`?
    /// (Measurements are always allowed.)
    pub fn uses_only(&self, basis: &[String]) -> bool {
        self.gates
            .iter()
            .all(|g| basis.iter().any(|b| b == g.name()))
    }
}

/// Build the textbook QFT circuit on qubits `0..n` of a circuit: Hadamards
/// and controlled phases, with optional final wire-reversal swaps and an
/// approximation degree that drops the smallest-angle rotations — the
/// realization of the paper's `QFT_TEMPLATE` descriptor parameters.
pub fn qft_circuit(n: usize, approx_degree: usize, do_swaps: bool, inverse: bool) -> Circuit {
    let mut qc = Circuit::new(n);
    for j in (0..n).rev() {
        qc.push(Gate::H(j));
        for k in (0..j).rev() {
            let distance = j - k;
            // approximation_degree = d drops rotations with distance > n-1-d.
            if approx_degree > 0 && distance > n.saturating_sub(1 + approx_degree) {
                continue;
            }
            let angle = std::f64::consts::PI / (1 << distance) as f64;
            qc.push(Gate::Cp(k, j, angle.into()));
        }
    }
    if do_swaps {
        for i in 0..n / 2 {
            qc.push(Gate::Swap(i, n - 1 - i));
        }
    }
    if inverse {
        qc.inverse()
    } else {
        qc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateVector;
    use std::f64::consts::TAU;

    #[test]
    fn push_and_counts() {
        let mut qc = Circuit::new(3);
        qc.extend(&[
            Gate::H(0),
            Gate::Cx(0, 1),
            Gate::Rz(2, (0.4).into()),
            Gate::Cx(1, 2),
        ]);
        assert_eq!(qc.len(), 4);
        assert_eq!(qc.count_two_qubit(), 2);
        assert_eq!(qc.count_single_qubit(), 2);
        assert_eq!(qc.gate_counts()["cx"], 2);
        assert_eq!(qc.depth(), 3);
    }

    #[test]
    fn depth_of_parallel_layers() {
        let mut qc = Circuit::new(4);
        qc.extend(&[Gate::H(0), Gate::H(1), Gate::H(2), Gate::H(3)]);
        assert_eq!(qc.depth(), 1);
        qc.push(Gate::Cx(0, 1));
        qc.push(Gate::Cx(2, 3));
        assert_eq!(qc.depth(), 2);
        qc.push(Gate::Cx(1, 2));
        assert_eq!(qc.depth(), 3);
    }

    #[test]
    fn empty_circuit_properties() {
        let qc = Circuit::new(2);
        assert!(qc.is_empty());
        assert_eq!(qc.depth(), 0);
        assert_eq!(qc.num_clbits(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds circuit width")]
    fn gate_out_of_range_panics() {
        Circuit::new(2).push(Gate::H(2));
    }

    #[test]
    fn from_gates_keeps_the_vector() {
        let mut gates = Vec::with_capacity(3);
        gates.extend([Gate::H(0), Gate::Cx(0, 1)]);
        let qc = Circuit::from_gates(2, gates, &[1, 0]);
        assert_eq!(qc.gates(), [Gate::H(0), Gate::Cx(0, 1)]);
        assert_eq!(qc.gates.capacity(), 3);
        assert_eq!(qc.measured(), [1, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds circuit width")]
    fn from_gates_checks_the_width() {
        Circuit::from_gates(2, vec![Gate::Cx(0, 2)], &[]);
    }

    #[test]
    #[should_panic(expected = "already measured")]
    fn double_measurement_panics() {
        let mut qc = Circuit::new(2);
        qc.measure(&[0]);
        qc.measure(&[0]);
    }

    #[test]
    fn measure_all_order() {
        let mut qc = Circuit::new(3);
        qc.measure_all();
        assert_eq!(qc.measured(), &[0, 1, 2]);
        assert_eq!(qc.num_clbits(), 3);
    }

    #[test]
    fn inverse_undoes_circuit() {
        let mut qc = Circuit::new(3);
        qc.extend(&[
            Gate::H(0),
            Gate::Cx(0, 1),
            Gate::T(2),
            Gate::Rz(1, (0.9).into()),
            Gate::Cp(0, 2, (0.4).into()),
            Gate::Sx(1),
        ]);
        let mut sv = StateVector::zero_state(3);
        sv.apply_all(qc.gates());
        sv.apply_all(qc.inverse().gates());
        let zero = StateVector::zero_state(3);
        assert!((sv.fidelity(&zero) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn remap_moves_gates_and_measurements() {
        let mut qc = Circuit::new(2);
        qc.push(Gate::Cx(0, 1));
        qc.measure(&[0, 1]);
        let remapped = qc.remap(&[3, 1], 4);
        assert_eq!(remapped.gates()[0], Gate::Cx(3, 1));
        assert_eq!(remapped.measured(), &[3, 1]);
        assert_eq!(remapped.num_qubits(), 4);
    }

    #[test]
    fn uses_only_checks_basis() {
        let mut qc = Circuit::new(2);
        qc.extend(&[Gate::Sx(0), Gate::Rz(1, (0.3).into()), Gate::Cx(0, 1)]);
        let basis: Vec<String> = ["sx", "rz", "cx"].iter().map(|s| s.to_string()).collect();
        assert!(qc.uses_only(&basis));
        qc.push(Gate::H(0));
        assert!(!qc.uses_only(&basis));
    }

    #[test]
    fn qft_gate_count_matches_formula() {
        // Exact QFT with swaps: n Hadamards, n(n-1)/2 controlled phases,
        // ⌊n/2⌋ swaps.
        let n = 10;
        let qc = qft_circuit(n, 0, true, false);
        let counts = qc.gate_counts();
        assert_eq!(counts["h"], n);
        assert_eq!(counts["cp"], n * (n - 1) / 2);
        assert_eq!(counts["swap"], n / 2);
    }

    #[test]
    fn approximate_qft_drops_small_rotations() {
        let exact = qft_circuit(8, 0, false, false);
        let approx = qft_circuit(8, 3, false, false);
        assert!(approx.count_two_qubit() < exact.count_two_qubit());
    }

    #[test]
    fn qft_of_basis_state_gives_uniform_magnitudes() {
        let n = 4;
        let qc = qft_circuit(n, 0, true, false);
        let mut sv = StateVector::basis_state(n, 5);
        sv.apply_all(qc.gates());
        let expected = 1.0 / (1 << n) as f64;
        for i in 0..(1 << n) {
            assert!((sv.probability(i) - expected).abs() < 1e-9, "index {i}");
        }
    }

    #[test]
    fn qft_inverse_qft_is_identity() {
        let n = 5;
        let forward = qft_circuit(n, 0, true, false);
        let backward = qft_circuit(n, 0, true, true);
        let mut sv = StateVector::basis_state(n, 19);
        sv.apply_all(forward.gates());
        sv.apply_all(backward.gates());
        assert!((sv.probability(19) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn qft_diagonalizes_phase_gradient() {
        // Preparing the phase-gradient state for integer k and applying the
        // inverse QFT must yield |k⟩: the basis of quantum phase estimation.
        let n = 5;
        let dim = 1usize << n;
        let k = 11usize;
        // Build Σ_x e^{2πi k x / 2^n} |x⟩ / √2^n with H + phase gates.
        let mut qc = Circuit::new(n);
        for q in 0..n {
            qc.push(Gate::H(q));
            let angle = TAU * (k as f64) * (1 << q) as f64 / dim as f64;
            qc.push(Gate::Phase(q, angle.into()));
        }
        // The inverse of the no-swap QFT maps it back to |k⟩ bit-reversed;
        // with swaps enabled the result is |k⟩ directly.
        let inv = qft_circuit(n, 0, true, true);
        let mut sv = StateVector::zero_state(n);
        sv.apply_all(qc.gates());
        sv.apply_all(inv.gates());
        assert!(
            (sv.probability(k) - 1.0).abs() < 1e-9,
            "P(|{k}⟩) = {}",
            sv.probability(k)
        );
    }
}
