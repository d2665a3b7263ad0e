//! Basis translation: rewriting gates into a target's native gate set.
//!
//! The paper's context descriptor constrains compilation to the gate set
//! `[sx, rz, cx]` (Listing 4), "which forces realistic routing and basis
//! decompositions". This module performs those decompositions: every
//! single-qubit gate is rewritten as a ZXZXZ sequence (RZ·SX·RZ·SX·RZ), and
//! every two-qubit gate is expanded over CX plus single-qubit gates; on a
//! basis that holds `cz` but not `cx`, each CX becomes `H·CZ·H`. All
//! rewrites are exact up to a global phase, which is irrelevant to any
//! measurement statistics the middle layer exposes.
//!
//! Translation writes straight into one output vector, reserved once from an
//! upper bound on what each gate expands to, so it allocates the same few
//! times however long the circuit is.

use qml_sim::{matmul2, Circuit, Complex64, Gate, ParamExpr};

use crate::target::TranspileTarget;

/// Extract OpenQASM `U(θ, φ, λ)` angles (and the global phase) from an
/// arbitrary single-qubit unitary.
pub(crate) fn u_angles_from_matrix(m: &[Complex64; 4]) -> (f64, f64, f64) {
    let eps = 1e-12;
    let theta = 2.0 * m[2].abs().atan2(m[0].abs());
    if m[0].abs() < eps {
        // θ = π: cos(θ/2) = 0; choose λ = 0.
        let g = (-m[1]).arg();
        let phi = m[2].arg() - g;
        (theta, phi, 0.0)
    } else if m[2].abs() < eps {
        // θ = 0: sin(θ/2) = 0; choose φ = 0.
        let g = m[0].arg();
        let lambda = m[3].arg() - g;
        (theta, 0.0, lambda)
    } else {
        let g = m[0].arg();
        let phi = m[2].arg() - g;
        let lambda = (-m[1]).arg() - g;
        (theta, phi, lambda)
    }
}

/// Up to five gates, held inline: the longest rewrite of one gate.
#[derive(Clone, Copy)]
pub(crate) struct Seq {
    gates: [Gate; 5],
    len: usize,
}

impl Seq {
    fn of(gates: &[Gate]) -> Seq {
        let mut seq = Seq {
            gates: [Gate::H(0); 5],
            len: gates.len(),
        };
        seq.gates[..gates.len()].copy_from_slice(gates);
        seq
    }

    /// The gates in application order.
    pub(crate) fn as_slice(&self) -> &[Gate] {
        &self.gates[..self.len]
    }
}

/// The analytic ZXZXZ realization of `U(θ, φ, λ)` in application order:
/// `RZ(λ) · SX · RZ(θ+π) · SX · RZ(φ+π)`, exact up to a global phase for any
/// angle expressions — including **symbolic** ones, since θ, φ, λ enter the
/// sequence only through affine shifts.
fn zsx_sequence(q: usize, theta: ParamExpr, phi: ParamExpr, lambda: ParamExpr) -> Seq {
    Seq::of(&[
        Gate::Rz(q, lambda),
        Gate::Sx(q),
        Gate::Rz(q, theta.shift(std::f64::consts::PI)),
        Gate::Sx(q),
        Gate::Rz(q, phi.shift(std::f64::consts::PI)),
    ])
}

/// Rewrite a single-qubit gate as the ZXZXZ sequence
/// `RZ(λ) · SX · RZ(θ+π) · SX · RZ(φ+π)` (listed in application order),
/// exact up to a global phase; a diagonal gate becomes one RZ.
///
/// Symbolic rotations decompose **without evaluating their angle**: the
/// identities `RX(θ) = U(θ, −π/2, π/2)` and `RY(θ) = U(θ, 0, 0)` place the
/// symbolic θ directly into one RZ of the sequence, so a parametric circuit
/// reaches the hardware basis with its symbols intact. A two-qubit gate is
/// returned unchanged.
pub(crate) fn decompose_1q(gate: &Gate) -> Seq {
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
    match *gate {
        Gate::Rz(q, t) | Gate::Phase(q, t) => Seq::of(&[Gate::Rz(q, t)]),
        Gate::Z(q) => Seq::of(&[Gate::Rz(q, PI.into())]),
        Gate::S(q) => Seq::of(&[Gate::Rz(q, FRAC_PI_2.into())]),
        Gate::Sdg(q) => Seq::of(&[Gate::Rz(q, (-FRAC_PI_2).into())]),
        Gate::T(q) => Seq::of(&[Gate::Rz(q, FRAC_PI_4.into())]),
        Gate::Tdg(q) => Seq::of(&[Gate::Rz(q, (-FRAC_PI_4).into())]),
        Gate::Sx(q) => Seq::of(&[Gate::Sx(q)]),
        Gate::Rx(q, t) if t.is_symbolic() => {
            zsx_sequence(q, t, (-FRAC_PI_2).into(), FRAC_PI_2.into())
        }
        Gate::Ry(q, t) if t.is_symbolic() => zsx_sequence(q, t, 0.0.into(), 0.0.into()),
        _ => match gate.single_qubit_matrix() {
            Some(m) => {
                let (theta, phi, lambda) = u_angles_from_matrix(&m);
                zsx_sequence(gate.qubits()[0], theta.into(), phi.into(), lambda.into())
            }
            None => Seq::of(&[*gate]),
        },
    }
}

/// Expand a two-qubit gate over `{cx, single-qubit}` gates. Single-qubit
/// helpers emitted here may themselves need a further ZXZXZ pass. Angle
/// halving is an affine scale, so symbolic CP/RZZ decompose symbolically.
/// CX, and any single-qubit gate, is returned unchanged.
fn decompose_2q_to_cx(gate: &Gate) -> Seq {
    match *gate {
        Gate::Cz(c, t) => Seq::of(&[Gate::H(t), Gate::Cx(c, t), Gate::H(t)]),
        Gate::Cp(c, t, l) => Seq::of(&[
            Gate::Phase(c, l.scale(0.5)),
            Gate::Cx(c, t),
            Gate::Phase(t, l.scale(-0.5)),
            Gate::Cx(c, t),
            Gate::Phase(t, l.scale(0.5)),
        ]),
        Gate::Swap(a, b) => Seq::of(&[Gate::Cx(a, b), Gate::Cx(b, a), Gate::Cx(a, b)]),
        Gate::Rzz(a, b, t) => Seq::of(&[Gate::Cx(a, b), Gate::Rz(b, t), Gate::Cx(a, b)]),
        other => Seq::of(&[other]),
    }
}

/// Lower-case names of the gate kinds, indexed by [`kind`].
const KIND_NAMES: [&str; 19] = [
    "h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx", "rx", "ry", "rz", "p", "u", "cx", "cz", "cp",
    "swap", "rzz",
];

/// Index of a gate's kind in [`KIND_NAMES`].
fn kind(gate: &Gate) -> usize {
    match gate {
        Gate::H(_) => 0,
        Gate::X(_) => 1,
        Gate::Y(_) => 2,
        Gate::Z(_) => 3,
        Gate::S(_) => 4,
        Gate::Sdg(_) => 5,
        Gate::T(_) => 6,
        Gate::Tdg(_) => 7,
        Gate::Sx(_) => 8,
        Gate::Rx(..) => 9,
        Gate::Ry(..) => 10,
        Gate::Rz(..) => 11,
        Gate::Phase(..) => 12,
        Gate::U(..) => 13,
        Gate::Cx(..) => 14,
        Gate::Cz(..) => 15,
        Gate::Cp(..) => 16,
        Gate::Swap(..) => 17,
        Gate::Rzz(..) => 18,
    }
}

/// A target's basis as a bit set over gate kinds, so a membership test is
/// one mask instead of a scan of name strings.
#[derive(Clone, Copy)]
struct Basis(u32);

impl Basis {
    fn of(target: &TranspileTarget) -> Basis {
        Basis(
            KIND_NAMES
                .iter()
                .enumerate()
                .filter(|(_, name)| target.allows(name))
                .fold(0, |mask, (k, _)| mask | 1 << k),
        )
    }

    fn allows(self, gate: &Gate) -> bool {
        self.0 & 1 << kind(gate) != 0
    }

    fn allows_cz(self) -> bool {
        self.allows(&Gate::Cz(0, 1))
    }

    /// An upper bound on the gates [`Lowering::emit`] writes for `gate`:
    /// exact except that a single-qubit rewrite may lose a zero RZ.
    fn bound(self, gate: &Gate) -> usize {
        if self.allows(gate) {
            return 1;
        }
        match *gate {
            Gate::Cx(_, t) if self.allows_cz() => 1 + 2 * self.bound(&Gate::H(t)),
            Gate::Cx(..) => 1,
            g if g.is_two_qubit() => decompose_2q_to_cx(&g)
                .as_slice()
                .iter()
                .map(|sub| self.bound(sub))
                .sum(),
            Gate::Rz(..)
            | Gate::Phase(..)
            | Gate::Z(_)
            | Gate::S(_)
            | Gate::Sdg(_)
            | Gate::T(_)
            | Gate::Tdg(_)
            | Gate::Sx(_) => 1,
            _ => 5,
        }
    }
}

/// An RZ whose constant angle is zero to within 1e-15: single-qubit
/// rewrites leave it out.
fn is_zero_rz(gate: &Gate) -> bool {
    matches!(gate, Gate::Rz(_, t) if t.const_value().is_some_and(|v| v.abs() < 1e-15))
}

/// Writes the translation of each gate into one output vector.
struct Lowering {
    basis: Basis,
    out: Vec<Gate>,
    /// The first gate the basis cannot express, if any.
    unexpressed: Option<Gate>,
}

impl Lowering {
    /// Append the translation of `gate`. A gate the basis allows passes
    /// through; a two-qubit gate expands over CX (and CX over CZ when only
    /// `cz` is allowed); a single-qubit gate becomes RZ/SX, without its zero
    /// rotations. A gate the rules cannot bring into the basis is written in
    /// the closest form they reach and noted in `unexpressed`.
    fn emit(&mut self, gate: Gate) {
        if self.basis.allows(&gate) {
            self.out.push(gate);
            return;
        }
        match gate {
            Gate::Cx(c, t) if self.basis.allows_cz() => {
                self.emit(Gate::H(t));
                self.out.push(Gate::Cz(c, t));
                self.emit(Gate::H(t));
            }
            Gate::Cx(..) => self.note_unexpressed(gate),
            g if g.is_two_qubit() => {
                for &sub in decompose_2q_to_cx(&g).as_slice() {
                    self.emit(sub);
                }
            }
            _ => {
                for &g in decompose_1q(&gate)
                    .as_slice()
                    .iter()
                    .filter(|g| !is_zero_rz(g))
                {
                    if self.basis.allows(&g) {
                        self.out.push(g);
                    } else {
                        self.note_unexpressed(g);
                    }
                }
            }
        }
    }

    fn note_unexpressed(&mut self, gate: Gate) {
        self.unexpressed.get_or_insert(gate);
        self.out.push(gate);
    }
}

/// Translate `gates` into the target basis: the translated gates, reserved
/// once, and the first gate the basis cannot express, if any.
pub(crate) fn lower_gates(gates: &[Gate], target: &TranspileTarget) -> (Vec<Gate>, Option<Gate>) {
    let basis = Basis::of(target);
    let mut lowering = Lowering {
        basis,
        out: Vec::with_capacity(gates.iter().map(|g| basis.bound(g)).sum()),
        unexpressed: None,
    };
    for &gate in gates {
        lowering.emit(gate);
    }
    (lowering.out, lowering.unexpressed)
}

/// Rewrite every gate of a circuit into the target basis, preserving the
/// measurement map.
///
/// A gate the basis cannot express (a single-qubit gate when `rz` or `sx`
/// is missing, a two-qubit gate when both `cx` and `cz` are) is left in the
/// closest form the rules reach; [`crate::transpile`] reports it as
/// [`crate::TranspileError::UnsupportedBasis`] instead.
pub fn decompose_to_basis(circuit: &Circuit, target: &TranspileTarget) -> Circuit {
    let (gates, _) = lower_gates(circuit.gates(), target);
    Circuit::from_gates(circuit.num_qubits(), gates, circuit.measured())
}

/// Product matrix of a single-qubit gate sequence (applied left to right).
/// Every gate must be bound; a two-qubit gate contributes nothing.
pub(crate) fn sequence_matrix<'a>(gates: impl IntoIterator<Item = &'a Gate>) -> [Complex64; 4] {
    let mut m = [
        Complex64::ONE,
        Complex64::ZERO,
        Complex64::ZERO,
        Complex64::ONE,
    ];
    for gm in gates.into_iter().filter_map(Gate::single_qubit_matrix) {
        m = matmul2(&gm, &m);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use qml_sim::{qft_circuit, Simulator, StateVector};

    const EPS: f64 = 1e-9;

    /// True if two 2×2 matrices are equal up to a global phase.
    pub(crate) fn matrices_equal_up_to_phase(
        a: &[Complex64; 4],
        b: &[Complex64; 4],
        eps: f64,
    ) -> bool {
        // Normalize the phase against the largest entry of a.
        let (idx, _) = a
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.norm_sqr().total_cmp(&y.1.norm_sqr()))
            .unwrap();
        if b[idx].abs() < eps {
            return false;
        }
        let phase = a[idx] * b[idx].conj() * (1.0 / b[idx].norm_sqr());
        (0..4).all(|i| (b[i] * phase).approx_eq(a[i], eps))
    }

    fn sequences_equal_up_to_phase(a: &[Gate], b: &[Gate], eps: f64) -> bool {
        matrices_equal_up_to_phase(&sequence_matrix(a), &sequence_matrix(b), eps)
    }

    fn all_1q_gates() -> Vec<Gate> {
        vec![
            Gate::H(0),
            Gate::X(0),
            Gate::Y(0),
            Gate::Z(0),
            Gate::S(0),
            Gate::Sdg(0),
            Gate::T(0),
            Gate::Tdg(0),
            Gate::Sx(0),
            Gate::Rx(0, (0.37).into()),
            Gate::Ry(0, (-2.2).into()),
            Gate::Rz(0, (1.9).into()),
            Gate::Phase(0, (0.55).into()),
            Gate::U(0, 1.2, 0.4, -0.9),
        ]
    }

    #[test]
    fn u_angle_extraction_round_trips() {
        for gate in all_1q_gates() {
            let m = gate.single_qubit_matrix().unwrap();
            let (theta, phi, lambda) = u_angles_from_matrix(&m);
            let rebuilt = Gate::U(0, theta, phi, lambda)
                .single_qubit_matrix()
                .unwrap();
            assert!(
                matrices_equal_up_to_phase(&m, &rebuilt, EPS),
                "angle extraction failed for {}",
                gate.name()
            );
        }
    }

    #[test]
    fn zsx_decomposition_is_exact_up_to_phase() {
        for gate in all_1q_gates() {
            let seq = decompose_1q(&gate);
            let seq = seq.as_slice();
            assert!(
                sequences_equal_up_to_phase(&[gate], seq, EPS),
                "ZXZXZ decomposition failed for {}",
                gate.name()
            );
            assert!(seq
                .iter()
                .all(|g| matches!(g, Gate::Rz(_, _) | Gate::Sx(_))));
        }
    }

    #[test]
    fn diagonal_gates_become_single_rz() {
        for gate in [
            Gate::Z(0),
            Gate::S(0),
            Gate::T(0),
            Gate::Phase(0, (0.3).into()),
            Gate::Rz(0, (1.0).into()),
        ] {
            let seq = decompose_1q(&gate);
            assert_eq!(
                seq.as_slice().len(),
                1,
                "{} should lower to one rz",
                gate.name()
            );
        }
    }

    #[test]
    fn two_qubit_decompositions_preserve_statevector() {
        // Verify on a 2-qubit probe state with non-trivial single-qubit prep.
        let prep = [
            Gate::Ry(0, (0.63).into()),
            Gate::Rx(1, (-1.1).into()),
            Gate::Rz(0, (0.2).into()),
        ];
        for gate in [
            Gate::Cz(0, 1),
            Gate::Cp(0, 1, (0.77).into()),
            Gate::Swap(0, 1),
            Gate::Rzz(0, 1, (1.3).into()),
            Gate::Cx(1, 0),
        ] {
            let mut direct = StateVector::zero_state(2);
            direct.apply_all(&prep);
            direct.apply(&gate);

            let mut decomposed = StateVector::zero_state(2);
            decomposed.apply_all(&prep);
            decomposed.apply_all(decompose_2q_to_cx(&gate).as_slice());

            assert!(
                (direct.fidelity(&decomposed) - 1.0).abs() < EPS,
                "{} decomposition changed the state",
                gate.name()
            );
        }
    }

    #[test]
    fn decompose_to_hardware_basis_only_emits_basis_gates() {
        let mut qc = qft_circuit(5, 0, true, false);
        qc.measure_all();
        let target = TranspileTarget::hardware_all_to_all();
        let lowered = decompose_to_basis(&qc, &target);
        let basis: Vec<String> = ["sx", "rz", "cx"].iter().map(|s| s.to_string()).collect();
        assert!(lowered.uses_only(&basis));
        assert_eq!(lowered.measured(), qc.measured());
    }

    #[test]
    fn hardware_basis_circuit_preserves_distribution() {
        let n = 4;
        let mut qc = qft_circuit(n, 0, true, false);
        qc.measure_all();
        let lowered = decompose_to_basis(&qc, &TranspileTarget::hardware_all_to_all());

        let sim = Simulator::new();
        let a = sim.exact_distribution(&qc);
        let b = sim.exact_distribution(&lowered);
        for (word, p) in &a {
            let q = b.get(word).copied().unwrap_or(0.0);
            assert!((p - q).abs() < 1e-9, "distribution differs at {word}");
        }
    }

    #[test]
    fn ideal_target_is_a_no_op() {
        let mut qc = Circuit::new(2);
        qc.extend(&[Gate::H(0), Gate::Cp(0, 1, (0.4).into())]);
        qc.measure_all();
        let out = decompose_to_basis(&qc, &TranspileTarget::ideal());
        assert_eq!(out.gates(), qc.gates());
    }

    #[test]
    fn gates_already_in_basis_pass_through() {
        let target = TranspileTarget::hardware_all_to_all();
        let gates = [Gate::Cx(0, 1), Gate::Sx(2), Gate::Rz(1, (0.5).into())];
        let (lowered, unexpressed) = lower_gates(&gates, &target);
        assert_eq!(lowered, gates);
        assert_eq!(lowered.capacity(), gates.len());
        assert!(unexpressed.is_none());
    }

    #[test]
    fn kind_names_match_gate_names() {
        let gates = [
            Gate::H(0),
            Gate::X(0),
            Gate::Y(0),
            Gate::Z(0),
            Gate::S(0),
            Gate::Sdg(0),
            Gate::T(0),
            Gate::Tdg(0),
            Gate::Sx(0),
            Gate::Rx(0, 0.1.into()),
            Gate::Ry(0, 0.1.into()),
            Gate::Rz(0, 0.1.into()),
            Gate::Phase(0, 0.1.into()),
            Gate::U(0, 0.1, 0.2, 0.3),
            Gate::Cx(0, 1),
            Gate::Cz(0, 1),
            Gate::Cp(0, 1, 0.1.into()),
            Gate::Swap(0, 1),
            Gate::Rzz(0, 1, 0.1.into()),
        ];
        assert_eq!(gates.len(), KIND_NAMES.len());
        for gate in gates {
            assert_eq!(KIND_NAMES[kind(&gate)], gate.name());
        }
    }

    #[test]
    fn a_cz_basis_lowers_cx_through_hadamards() {
        let target = TranspileTarget {
            basis_gates: vec!["cz".into(), "rz".into(), "sx".into()],
            coupling_map: None,
        };
        let (lowered, unexpressed) = lower_gates(&[Gate::Cx(0, 1), Gate::Swap(0, 1)], &target);
        assert!(unexpressed.is_none());
        assert!(lowered
            .iter()
            .all(|g| matches!(g, Gate::Cz(..) | Gate::Rz(..) | Gate::Sx(_))));
        assert_eq!(lowered.iter().filter(|g| g.is_two_qubit()).count(), 4);
        assert!(lowered.len() <= lowered.capacity());
    }

    #[test]
    fn a_basis_missing_a_rewrite_target_is_reported() {
        let target = TranspileTarget {
            basis_gates: vec!["cx".into(), "h".into()],
            coupling_map: None,
        };
        let (_, unexpressed) = lower_gates(&[Gate::H(0), Gate::Rz(0, 0.3.into())], &target);
        assert!(matches!(unexpressed, Some(Gate::Rz(..))));
        let no_entangler = TranspileTarget {
            basis_gates: vec!["sx".into(), "rz".into()],
            coupling_map: None,
        };
        let (_, unexpressed) = lower_gates(&[Gate::Swap(0, 1)], &no_entangler);
        assert!(matches!(unexpressed, Some(Gate::Cx(..))));
    }

    #[test]
    fn matrices_equal_up_to_phase_detects_difference() {
        let h = Gate::H(0).single_qubit_matrix().unwrap();
        let x = Gate::X(0).single_qubit_matrix().unwrap();
        assert!(!matrices_equal_up_to_phase(&h, &x, 1e-9));
        assert!(matrices_equal_up_to_phase(&h, &h, 1e-9));
    }
}
