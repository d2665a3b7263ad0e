//! The simulator's gate set.
//!
//! This is the vocabulary gate backends lower operator descriptors into and
//! the transpiler rewrites. It covers everything the paper's two workflows
//! need — the QFT motivational example (H, controlled-phase, SWAP) and the
//! QAOA Max-Cut path (H, RZZ, RX) — plus the `{sx, rz, cx}` hardware basis of
//! the paper's Listing 4 context and the generic `U(θ, φ, λ)` used by
//! single-qubit resynthesis.
//!
//! Rotation angles are [`ParamExpr`]s, so a gate may carry **symbolic** late-
//! bound parameters all the way through routing and optimization; only the
//! matrix accessors require bound angles. Concrete angles convert implicitly
//! via `From<f64>` (`Gate::Rz(0, theta.into())`).
//!
//! `U`'s three angles are plain `f64` constants. No descriptor lowers to a
//! `U`: the transpiler builds one only from the angles of a bound 2×2
//! matrix, to resynthesize a run of one-qubit gates. With three 32-byte
//! `ParamExpr`s, `U` would be the largest variant and a `Gate` 112 bytes. As
//! it is, the largest variants are `Cp` and `Rzz` (two indices and one
//! `ParamExpr`), so a `Gate` is 56 bytes. Plans, transpiler buffers and fused
//! ops hold gates by value, so this size is what a cached plan costs per
//! gate.

use serde::{Deserialize, Serialize};
use std::f64::consts::{FRAC_PI_2, PI};

use crate::complex::Complex64;
use crate::param::ParamExpr;

/// A quantum gate applied to specific qubit indices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Gate {
    /// Hadamard.
    H(usize),
    /// Pauli-X.
    X(usize),
    /// Pauli-Y.
    Y(usize),
    /// Pauli-Z.
    Z(usize),
    /// Phase gate S = diag(1, i).
    S(usize),
    /// S†.
    Sdg(usize),
    /// T = diag(1, e^{iπ/4}).
    T(usize),
    /// T†.
    Tdg(usize),
    /// √X — a hardware-native gate in the paper's `[sx, rz, cx]` basis.
    Sx(usize),
    /// Rotation about X by θ.
    Rx(usize, ParamExpr),
    /// Rotation about Y by θ.
    Ry(usize, ParamExpr),
    /// Rotation about Z by θ (global-phase-free diag(e^{-iθ/2}, e^{iθ/2})).
    Rz(usize, ParamExpr),
    /// Phase gate P(λ) = diag(1, e^{iλ}).
    Phase(usize, ParamExpr),
    /// Generic single-qubit U(θ, φ, λ), with constant angles.
    U(usize, f64, f64, f64),
    /// Controlled-X (control, target).
    Cx(usize, usize),
    /// Controlled-Z.
    Cz(usize, usize),
    /// Controlled-phase CP(λ) (control, target, λ).
    Cp(usize, usize, ParamExpr),
    /// SWAP.
    Swap(usize, usize),
    /// Two-qubit ZZ interaction exp(-i θ/2 Z⊗Z) — the QAOA cost layer's
    /// native primitive.
    Rzz(usize, usize, ParamExpr),
}

impl Gate {
    /// Lower-case gate name as used in context `basis_gates` lists.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::H(_) => "h",
            Gate::X(_) => "x",
            Gate::Y(_) => "y",
            Gate::Z(_) => "z",
            Gate::S(_) => "s",
            Gate::Sdg(_) => "sdg",
            Gate::T(_) => "t",
            Gate::Tdg(_) => "tdg",
            Gate::Sx(_) => "sx",
            Gate::Rx(_, _) => "rx",
            Gate::Ry(_, _) => "ry",
            Gate::Rz(_, _) => "rz",
            Gate::Phase(_, _) => "p",
            Gate::U(_, _, _, _) => "u",
            Gate::Cx(_, _) => "cx",
            Gate::Cz(_, _) => "cz",
            Gate::Cp(_, _, _) => "cp",
            Gate::Swap(_, _) => "swap",
            Gate::Rzz(_, _, _) => "rzz",
        }
    }

    /// Qubits the gate acts on (control first for controlled gates), as an
    /// inline value: no heap allocation, so per-gate range checks and the
    /// transpiler's overlap scans cost nothing beyond the two indices.
    pub fn qubits(&self) -> Qubits {
        match *self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::Sx(q)
            | Gate::Rx(q, _)
            | Gate::Ry(q, _)
            | Gate::Rz(q, _)
            | Gate::Phase(q, _)
            | Gate::U(q, _, _, _) => Qubits {
                idx: [q, 0],
                len: 1,
            },
            Gate::Cx(c, t)
            | Gate::Cz(c, t)
            | Gate::Cp(c, t, _)
            | Gate::Swap(c, t)
            | Gate::Rzz(c, t, _) => Qubits {
                idx: [c, t],
                len: 2,
            },
        }
    }

    /// True for two-qubit (entangling) gates.
    pub fn is_two_qubit(&self) -> bool {
        matches!(
            self,
            Gate::Cx(..) | Gate::Cz(..) | Gate::Cp(..) | Gate::Swap(..) | Gate::Rzz(..)
        )
    }

    /// True if any angle of the gate still carries unbound symbols.
    pub fn is_symbolic(&self) -> bool {
        match self {
            Gate::Rx(_, t)
            | Gate::Ry(_, t)
            | Gate::Rz(_, t)
            | Gate::Phase(_, t)
            | Gate::Cp(_, _, t)
            | Gate::Rzz(_, _, t) => t.is_symbolic(),
            _ => false,
        }
    }

    /// Substitute a slot-indexed value table into every symbolic angle.
    pub(crate) fn bind(&self, values: &[f64]) -> Gate {
        match *self {
            Gate::Rx(q, t) => Gate::Rx(q, t.bind(values)),
            Gate::Ry(q, t) => Gate::Ry(q, t.bind(values)),
            Gate::Rz(q, t) => Gate::Rz(q, t.bind(values)),
            Gate::Phase(q, t) => Gate::Phase(q, t.bind(values)),
            Gate::Cp(c, t, l) => Gate::Cp(c, t, l.bind(values)),
            Gate::Rzz(a, b, t) => Gate::Rzz(a, b, t.bind(values)),
            other => other,
        }
    }

    /// The inverse gate. Exact for symbolic angles (negation is affine).
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::H(q) => Gate::H(q),
            Gate::X(q) => Gate::X(q),
            Gate::Y(q) => Gate::Y(q),
            Gate::Z(q) => Gate::Z(q),
            Gate::S(q) => Gate::Sdg(q),
            Gate::Sdg(q) => Gate::S(q),
            Gate::T(q) => Gate::Tdg(q),
            Gate::Tdg(q) => Gate::T(q),
            // sx⁻¹ = sx† = rx(-π/2) up to global phase.
            Gate::Sx(q) => Gate::Rx(q, (-FRAC_PI_2).into()),
            Gate::Rx(q, t) => Gate::Rx(q, t.neg()),
            Gate::Ry(q, t) => Gate::Ry(q, t.neg()),
            Gate::Rz(q, t) => Gate::Rz(q, t.neg()),
            Gate::Phase(q, t) => Gate::Phase(q, t.neg()),
            Gate::U(q, theta, phi, lambda) => Gate::U(q, -theta, -lambda, -phi),
            Gate::Cx(c, t) => Gate::Cx(c, t),
            Gate::Cz(c, t) => Gate::Cz(c, t),
            Gate::Cp(c, t, l) => Gate::Cp(c, t, l.neg()),
            Gate::Swap(a, b) => Gate::Swap(a, b),
            Gate::Rzz(a, b, t) => Gate::Rzz(a, b, t.neg()),
        }
    }

    /// Remap qubit indices through `map` (used by routing and register
    /// layout). `map[i]` is the new index of old qubit `i`.
    pub fn remap(&self, map: &[usize]) -> Gate {
        let m = |q: usize| map[q];
        match *self {
            Gate::H(q) => Gate::H(m(q)),
            Gate::X(q) => Gate::X(m(q)),
            Gate::Y(q) => Gate::Y(m(q)),
            Gate::Z(q) => Gate::Z(m(q)),
            Gate::S(q) => Gate::S(m(q)),
            Gate::Sdg(q) => Gate::Sdg(m(q)),
            Gate::T(q) => Gate::T(m(q)),
            Gate::Tdg(q) => Gate::Tdg(m(q)),
            Gate::Sx(q) => Gate::Sx(m(q)),
            Gate::Rx(q, t) => Gate::Rx(m(q), t),
            Gate::Ry(q, t) => Gate::Ry(m(q), t),
            Gate::Rz(q, t) => Gate::Rz(m(q), t),
            Gate::Phase(q, t) => Gate::Phase(m(q), t),
            Gate::U(q, a, b, c) => Gate::U(m(q), a, b, c),
            Gate::Cx(c, t) => Gate::Cx(m(c), m(t)),
            Gate::Cz(c, t) => Gate::Cz(m(c), m(t)),
            Gate::Cp(c, t, l) => Gate::Cp(m(c), m(t), l),
            Gate::Swap(a, b) => Gate::Swap(m(a), m(b)),
            Gate::Rzz(a, b, t) => Gate::Rzz(m(a), m(b), t),
        }
    }

    /// The 2×2 matrix of a single-qubit gate in row-major order
    /// `[m00, m01, m10, m11]`, or `None` for two-qubit gates.
    ///
    /// # Panics
    /// Panics if the gate carries an unbound symbolic angle — bind the plan
    /// before requesting matrices.
    pub fn single_qubit_matrix(&self) -> Option<[Complex64; 4]> {
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        let m = match *self {
            Gate::H(_) => [
                Complex64::real(inv_sqrt2),
                Complex64::real(inv_sqrt2),
                Complex64::real(inv_sqrt2),
                Complex64::real(-inv_sqrt2),
            ],
            Gate::X(_) => [
                Complex64::ZERO,
                Complex64::ONE,
                Complex64::ONE,
                Complex64::ZERO,
            ],
            Gate::Y(_) => [
                Complex64::ZERO,
                -Complex64::I,
                Complex64::I,
                Complex64::ZERO,
            ],
            Gate::Z(_) => [
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                -Complex64::ONE,
            ],
            Gate::S(_) => [
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::I,
            ],
            Gate::Sdg(_) => [
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                -Complex64::I,
            ],
            Gate::T(_) => [
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::from_phase(PI / 4.0),
            ],
            Gate::Tdg(_) => [
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::from_phase(-PI / 4.0),
            ],
            Gate::Sx(_) => [
                Complex64::new(0.5, 0.5),
                Complex64::new(0.5, -0.5),
                Complex64::new(0.5, -0.5),
                Complex64::new(0.5, 0.5),
            ],
            Gate::Rx(_, t) => {
                let t = t.value();
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                [
                    Complex64::real(c),
                    Complex64::new(0.0, -s),
                    Complex64::new(0.0, -s),
                    Complex64::real(c),
                ]
            }
            Gate::Ry(_, t) => {
                let t = t.value();
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                [
                    Complex64::real(c),
                    Complex64::real(-s),
                    Complex64::real(s),
                    Complex64::real(c),
                ]
            }
            Gate::Rz(_, t) => {
                let t = t.value();
                [
                    Complex64::from_phase(-t / 2.0),
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::from_phase(t / 2.0),
                ]
            }
            Gate::Phase(_, l) => [
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::from_phase(l.value()),
            ],
            Gate::U(_, theta, phi, lambda) => {
                let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                [
                    Complex64::real(c),
                    Complex64::from_phase(lambda).scale(-s),
                    Complex64::from_phase(phi).scale(s),
                    Complex64::from_phase(phi + lambda).scale(c),
                ]
            }
            _ => return None,
        };
        Some(m)
    }
}

/// The one or two qubit indices of a [`Gate`], held inline. Dereferences to
/// `[usize]` (so `len`, indexing, `contains` and `iter` work as on the `Vec`
/// it replaces), iterates by value, and compares with other index lists.
#[derive(Clone, Copy)]
pub struct Qubits {
    idx: [usize; 2],
    len: usize,
}

impl std::ops::Deref for Qubits {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.idx[..self.len]
    }
}

impl std::fmt::Debug for Qubits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl IntoIterator for Qubits {
    type Item = usize;
    type IntoIter = std::iter::Take<std::array::IntoIter<usize, 2>>;
    fn into_iter(self) -> Self::IntoIter {
        self.idx.into_iter().take(self.len)
    }
}

impl<'a> IntoIterator for &'a Qubits {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Qubits {
    fn eq(&self, other: &Qubits) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<usize>> for Qubits {
    fn eq(&self, other: &Vec<usize>) -> bool {
        **self == **other
    }
}

/// Multiply two 2×2 matrices stored row-major: `a · b`.
pub fn matmul2(a: &[Complex64; 4], b: &[Complex64; 4]) -> [Complex64; 4] {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamExpr;

    const EPS: f64 = 1e-10;

    /// Check that a 2×2 matrix is unitary within `eps`: m† m = I.
    fn is_unitary2(m: &[Complex64; 4], eps: f64) -> bool {
        let dag = [m[0].conj(), m[2].conj(), m[1].conj(), m[3].conj()];
        let p = matmul2(&dag, m);
        p[0].approx_eq(Complex64::ONE, eps)
            && p[3].approx_eq(Complex64::ONE, eps)
            && p[1].approx_eq(Complex64::ZERO, eps)
            && p[2].approx_eq(Complex64::ZERO, eps)
    }

    fn single_qubit_gates() -> Vec<Gate> {
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
            Gate::Rx(0, 0.7.into()),
            Gate::Ry(0, (-1.3).into()),
            Gate::Rz(0, 2.1.into()),
            Gate::Phase(0, 0.9.into()),
            Gate::U(0, 1.0, 0.5, -0.3),
        ]
    }

    #[test]
    fn all_single_qubit_matrices_are_unitary() {
        for gate in single_qubit_gates() {
            let m = gate.single_qubit_matrix().unwrap();
            assert!(is_unitary2(&m, EPS), "{} is not unitary", gate.name());
        }
    }

    #[test]
    fn two_qubit_gates_have_no_single_matrix() {
        for gate in [
            Gate::Cx(0, 1),
            Gate::Cz(0, 1),
            Gate::Swap(0, 1),
            Gate::Rzz(0, 1, 0.3.into()),
        ] {
            assert!(gate.single_qubit_matrix().is_none());
            assert!(gate.is_two_qubit());
        }
    }

    #[test]
    fn sx_squared_is_x() {
        let sx = Gate::Sx(0).single_qubit_matrix().unwrap();
        let x = Gate::X(0).single_qubit_matrix().unwrap();
        let sq = matmul2(&sx, &sx);
        for i in 0..4 {
            assert!(sq[i].approx_eq(x[i], EPS), "entry {i}");
        }
    }

    #[test]
    fn inverse_times_gate_is_identity_for_1q() {
        for gate in single_qubit_gates() {
            let m = gate.single_qubit_matrix().unwrap();
            let inv = gate.inverse().single_qubit_matrix().unwrap();
            let p = matmul2(&inv, &m);
            // Identity up to a global phase: off-diagonals vanish and the
            // diagonal entries are equal unit-magnitude numbers.
            assert!(p[1].approx_eq(Complex64::ZERO, EPS), "{}", gate.name());
            assert!(p[2].approx_eq(Complex64::ZERO, EPS), "{}", gate.name());
            assert!((p[0].abs() - 1.0).abs() < EPS, "{}", gate.name());
            assert!(p[0].approx_eq(p[3], EPS), "{}", gate.name());
        }
    }

    #[test]
    fn u_gate_specializations() {
        // U(π/2, 0, π) = H up to global phase; compare action structure.
        let u = Gate::U(0, std::f64::consts::FRAC_PI_2, 0.0, PI)
            .single_qubit_matrix()
            .unwrap();
        let h = Gate::H(0).single_qubit_matrix().unwrap();
        for i in 0..4 {
            assert!(u[i].approx_eq(h[i], EPS), "entry {i}: {} vs {}", u[i], h[i]);
        }
    }

    #[test]
    fn names_and_qubits() {
        assert_eq!(Gate::Cx(2, 5).name(), "cx");
        assert_eq!(Gate::Cx(2, 5).qubits(), vec![2, 5]);
        assert_eq!(Gate::Rz(3, 0.1.into()).qubits(), vec![3]);
        assert_eq!(Gate::Rzz(0, 1, 0.4.into()).name(), "rzz");
    }

    #[test]
    fn qubits_behave_like_the_index_list_they_replace() {
        let two = Gate::Swap(4, 1).qubits();
        assert_eq!((two.len(), two[0], two[1]), (2, 4, 1));
        assert_eq!(two, vec![4, 1]);
        assert_ne!(two, Gate::Swap(1, 4).qubits());
        assert_eq!(two.into_iter().collect::<Vec<usize>>(), vec![4, 1]);
        assert_eq!(format!("{two:?}"), "[4, 1]");
        let one = Gate::H(7).qubits();
        // The unused second slot never leaks into length, equality or iteration.
        assert_eq!(one, vec![7]);
        assert_ne!(one, Gate::Cx(7, 0).qubits());
        assert_eq!((&one).into_iter().count(), 1);
        assert!(one.contains(&7) && !one.contains(&0));
    }

    #[test]
    fn remap_changes_indices() {
        let map = vec![2, 0, 1];
        assert_eq!(Gate::Cx(0, 2).remap(&map), Gate::Cx(2, 1));
        assert_eq!(Gate::H(1).remap(&map), Gate::H(0));
    }

    #[test]
    fn phase_and_rz_differ_by_global_phase_only() {
        let theta = 0.83;
        let p = Gate::Phase(0, theta.into()).single_qubit_matrix().unwrap();
        let rz = Gate::Rz(0, theta.into()).single_qubit_matrix().unwrap();
        // p = e^{iθ/2} rz  ⇒ ratio of corresponding entries is a fixed phase.
        let phase = Complex64::from_phase(theta / 2.0);
        assert!(p[0].approx_eq(rz[0] * phase, EPS));
        assert!(p[3].approx_eq(rz[3] * phase, EPS));
    }

    #[test]
    fn symbolic_gates_bind_to_concrete_gates() {
        let g = Gate::Rzz(0, 1, ParamExpr::symbol(0).scale(2.0));
        assert!(g.is_symbolic());
        assert!(!g.bind(&[0.4]).is_symbolic());
        assert_eq!(g.bind(&[0.4]), Gate::Rzz(0, 1, 0.8.into()));
        // Binding is the identity on concrete gates.
        assert_eq!(Gate::H(0).bind(&[]), Gate::H(0));
        assert_eq!(Gate::Rx(0, 0.3.into()).bind(&[]), Gate::Rx(0, 0.3.into()));
    }

    #[test]
    fn symbolic_inverse_cancels_after_binding() {
        let g = Gate::Rx(0, ParamExpr::symbol(0));
        let roundtrip = g.inverse().bind(&[0.9]).single_qubit_matrix().unwrap();
        let forward = g.bind(&[0.9]).single_qubit_matrix().unwrap();
        let p = matmul2(&roundtrip, &forward);
        assert!(p[1].approx_eq(Complex64::ZERO, EPS));
        assert!(p[2].approx_eq(Complex64::ZERO, EPS));
    }

    #[test]
    #[should_panic(expected = "unbound symbolic")]
    fn matrix_of_symbolic_gate_panics() {
        Gate::Rx(0, ParamExpr::symbol(0)).single_qubit_matrix();
    }

    #[test]
    fn symbolic_gates_serde_round_trip() {
        let g = Gate::Cp(0, 1, ParamExpr::symbol(2).shift(0.5));
        let json = serde_json::to_string(&g).unwrap();
        let back: Gate = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
    }
}
