//! The optimizer and basis translation as they were before the one-buffer
//! rewrite, kept as test oracles: the tests hold [`crate::passes::optimize`]
//! and [`crate::basis::decompose_to_basis`] to these with `==`, so every
//! plan stays bit-identical. Each pass here rebuilds a whole circuit, finds
//! "the last gate on these qubits" by a backward scan and cancels with
//! `Vec::remove`; the translation allocates per gate and recurses through
//! `flat_map().collect()`. It terminates only on bases whose two-qubit
//! rules end in an allowed gate (any basis holding `cx`, or the empty one).

use qml_sim::{Circuit, Gate, ParamExpr};

use crate::basis::{sequence_matrix, u_angles_from_matrix};
use crate::target::TranspileTarget;

const ANGLE_EPS: f64 = 1e-12;

fn is_trivial_angle(theta: f64) -> bool {
    let reduced = theta.rem_euclid(std::f64::consts::TAU);
    reduced.abs() < ANGLE_EPS || (std::f64::consts::TAU - reduced).abs() < ANGLE_EPS
}

fn is_trivial_expr(theta: &ParamExpr) -> bool {
    theta.const_value().is_some_and(is_trivial_angle)
}

// ---------------------------------------------------------------------------
// Basis translation
// ---------------------------------------------------------------------------

fn zsx_sequence(q: usize, theta: ParamExpr, phi: ParamExpr, lambda: ParamExpr) -> Vec<Gate> {
    vec![
        Gate::Rz(q, lambda),
        Gate::Sx(q),
        Gate::Rz(q, theta.shift(std::f64::consts::PI)),
        Gate::Sx(q),
        Gate::Rz(q, phi.shift(std::f64::consts::PI)),
    ]
}

pub fn decompose_1q_to_zsx(gate: &Gate) -> Vec<Gate> {
    let q = gate.qubits()[0];
    match *gate {
        Gate::Rz(_, t) => return vec![Gate::Rz(q, t)],
        Gate::Z(_) => return vec![Gate::Rz(q, (std::f64::consts::PI).into())],
        Gate::S(_) => return vec![Gate::Rz(q, (std::f64::consts::FRAC_PI_2).into())],
        Gate::Sdg(_) => return vec![Gate::Rz(q, (-std::f64::consts::FRAC_PI_2).into())],
        Gate::T(_) => return vec![Gate::Rz(q, (std::f64::consts::FRAC_PI_4).into())],
        Gate::Tdg(_) => return vec![Gate::Rz(q, (-std::f64::consts::FRAC_PI_4).into())],
        Gate::Phase(_, l) => return vec![Gate::Rz(q, l)],
        Gate::Sx(_) => return vec![Gate::Sx(q)],
        _ => {}
    }
    if gate.is_symbolic() {
        return match *gate {
            Gate::Rx(_, t) => zsx_sequence(
                q,
                t,
                (-std::f64::consts::FRAC_PI_2).into(),
                std::f64::consts::FRAC_PI_2.into(),
            ),
            Gate::Ry(_, t) => zsx_sequence(q, t, 0.0.into(), 0.0.into()),
            _ => unreachable!("only rotation gates carry symbolic angles"),
        };
    }
    let m = gate
        .single_qubit_matrix()
        .expect("decompose_1q_to_zsx requires a single-qubit gate");
    let (theta, phi, lambda) = u_angles_from_matrix(&m);
    zsx_sequence(q, theta.into(), phi.into(), lambda.into())
}

pub fn decompose_2q_to_cx(gate: &Gate) -> Vec<Gate> {
    match *gate {
        Gate::Cx(c, t) => vec![Gate::Cx(c, t)],
        Gate::Cz(c, t) => vec![Gate::H(t), Gate::Cx(c, t), Gate::H(t)],
        Gate::Cp(c, t, l) => vec![
            Gate::Phase(c, l.scale(0.5)),
            Gate::Cx(c, t),
            Gate::Phase(t, l.scale(-0.5)),
            Gate::Cx(c, t),
            Gate::Phase(t, l.scale(0.5)),
        ],
        Gate::Swap(a, b) => vec![Gate::Cx(a, b), Gate::Cx(b, a), Gate::Cx(a, b)],
        Gate::Rzz(a, b, t) => vec![Gate::Cx(a, b), Gate::Rz(b, t), Gate::Cx(a, b)],
        _ => panic!(
            "decompose_2q_to_cx called on non-two-qubit gate {}",
            gate.name()
        ),
    }
}

pub fn decompose_gate(gate: &Gate, target: &TranspileTarget) -> Vec<Gate> {
    if target.allows(gate.name()) {
        return vec![*gate];
    }
    if gate.is_two_qubit() {
        decompose_2q_to_cx(gate)
            .into_iter()
            .flat_map(|g| decompose_gate(&g, target))
            .collect()
    } else {
        decompose_1q_to_zsx(gate)
            .into_iter()
            .filter(
                |g| !matches!(g, Gate::Rz(_, t) if t.const_value().is_some_and(|v| v.abs() < 1e-15)),
            )
            .collect()
    }
}

pub fn decompose_to_basis(circuit: &Circuit, target: &TranspileTarget) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits());
    for gate in circuit.gates() {
        for g in decompose_gate(gate, target) {
            out.push(g);
        }
    }
    out.measure(circuit.measured());
    out
}

// ---------------------------------------------------------------------------
// Optimization passes
// ---------------------------------------------------------------------------

pub fn drop_identity_rotations(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits());
    for gate in circuit.gates() {
        let trivial = match gate {
            Gate::Rz(_, t) | Gate::Rx(_, t) | Gate::Ry(_, t) | Gate::Phase(_, t) => {
                is_trivial_expr(t)
            }
            Gate::Cp(_, _, t) | Gate::Rzz(_, _, t) => is_trivial_expr(t),
            _ => false,
        };
        if !trivial {
            out.push(*gate);
        }
    }
    out.measure(circuit.measured());
    out
}

fn last_overlapping(gates: &[Gate], gate: &Gate) -> Option<usize> {
    let qs = gate.qubits();
    gates
        .iter()
        .rposition(|g| g.qubits().iter().any(|q| qs.contains(q)))
}

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

pub fn cancel_adjacent_inverses(circuit: &Circuit) -> Circuit {
    let mut gates: Vec<Gate> = Vec::with_capacity(circuit.len());
    for gate in circuit.gates() {
        if let Some(idx) = last_overlapping(&gates, gate) {
            if is_inverse_pair(&gates[idx], gate) {
                gates.remove(idx);
                continue;
            }
        }
        gates.push(*gate);
    }
    let mut out = Circuit::new(circuit.num_qubits());
    out.extend(&gates);
    out.measure(circuit.measured());
    out
}

pub fn merge_rotations(circuit: &Circuit) -> Circuit {
    let mut gates: Vec<Gate> = Vec::with_capacity(circuit.len());
    for gate in circuit.gates() {
        if let Some(idx) = last_overlapping(&gates, gate) {
            let merged = match (&gates[idx], gate) {
                (Gate::Rz(q, a), Gate::Rz(_, b)) if gates[idx].qubits() == gate.qubits() => {
                    a.try_add(b).map(|sum| Gate::Rz(*q, sum))
                }
                (Gate::Rx(q, a), Gate::Rx(_, b)) if gates[idx].qubits() == gate.qubits() => {
                    a.try_add(b).map(|sum| Gate::Rx(*q, sum))
                }
                (Gate::Ry(q, a), Gate::Ry(_, b)) if gates[idx].qubits() == gate.qubits() => {
                    a.try_add(b).map(|sum| Gate::Ry(*q, sum))
                }
                (Gate::Phase(q, a), Gate::Phase(_, b)) if gates[idx].qubits() == gate.qubits() => {
                    a.try_add(b).map(|sum| Gate::Phase(*q, sum))
                }
                (Gate::Cp(c, t, a), Gate::Cp(_, _, b)) if gates[idx].qubits() == gate.qubits() => {
                    a.try_add(b).map(|sum| Gate::Cp(*c, *t, sum))
                }
                (Gate::Rzz(c, t, a), Gate::Rzz(_, _, b))
                    if gates[idx].qubits() == gate.qubits() =>
                {
                    a.try_add(b).map(|sum| Gate::Rzz(*c, *t, sum))
                }
                _ => None,
            };
            if let Some(m) = merged {
                gates[idx] = m;
                continue;
            }
        }
        gates.push(*gate);
    }
    let mut out = Circuit::new(circuit.num_qubits());
    out.extend(&gates);
    out.measure(circuit.measured());
    out
}

pub fn resynthesize_1q_runs(circuit: &Circuit) -> Circuit {
    let n = circuit.num_qubits();
    let mut out_gates: Vec<Gate> = Vec::with_capacity(circuit.len());
    let mut pending: Vec<Vec<Gate>> = vec![Vec::new(); n];

    let flush = |pending: &mut Vec<Gate>, out: &mut Vec<Gate>| {
        if pending.is_empty() {
            return;
        }
        let q = pending[0].qubits()[0];
        let m = sequence_matrix(pending.iter());
        let (theta, phi, lambda) = u_angles_from_matrix(&m);
        let resynth: Vec<Gate> = decompose_1q_to_zsx(&Gate::U(q, theta, phi, lambda))
            .into_iter()
            .filter(|g| !matches!(g, Gate::Rz(_, t) if is_trivial_expr(t)))
            .collect();
        if resynth.len() < pending.len() {
            out.extend_from_slice(&resynth);
        } else {
            out.extend_from_slice(pending);
        }
        pending.clear();
    };

    for gate in circuit.gates() {
        let qs = gate.qubits();
        if qs.len() == 1 && !gate.is_symbolic() && gate.single_qubit_matrix().is_some() {
            pending[qs[0]].push(*gate);
        } else {
            for &q in &qs {
                flush(&mut pending[q], &mut out_gates);
            }
            out_gates.push(*gate);
        }
    }
    for queue in pending.iter_mut().take(n) {
        flush(queue, &mut out_gates);
    }

    let mut out = Circuit::new(n);
    out.extend(&out_gates);
    out.measure(circuit.measured());
    out
}

pub fn optimize(circuit: &Circuit, level: u8) -> Circuit {
    if level == 0 {
        return circuit.clone();
    }
    let mut current = circuit.clone();
    let max_rounds = 8;
    for _ in 0..max_rounds {
        let mut next = drop_identity_rotations(&current);
        next = cancel_adjacent_inverses(&next);
        if level >= 2 {
            next = merge_rotations(&next);
            next = drop_identity_rotations(&next);
            next = cancel_adjacent_inverses(&next);
        }
        if next == current {
            break;
        }
        current = next;
    }
    if level >= 3 {
        current = resynthesize_1q_runs(&current);
        current = drop_identity_rotations(&current);
    }
    current
}

/// Random circuits for the oracles, and the oracles themselves.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::routing::route;
    use crate::target::CouplingMap;
    use crate::transpiler::transpile;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use rand::Rng;
    use std::f64::consts::TAU;

    /// A constant angle: for `pick` 0 or 1 any in (−7, 7), else within a
    /// hair of a multiple of 2π, or exactly one.
    fn constant(rng: &mut TestRng, pick: u32) -> f64 {
        if pick < 2 {
            rng.gen_range(-7.0f64..7.0)
        } else {
            let k = f64::from(rng.gen_range(-2i32..=2));
            let hair: f64 = [0.0, 1e-13, -1e-13, 1e-11, -3e-12][rng.gen_range(0usize..5)];
            k * TAU + hair
        }
    }

    /// A rotation angle: a constant, a symbol, or a two-term affine
    /// expression.
    fn angle(rng: &mut TestRng) -> ParamExpr {
        match rng.gen_range(0..6) {
            pick @ 0..=2 => constant(rng, pick).into(),
            3 => ParamExpr::symbol(rng.gen_range(0..3)),
            4 => ParamExpr::symbol(rng.gen_range(0..3))
                .scale(rng.gen_range(-2.0..2.0))
                .shift(rng.gen_range(-1.0..1.0)),
            _ => {
                let a = ParamExpr::symbol(rng.gen_range(0..3)).scale(rng.gen_range(-2.0..2.0));
                let b = ParamExpr::symbol(rng.gen_range(0..3));
                a.try_add(&b).unwrap_or(a).shift(rng.gen_range(-1.0..1.0))
            }
        }
    }

    /// Any of the 19 gate kinds on `n` qubits (two-qubit kinds need n ≥ 2).
    fn gate(rng: &mut TestRng, n: usize) -> Gate {
        let a = rng.gen_range(0..n);
        let b = (a + rng.gen_range(1..n.max(2))) % n.max(2);
        let kinds = if n >= 2 { 19 } else { 14 };
        match rng.gen_range(0..kinds) {
            0 => Gate::H(a),
            1 => Gate::X(a),
            2 => Gate::Y(a),
            3 => Gate::Z(a),
            4 => Gate::S(a),
            5 => Gate::Sdg(a),
            6 => Gate::T(a),
            7 => Gate::Tdg(a),
            8 => Gate::Sx(a),
            9 => Gate::Rx(a, angle(rng)),
            10 => Gate::Ry(a, angle(rng)),
            11 => Gate::Rz(a, angle(rng)),
            12 => Gate::Phase(a, angle(rng)),
            13 => {
                let u_angle = |rng: &mut TestRng| {
                    let pick = rng.gen_range(0..3);
                    constant(rng, pick)
                };
                Gate::U(a, u_angle(rng), u_angle(rng), u_angle(rng))
            }
            14 => Gate::Cx(a, b),
            15 => Gate::Cz(a, b),
            16 => Gate::Cp(a, b, angle(rng)),
            17 => Gate::Swap(a, b),
            _ => Gate::Rzz(a, b, angle(rng)),
        }
    }

    /// A rotation of the same kind and qubits as `g`, with a fresh angle.
    fn same_kind(g: &Gate, rng: &mut TestRng) -> Gate {
        match *g {
            Gate::Rx(q, _) => Gate::Rx(q, angle(rng)),
            Gate::Ry(q, _) => Gate::Ry(q, angle(rng)),
            Gate::Rz(q, _) => Gate::Rz(q, angle(rng)),
            Gate::Phase(q, _) => Gate::Phase(q, angle(rng)),
            Gate::Cp(c, t, _) => Gate::Cp(c, t, angle(rng)),
            Gate::Rzz(c, t, _) => Gate::Rzz(c, t, angle(rng)),
            other => other,
        }
    }

    /// Circuits of 1–`max_qubits` qubits and up to `max_gates` gates, with
    /// forced inverse and mergeable neighbours (adjacent, or separated by a
    /// gate on other qubits).
    pub(crate) struct Circuits {
        pub max_qubits: usize,
        pub max_gates: usize,
    }

    impl Strategy for Circuits {
        type Value = Circuit;

        fn sample(&self, rng: &mut TestRng) -> Circuit {
            let n = rng.gen_range(1..=self.max_qubits);
            let len = rng.gen_range(0..=self.max_gates);
            let mut gates: Vec<Gate> = Vec::with_capacity(len);
            while gates.len() < len {
                let pick = rng.gen_range(0..10);
                let echo = match gates.len().checked_sub(1 + rng.gen_range(0usize..2)) {
                    Some(i) if pick < 4 => Some(gates[i]),
                    _ => None,
                };
                gates.push(match echo {
                    Some(g) if pick < 2 => g.inverse(),
                    Some(g) => same_kind(&g, rng),
                    None => gate(rng, n),
                });
            }
            let mut qc = Circuit::new(n);
            qc.extend(&gates);
            qc.measure_all();
            qc
        }
    }

    fn with_basis(names: &[&str], coupling_map: Option<CouplingMap>) -> TranspileTarget {
        TranspileTarget {
            basis_gates: names.iter().map(|s| s.to_string()).collect(),
            coupling_map,
        }
    }

    /// The bases on which the reference translation terminates.
    fn reference_targets() -> [TranspileTarget; 3] {
        [
            TranspileTarget::hardware_all_to_all(),
            TranspileTarget::ideal(),
            with_basis(&["sx", "rz", "cx", "cz", "h"], None),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        /// The one-buffer optimizer returns the pass-per-circuit result,
        /// bit for bit, at every level.
        #[test]
        fn optimize_equals_the_reference(
            qc in Circuits { max_qubits: 8, max_gates: 48 },
        ) {
            for level in 0..=3 {
                let (new, old) = (crate::passes::optimize(&qc, level), optimize(&qc, level));
                prop_assert!(new == old, "level {}: {:?} != {:?}", level, new, old);
            }
        }

        /// Translation into one buffer returns the per-gate recursive
        /// result, bit for bit, on every basis where the latter terminates.
        #[test]
        fn decompose_to_basis_equals_the_reference(
            qc in Circuits { max_qubits: 8, max_gates: 48 },
        ) {
            for target in &reference_targets() {
                prop_assert_eq!(
                    crate::basis::decompose_to_basis(&qc, target),
                    decompose_to_basis(&qc, target)
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(120))]

        /// `transpile` is route → reference translation → reference
        /// optimizer, bit for bit, with and without a coupling map.
        #[test]
        fn transpile_equals_the_reference_pipeline(
            qc in Circuits { max_qubits: 6, max_gates: 40 },
            level in 0u8..4,
        ) {
            let n = qc.num_qubits();
            for target in [
                TranspileTarget::hardware(CouplingMap::linear(n)),
                TranspileTarget::hardware_all_to_all(),
            ] {
                let routed = match &target.coupling_map {
                    Some(cm) => route(&qc, cm).unwrap().circuit,
                    None => qc.clone(),
                };
                let expected = optimize(&decompose_to_basis(&routed, &target), level);
                prop_assert_eq!(transpile(&qc, &target, level).unwrap().circuit, expected);
            }
        }
    }
}
