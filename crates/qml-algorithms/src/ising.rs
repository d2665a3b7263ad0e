//! The Ising-problem algorithmic library (annealing path of the paper's §5 /
//! Fig. 3).
//!
//! For annealer-style backends the library emits a **single**
//! `ISING_PROBLEM` descriptor declaring the energy
//! `E(s) = Σ_i h_i s_i + Σ_{i<j} J_ij s_i s_j` over the same typed register
//! the gate path uses — only the operator formulation differs, exactly the
//! portability the paper demonstrates.

use qml_graph::{maxcut_to_ising, Graph, IsingProblem};
use qml_types::{
    EncodingKind, JobBundle, OperatorDescriptor, ParamValue, QmlError, QuantumDataType, RepKind,
    Result, ResultSchema,
};

use crate::qaoa::ising_register;

/// Serialize linear fields as a descriptor parameter `[h_0, h_1, ...]`.
fn h_param(h: &[f64]) -> ParamValue {
    ParamValue::List(h.iter().map(|&x| ParamValue::Float(x)).collect())
}

/// Serialize couplings as a descriptor parameter `[[i, j, J_ij], ...]`.
fn j_param(j: &[(usize, usize, f64)]) -> ParamValue {
    ParamValue::List(
        j.iter()
            .map(|&(i, k, w)| {
                ParamValue::List(vec![
                    ParamValue::from(i),
                    ParamValue::from(k),
                    ParamValue::Float(w),
                ])
            })
            .collect(),
    )
}

/// A coupling joins two distinct spins of the register: a self-coupling
/// `s_i·s_i = 1` is a constant, not an interaction.
fn check_coupling(i: usize, k: usize, width: usize) -> Result<()> {
    if i >= width || k >= width {
        return Err(QmlError::Validation(format!(
            "coupling ({i},{k}) exceeds register width {width}"
        )));
    }
    if i == k {
        return Err(QmlError::Validation(format!(
            "coupling ({i},{k}) joins spin {i} to itself"
        )));
    }
    Ok(())
}

/// Build the `ISING_PROBLEM` descriptor for an Ising problem over a typed
/// spin register.
pub(crate) fn ising_problem_operator(
    register: &QuantumDataType,
    problem: &IsingProblem,
) -> Result<OperatorDescriptor> {
    if register.encoding_kind != EncodingKind::IsingSpin {
        return Err(QmlError::Validation(format!(
            "ISING_PROBLEM requires an ISING_SPIN register, got {}",
            register.encoding_kind
        )));
    }
    if problem.num_spins() != register.width {
        return Err(QmlError::WidthMismatch {
            register: register.id.clone(),
            expected: register.width,
            found: problem.num_spins(),
        });
    }
    for &(i, j, _) in &problem.j {
        check_coupling(i, j, register.width)?;
    }
    OperatorDescriptor::builder("ising_problem", RepKind::IsingProblem, &register.id)
        .param("h", h_param(&problem.h))
        .param("j", j_param(&problem.j))
        .result_schema(ResultSchema::for_register(register))
        .build()
}

/// Parse the `h` / `j` parameters back out of an `ISING_PROBLEM` descriptor —
/// the inverse of `ising_problem_operator`, used by annealing backends.
pub fn parse_ising_operator(op: &OperatorDescriptor, width: usize) -> Result<IsingProblem> {
    if op.rep_kind != RepKind::IsingProblem {
        return Err(QmlError::Validation(format!(
            "expected an ISING_PROBLEM descriptor, got {}",
            op.rep_kind
        )));
    }
    let h: Vec<f64> = match op.params.get("h") {
        Some(ParamValue::List(items)) => items
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| QmlError::Validation("non-numeric h entry".into()))
            })
            .collect::<Result<_>>()?,
        _ => vec![0.0; width],
    };
    if h.len() != width {
        return Err(QmlError::Validation(format!(
            "h has {} entries but the register is {} wide",
            h.len(),
            width
        )));
    }
    let j: Vec<(usize, usize, f64)> = match op.params.get("j") {
        Some(ParamValue::List(items)) => items
            .iter()
            .map(|entry| {
                let triple = entry
                    .as_list()
                    .ok_or_else(|| QmlError::Validation("malformed coupling entry".into()))?;
                if triple.len() != 3 {
                    return Err(QmlError::Validation(
                        "coupling entry must be [i, j, J]".into(),
                    ));
                }
                let i = triple[0]
                    .as_u64()
                    .ok_or_else(|| QmlError::Validation("bad coupling index".into()))?
                    as usize;
                let k = triple[1]
                    .as_u64()
                    .ok_or_else(|| QmlError::Validation("bad coupling index".into()))?
                    as usize;
                let w = triple[2]
                    .as_f64()
                    .ok_or_else(|| QmlError::Validation("bad coupling weight".into()))?;
                check_coupling(i, k, width)?;
                Ok((i, k, w))
            })
            .collect::<Result<_>>()?,
        _ => Vec::new(),
    };
    Ok(IsingProblem { h, j })
}

/// Package the complete Max-Cut annealing job bundle of the paper's Fig. 3:
/// the same `ising_vars` register as the gate path, a single `ISING_PROBLEM`
/// descriptor with h = 0 and J carrying the edge weights.
pub fn maxcut_ising_program(graph: &Graph) -> Result<JobBundle> {
    let register = ising_register(graph.num_nodes())?;
    let problem = maxcut_to_ising(graph);
    let op = ising_problem_operator(&register, &problem)?;
    let bundle = JobBundle::new("maxcut-ising", vec![register], vec![op])
        .with_metadata("library", "qml-algorithms::ising")
        .with_metadata("problem", "maxcut");
    bundle.validate()?;
    Ok(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qml_graph::cycle;

    #[test]
    fn fig3_single_descriptor_with_h_zero_and_unit_couplings() {
        let graph = cycle(4);
        let bundle = maxcut_ising_program(&graph).unwrap();
        assert_eq!(
            bundle.operators.len(),
            1,
            "the annealing path emits a single descriptor"
        );
        let op = &bundle.operators[0];
        assert_eq!(op.rep_kind, RepKind::IsingProblem);
        assert_eq!(op.domain_qdt, "ising_vars");

        let problem = parse_ising_operator(op, 4).unwrap();
        assert_eq!(problem.h, vec![0.0; 4], "h is the zero vector");
        assert_eq!(problem.j.len(), 4, "unit couplings on the four ring edges");
        assert!(problem.j.iter().all(|&(_, _, w)| w == 1.0));
    }

    #[test]
    fn both_paths_share_the_same_register() {
        // The portability claim: the QAOA bundle and the Ising bundle declare
        // bit-identical quantum data types.
        let graph = cycle(4);
        let gate = crate::qaoa::qaoa_maxcut_program(
            &graph,
            &crate::qaoa::QaoaSchedule::Fixed(vec![crate::qaoa::RING_P1_ANGLES]),
        )
        .unwrap();
        let anneal = maxcut_ising_program(&graph).unwrap();
        assert_eq!(gate.data_types, anneal.data_types);
    }

    #[test]
    fn operator_round_trips_through_parse() {
        let graph =
            qml_graph::Graph::from_weighted_edges(5, &[(0, 1, 1.5), (2, 4, -0.5), (1, 3, 2.0)]);
        let register = ising_register(5).unwrap();
        let problem = maxcut_to_ising(&graph);
        let op = ising_problem_operator(&register, &problem).unwrap();
        let parsed = parse_ising_operator(&op, 5).unwrap();
        assert_eq!(parsed.h, problem.h);
        assert_eq!(parsed.j, problem.j);
    }

    #[test]
    fn json_round_trip_preserves_couplings() {
        let bundle = maxcut_ising_program(&cycle(4)).unwrap();
        let json = bundle.to_json().unwrap();
        assert!(json.contains("ISING_PROBLEM"));
        let back = JobBundle::from_json(&json).unwrap();
        let parsed = parse_ising_operator(&back.operators[0], 4).unwrap();
        assert_eq!(parsed.j.len(), 4);
    }

    #[test]
    fn width_mismatch_rejected() {
        let register = ising_register(3).unwrap();
        let problem = maxcut_to_ising(&cycle(4));
        assert!(matches!(
            ising_problem_operator(&register, &problem),
            Err(QmlError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn wrong_register_kind_rejected() {
        let register = QuantumDataType::int_register("k", "k", 4).unwrap();
        let problem = maxcut_to_ising(&cycle(4));
        assert!(ising_problem_operator(&register, &problem).is_err());
    }

    #[test]
    fn parse_rejects_malformed_params() {
        let register = ising_register(4).unwrap();
        let problem = maxcut_to_ising(&cycle(4));
        let mut op = ising_problem_operator(&register, &problem).unwrap();
        op.params
            .insert("j", ParamValue::List(vec![ParamValue::Int(3)]));
        assert!(parse_ising_operator(&op, 4).is_err());

        let mut bad_h = ising_problem_operator(&register, &problem).unwrap();
        bad_h
            .params
            .insert("h", ParamValue::List(vec![ParamValue::Float(0.0); 2]));
        assert!(parse_ising_operator(&bad_h, 4).is_err());
    }

    #[test]
    fn self_couplings_are_rejected_naming_the_coupling() {
        let register = ising_register(3).unwrap();
        let problem = IsingProblem {
            h: vec![0.0; 3],
            j: vec![(0, 1, 1.0), (1, 1, 1.0)],
        };
        let expected = "coupling (1,1) joins spin 1 to itself";
        match ising_problem_operator(&register, &problem) {
            Err(QmlError::Validation(message)) => assert_eq!(message, expected),
            other => panic!("expected a validation error, got {other:?}"),
        }
        let mut op = ising_problem_operator(
            &register,
            &IsingProblem {
                h: vec![0.0; 3],
                j: vec![],
            },
        )
        .unwrap();
        op.params.insert("j", j_param(&problem.j));
        match parse_ising_operator(&op, 3) {
            Err(QmlError::Validation(message)) => assert_eq!(message, expected),
            other => panic!("expected a validation error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_wrong_kind() {
        let register = ising_register(4).unwrap();
        let prep = crate::qaoa::prep_uniform(&register).unwrap();
        assert!(parse_ising_operator(&prep, 4).is_err());
    }
}
