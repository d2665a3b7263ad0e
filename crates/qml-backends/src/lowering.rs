//! Lowering: realizing operator descriptors as circuits or quadratic models.
//!
//! This is the layer the paper calls "realization hooks ... rules that lower
//! a quantum operator descriptor to a target-specific form (gate list, pulse
//! schedule, anneal submission) when the caller supplies a backend/context"
//! (§4.4). Lowering happens **late**: the same intent bundle is handed to
//! whichever backend the context selects, and only then do descriptors become
//! gates (gate path) or a binary quadratic model (annealing path).

use qml_anneal::BinaryQuadraticModel;
use qml_sim::{qft_circuit, Circuit, Gate, ParamExpr};
use qml_types::{
    JobBundle, MeasurementSemantics, OperatorDescriptor, ParamValue, QmlError, QuantumDataType,
    RepKind, Result, ResultSchema,
};

use qml_algorithms::parse_ising_operator;

/// The gate-path lowering of a job bundle: a (possibly **parametric**)
/// circuit plus the information needed to bind and decode it.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredCircuit {
    /// The realized circuit (registers laid out contiguously in declaration
    /// order). Symbolic operator parameters lower to symbolic rotation
    /// angles referencing the slot table below.
    pub circuit: Circuit,
    /// Slot table: symbol names in the bundle's canonical order — slot `i`
    /// of every [`ParamExpr`] in the circuit refers to `symbols[i]`.
    pub symbols: Vec<String>,
    /// The register the final measurement reads out.
    pub register: QuantumDataType,
    /// The explicit result schema attached to the measurement descriptor.
    pub schema: ResultSchema,
}

/// Slot-assigning view of the bundle's symbols: canonical order, so that
/// equal symbolic programs (up to symbol spelling) assign corresponding
/// parameters the same slot.
struct SymbolResolver {
    names: Vec<String>,
}

impl SymbolResolver {
    fn for_bundle(bundle: &JobBundle) -> Self {
        SymbolResolver {
            names: bundle.canonical_symbols(),
        }
    }

    /// Resolve one operator parameter into an angle expression: numeric
    /// values fold to constants, symbols become slot references.
    fn angle(&self, op: &OperatorDescriptor, key: &str) -> Result<ParamExpr> {
        match op.params.get(key) {
            None => Err(QmlError::Validation(format!(
                "missing parameter `{key}` on operator `{}`",
                op.name
            ))),
            Some(value) => self.value(value, key),
        }
    }

    fn value(&self, value: &ParamValue, key: &str) -> Result<ParamExpr> {
        match value {
            ParamValue::Symbol(symbol) => {
                let slot = self
                    .names
                    .iter()
                    .position(|name| *name == symbol.name)
                    .ok_or_else(|| QmlError::UnboundParameter(symbol.name.clone()))?;
                Ok(ParamExpr::symbol(slot as u32))
            }
            other => other
                .as_f64()
                .map(ParamExpr::constant)
                .ok_or_else(|| QmlError::Validation(format!("parameter `{key}` is not numeric"))),
        }
    }
}

/// The annealing-path lowering of a job bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredBqm {
    /// The binary quadratic model to sample.
    pub bqm: BinaryQuadraticModel,
    /// The register the samples refer to.
    pub register: QuantumDataType,
    /// The explicit result schema attached to the problem descriptor.
    pub schema: ResultSchema,
}

/// Extract the edges/weights parameters of an `ISING_COST_PHASE` descriptor.
fn parse_edges(op: &OperatorDescriptor, width: usize) -> Result<Vec<(usize, usize, f64)>> {
    let edges = match op.params.get("edges") {
        Some(ParamValue::List(items)) => items,
        _ => {
            return Err(QmlError::Validation(format!(
                "operator `{}` is missing its `edges` parameter",
                op.name
            )))
        }
    };
    let weights: Option<&[ParamValue]> = op.params.get("weights").and_then(ParamValue::as_list);
    edges
        .iter()
        .enumerate()
        .map(|(idx, entry)| {
            let pair = entry
                .as_list()
                .ok_or_else(|| QmlError::Validation("edge entries must be [u, v]".into()))?;
            if pair.len() != 2 {
                return Err(QmlError::Validation("edge entries must be [u, v]".into()));
            }
            let u = pair[0]
                .as_u64()
                .ok_or_else(|| QmlError::Validation("bad edge index".into()))?
                as usize;
            let v = pair[1]
                .as_u64()
                .ok_or_else(|| QmlError::Validation("bad edge index".into()))?
                as usize;
            if u >= width || v >= width || u == v {
                return Err(QmlError::Validation(format!(
                    "edge ({u},{v}) is invalid for a width-{width} register"
                )));
            }
            let w = match weights.and_then(|ws| ws.get(idx)) {
                None => 1.0,
                // Weights are structural (they scale the circuit's angles at
                // lowering time): a still-symbolic weight must fail loudly,
                // never silently default.
                Some(ParamValue::Symbol(symbol)) => {
                    return Err(QmlError::UnboundParameter(symbol.name.clone()))
                }
                Some(value) => value
                    .as_f64()
                    .ok_or_else(|| QmlError::Validation("edge weights must be numeric".into()))?,
            };
            Ok((u, v, w))
        })
        .collect()
}

/// Check that every word a readout can produce decodes under its schema: an
/// AS_PHASE readout needs the register's `phase_scale`, and the schema must
/// declare as many classical bits as the backend measures. Lowering runs
/// this once per plan, so the execute path never decodes to find out.
fn check_readout(schema: &ResultSchema, register: &QuantumDataType, measured: usize) -> Result<()> {
    if schema.datatype == MeasurementSemantics::AsPhase && register.phase_scale.is_none() {
        return Err(QmlError::Decode(format!(
            "register `{}` has AS_PHASE semantics but no phase_scale",
            register.id
        )));
    }
    if measured != schema.num_clbits() {
        return Err(QmlError::Decode(format!(
            "the backend measures {measured} bits but the result schema declares {} classical bits",
            schema.num_clbits()
        )));
    }
    Ok(())
}

/// Lower a job bundle to a gate-model circuit, **keeping symbolic parameters
/// symbolic**: a QAOA bundle with unbound γ/β lowers to a parametric circuit
/// whose rotation angles reference the returned slot table. Structural
/// parameters (edges, QFT shape, encodings) must still be concrete.
///
/// The bundle must end with exactly one `MEASUREMENT` descriptor (explicit
/// measurement is the only way to obtain classical data) and every unitary
/// descriptor must have a gate realization.
pub fn lower_to_circuit(bundle: &JobBundle) -> Result<LoweredCircuit> {
    bundle.validate()?;
    let resolver = SymbolResolver::for_bundle(bundle);
    let offsets = bundle.register_offsets();
    let total_width = bundle.total_width();
    let mut circuit = Circuit::new(total_width);
    let mut readout: Option<(QuantumDataType, ResultSchema)> = None;

    for op in bundle.operators.iter() {
        let register = bundle
            .find_qdt(&op.domain_qdt)
            .ok_or_else(|| QmlError::UnknownRegister(op.domain_qdt.clone()))?;
        let offset = offsets[&register.id];
        let wire = |i: usize| offset + i;

        match &op.rep_kind {
            RepKind::PrepUniform | RepKind::HadamardLayer => {
                for i in 0..register.width {
                    circuit.push(Gate::H(wire(i)));
                }
            }
            RepKind::IsingCostPhase => {
                let gamma = resolver.angle(op, "gamma")?;
                for (u, v, w) in parse_edges(op, register.width)? {
                    // exp(−i γ w Z_u Z_v) = RZZ(2 γ w). The scale is affine,
                    // so a symbolic γ stays symbolic through lowering.
                    circuit.push(Gate::Rzz(wire(u), wire(v), gamma.scale(2.0 * w)));
                }
            }
            RepKind::MixerRx => {
                let beta = resolver.angle(op, "beta")?;
                for i in 0..register.width {
                    // exp(−i β X) = RX(2β).
                    circuit.push(Gate::Rx(wire(i), beta.scale(2.0)));
                }
            }
            RepKind::QftTemplate => {
                // Every QFT parameter is structural (it changes the circuit's
                // shape), so none may still be symbolic: `u64_or`/`bool_or`
                // would otherwise silently substitute their defaults.
                op.params.ensure_bound()?;
                let approx = op.params.u64_or("approx_degree", 0) as usize;
                let do_swaps = op.params.bool_or("do_swaps", true);
                let inverse = op.params.bool_or("inverse", false);
                let qft = qft_circuit(register.width, approx, do_swaps, inverse);
                let map: Vec<usize> = (0..register.width).map(wire).collect();
                circuit.compose(&qft.remap(&map, total_width));
            }
            RepKind::AngleEncoding => {
                let angles = op
                    .params
                    .get("angles")
                    .and_then(ParamValue::as_list)
                    .ok_or_else(|| QmlError::Validation("angle encoding needs `angles`".into()))?;
                for (i, angle) in angles.iter().enumerate() {
                    let theta = resolver.value(angle, "angles")?;
                    circuit.push(Gate::Ry(wire(i), theta));
                }
            }
            RepKind::Measurement => {
                let schema = op.result_schema.clone().ok_or_else(|| {
                    QmlError::Validation("measurement without result schema".into())
                })?;
                let codomain = bundle
                    .find_qdt(&op.codomain_qdt)
                    .ok_or_else(|| QmlError::UnknownRegister(op.codomain_qdt.clone()))?;
                let indices = schema.wire_indices(codomain)?;
                let qubits: Vec<usize> =
                    indices.iter().map(|&i| offsets[&codomain.id] + i).collect();
                circuit.measure(&qubits);
                readout = Some((codomain.clone(), schema));
            }
            other => {
                return Err(QmlError::Unsupported(format!(
                    "the gate backend has no realization rule for `{other}` (operator `{}`)",
                    op.name
                )))
            }
        }
    }

    let (register, schema) = readout.ok_or_else(|| {
        QmlError::Validation(
            "bundle has no MEASUREMENT descriptor; implicit measurement is forbidden".into(),
        )
    })?;
    check_readout(&schema, &register, circuit.num_clbits())?;
    Ok(LoweredCircuit {
        circuit,
        symbols: resolver.names,
        register,
        schema,
    })
}

/// Lower a job bundle to a binary quadratic model for annealing backends.
///
/// Unlike the gate path, BQM coefficients are structural, so symbolic
/// parameters must be resolved first: any attached
/// [`BindingSet`](qml_types::BindingSet) is substituted eagerly and the
/// result must be fully bound. The bundle must contain exactly one
/// `ISING_PROBLEM` descriptor; anything else is not an annealing workload.
pub fn lower_to_bqm(bundle: &JobBundle) -> Result<LoweredBqm> {
    let resolved;
    let bundle = if bundle.bindings.is_some() {
        resolved = bundle.resolved();
        &resolved
    } else {
        bundle
    };
    bundle.validate()?;
    bundle.ensure_bound()?;
    let problems: Vec<&OperatorDescriptor> = bundle
        .operators
        .iter()
        .filter(|op| op.rep_kind.is_problem())
        .collect();
    if problems.len() != 1 {
        return Err(QmlError::Unsupported(format!(
            "the annealing backend expects exactly one ISING_PROBLEM descriptor, found {}",
            problems.len()
        )));
    }
    if bundle.operators.len() != 1 {
        return Err(QmlError::Unsupported(
            "the annealing backend cannot realize additional operators alongside ISING_PROBLEM"
                .into(),
        ));
    }
    let op = problems[0];
    let register = bundle
        .find_qdt(&op.domain_qdt)
        .ok_or_else(|| QmlError::UnknownRegister(op.domain_qdt.clone()))?;
    let problem = parse_ising_operator(op, register.width)?;
    // The annealer's default schedule divides by the largest field one
    // variable feels, |h_i| + Σ_j |J_ij|. Each is a partial sum of this
    // bound, so a bound below f64::MAX / 2 keeps every one finite.
    let field_bound = problem.h.iter().map(|h| h.abs()).sum::<f64>()
        + 2.0 * problem.j.iter().map(|&(_, _, j)| j.abs()).sum::<f64>();
    if !field_bound.is_finite() || field_bound >= f64::MAX / 2.0 {
        return Err(QmlError::Validation(format!(
            "ISING_PROBLEM `{}` has fields summing to {field_bound:e}; \
             the annealer needs them below {:e}",
            op.name,
            f64::MAX / 2.0
        )));
    }
    let bqm = BinaryQuadraticModel::from_ising(&problem.h, &problem.j);
    let schema = op
        .result_schema
        .clone()
        .unwrap_or_else(|| ResultSchema::for_register(register));
    schema.validate_against(register)?;
    // The annealer reads one spin per wire the schema lists.
    check_readout(&schema, register, schema.wire_indices(register)?.len())?;
    Ok(LoweredBqm {
        bqm,
        register: register.clone(),
        schema,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qml_algorithms::{
        maxcut_ising_program, qaoa_maxcut_program, qft_program, QaoaSchedule, QftParams,
        RING_P1_ANGLES,
    };
    use qml_graph::cycle;
    use qml_sim::Simulator;
    use qml_types::QuantumDataType;
    use std::sync::Arc;

    #[test]
    fn qaoa_bundle_lowers_to_expected_gates() {
        let bundle =
            qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap();
        let lowered = lower_to_circuit(&bundle).unwrap();
        let counts = lowered.circuit.gate_counts();
        assert_eq!(counts["h"], 4, "PREP_UNIFORM = one H per qubit");
        assert_eq!(counts["rzz"], 4, "one ZZ per edge of C4");
        assert_eq!(counts["rx"], 4, "one RX per qubit");
        assert_eq!(lowered.circuit.num_clbits(), 4);
        assert_eq!(lowered.register.id, "ising_vars");
    }

    #[test]
    fn qft_bundle_lowers_and_runs() {
        let bundle = qft_program(5, QftParams::default()).unwrap();
        let lowered = lower_to_circuit(&bundle).unwrap();
        assert!(lowered.circuit.gate_counts().contains_key("cp"));
        let result = Simulator::new().run(&lowered.circuit, 256, 7);
        assert_eq!(result.counts.values().sum::<u64>(), 256);
    }

    #[test]
    fn unbound_symbols_lower_to_a_parametric_circuit() {
        let bundle = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Symbolic { layers: 1 }).unwrap();
        let lowered = lower_to_circuit(&bundle).unwrap();
        assert!(lowered.circuit.is_symbolic());
        assert_eq!(
            lowered.symbols,
            vec!["gamma_0".to_string(), "beta_0".to_string()],
            "slot table follows canonical (first-appearance) order"
        );
        // 4 RZZ (γ) + 4 RX (β) symbolic sites.
        assert_eq!(lowered.circuit.symbolic_gate_indices().len(), 8);

        // Binding the slot table reproduces the bind-first lowering exactly.
        let mut bindings = std::collections::BTreeMap::new();
        bindings.insert("gamma_0".to_string(), ParamValue::Float(0.4));
        bindings.insert("beta_0".to_string(), ParamValue::Float(0.55));
        let eager = lower_to_circuit(&bundle.bind(&bindings)).unwrap();
        let late = lowered.circuit.bind(&[0.4, 0.55]);
        assert_eq!(
            late, eager.circuit,
            "late and eager binding agree gate-for-gate"
        );
    }

    #[test]
    fn symbolic_structural_params_fail_loudly() {
        // A symbolic QFT shape parameter must never silently default.
        let mut bundle = qft_program(4, QftParams::default()).unwrap();
        Arc::make_mut(&mut bundle.operators)[0]
            .params
            .insert("approx_degree", ParamValue::symbol("d"));
        assert!(matches!(
            lower_to_circuit(&bundle),
            Err(QmlError::UnboundParameter(name)) if name == "d"
        ));

        // A symbolic edge weight (structural: it scales the lowered angle)
        // must fail loudly too, not default to 1.0.
        let mut qaoa =
            qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap();
        Arc::make_mut(&mut qaoa.operators)[1].params.insert(
            "weights",
            ParamValue::List(vec![
                ParamValue::symbol("w0"),
                ParamValue::Float(1.0),
                ParamValue::Float(1.0),
                ParamValue::Float(1.0),
            ]),
        );
        assert!(matches!(
            lower_to_circuit(&qaoa),
            Err(QmlError::UnboundParameter(name)) if name == "w0"
        ));
    }

    #[test]
    fn symbolic_angle_encoding_lowers_symbolically() {
        use qml_types::ResultSchema;
        let register = QuantumDataType::bool_register("b", "b", 2).unwrap();
        let encode = qml_types::OperatorDescriptor::builder("encode", RepKind::AngleEncoding, "b")
            .param(
                "angles",
                ParamValue::List(vec![ParamValue::symbol("x0"), ParamValue::Float(0.3)]),
            )
            .build()
            .unwrap();
        let measure = qml_types::OperatorDescriptor::builder("m", RepKind::Measurement, "b")
            .result_schema(ResultSchema::for_register(&register))
            .build()
            .unwrap();
        let bundle = JobBundle::new("enc", vec![register], vec![encode, measure]);
        let lowered = lower_to_circuit(&bundle).unwrap();
        assert_eq!(lowered.symbols, vec!["x0".to_string()]);
        assert_eq!(lowered.circuit.symbolic_gate_indices().len(), 1);
    }

    #[test]
    fn angle_encoding_lowers_to_one_ry_per_carrier() {
        let register = QuantumDataType::bool_register("b", "b", 3).unwrap();
        let encode = qml_algorithms::angle_encoding(&register, &[0.1, 0.2, 0.3]).unwrap();
        let ops = qml_algorithms::with_measurement(vec![encode], &register).unwrap();
        let lowered = lower_to_circuit(&JobBundle::new("enc", vec![register], ops)).unwrap();
        let expected: Vec<Gate> = [0.1, 0.2, 0.3]
            .iter()
            .enumerate()
            .map(|(i, &theta)| Gate::Ry(i, theta.into()))
            .collect();
        assert_eq!(lowered.circuit.gates(), &expected[..]);
        assert_eq!(lowered.circuit.measured(), &[0, 1, 2]);
    }

    #[test]
    fn missing_measurement_rejected() {
        let register = qml_algorithms::ising_register(4).unwrap();
        let prep = qml_algorithms::qaoa::prep_uniform(&register).unwrap();
        let bundle = JobBundle::new("no-measure", vec![register], vec![prep]);
        let err = lower_to_circuit(&bundle).unwrap_err();
        assert!(err.to_string().contains("MEASUREMENT"), "{err}");
    }

    #[test]
    fn unsupported_descriptor_rejected_by_gate_path() {
        let a = QuantumDataType::int_register("a", "a", 3).unwrap();
        let b = QuantumDataType::int_register("b", "b", 3).unwrap();
        let add = qml_types::OperatorDescriptor::builder("add", RepKind::AdderTemplate, "a")
            .codomain("b")
            .param("width", 3usize)
            .build()
            .unwrap();
        let meas = qml_algorithms::with_measurement(vec![add], &b).unwrap();
        let bundle = JobBundle::new("adder", vec![a, b], meas);
        assert!(matches!(
            lower_to_circuit(&bundle),
            Err(QmlError::Unsupported(_))
        ));
    }

    #[test]
    fn multi_register_layout_offsets_wires() {
        // Two registers: the second register's gates must land on wires ≥ 3.
        let a = QuantumDataType::bool_register("a", "a", 3).unwrap();
        let b = QuantumDataType::bool_register("b", "b", 2).unwrap();
        let prep_b = qml_algorithms::hadamard_layer(&b).unwrap();
        let ops = qml_algorithms::with_measurement(vec![prep_b], &b).unwrap();
        let bundle = JobBundle::new("two-regs", vec![a, b], ops);
        let lowered = lower_to_circuit(&bundle).unwrap();
        assert!(lowered
            .circuit
            .gates()
            .iter()
            .all(|g| g.qubits().iter().all(|&q| q >= 3)));
        assert_eq!(lowered.circuit.num_qubits(), 5);
        assert_eq!(lowered.circuit.measured(), &[3, 4]);
    }

    #[test]
    fn ising_bundle_lowers_to_bqm() {
        let bundle = maxcut_ising_program(&cycle(4)).unwrap();
        let lowered = lower_to_bqm(&bundle).unwrap();
        assert_eq!(lowered.bqm.num_variables(), 4);
        assert_eq!(lowered.bqm.num_interactions(), 4);
        assert_eq!(lowered.bqm.energy_spin(&[1, -1, 1, -1]), -4.0);
        assert_eq!(lowered.register.id, "ising_vars");
    }

    #[test]
    fn qaoa_bundle_rejected_by_anneal_lowering() {
        let bundle =
            qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap();
        assert!(matches!(
            lower_to_bqm(&bundle),
            Err(QmlError::Unsupported(_))
        ));
    }

    #[test]
    fn ising_bundle_rejected_by_gate_lowering() {
        let bundle = maxcut_ising_program(&cycle(4)).unwrap();
        assert!(matches!(
            lower_to_circuit(&bundle),
            Err(QmlError::Unsupported(_))
        ));
    }

    #[test]
    fn malformed_edges_rejected() {
        let register = qml_algorithms::ising_register(4).unwrap();
        let mut cost =
            qml_algorithms::qaoa::ising_cost_phase(&register, &cycle(4), 0.3, 0).unwrap();
        cost.params
            .insert("edges", ParamValue::List(vec![ParamValue::Int(1)]));
        let ops = qml_algorithms::with_measurement(vec![cost], &register).unwrap();
        let bundle = JobBundle::new("bad-edges", vec![register], ops);
        assert!(lower_to_circuit(&bundle).is_err());
    }
}
