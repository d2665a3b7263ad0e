//! The QAOA algorithmic library (gate path of the paper's §5 / Fig. 2).
//!
//! Given a typed register of Ising decision variables and a problem graph,
//! this library emits the QAOA operator descriptor stack the paper
//! describes: `PREP_UNIFORM`, alternating `ISING_COST_PHASE` (angle γ, with
//! the problem's edges and weights) and `MIXER_RX` (angle β) layers, and a
//! final `MEASUREMENT` carrying an explicit result schema. Angles may be
//! concrete or symbolic (`gamma_0`, `beta_0`, ...) for late binding.

use qml_graph::Graph;
use qml_types::{
    EncodingKind, JobBundle, OperatorDescriptor, ParamValue, QmlError, QuantumDataType, RepKind,
    Result, ResultSchema,
};

use crate::cost::{prep_uniform_cost, qaoa_cost_layer_cost, qaoa_mixer_cost};

/// Angles of one QAOA layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QaoaAngles {
    /// Cost-layer (phase separation) angle γ.
    pub gamma: f64,
    /// Mixer angle β.
    pub beta: f64,
}

/// Known-good single-layer angles for unweighted 2-regular graphs (rings):
/// γ = π/8, β = 3π/8 reach the p = 1 optimum (¾ of the best cut, i.e. an
/// expected cut of 3 on C4) under the backend lowering convention
/// `ISING_COST_PHASE → RZZ(2γw)` and `MIXER_RX → RX(2β)`.
pub const RING_P1_ANGLES: QaoaAngles = QaoaAngles {
    gamma: std::f64::consts::FRAC_PI_8,
    beta: 3.0 * std::f64::consts::FRAC_PI_8,
};

/// How the layer angles are supplied.
#[derive(Debug, Clone, PartialEq)]
pub enum QaoaSchedule {
    /// Concrete angles, one entry per layer.
    Fixed(Vec<QaoaAngles>),
    /// Symbolic angles `gamma_i` / `beta_i`, bound later (late binding).
    Symbolic {
        /// Number of layers p.
        layers: usize,
    },
}

impl QaoaSchedule {
    /// Number of layers.
    pub(crate) fn layers(&self) -> usize {
        match self {
            QaoaSchedule::Fixed(angles) => angles.len(),
            QaoaSchedule::Symbolic { layers } => *layers,
        }
    }
}

/// Edge list of a graph as a descriptor parameter value `[[u, v], ...]`.
fn edges_param(graph: &Graph) -> ParamValue {
    ParamValue::List(
        graph
            .edges()
            .iter()
            .map(|&(u, v, _)| ParamValue::List(vec![ParamValue::from(u), ParamValue::from(v)]))
            .collect(),
    )
}

/// Edge weights of a graph as a descriptor parameter value `[w, ...]`
/// (aligned with [`edges_param`]).
fn weights_param(graph: &Graph) -> ParamValue {
    ParamValue::List(
        graph
            .edges()
            .iter()
            .map(|&(_, _, w)| ParamValue::Float(w))
            .collect(),
    )
}

/// The `PREP_UNIFORM` descriptor (Hadamard on every carrier).
pub fn prep_uniform(register: &QuantumDataType) -> Result<OperatorDescriptor> {
    OperatorDescriptor::builder("prep_uniform", RepKind::PrepUniform, &register.id)
        .cost_hint(prep_uniform_cost(register.width))
        .build()
}

/// One `ISING_COST_PHASE` layer with angle `gamma` over the problem graph.
pub fn ising_cost_phase(
    register: &QuantumDataType,
    graph: &Graph,
    gamma: impl Into<ParamValue>,
    layer: usize,
) -> Result<OperatorDescriptor> {
    if graph.num_nodes() != register.width {
        return Err(QmlError::WidthMismatch {
            register: register.id.clone(),
            expected: register.width,
            found: graph.num_nodes(),
        });
    }
    OperatorDescriptor::builder(
        format!("cost_layer_{layer}"),
        RepKind::IsingCostPhase,
        &register.id,
    )
    .param("gamma", gamma)
    .param("edges", edges_param(graph))
    .param("weights", weights_param(graph))
    .cost_hint(qaoa_cost_layer_cost(graph.num_edges()))
    .build()
}

/// One `MIXER_RX` layer with angle `beta`.
pub(crate) fn mixer_rx(
    register: &QuantumDataType,
    beta: impl Into<ParamValue>,
    layer: usize,
) -> Result<OperatorDescriptor> {
    OperatorDescriptor::builder(
        format!("mixer_layer_{layer}"),
        RepKind::MixerRx,
        &register.id,
    )
    .param("beta", beta)
    .cost_hint(qaoa_mixer_cost(register.width))
    .build()
}

/// The closing `MEASUREMENT` descriptor with an explicit result schema.
pub(crate) fn measurement(register: &QuantumDataType) -> Result<OperatorDescriptor> {
    OperatorDescriptor::builder("measure", RepKind::Measurement, &register.id)
        .result_schema(ResultSchema::for_register(register))
        .build()
}

/// The typed register the paper's §5 uses: `width` Ising decision variables
/// named `s`, id `ising_vars`, measured as Boolean labels.
pub fn ising_register(width: usize) -> Result<QuantumDataType> {
    QuantumDataType::ising_spins("ising_vars", "s", width)
}

/// Build the complete QAOA descriptor sequence for a Max-Cut instance.
pub(crate) fn qaoa_sequence(
    register: &QuantumDataType,
    graph: &Graph,
    schedule: &QaoaSchedule,
) -> Result<Vec<OperatorDescriptor>> {
    if register.encoding_kind != EncodingKind::IsingSpin {
        return Err(QmlError::Validation(format!(
            "QAOA for Max-Cut requires an ISING_SPIN register, got {}",
            register.encoding_kind
        )));
    }
    if schedule.layers() == 0 {
        return Err(QmlError::Validation("QAOA needs at least one layer".into()));
    }
    let mut ops = vec![prep_uniform(register)?];
    for layer in 0..schedule.layers() {
        let (gamma, beta): (ParamValue, ParamValue) = match schedule {
            QaoaSchedule::Fixed(angles) => (
                ParamValue::Float(angles[layer].gamma),
                ParamValue::Float(angles[layer].beta),
            ),
            QaoaSchedule::Symbolic { .. } => (
                ParamValue::symbol(format!("gamma_{layer}")),
                ParamValue::symbol(format!("beta_{layer}")),
            ),
        };
        ops.push(ising_cost_phase(register, graph, gamma, layer)?);
        ops.push(mixer_rx(register, beta, layer)?);
    }
    ops.push(measurement(register)?);
    Ok(ops)
}

/// Package a complete QAOA Max-Cut job bundle (intent only; attach a context
/// to target a backend).
pub fn qaoa_maxcut_program(graph: &Graph, schedule: &QaoaSchedule) -> Result<JobBundle> {
    let register = ising_register(graph.num_nodes())?;
    let ops = qaoa_sequence(&register, graph, schedule)?;
    let bundle = JobBundle::new(
        format!("maxcut-qaoa-p{}", schedule.layers()),
        vec![register],
        ops,
    )
    .with_metadata("library", "qml-algorithms::qaoa")
    .with_metadata("problem", "maxcut");
    bundle.validate()?;
    Ok(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qml_graph::cycle;
    use std::collections::BTreeMap;

    #[test]
    fn fig2_descriptor_stack_structure() {
        // The paper's Fig. 2: PREP_UNIFORM, ISING_COST_PHASE(γ, edges,
        // weights), MIXER_RX(β), final MEASUREMENT with result schema.
        let graph = cycle(4);
        let bundle =
            qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap();
        let kinds: Vec<&RepKind> = bundle.operators.iter().map(|o| &o.rep_kind).collect();
        assert_eq!(
            kinds,
            vec![
                &RepKind::PrepUniform,
                &RepKind::IsingCostPhase,
                &RepKind::MixerRx,
                &RepKind::Measurement
            ]
        );
        let register = &bundle.data_types[0];
        assert_eq!(register.id, "ising_vars");
        assert_eq!(register.name, "s");
        assert_eq!(register.width, 4);
        assert_eq!(register.encoding_kind, EncodingKind::IsingSpin);

        let cost = &bundle.operators[1];
        assert_eq!(
            cost.params.get("edges").unwrap().as_list().unwrap().len(),
            4
        );
        assert!((cost.params.require_f64("gamma").unwrap() - RING_P1_ANGLES.gamma).abs() < 1e-12);
        let meas = bundle.operators.last().unwrap();
        assert!(meas.result_schema.is_some());
    }

    #[test]
    fn multi_layer_sequence_length() {
        let graph = cycle(6);
        let schedule = QaoaSchedule::Fixed(vec![RING_P1_ANGLES; 3]);
        let bundle = qaoa_maxcut_program(&graph, &schedule).unwrap();
        // 1 prep + 3 × (cost + mixer) + 1 measurement = 8.
        assert_eq!(bundle.operators.len(), 8);
    }

    #[test]
    fn symbolic_schedule_supports_late_binding() {
        let graph = cycle(4);
        let bundle = qaoa_maxcut_program(&graph, &QaoaSchedule::Symbolic { layers: 2 }).unwrap();
        let mut symbols = bundle.unbound_symbols();
        symbols.sort();
        assert_eq!(symbols, vec!["beta_0", "beta_1", "gamma_0", "gamma_1"]);
        assert!(bundle.ensure_bound().is_err());

        let bindings: BTreeMap<String, ParamValue> = symbols
            .iter()
            .map(|s| (s.clone(), ParamValue::Float(0.3)))
            .collect();
        let bound = bundle.bind(&bindings);
        bound.ensure_bound().unwrap();
        bound.validate().unwrap();
    }

    #[test]
    fn graph_register_width_mismatch_rejected() {
        let register = ising_register(4).unwrap();
        let graph = cycle(6);
        assert!(matches!(
            ising_cost_phase(&register, &graph, 0.1, 0),
            Err(QmlError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn wrong_register_kind_rejected() {
        let register = QuantumDataType::int_register("k", "k", 4).unwrap();
        let graph = cycle(4);
        assert!(qaoa_sequence(
            &register,
            &graph,
            &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])
        )
        .is_err());
    }

    #[test]
    fn zero_layers_rejected() {
        let graph = cycle(4);
        assert!(qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![])).is_err());
    }

    #[test]
    fn bundle_round_trips_through_json() {
        let graph = cycle(4);
        let bundle =
            qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap();
        let json = bundle.to_json().unwrap();
        let back = JobBundle::from_json(&json).unwrap();
        assert_eq!(back, bundle);
        assert!(json.contains("ISING_COST_PHASE"));
        assert!(json.contains("PREP_UNIFORM"));
        assert!(json.contains("MIXER_RX"));
    }

    #[test]
    fn weighted_graphs_carry_their_weights() {
        let graph = qml_graph::Graph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 0.5)]);
        let register = ising_register(3).unwrap();
        let cost = ising_cost_phase(&register, &graph, 0.4, 0).unwrap();
        let weights = cost.params.get("weights").unwrap().as_list().unwrap();
        assert_eq!(weights.len(), 2);
        assert_eq!(weights[0].as_f64(), Some(2.0));
        assert_eq!(weights[1].as_f64(), Some(0.5));
    }

    #[test]
    fn cost_hints_cover_the_whole_stack() {
        let graph = cycle(4);
        let bundle =
            qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap();
        // Every unitary operator carries a hint; only the measurement is free.
        for op in bundle.operators.iter() {
            if op.rep_kind != RepKind::Measurement {
                assert!(op.cost_hint.is_some(), "{} lacks a cost hint", op.name);
            }
        }
    }
}
