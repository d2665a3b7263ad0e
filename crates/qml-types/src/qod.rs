//! Quantum operator descriptors (paper §4.2, Listing 3).
//!
//! An operator descriptor names a *logical transformation* — a QFT, a modular
//! adder, an Ising cost layer — with its parameters, an optional
//! device-independent [`CostHint`] and an optional
//! [`ResultSchema`]. It contains no gates,
//! pulses or device details; lower layers decide how to realize it.

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::BTreeMap;
use std::fmt;

use crate::cost::CostHint;
use crate::error::{QmlError, Result};
use crate::params::{ParamValue, Params};
use crate::qdt::QuantumDataType;
use crate::result_schema::ResultSchema;

/// Name of the JSON Schema governing operator descriptor artifacts.
pub(crate) const QOD_SCHEMA: &str = "qod.schema.json";

/// Identifies the logical transformation an operator descriptor requests.
///
/// Known representation kinds serialize to the SCREAMING_SNAKE_CASE names used
/// in the paper (e.g. `"QFT_TEMPLATE"`, `"ISING_PROBLEM"`). Unknown kinds are
/// preserved verbatim via [`RepKind::Custom`] so third-party libraries can
/// extend the vocabulary without breaking interchange — the paper's
/// "minimal yet extendable" requirement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RepKind {
    /// Quantum Fourier Transform as a realizable template.
    QftTemplate,
    /// Uniform superposition preparation (Hadamard layer on every carrier).
    PrepUniform,
    /// QAOA cost layer: phase separation under an Ising Hamiltonian, angle γ.
    IsingCostPhase,
    /// QAOA mixer layer: RX(2β) on every carrier.
    MixerRx,
    /// Explicit measurement of a register (carries the result schema).
    Measurement,
    /// A complete Ising/Binary-Quadratic-Model problem (h, J) for annealers.
    IsingProblem,
    /// In-place integer addition template.
    AdderTemplate,
    /// Modular adder template (Shor-style arithmetic primitive).
    ModularAdderTemplate,
    /// Integer comparator template.
    ComparatorTemplate,
    /// Controlled-phase / kickback gadget.
    ControlledPhase,
    /// SWAP-test overlap estimation gadget.
    SwapTest,
    /// Quantum phase estimation scaffold.
    QpeTemplate,
    /// Amplitude-encoding state preparation.
    AmplitudeEncoding,
    /// Angle-encoding state preparation.
    AngleEncoding,
    /// A bare layer of Hadamard gates.
    HadamardLayer,
    /// Any other representation kind, preserved verbatim.
    Custom(String),
}

impl RepKind {
    /// Canonical string form (what appears in the JSON artifact).
    pub(crate) fn as_str(&self) -> &str {
        match self {
            RepKind::QftTemplate => "QFT_TEMPLATE",
            RepKind::PrepUniform => "PREP_UNIFORM",
            RepKind::IsingCostPhase => "ISING_COST_PHASE",
            RepKind::MixerRx => "MIXER_RX",
            RepKind::Measurement => "MEASUREMENT",
            RepKind::IsingProblem => "ISING_PROBLEM",
            RepKind::AdderTemplate => "ADDER_TEMPLATE",
            RepKind::ModularAdderTemplate => "MODULAR_ADDER_TEMPLATE",
            RepKind::ComparatorTemplate => "COMPARATOR_TEMPLATE",
            RepKind::ControlledPhase => "CONTROLLED_PHASE",
            RepKind::SwapTest => "SWAP_TEST",
            RepKind::QpeTemplate => "QPE_TEMPLATE",
            RepKind::AmplitudeEncoding => "AMPLITUDE_ENCODING",
            RepKind::AngleEncoding => "ANGLE_ENCODING",
            RepKind::HadamardLayer => "HADAMARD_LAYER",
            RepKind::Custom(name) => name,
        }
    }

    /// Parse from the canonical string form; unknown strings become
    /// [`RepKind::Custom`].
    pub(crate) fn from_str_lossy(s: &str) -> Self {
        match s {
            "QFT_TEMPLATE" => RepKind::QftTemplate,
            "PREP_UNIFORM" => RepKind::PrepUniform,
            "ISING_COST_PHASE" => RepKind::IsingCostPhase,
            "MIXER_RX" => RepKind::MixerRx,
            "MEASUREMENT" => RepKind::Measurement,
            "ISING_PROBLEM" => RepKind::IsingProblem,
            "ADDER_TEMPLATE" => RepKind::AdderTemplate,
            "MODULAR_ADDER_TEMPLATE" => RepKind::ModularAdderTemplate,
            "COMPARATOR_TEMPLATE" => RepKind::ComparatorTemplate,
            "CONTROLLED_PHASE" => RepKind::ControlledPhase,
            "SWAP_TEST" => RepKind::SwapTest,
            "QPE_TEMPLATE" => RepKind::QpeTemplate,
            "AMPLITUDE_ENCODING" => RepKind::AmplitudeEncoding,
            "ANGLE_ENCODING" => RepKind::AngleEncoding,
            "HADAMARD_LAYER" => RepKind::HadamardLayer,
            other => RepKind::Custom(other.to_string()),
        }
    }

    /// True for kinds that describe a measurement/readout rather than a
    /// unitary transformation.
    pub fn is_measurement(&self) -> bool {
        matches!(self, RepKind::Measurement)
    }

    /// True for kinds that describe a whole optimization problem rather than a
    /// circuit fragment (consumed by annealing backends).
    pub fn is_problem(&self) -> bool {
        matches!(self, RepKind::IsingProblem)
    }

    /// True if the named parameter of this representation kind is a
    /// **continuous angle** that realization hooks can keep symbolic through
    /// lowering and transpilation (late binding against a parametric plan).
    ///
    /// Everything else — approximation degrees, edge lists, weights, flags —
    /// is *structural*: it changes the circuit's shape, so a symbol there
    /// must be substituted eagerly before lowering.
    ///
    /// This table must mirror the realization rules in the gate backend's
    /// `lower_to_circuit` (qml-backends); both directions are pinned by
    /// tests there (`unbound_symbols_lower_to_a_parametric_circuit`,
    /// `symbolic_angle_encoding_lowers_symbolically`,
    /// `symbolic_structural_params_fail_loudly`) — extend those alongside
    /// any new entry here.
    pub(crate) fn is_angle_param(&self, key: &str) -> bool {
        match self {
            RepKind::IsingCostPhase => key == "gamma",
            RepKind::MixerRx => key == "beta",
            RepKind::AngleEncoding => key == "angles",
            _ => false,
        }
    }
}

impl fmt::Display for RepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for RepKind {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> Deserialize<'de> for RepKind {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        if s.trim().is_empty() {
            return Err(D::Error::custom("rep_kind must be non-empty"));
        }
        Ok(RepKind::from_str_lossy(&s))
    }
}

/// A quantum operator descriptor: the logical transformation to perform,
/// independent of its realization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatorDescriptor {
    /// JSON Schema identifier used to validate this artifact.
    #[serde(rename = "$schema", default = "default_qod_schema")]
    pub schema: String,
    /// Human-readable operator name (e.g. `"QFT"`).
    pub name: String,
    /// The logical transformation requested.
    pub rep_kind: RepKind,
    /// Id of the quantum data type the operator consumes.
    pub domain_qdt: String,
    /// Id of the quantum data type the operator produces (equal to
    /// `domain_qdt` for in-place transformations).
    pub codomain_qdt: String,
    /// Operator parameters (may contain late-bound symbols).
    #[serde(default, skip_serializing_if = "Params::is_empty")]
    pub params: Params,
    /// Advisory device-independent cost estimate.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cost_hint: Option<CostHint>,
    /// Decoding rules for the readout this operator produces (if any).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub result_schema: Option<ResultSchema>,
    /// Free-form metadata (provenance, library version, ...).
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub metadata: BTreeMap<String, ParamValue>,
}

fn default_qod_schema() -> String {
    QOD_SCHEMA.to_string()
}

impl OperatorDescriptor {
    /// Start building an operator descriptor acting in place on `register`.
    pub fn builder(
        name: impl Into<String>,
        rep_kind: RepKind,
        register: impl Into<String>,
    ) -> QodBuilder {
        let register = register.into();
        QodBuilder {
            name: name.into(),
            rep_kind,
            domain_qdt: register.clone(),
            codomain_qdt: register,
            params: Params::new(),
            cost_hint: None,
            result_schema: None,
        }
    }

    /// Structural validation independent of the surrounding bundle.
    pub fn validate(&self) -> Result<()> {
        if self.name.trim().is_empty() {
            return Err(QmlError::Validation(
                "operator name must be non-empty".into(),
            ));
        }
        if self.domain_qdt.trim().is_empty() || self.codomain_qdt.trim().is_empty() {
            return Err(QmlError::Validation(format!(
                "operator `{}` must reference domain and codomain registers",
                self.name
            )));
        }
        if self.schema != QOD_SCHEMA {
            return Err(QmlError::Validation(format!(
                "operator `{}` references unknown schema `{}` (expected `{QOD_SCHEMA}`)",
                self.name, self.schema
            )));
        }
        let non_finite = self
            .params
            .entries
            .iter()
            .find_map(|(key, value)| value.first_non_finite().map(|x| (key, x)));
        if let Some((key, x)) = non_finite {
            return Err(QmlError::Validation(format!(
                "operator `{}` parameter `{key}` holds {x}; descriptor numbers must be finite",
                self.name
            )));
        }
        if let Some(us) = self.cost_hint.and_then(|hint| hint.duration_us) {
            if !us.is_finite() || us < 0.0 {
                return Err(QmlError::Validation(format!(
                    "operator `{}` claims a cost_hint duration_us of {us}; \
                     a duration is a finite, non-negative number of microseconds",
                    self.name
                )));
            }
        }
        if self.rep_kind.is_measurement() && self.result_schema.is_none() {
            return Err(QmlError::Validation(format!(
                "measurement operator `{}` must attach an explicit result_schema \
                 (implicit measurement interpretation is forbidden)",
                self.name
            )));
        }
        Ok(())
    }

    /// Validate this descriptor against the register it references.
    pub fn validate_against(
        &self,
        domain: &QuantumDataType,
        codomain: &QuantumDataType,
    ) -> Result<()> {
        self.validate()?;
        self.check_registers(domain, codomain)
    }

    /// The register half of [`validate_against`](Self::validate_against),
    /// for a descriptor whose own [`validate`](Self::validate) has passed.
    pub(crate) fn check_registers(
        &self,
        domain: &QuantumDataType,
        codomain: &QuantumDataType,
    ) -> Result<()> {
        if domain.id != self.domain_qdt {
            return Err(QmlError::UnknownRegister(self.domain_qdt.clone()));
        }
        if codomain.id != self.codomain_qdt {
            return Err(QmlError::UnknownRegister(self.codomain_qdt.clone()));
        }
        if let Some(schema) = &self.result_schema {
            schema.validate_against(codomain)?;
        }
        Ok(())
    }

    /// Names of unbound symbolic parameters.
    pub(crate) fn unbound_symbols(&self) -> Vec<String> {
        self.params.unbound_symbols()
    }

    /// Return a copy with symbolic parameters bound from `bindings`.
    pub(crate) fn bind(&self, bindings: &BTreeMap<String, ParamValue>) -> OperatorDescriptor {
        OperatorDescriptor {
            params: self.params.bind(bindings),
            ..self.clone()
        }
    }
}

/// Builder for [`OperatorDescriptor`].
#[derive(Debug, Clone)]
pub struct QodBuilder {
    name: String,
    rep_kind: RepKind,
    domain_qdt: String,
    codomain_qdt: String,
    params: Params,
    cost_hint: Option<CostHint>,
    result_schema: Option<ResultSchema>,
}

impl QodBuilder {
    /// Set a different codomain register (out-of-place operator).
    pub fn codomain(mut self, register: impl Into<String>) -> Self {
        self.codomain_qdt = register.into();
        self
    }

    /// Add one parameter.
    pub fn param(mut self, key: impl Into<String>, value: impl Into<ParamValue>) -> Self {
        self.params.insert(key, value);
        self
    }

    /// Attach a cost hint.
    pub fn cost_hint(mut self, hint: CostHint) -> Self {
        self.cost_hint = Some(hint);
        self
    }

    /// Attach a result schema.
    pub fn result_schema(mut self, schema: ResultSchema) -> Self {
        self.result_schema = Some(schema);
        self
    }

    /// Finish and validate the descriptor.
    pub fn build(self) -> Result<OperatorDescriptor> {
        let qod = OperatorDescriptor {
            schema: QOD_SCHEMA.to_string(),
            name: self.name,
            rep_kind: self.rep_kind,
            domain_qdt: self.domain_qdt,
            codomain_qdt: self.codomain_qdt,
            params: self.params,
            cost_hint: self.cost_hint,
            result_schema: self.result_schema,
            metadata: BTreeMap::new(),
        };
        qod.validate()?;
        Ok(qod)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::MeasurementSemantics;
    use crate::result_schema::MeasurementBasis;

    /// The exact artifact from the paper's Listing 3.
    const LISTING_3: &str = r#"
    {
        "$schema": "qod.schema.json",
        "name": "QFT",
        "rep_kind": "QFT_TEMPLATE",
        "domain_qdt": "reg_phase",
        "codomain_qdt": "reg_phase",
        "params": { "approx_degree": 0, "do_swaps": true, "inverse": false },
        "cost_hint": { "twoq": 45, "depth": 100 },
        "result_schema": {
            "basis": "Z",
            "datatype": "AS_PHASE",
            "bit_significance": "LSB_0",
            "clbit_order": [
                "reg_phase[0]", "reg_phase[1]", "reg_phase[2]",
                "reg_phase[3]", "reg_phase[4]", "reg_phase[5]",
                "reg_phase[6]", "reg_phase[7]", "reg_phase[8]",
                "reg_phase[9]"
            ]
        }
    }"#;

    #[test]
    fn listing3_parses_and_validates() {
        let qod: OperatorDescriptor = serde_json::from_str(LISTING_3).unwrap();
        assert_eq!(qod.name, "QFT");
        assert_eq!(qod.rep_kind, RepKind::QftTemplate);
        assert_eq!(qod.domain_qdt, qod.codomain_qdt);
        assert_eq!(qod.params.require_u64("approx_degree").unwrap(), 0);
        assert!(qod.params.bool_or("do_swaps", false));
        assert!(!qod.params.bool_or("inverse", true));
        assert_eq!(qod.cost_hint.unwrap().twoq, Some(45));
        let schema = qod.result_schema.as_ref().unwrap();
        assert_eq!(schema.datatype, MeasurementSemantics::AsPhase);
        assert_eq!(schema.basis, MeasurementBasis::Z);
        qod.validate().unwrap();
    }

    #[test]
    fn listing3_validates_against_its_register() {
        let qod: OperatorDescriptor = serde_json::from_str(LISTING_3).unwrap();
        let reg = QuantumDataType::phase_register("reg_phase", "phase", 10).unwrap();
        qod.validate_against(&reg, &reg).unwrap();
    }

    #[test]
    fn rep_kind_round_trip_known_and_custom() {
        for kind in [
            RepKind::QftTemplate,
            RepKind::PrepUniform,
            RepKind::IsingCostPhase,
            RepKind::MixerRx,
            RepKind::Measurement,
            RepKind::IsingProblem,
            RepKind::ModularAdderTemplate,
            RepKind::Custom("CV_GAUSSIAN_TRANSFORM".into()),
        ] {
            let json = serde_json::to_string(&kind).unwrap();
            let back: RepKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, kind);
        }
    }

    #[test]
    fn unknown_rep_kind_preserved_verbatim() {
        let back: RepKind = serde_json::from_str("\"PULSE_TEMPLATE\"").unwrap();
        assert_eq!(back, RepKind::Custom("PULSE_TEMPLATE".into()));
        assert_eq!(serde_json::to_string(&back).unwrap(), "\"PULSE_TEMPLATE\"");
    }

    #[test]
    fn empty_rep_kind_rejected() {
        let parsed: std::result::Result<RepKind, _> = serde_json::from_str("\"\"");
        assert!(parsed.is_err());
    }

    #[test]
    fn a_duration_hint_must_be_finite_and_non_negative() {
        let build = |us: f64| {
            OperatorDescriptor::builder("QFT", RepKind::QftTemplate, "reg_phase")
                .cost_hint(CostHint::unknown().with_duration_us(us))
                .build()
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let err = build(bad).unwrap_err();
            assert!(err.to_string().contains("duration_us"), "{err}");
        }
        for good in [0.0, 250.0, 1e308] {
            assert!(build(good).is_ok(), "{good}");
        }
        // A descriptor that skipped the builder is caught by `validate`.
        let mut qod = build(1.0).unwrap();
        qod.cost_hint = Some(CostHint::unknown().with_duration_us(-5.0));
        assert!(qod.validate().is_err());
    }

    #[test]
    fn builder_round_trip() {
        let qod = OperatorDescriptor::builder("QFT", RepKind::QftTemplate, "reg_phase")
            .param("approx_degree", 0)
            .param("do_swaps", true)
            .param("inverse", false)
            .cost_hint(CostHint::gates(45, 100))
            .build()
            .unwrap();
        let json = serde_json::to_string(&qod).unwrap();
        let back: OperatorDescriptor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, qod);
    }

    #[test]
    fn measurement_without_result_schema_rejected() {
        let qod = OperatorDescriptor::builder("readout", RepKind::Measurement, "reg").build();
        assert!(
            qod.is_err(),
            "implicit measurement interpretation is forbidden"
        );
    }

    #[test]
    fn measurement_with_schema_accepted() {
        let reg = QuantumDataType::ising_spins("ising_vars", "s", 4).unwrap();
        let qod = OperatorDescriptor::builder("readout", RepKind::Measurement, "ising_vars")
            .result_schema(ResultSchema::for_register(&reg))
            .build()
            .unwrap();
        qod.validate_against(&reg, &reg).unwrap();
    }

    #[test]
    fn mismatched_register_rejected() {
        let qod: OperatorDescriptor = serde_json::from_str(LISTING_3).unwrap();
        let other = QuantumDataType::phase_register("other", "o", 10).unwrap();
        assert!(matches!(
            qod.validate_against(&other, &other),
            Err(QmlError::UnknownRegister(_))
        ));
    }

    #[test]
    fn late_binding_through_descriptor() {
        let qod = OperatorDescriptor::builder("cost", RepKind::IsingCostPhase, "ising_vars")
            .param("gamma", ParamValue::symbol("gamma_0"))
            .build()
            .unwrap();
        assert_eq!(qod.unbound_symbols(), vec!["gamma_0".to_string()]);
        let mut bindings = BTreeMap::new();
        bindings.insert("gamma_0".to_string(), ParamValue::Float(0.42));
        let bound = qod.bind(&bindings);
        assert!(bound.unbound_symbols().is_empty());
        assert!((bound.params.require_f64("gamma").unwrap() - 0.42).abs() < 1e-12);
    }

    #[test]
    fn empty_name_rejected() {
        let qod = OperatorDescriptor::builder(" ", RepKind::PrepUniform, "reg").build();
        assert!(qod.is_err());
    }

    #[test]
    fn non_finite_parameters_are_rejected() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let nested = ParamValue::List(vec![ParamValue::Int(0), ParamValue::Float(bad)]);
            let qod = OperatorDescriptor::builder("ising", RepKind::IsingProblem, "s")
                .param("h", nested)
                .build();
            assert!(matches!(qod, Err(QmlError::Validation(_))), "{bad}");
        }
    }

    #[test]
    fn out_of_place_operator() {
        let qod = OperatorDescriptor::builder("copy_add", RepKind::AdderTemplate, "a")
            .codomain("b")
            .build()
            .unwrap();
        assert_ne!(qod.domain_qdt, qod.codomain_qdt);
    }
}
