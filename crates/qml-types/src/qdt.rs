//! Quantum data type descriptors (paper §4.1, Listing 2).
//!
//! A [`QuantumDataType`] is "the semantic contract that tells every component
//! what a quantum register means": its width, encoding, bit significance and
//! how a measurement of it should be interpreted. It deliberately says nothing
//! about gates, pulses, qumodes or anneal variables — that is the backend's
//! concern.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::encoding::{BitOrder, EncodingKind, MeasurementSemantics, PhaseScale};
use crate::error::{QmlError, Result};
use crate::params::ParamValue;

/// Name of the JSON Schema governing quantum data type artifacts
/// (the `$schema` value in the paper's Listing 2).
pub(crate) const QDT_SCHEMA: &str = "qdt-core.schema.json";

/// A typed quantum register: the middle layer's answer to "what does this
/// register mean?".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantumDataType {
    /// JSON Schema identifier used to validate this artifact.
    #[serde(rename = "$schema", default = "default_qdt_schema")]
    pub schema: String,
    /// Unique identifier of the logical register (referenced by operator
    /// descriptors via `domain_qdt` / `codomain_qdt`).
    pub id: String,
    /// Human-readable register name.
    pub name: String,
    /// Number of logical carriers (qubits, qumodes, anneal variables, ...).
    pub width: usize,
    /// What the computational-basis index of the register represents.
    pub encoding_kind: EncodingKind,
    /// Significance order of the carriers.
    #[serde(default)]
    pub bit_order: BitOrder,
    /// How Z-basis readouts of this register are to be interpreted.
    pub measurement_semantics: MeasurementSemantics,
    /// Phase resolution, required iff `encoding_kind == PHASE_REGISTER`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub phase_scale: Option<PhaseScale>,
    /// Free-form, forward-compatible metadata (provenance, units, ...).
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub metadata: BTreeMap<String, ParamValue>,
}

fn default_qdt_schema() -> String {
    QDT_SCHEMA.to_string()
}

impl QuantumDataType {
    /// Start building a register descriptor with the given id and width.
    #[cfg(test)]
    pub(crate) fn builder(id: impl Into<String>, width: usize) -> QdtBuilder {
        QdtBuilder::new(id, width)
    }

    /// The paper's Listing 2 register: a 10-carrier fixed-point phase
    /// accumulator with resolution 1/1024, LSB-first, measured `AS_PHASE`.
    pub fn phase_register(
        id: impl Into<String>,
        name: impl Into<String>,
        width: usize,
    ) -> Result<Self> {
        QdtBuilder::new(id, width)
            .name(name)
            .encoding(EncodingKind::PhaseRegister)
            .measurement(MeasurementSemantics::AsPhase)
            .phase_scale(PhaseScale::for_width(width)?)
            .build()
    }

    /// The paper's §5 register: `width` Ising decision variables measured as
    /// Boolean labels (`ising_vars` / `s` in the Max-Cut proof of concept).
    pub fn ising_spins(
        id: impl Into<String>,
        name: impl Into<String>,
        width: usize,
    ) -> Result<Self> {
        QdtBuilder::new(id, width)
            .name(name)
            .encoding(EncodingKind::IsingSpin)
            .measurement(MeasurementSemantics::AsBool)
            .build()
    }

    /// An unsigned integer register decoded `AS_INT`.
    pub fn int_register(
        id: impl Into<String>,
        name: impl Into<String>,
        width: usize,
    ) -> Result<Self> {
        QdtBuilder::new(id, width)
            .name(name)
            .encoding(EncodingKind::IntRegister)
            .measurement(MeasurementSemantics::AsInt)
            .build()
    }

    /// A Boolean register decoded `AS_BOOL`.
    pub fn bool_register(
        id: impl Into<String>,
        name: impl Into<String>,
        width: usize,
    ) -> Result<Self> {
        QdtBuilder::new(id, width)
            .name(name)
            .encoding(EncodingKind::BoolRegister)
            .measurement(MeasurementSemantics::AsBool)
            .build()
    }

    /// Validate the structural constraints of this descriptor.
    ///
    /// * `id` and `name` must be non-empty,
    /// * `width` must be in `1..=63` (the decoded word must fit a `u64`),
    /// * a `PHASE_REGISTER` must carry a `phase_scale`,
    /// * non-phase registers must not claim `AS_PHASE` semantics.
    pub fn validate(&self) -> Result<()> {
        if self.id.trim().is_empty() {
            return Err(QmlError::Validation(
                "quantum data type id must be non-empty".into(),
            ));
        }
        if self.name.trim().is_empty() {
            return Err(QmlError::Validation(format!(
                "quantum data type `{}` must have a non-empty name",
                self.id
            )));
        }
        if self.width == 0 || self.width > 63 {
            return Err(QmlError::Validation(format!(
                "quantum data type `{}` width {} out of range 1..=63",
                self.id, self.width
            )));
        }
        if self.encoding_kind == EncodingKind::PhaseRegister && self.phase_scale.is_none() {
            return Err(QmlError::Validation(format!(
                "phase register `{}` must declare a phase_scale",
                self.id
            )));
        }
        if self.encoding_kind != EncodingKind::PhaseRegister
            && self.measurement_semantics == MeasurementSemantics::AsPhase
        {
            return Err(QmlError::Validation(format!(
                "register `{}` is not a PHASE_REGISTER but requests AS_PHASE semantics",
                self.id
            )));
        }
        if self.schema != QDT_SCHEMA {
            return Err(QmlError::Validation(format!(
                "quantum data type `{}` references unknown schema `{}` (expected `{QDT_SCHEMA}`)",
                self.id, self.schema
            )));
        }
        Ok(())
    }

    /// Names of the logical carrier wires in classical-bit order, e.g.
    /// `reg_phase[0]`, `reg_phase[1]`, ... — the form used by the
    /// `clbit_order` array in result schemas.
    pub(crate) fn wire_labels(&self) -> Vec<String> {
        (0..self.width)
            .map(|i| format!("{}[{i}]", self.id))
            .collect()
    }
}

/// Builder for [`QuantumDataType`] used by the algorithmic libraries.
#[derive(Debug, Clone)]
pub(crate) struct QdtBuilder {
    id: String,
    name: Option<String>,
    width: usize,
    encoding: EncodingKind,
    bit_order: BitOrder,
    measurement: Option<MeasurementSemantics>,
    phase_scale: Option<PhaseScale>,
    metadata: BTreeMap<String, ParamValue>,
}

impl QdtBuilder {
    /// New builder for a register with the given id and width.
    pub(crate) fn new(id: impl Into<String>, width: usize) -> Self {
        QdtBuilder {
            id: id.into(),
            name: None,
            width,
            encoding: EncodingKind::IntRegister,
            bit_order: BitOrder::Lsb0,
            measurement: None,
            phase_scale: None,
            metadata: BTreeMap::new(),
        }
    }

    /// Human-readable register name (defaults to the id).
    pub(crate) fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Encoding kind (defaults to `INT_REGISTER`).
    pub(crate) fn encoding(mut self, encoding: EncodingKind) -> Self {
        self.encoding = encoding;
        self
    }

    /// Bit significance order (defaults to `LSB_0`).
    #[cfg(test)]
    pub(crate) fn bit_order(mut self, bit_order: BitOrder) -> Self {
        self.bit_order = bit_order;
        self
    }

    /// Measurement semantics (defaults to the encoding's natural pairing).
    pub(crate) fn measurement(mut self, semantics: MeasurementSemantics) -> Self {
        self.measurement = Some(semantics);
        self
    }

    /// Phase resolution (required for phase registers).
    pub(crate) fn phase_scale(mut self, scale: PhaseScale) -> Self {
        self.phase_scale = Some(scale);
        self
    }

    /// Finish and validate the descriptor.
    pub(crate) fn build(self) -> Result<QuantumDataType> {
        let qdt = QuantumDataType {
            schema: QDT_SCHEMA.to_string(),
            name: self.name.unwrap_or_else(|| self.id.clone()),
            id: self.id,
            width: self.width,
            measurement_semantics: self
                .measurement
                .unwrap_or_else(|| self.encoding.default_semantics()),
            encoding_kind: self.encoding,
            bit_order: self.bit_order,
            phase_scale: self.phase_scale,
            metadata: self.metadata,
        };
        qdt.validate()?;
        Ok(qdt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact artifact from the paper's Listing 2.
    const LISTING_2: &str = r#"
    {
        "$schema": "qdt-core.schema.json",
        "id": "reg_phase",
        "name": "phase",
        "width": 10,
        "encoding_kind": "PHASE_REGISTER",
        "bit_order": "LSB_0",
        "measurement_semantics": "AS_PHASE",
        "phase_scale": "1/1024"
    }
    "#;

    #[test]
    fn listing2_parses_and_validates() {
        let qdt: QuantumDataType = serde_json::from_str(LISTING_2).unwrap();
        assert_eq!(qdt.id, "reg_phase");
        assert_eq!(qdt.width, 10);
        assert_eq!(qdt.encoding_kind, EncodingKind::PhaseRegister);
        assert_eq!(qdt.bit_order, BitOrder::Lsb0);
        assert_eq!(qdt.measurement_semantics, MeasurementSemantics::AsPhase);
        assert_eq!(qdt.phase_scale.unwrap().den, 1024);
        qdt.validate().unwrap();
    }

    #[test]
    fn listing2_round_trips_through_builder() {
        let built = QuantumDataType::phase_register("reg_phase", "phase", 10).unwrap();
        let parsed: QuantumDataType = serde_json::from_str(LISTING_2).unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn serialization_uses_dollar_schema_key() {
        let qdt = QuantumDataType::ising_spins("ising_vars", "s", 4).unwrap();
        let json = serde_json::to_value(&qdt).unwrap();
        assert_eq!(json["$schema"], QDT_SCHEMA);
        assert_eq!(json["encoding_kind"], "ISING_SPIN");
        assert_eq!(json["measurement_semantics"], "AS_BOOL");
    }

    #[test]
    fn zero_width_rejected() {
        assert!(QuantumDataType::int_register("r", "r", 0).is_err());
    }

    #[test]
    fn oversized_width_rejected() {
        assert!(QuantumDataType::int_register("r", "r", 64).is_err());
    }

    #[test]
    fn phase_register_requires_scale() {
        let qdt = QdtBuilder::new("p", 4)
            .encoding(EncodingKind::PhaseRegister)
            .measurement(MeasurementSemantics::AsPhase)
            .build();
        assert!(qdt.is_err(), "missing phase_scale must be rejected");
    }

    #[test]
    fn non_phase_register_cannot_use_as_phase() {
        let qdt = QdtBuilder::new("b", 4)
            .encoding(EncodingKind::BoolRegister)
            .measurement(MeasurementSemantics::AsPhase)
            .build();
        assert!(qdt.is_err());
    }

    #[test]
    fn empty_id_rejected() {
        assert!(QuantumDataType::bool_register("  ", "x", 2).is_err());
    }

    #[test]
    fn wire_labels_follow_clbit_order_convention() {
        let qdt = QuantumDataType::ising_spins("ising_vars", "s", 4).unwrap();
        assert_eq!(
            qdt.wire_labels(),
            vec![
                "ising_vars[0]",
                "ising_vars[1]",
                "ising_vars[2]",
                "ising_vars[3]"
            ]
        );
    }

    #[test]
    fn default_semantics_used_when_not_specified() {
        let qdt = QdtBuilder::new("n", 5).build().unwrap();
        assert_eq!(qdt.measurement_semantics, MeasurementSemantics::AsInt);
        assert_eq!(qdt.name, "n");
    }

    #[test]
    fn unknown_schema_rejected_by_validate() {
        let mut qdt = QuantumDataType::int_register("r", "r", 3).unwrap();
        qdt.schema = "something-else.json".into();
        assert!(qdt.validate().is_err());
    }

    #[test]
    fn metadata_round_trips() {
        let mut qdt = QdtBuilder::new("m", 3).build().unwrap();
        qdt.metadata.insert("provenance".into(), "unit-test".into());
        qdt.metadata.insert("version".into(), 2.into());
        let json = serde_json::to_string(&qdt).unwrap();
        let back: QuantumDataType = serde_json::from_str(&json).unwrap();
        assert_eq!(back.metadata.len(), 2);
        assert_eq!(back, qdt);
    }
}
