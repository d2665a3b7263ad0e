//! Result schemas: how a readout is produced and decoded (paper §4.2).
//!
//! The paper's Listing 3 attaches a `result_schema` block to the QFT operator
//! so that "a downstream readout" is decoded without guessing: measurement
//! basis, datatype interpretation, bit significance and the order in which
//! logical wires map to classical bits are all explicit.

use serde::{Deserialize, Serialize};

use crate::encoding::{BitOrder, MeasurementSemantics};
use crate::error::{QmlError, Result};
use crate::qdt::QuantumDataType;

/// Measurement basis for a readout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum MeasurementBasis {
    /// Computational (Z) basis — the only basis used by the paper's PoC.
    #[default]
    #[serde(rename = "Z")]
    Z,
    /// Hadamard (X) basis.
    #[serde(rename = "X")]
    X,
    /// Y basis.
    #[serde(rename = "Y")]
    Y,
}

/// Explicit decoding rules for the classical outcome of a measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSchema {
    /// Basis in which the register is measured.
    #[serde(default)]
    pub basis: MeasurementBasis,
    /// Interpretation of the measured word (`AS_PHASE`, `AS_BOOL`, ...).
    pub datatype: MeasurementSemantics,
    /// Significance of successive classical bits.
    #[serde(default)]
    pub bit_significance: BitOrder,
    /// Logical wire labels (e.g. `reg_phase[3]`) in the order their outcomes
    /// are mapped to successive classical bits.
    pub clbit_order: Vec<String>,
}

impl ResultSchema {
    /// Build the schema the paper's listings use: Z-basis measurement of the
    /// whole register in ascending wire order, decoded with the register's own
    /// semantics and bit order.
    pub fn for_register(qdt: &QuantumDataType) -> Self {
        ResultSchema {
            basis: MeasurementBasis::Z,
            datatype: qdt.measurement_semantics,
            bit_significance: qdt.bit_order,
            clbit_order: qdt.wire_labels(),
        }
    }

    /// Number of classical bits produced by this readout.
    pub fn num_clbits(&self) -> usize {
        self.clbit_order.len()
    }

    /// Validate the schema against the register it reads out: every wire label
    /// must belong to the register, appear at most once, and the width must
    /// not exceed the register width.
    pub fn validate_against(&self, qdt: &QuantumDataType) -> Result<()> {
        if self.clbit_order.is_empty() {
            return Err(QmlError::Validation(
                "result schema must list at least one classical bit".into(),
            ));
        }
        if self.clbit_order.len() > qdt.width {
            return Err(QmlError::WidthMismatch {
                register: qdt.id.clone(),
                expected: qdt.width,
                found: self.clbit_order.len(),
            });
        }
        let mut seen = vec![false; qdt.width];
        for label in &self.clbit_order {
            let Some(wire) = wire_of(label, qdt) else {
                return Err(QmlError::Validation(format!(
                    "result schema references `{label}` which is not a wire of register `{}`",
                    qdt.id
                )));
            };
            if std::mem::replace(&mut seen[wire], true) {
                return Err(QmlError::Validation(format!(
                    "result schema lists wire `{label}` more than once"
                )));
            }
        }
        Ok(())
    }

    /// Indices (into the register) of the wires read out, in classical-bit
    /// order. E.g. `["reg[2]", "reg[0]"]` yields `[2, 0]`.
    pub fn wire_indices(&self, qdt: &QuantumDataType) -> Result<Vec<usize>> {
        self.clbit_order
            .iter()
            .map(|label| {
                let open = label.find('[').ok_or_else(|| {
                    QmlError::Validation(format!("malformed wire label `{label}`"))
                })?;
                let close = label.find(']').ok_or_else(|| {
                    QmlError::Validation(format!("malformed wire label `{label}`"))
                })?;
                if label[..open] != qdt.id {
                    return Err(QmlError::Validation(format!(
                        "wire label `{label}` does not belong to register `{}`",
                        qdt.id
                    )));
                }
                label[open + 1..close]
                    .parse::<usize>()
                    .map_err(|_| QmlError::Validation(format!("malformed wire label `{label}`")))
            })
            .collect()
    }
}

/// The wire `label` names if it is one of `qdt`'s
/// [`wire_labels`](QuantumDataType::wire_labels) — `id[i]`, `i` in canonical
/// decimal and below the width — without building the labels.
fn wire_of(label: &str, qdt: &QuantumDataType) -> Option<usize> {
    let digits = label
        .strip_prefix(qdt.id.as_str())?
        .strip_prefix('[')?
        .strip_suffix(']')?;
    let canonical = !digits.is_empty()
        && digits.bytes().all(|b| b.is_ascii_digit())
        && (digits == "0" || !digits.starts_with('0'));
    let wire: usize = digits.parse().ok().filter(|_| canonical)?;
    (wire < qdt.width).then_some(wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodingKind;
    use crate::qdt::QdtBuilder;

    fn phase_reg() -> QuantumDataType {
        QuantumDataType::phase_register("reg_phase", "phase", 10).unwrap()
    }

    #[test]
    fn wire_of_accepts_exactly_the_wire_labels() {
        let qdt = phase_reg();
        let labels = qdt.wire_labels();
        for label in labels.iter().map(String::as_str).chain([
            "reg_phase[10]",
            "reg_phase[01]",
            "reg_phase[+1]",
            "reg_phase[]",
            "reg_phase[1",
            "reg_phase[1]]",
            "reg_phase1]",
            "phase[1]",
            "reg_phase[99999999999999999999999]",
        ]) {
            let expected = labels.iter().position(|l| l == label);
            assert_eq!(wire_of(label, &qdt), expected, "{label}");
        }
    }

    #[test]
    fn listing3_result_schema_parses() {
        let json = r#"
        {
            "basis": "Z",
            "datatype": "AS_PHASE",
            "bit_significance": "LSB_0",
            "clbit_order": [
                "reg_phase[0]", "reg_phase[1]", "reg_phase[2]",
                "reg_phase[3]", "reg_phase[4]", "reg_phase[5]",
                "reg_phase[6]", "reg_phase[7]", "reg_phase[8]",
                "reg_phase[9]"
            ]
        }"#;
        let schema: ResultSchema = serde_json::from_str(json).unwrap();
        assert_eq!(schema.basis, MeasurementBasis::Z);
        assert_eq!(schema.datatype, MeasurementSemantics::AsPhase);
        assert_eq!(schema.num_clbits(), 10);
        schema.validate_against(&phase_reg()).unwrap();
    }

    #[test]
    fn for_register_matches_manual_schema() {
        let qdt = phase_reg();
        let schema = ResultSchema::for_register(&qdt);
        assert_eq!(schema.clbit_order.len(), 10);
        assert_eq!(schema.clbit_order[3], "reg_phase[3]");
        schema.validate_against(&qdt).unwrap();
    }

    #[test]
    fn wrong_register_wire_rejected() {
        let qdt = phase_reg();
        let mut schema = ResultSchema::for_register(&qdt);
        schema.clbit_order[0] = "other_reg[0]".into();
        assert!(schema.validate_against(&qdt).is_err());
    }

    #[test]
    fn duplicate_wire_rejected() {
        let qdt = phase_reg();
        let mut schema = ResultSchema::for_register(&qdt);
        schema.clbit_order[1] = "reg_phase[0]".into();
        assert!(schema.validate_against(&qdt).is_err());
    }

    #[test]
    fn too_wide_schema_rejected() {
        let qdt = QuantumDataType::bool_register("b", "b", 2).unwrap();
        let schema = ResultSchema {
            basis: MeasurementBasis::Z,
            datatype: MeasurementSemantics::AsBool,
            bit_significance: BitOrder::Lsb0,
            clbit_order: vec!["b[0]".into(), "b[1]".into(), "b[2]".into()],
        };
        assert!(matches!(
            schema.validate_against(&qdt),
            Err(QmlError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn empty_schema_rejected() {
        let qdt = phase_reg();
        let schema = ResultSchema {
            basis: MeasurementBasis::Z,
            datatype: MeasurementSemantics::AsPhase,
            bit_significance: BitOrder::Lsb0,
            clbit_order: vec![],
        };
        assert!(schema.validate_against(&qdt).is_err());
    }

    #[test]
    fn wire_indices_follow_clbit_order() {
        let qdt = QuantumDataType::int_register("r", "r", 4).unwrap();
        let schema = ResultSchema {
            basis: MeasurementBasis::Z,
            datatype: MeasurementSemantics::AsInt,
            bit_significance: BitOrder::Lsb0,
            clbit_order: vec!["r[2]".into(), "r[0]".into(), "r[3]".into()],
        };
        assert_eq!(schema.wire_indices(&qdt).unwrap(), vec![2, 0, 3]);
    }

    #[test]
    fn malformed_wire_label_rejected() {
        let qdt = QuantumDataType::int_register("r", "r", 4).unwrap();
        let schema = ResultSchema {
            basis: MeasurementBasis::Z,
            datatype: MeasurementSemantics::AsInt,
            bit_significance: BitOrder::Lsb0,
            clbit_order: vec!["r-two".into()],
        };
        assert!(schema.wire_indices(&qdt).is_err());
    }

    #[test]
    fn partial_readout_is_allowed() {
        // Reading only a sub-register is legal (e.g. a QPE output register).
        let qdt = QdtBuilder::new("work", 6)
            .encoding(EncodingKind::IntRegister)
            .build()
            .unwrap();
        let schema = ResultSchema {
            basis: MeasurementBasis::Z,
            datatype: MeasurementSemantics::AsInt,
            bit_significance: BitOrder::Lsb0,
            clbit_order: vec!["work[0]".into(), "work[1]".into(), "work[2]".into()],
        };
        schema.validate_against(&qdt).unwrap();
    }

    #[test]
    fn basis_letters_round_trip() {
        for (basis, s) in [
            (MeasurementBasis::Z, "\"Z\""),
            (MeasurementBasis::X, "\"X\""),
            (MeasurementBasis::Y, "\"Y\""),
        ] {
            assert_eq!(serde_json::to_string(&basis).unwrap(), s);
        }
    }
}
