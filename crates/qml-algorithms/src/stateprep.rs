//! State-preparation operator descriptors.
//!
//! The paper's §4.4 lists "quantum state preparation (Hadamard gates,
//! amplitude encoding, angle encoding)" among the algorithmic-library
//! transformations. These constructors emit the descriptors of the two that
//! the gate backend lowers, validating the classical data against the typed
//! register before anything is handed to a backend.

use qml_types::{
    CostHint, EncodingKind, OperatorDescriptor, ParamValue, QmlError, QuantumDataType, RepKind,
    Result,
};

/// A bare Hadamard layer on every carrier of the register.
pub fn hadamard_layer(register: &QuantumDataType) -> Result<OperatorDescriptor> {
    OperatorDescriptor::builder("hadamard_layer", RepKind::HadamardLayer, &register.id)
        .cost_hint(CostHint::gates(0, 1).with_oneq(register.width as u64))
        .build()
}

/// Angle encoding: one rotation angle per carrier (RY(θ_i) on carrier i).
pub fn angle_encoding(register: &QuantumDataType, angles: &[f64]) -> Result<OperatorDescriptor> {
    if register.encoding_kind == EncodingKind::PhaseRegister {
        return Err(QmlError::Validation(
            "angle encoding writes computational amplitudes; use a non-phase register".into(),
        ));
    }
    if angles.len() != register.width {
        return Err(QmlError::Validation(format!(
            "angle encoding needs one angle per carrier ({}), got {}",
            register.width,
            angles.len()
        )));
    }
    OperatorDescriptor::builder("angle_encode", RepKind::AngleEncoding, &register.id)
        .param(
            "angles",
            ParamValue::List(angles.iter().map(|&a| ParamValue::Float(a)).collect()),
        )
        .cost_hint(CostHint::gates(0, 1).with_oneq(register.width as u64))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hadamard_layer_descriptor() {
        let reg = QuantumDataType::bool_register("b", "b", 5).unwrap();
        let op = hadamard_layer(&reg).unwrap();
        assert_eq!(op.rep_kind, RepKind::HadamardLayer);
        assert_eq!(op.cost_hint.unwrap().oneq, Some(5));
    }

    #[test]
    fn angle_encoding_validation() {
        let reg = QuantumDataType::int_register("f", "f", 3).unwrap();
        assert!(angle_encoding(&reg, &[0.1, 0.2, 0.3]).is_ok());
        assert!(angle_encoding(&reg, &[0.1, 0.2]).is_err());
        let phase = QuantumDataType::phase_register("p", "p", 3).unwrap();
        assert!(angle_encoding(&phase, &[0.1, 0.2, 0.3]).is_err());
    }
}
