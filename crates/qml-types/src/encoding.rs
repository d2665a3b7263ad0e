//! Register encodings, bit orders, measurement semantics and phase scales.
//!
//! These enums are the vocabulary of the *quantum data type* descriptor
//! (paper §4.1): they tell every component what a register **means** —
//! integer, Boolean/QUBO variable, Ising spin, fixed-point phase — without
//! prescribing how a backend realizes it (qubits, qumodes, anneal variables).

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::{QmlError, Result};

/// Interpretation of the computational-basis index of a register.
///
/// The serialized form uses the SCREAMING_SNAKE_CASE names from the paper's
/// JSON listings (e.g. `"PHASE_REGISTER"`, `"ISING_SPIN"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EncodingKind {
    /// Unsigned integer register: basis state |k⟩ decodes to the integer k.
    #[serde(rename = "INT_REGISTER")]
    IntRegister,
    /// Signed (two's-complement) integer register.
    #[serde(rename = "SIGNED_INT_REGISTER")]
    SignedIntRegister,
    /// Boolean register: each carrier holds a {0,1} label, used for control
    /// logic and QUBO variables.
    #[serde(rename = "BOOL_REGISTER")]
    BoolRegister,
    /// Fixed-point phase accumulator: index k denotes the phase fraction
    /// k·`phase_scale` of a full turn.
    #[serde(rename = "PHASE_REGISTER")]
    PhaseRegister,
    /// Logical Ising spins s ∈ {−1, +1} represented as Boolean readouts
    /// (0 ↦ +1, 1 ↦ −1 by the usual convention).
    #[serde(rename = "ISING_SPIN")]
    IsingSpin,
    /// Amplitude-encoded real vector (state-preparation targets).
    #[serde(rename = "AMPLITUDE_REGISTER")]
    AmplitudeRegister,
    /// Angle-encoded features (one rotation angle per carrier).
    #[serde(rename = "ANGLE_REGISTER")]
    AngleRegister,
}

impl EncodingKind {
    /// The measurement semantics that naturally pairs with this encoding.
    pub(crate) fn default_semantics(self) -> MeasurementSemantics {
        match self {
            EncodingKind::IntRegister | EncodingKind::SignedIntRegister => {
                MeasurementSemantics::AsInt
            }
            EncodingKind::BoolRegister => MeasurementSemantics::AsBool,
            EncodingKind::PhaseRegister => MeasurementSemantics::AsPhase,
            EncodingKind::IsingSpin => MeasurementSemantics::AsBool,
            EncodingKind::AmplitudeRegister | EncodingKind::AngleRegister => {
                MeasurementSemantics::AsRaw
            }
        }
    }

    /// Canonical SCREAMING_SNAKE_CASE name used in JSON artifacts.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            EncodingKind::IntRegister => "INT_REGISTER",
            EncodingKind::SignedIntRegister => "SIGNED_INT_REGISTER",
            EncodingKind::BoolRegister => "BOOL_REGISTER",
            EncodingKind::PhaseRegister => "PHASE_REGISTER",
            EncodingKind::IsingSpin => "ISING_SPIN",
            EncodingKind::AmplitudeRegister => "AMPLITUDE_REGISTER",
            EncodingKind::AngleRegister => "ANGLE_REGISTER",
        }
    }
}

impl fmt::Display for EncodingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Significance order for mapping carriers to bit positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BitOrder {
    /// Index i has weight 2^i (least-significant bit is carrier 0).
    #[default]
    #[serde(rename = "LSB_0")]
    Lsb0,
    /// Index 0 is the most-significant bit.
    #[serde(rename = "MSB_0")]
    Msb0,
}

impl BitOrder {
    /// Canonical JSON name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            BitOrder::Lsb0 => "LSB_0",
            BitOrder::Msb0 => "MSB_0",
        }
    }

    /// Weight (as a power-of-two exponent) of carrier `index` in a register of
    /// `width` carriers.
    pub(crate) fn weight_exponent(self, index: usize, width: usize) -> usize {
        match self {
            BitOrder::Lsb0 => index,
            BitOrder::Msb0 => width - 1 - index,
        }
    }
}

impl fmt::Display for BitOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a Z-basis readout of the register should be interpreted downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MeasurementSemantics {
    /// Decode the measured word as an unsigned integer.
    #[serde(rename = "AS_INT")]
    AsInt,
    /// Decode each carrier as a {0,1} label.
    #[serde(rename = "AS_BOOL")]
    AsBool,
    /// Decode the measured word as a phase fraction (× `phase_scale`).
    #[serde(rename = "AS_PHASE")]
    AsPhase,
    /// Decode each carrier as an Ising spin (0 ↦ +1, 1 ↦ −1).
    #[serde(rename = "AS_SPIN")]
    AsSpin,
    /// Leave the word uninterpreted (raw bitstring).
    #[serde(rename = "AS_RAW")]
    AsRaw,
}

impl MeasurementSemantics {
    /// Canonical JSON name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            MeasurementSemantics::AsInt => "AS_INT",
            MeasurementSemantics::AsBool => "AS_BOOL",
            MeasurementSemantics::AsPhase => "AS_PHASE",
            MeasurementSemantics::AsSpin => "AS_SPIN",
            MeasurementSemantics::AsRaw => "AS_RAW",
        }
    }
}

impl fmt::Display for MeasurementSemantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A rational phase resolution such as `1/1024`, mapping an observed integer
/// `k` to the unitless phase fraction `k · num / den` of a full turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhaseScale {
    /// Numerator of the per-step phase fraction.
    pub num: u64,
    /// Denominator of the per-step phase fraction (must be non-zero).
    pub den: u64,
}

impl PhaseScale {
    /// Create a phase scale `num/den`. Fails if `den == 0`.
    pub(crate) fn new(num: u64, den: u64) -> Result<Self> {
        if den == 0 {
            return Err(QmlError::Validation(
                "phase_scale denominator must be non-zero".into(),
            ));
        }
        Ok(PhaseScale { num, den })
    }

    /// The natural scale for an `n`-carrier phase register: `1/2^n`.
    pub(crate) fn for_width(width: usize) -> Result<Self> {
        if width == 0 || width >= 64 {
            return Err(QmlError::Validation(format!(
                "phase register width {width} out of range (1..=63)"
            )));
        }
        PhaseScale::new(1, 1u64 << width)
    }

    /// Phase fraction (in turns) of the observed integer `k`.
    pub(crate) fn fraction(&self, k: u64) -> f64 {
        (k as f64) * (self.num as f64) / (self.den as f64)
    }

    /// Parse the `"1/1024"` textual form used by the paper's JSON artifacts.
    pub(crate) fn parse(text: &str) -> Result<Self> {
        let text = text.trim();
        if let Some((num, den)) = text.split_once('/') {
            let num: u64 = num.trim().parse().map_err(|_| {
                QmlError::Validation(format!("bad phase_scale numerator in `{text}`"))
            })?;
            let den: u64 = den.trim().parse().map_err(|_| {
                QmlError::Validation(format!("bad phase_scale denominator in `{text}`"))
            })?;
            PhaseScale::new(num, den)
        } else {
            let num: u64 = text
                .parse()
                .map_err(|_| QmlError::Validation(format!("bad phase_scale `{text}`")))?;
            PhaseScale::new(num, 1)
        }
    }
}

impl fmt::Display for PhaseScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl Serialize for PhaseScale {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        serializer.serialize_str(&format!("{}/{}", self.num, self.den))
    }
}

impl<'de> Deserialize<'de> for PhaseScale {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        let text = String::deserialize(deserializer)?;
        PhaseScale::parse(&text).map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_round_trip_json() {
        for kind in [
            EncodingKind::IntRegister,
            EncodingKind::SignedIntRegister,
            EncodingKind::BoolRegister,
            EncodingKind::PhaseRegister,
            EncodingKind::IsingSpin,
            EncodingKind::AmplitudeRegister,
            EncodingKind::AngleRegister,
        ] {
            let json = serde_json::to_string(&kind).unwrap();
            assert_eq!(json, format!("\"{}\"", kind.as_str()));
            let back: EncodingKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, kind);
        }
    }

    #[test]
    fn default_semantics_pairing() {
        assert_eq!(
            EncodingKind::PhaseRegister.default_semantics(),
            MeasurementSemantics::AsPhase
        );
        assert_eq!(
            EncodingKind::IsingSpin.default_semantics(),
            MeasurementSemantics::AsBool
        );
        assert_eq!(
            EncodingKind::IntRegister.default_semantics(),
            MeasurementSemantics::AsInt
        );
    }

    #[test]
    fn bit_order_weights() {
        assert_eq!(BitOrder::Lsb0.weight_exponent(0, 4), 0);
        assert_eq!(BitOrder::Lsb0.weight_exponent(3, 4), 3);
        assert_eq!(BitOrder::Msb0.weight_exponent(0, 4), 3);
        assert_eq!(BitOrder::Msb0.weight_exponent(3, 4), 0);
    }

    #[test]
    fn bit_order_serialized_names() {
        assert_eq!(serde_json::to_string(&BitOrder::Lsb0).unwrap(), "\"LSB_0\"");
        assert_eq!(serde_json::to_string(&BitOrder::Msb0).unwrap(), "\"MSB_0\"");
    }

    #[test]
    fn phase_scale_parse_fraction() {
        let s = PhaseScale::parse("1/1024").unwrap();
        assert_eq!(s.num, 1);
        assert_eq!(s.den, 1024);
        assert!((s.fraction(512) - 0.5).abs() < 1e-12);
        assert!((s.fraction(1024) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_scale_parse_integer() {
        let s = PhaseScale::parse("2").unwrap();
        assert_eq!(s.num, 2);
        assert_eq!(s.den, 1);
    }

    #[test]
    fn phase_scale_rejects_zero_denominator() {
        assert!(PhaseScale::new(1, 0).is_err());
        assert!(PhaseScale::parse("1/0").is_err());
    }

    #[test]
    fn phase_scale_for_width() {
        let s = PhaseScale::for_width(10).unwrap();
        assert_eq!(s.den, 1024);
        assert!(PhaseScale::for_width(0).is_err());
        assert!(PhaseScale::for_width(64).is_err());
    }

    #[test]
    fn phase_scale_json_matches_paper_listing() {
        let s = PhaseScale::new(1, 1024).unwrap();
        assert_eq!(serde_json::to_string(&s).unwrap(), "\"1/1024\"");
        let back: PhaseScale = serde_json::from_str("\"1/1024\"").unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn phase_scale_bad_text_rejected() {
        assert!(PhaseScale::parse("one half").is_err());
        assert!(PhaseScale::parse("1/x").is_err());
    }
}
