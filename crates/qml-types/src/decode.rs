//! Decoding of measured words according to explicit result schemas.
//!
//! The middle layer's composability principle requires that "results need
//! unambiguous decoding rules (e.g. bit or mode ordering, datatype
//! interpretation)" (paper §3). This module is the single place where a raw
//! classical word becomes a typed value — there is no default interpretation
//! anywhere else in the stack.
//!
//! # Bitstring convention
//!
//! A measured word is a string of `'0'`/`'1'` characters where the character
//! at position `i` is the outcome of **classical bit `i`** — i.e. of the wire
//! listed at `clbit_order[i]` in the result schema. Bit significance is then
//! applied per the schema's `bit_significance` field: with `LSB_0`, classical
//! bit `i` has weight `2^i`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::encoding::{BitOrder, MeasurementSemantics};
use crate::error::{QmlError, Result};
use crate::qdt::QuantumDataType;
use crate::result_schema::ResultSchema;

/// A decoded measurement outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DecodedValue {
    /// Unsigned integer value (AS_INT).
    Int(u64),
    /// Per-carrier Boolean labels in classical-bit order (AS_BOOL).
    Bool(Vec<bool>),
    /// Phase value (AS_PHASE): the observed index and its phase fraction in
    /// turns (multiply by 2π for radians).
    Phase {
        /// Observed integer index k.
        index: u64,
        /// Phase fraction k·phase_scale, in turns.
        fraction: f64,
    },
    /// Per-carrier Ising spins, `+1`/`-1`, in classical-bit order (AS_SPIN).
    Spins(Vec<i8>),
    /// Raw, uninterpreted bitstring (AS_RAW).
    Raw(String),
}

/// Check that a measured word is a binary string of the schema's width and
/// return its bytes, each `b'0'` or `b'1'`. A non-binary character is
/// reported before a wrong length.
fn binary_word<'w>(word: &'w str, schema: &ResultSchema) -> Result<&'w [u8]> {
    let bytes = word.as_bytes();
    if let Some(at) = bytes.iter().position(|&b| b != b'0' && b != b'1') {
        // Every byte before `at` is ASCII, so `at` is a character boundary.
        let other = word[at..].chars().next().unwrap_or_default();
        return Err(QmlError::Decode(format!(
            "measured word contains non-binary character `{other}`"
        )));
    }
    if bytes.len() != schema.num_clbits() {
        return Err(QmlError::Decode(format!(
            "measured word has {} bits but the result schema declares {} classical bits",
            bytes.len(),
            schema.num_clbits()
        )));
    }
    Ok(bytes)
}

/// Integer value of a binary word under the given significance order.
fn word_to_index(bits: &[u8], order: BitOrder) -> u64 {
    let width = bits.len();
    bits.iter().enumerate().fold(0u64, |acc, (i, &bit)| {
        if bit == b'1' {
            acc | (1u64 << order.weight_exponent(i, width))
        } else {
            acc
        }
    })
}

/// Decode a single measured word according to a result schema and the data
/// type of the register it reads out.
pub(crate) fn decode_word(
    word: &str,
    schema: &ResultSchema,
    qdt: &QuantumDataType,
) -> Result<DecodedValue> {
    let bits = binary_word(word, schema)?;
    match schema.datatype {
        MeasurementSemantics::AsInt => Ok(DecodedValue::Int(word_to_index(
            bits,
            schema.bit_significance,
        ))),
        MeasurementSemantics::AsBool => Ok(DecodedValue::Bool(
            bits.iter().map(|&b| b == b'1').collect(),
        )),
        MeasurementSemantics::AsSpin => Ok(DecodedValue::Spins(
            bits.iter()
                .map(|&b| if b == b'1' { -1 } else { 1 })
                .collect(),
        )),
        MeasurementSemantics::AsPhase => {
            let scale = qdt.phase_scale.ok_or_else(|| {
                QmlError::Decode(format!(
                    "register `{}` has AS_PHASE semantics but no phase_scale",
                    qdt.id
                ))
            })?;
            let index = word_to_index(bits, schema.bit_significance);
            Ok(DecodedValue::Phase {
                index,
                fraction: scale.fraction(index),
            })
        }
        MeasurementSemantics::AsRaw => Ok(DecodedValue::Raw(word.to_string())),
    }
}

/// Aggregated, decoded counts: every observed word with its multiplicity and
/// its decoded value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodedCounts {
    /// Observed words and how often each occurred.
    pub counts: BTreeMap<String, u64>,
    /// Decoded value per observed word.
    pub decoded: BTreeMap<String, DecodedValue>,
    /// Total number of samples.
    pub total: u64,
}

impl DecodedCounts {
    /// Decode a whole readout: a `BTreeMap<String, u64>`, or anything else
    /// that iterates `(word, &count)` pairs by reference, such as a result's
    /// `Counts`.
    pub fn decode<'a, C, W>(
        counts: &'a C,
        schema: &ResultSchema,
        qdt: &QuantumDataType,
    ) -> Result<Self>
    where
        C: ?Sized,
        &'a C: IntoIterator<Item = (W, &'a u64)>,
        W: AsRef<str>,
    {
        let (mut words, mut decoded) = (BTreeMap::new(), BTreeMap::new());
        let mut total = 0u64;
        for (word, &n) in counts {
            let word = word.as_ref();
            decoded.insert(word.to_owned(), decode_word(word, schema, qdt)?);
            words.insert(word.to_owned(), n);
            total += n;
        }
        Ok(DecodedCounts {
            counts: words,
            decoded,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn int_schema(width: usize, order: BitOrder) -> (ResultSchema, QuantumDataType) {
        let qdt = QuantumDataType::builder("r", width)
            .bit_order(order)
            .build()
            .unwrap();
        let mut schema = ResultSchema::for_register(&qdt);
        schema.bit_significance = order;
        (schema, qdt)
    }

    #[test]
    fn int_decode_lsb0() {
        let (schema, qdt) = int_schema(4, BitOrder::Lsb0);
        // clbit 0 = '1' → weight 2^0, clbit 3 = '1' → weight 2^3.
        let v = decode_word("1001", &schema, &qdt).unwrap();
        assert_eq!(v, DecodedValue::Int(0b1001));
    }

    #[test]
    fn int_decode_msb0() {
        let (schema, qdt) = int_schema(4, BitOrder::Msb0);
        // clbit 0 = '1' → weight 2^3.
        let v = decode_word("1000", &schema, &qdt).unwrap();
        assert_eq!(v, DecodedValue::Int(8));
    }

    #[test]
    fn phase_decode_uses_phase_scale() {
        let qdt = QuantumDataType::phase_register("reg_phase", "phase", 10).unwrap();
        let schema = ResultSchema::for_register(&qdt);
        // Index 512 out of 1024 = half a turn.
        let word: String = (0..10).map(|i| if i == 9 { '1' } else { '0' }).collect();
        let v = decode_word(&word, &schema, &qdt).unwrap();
        match v {
            DecodedValue::Phase { index, fraction } => {
                assert_eq!(index, 512);
                assert!((fraction - 0.5).abs() < 1e-12);
            }
            other => panic!("expected phase, got {other:?}"),
        }
    }

    #[test]
    fn bool_and_spin_decode() {
        let qdt = QuantumDataType::ising_spins("ising_vars", "s", 4).unwrap();
        let schema = ResultSchema::for_register(&qdt);
        let v = decode_word("1010", &schema, &qdt).unwrap();
        assert_eq!(
            v,
            DecodedValue::Bool(vec![true, false, true, false]),
            "ISING_SPIN registers read out AS_BOOL per the paper's PoC"
        );
        let mut spin_schema = schema.clone();
        spin_schema.datatype = MeasurementSemantics::AsSpin;
        let v = decode_word("1010", &spin_schema, &qdt).unwrap();
        assert_eq!(v, DecodedValue::Spins(vec![-1, 1, -1, 1]));
    }

    #[test]
    fn raw_decode_passthrough() {
        let qdt = QuantumDataType::builder("raw", 3)
            .encoding(crate::encoding::EncodingKind::AmplitudeRegister)
            .build()
            .unwrap();
        let schema = ResultSchema::for_register(&qdt);
        assert_eq!(
            decode_word("011", &schema, &qdt).unwrap(),
            DecodedValue::Raw("011".into())
        );
    }

    #[test]
    fn wrong_width_rejected() {
        let (schema, qdt) = int_schema(4, BitOrder::Lsb0);
        assert!(decode_word("101", &schema, &qdt).is_err());
        assert!(decode_word("10101", &schema, &qdt).is_err());
    }

    #[test]
    fn non_binary_rejected() {
        let (schema, qdt) = int_schema(4, BitOrder::Lsb0);
        assert!(decode_word("10x1", &schema, &qdt).is_err());
    }

    #[test]
    fn phase_without_scale_rejected() {
        let qdt = QuantumDataType::int_register("r", "r", 4).unwrap();
        let mut schema = ResultSchema::for_register(&qdt);
        schema.datatype = MeasurementSemantics::AsPhase;
        assert!(decode_word("0000", &schema, &qdt).is_err());
    }

    #[test]
    fn counts_statistics() {
        let qdt = QuantumDataType::ising_spins("ising_vars", "s", 4).unwrap();
        let schema = ResultSchema::for_register(&qdt);
        let mut counts = BTreeMap::new();
        counts.insert("1010".to_string(), 600u64);
        counts.insert("0101".to_string(), 300u64);
        counts.insert("0000".to_string(), 100u64);
        let decoded = DecodedCounts::decode(&counts, &schema, &qdt).unwrap();
        assert_eq!(decoded.total, 1000);
        assert_eq!(decoded.counts, counts);
        assert_eq!(
            decoded.decoded["0101"],
            DecodedValue::Bool(vec![false, true, false, true])
        );
    }

    #[test]
    fn empty_counts_edge_cases() {
        let qdt = QuantumDataType::ising_spins("ising_vars", "s", 4).unwrap();
        let schema = ResultSchema::for_register(&qdt);
        let decoded =
            DecodedCounts::decode(&BTreeMap::<String, u64>::new(), &schema, &qdt).unwrap();
        assert_eq!(decoded.total, 0);
        assert!(decoded.decoded.is_empty());
    }

    /// The per-bit `decode_word` this module used before words were parsed
    /// straight into integers, kept as the oracle for the current one.
    fn decode_word_reference(
        word: &str,
        schema: &ResultSchema,
        qdt: &QuantumDataType,
    ) -> Result<DecodedValue> {
        let bits: Vec<bool> = word
            .chars()
            .map(|c| match c {
                '0' => Ok(false),
                '1' => Ok(true),
                other => Err(QmlError::Decode(format!(
                    "measured word contains non-binary character `{other}`"
                ))),
            })
            .collect::<Result<_>>()?;
        if bits.len() != schema.num_clbits() {
            return Err(QmlError::Decode(format!(
                "measured word has {} bits but the result schema declares {} classical bits",
                bits.len(),
                schema.num_clbits()
            )));
        }
        let index = |order: BitOrder| {
            let width = bits.len();
            bits.iter().enumerate().fold(0u64, |acc, (i, &bit)| {
                if bit {
                    acc | (1u64 << order.weight_exponent(i, width))
                } else {
                    acc
                }
            })
        };
        match schema.datatype {
            MeasurementSemantics::AsInt => Ok(DecodedValue::Int(index(schema.bit_significance))),
            MeasurementSemantics::AsBool => Ok(DecodedValue::Bool(bits)),
            MeasurementSemantics::AsSpin => Ok(DecodedValue::Spins(
                bits.iter().map(|&b| if b { -1 } else { 1 }).collect(),
            )),
            MeasurementSemantics::AsPhase => {
                let scale = qdt.phase_scale.ok_or_else(|| {
                    QmlError::Decode(format!(
                        "register `{}` has AS_PHASE semantics but no phase_scale",
                        qdt.id
                    ))
                })?;
                let index = index(schema.bit_significance);
                Ok(DecodedValue::Phase {
                    index,
                    fraction: scale.fraction(index),
                })
            }
            MeasurementSemantics::AsRaw => Ok(DecodedValue::Raw(word.to_string())),
        }
    }

    const SEMANTICS: [MeasurementSemantics; 5] = [
        MeasurementSemantics::AsInt,
        MeasurementSemantics::AsBool,
        MeasurementSemantics::AsSpin,
        MeasurementSemantics::AsPhase,
        MeasurementSemantics::AsRaw,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `decode_word` equals the per-bit reference on every semantics,
        /// both bit orders and hostile words: non-binary characters
        /// (multi-byte ones too), wrong lengths, the empty string and
        /// 64-bit widths — including the error it returns.
        #[test]
        fn decode_word_matches_the_per_bit_reference(
            width in 1usize..=64,
            semantics in 0usize..5,
            msb in any::<bool>(),
            scaled in any::<bool>(),
            exact in proptest::collection::vec(any::<bool>(), 64),
            hostile in prop_oneof![
                "[01]{0,64}",
                "[01x2 é]{0,12}",
                Just(String::new()),
            ],
            use_exact in any::<bool>(),
        ) {
            let order = if msb { BitOrder::Msb0 } else { BitOrder::Lsb0 };
            let schema = ResultSchema {
                basis: crate::result_schema::MeasurementBasis::Z,
                datatype: SEMANTICS[semantics],
                bit_significance: order,
                clbit_order: (0..width).map(|i| format!("r[{i}]")).collect(),
            };
            let qdt = if scaled {
                QuantumDataType::phase_register("r", "r", 10).unwrap()
            } else {
                QuantumDataType::int_register("r", "r", 4).unwrap()
            };
            let word: String = if use_exact {
                exact[..width].iter().map(|&b| if b { '1' } else { '0' }).collect()
            } else {
                hostile.clone()
            };
            prop_assert_eq!(
                decode_word(&word, &schema, &qdt),
                decode_word_reference(&word, &schema, &qdt)
            );
        }
    }
}
