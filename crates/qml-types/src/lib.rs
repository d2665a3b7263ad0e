//! # qml-types — typed descriptors for a technology-agnostic quantum middle layer
//!
//! This crate implements the descriptor model of *"An HPC-Inspired Blueprint
//! for a Technology-Agnostic Quantum Middle Layer"* (Markidis et al., SC
//! Workshops '25): the artifacts a quantum application emits **once** to state
//! its intent, independent of whether a gate-model simulator, an annealer, or
//! any future backend executes it.
//!
//! The model has four pieces, mirroring the paper's §4:
//!
//! * [`QuantumDataType`] — what a register *means* (width, encoding, bit
//!   order, measurement semantics, phase scale). See [`qdt`].
//! * [`OperatorDescriptor`] — which logical transformation is requested
//!   (rep kind, parameters, cost hints, result schema), with no gates, pulses
//!   or device details. See [`qod`].
//! * [`ContextDescriptor`] — how the program may be executed (engine, shots,
//!   target constraints, QEC policy, annealer settings), orthogonal to the
//!   intent. See [`context`].
//! * [`JobBundle`] — the packaged `job.json` submitted to a backend. See
//!   [`bundle`]. Validated once, it becomes a [`SealedBundle`] — the form
//!   that crosses the service, runtime and backend layers. See [`sealed`].
//!
//! Decoding of measured words back into typed values happens exclusively
//! through [`decode`], driven by explicit [`ResultSchema`]s — never by
//! convention.
//!
//! ## Example
//!
//! ```
//! use qml_types::prelude::*;
//!
//! // Intent: 4 Ising decision variables, prepared uniformly and measured.
//! let qdt = QuantumDataType::ising_spins("ising_vars", "s", 4)?;
//! let prep = OperatorDescriptor::builder("prep", RepKind::PrepUniform, "ising_vars").build()?;
//! let meas = OperatorDescriptor::builder("measure", RepKind::Measurement, "ising_vars")
//!     .result_schema(ResultSchema::for_register(&qdt))
//!     .build()?;
//! let bundle = JobBundle::new("demo", vec![qdt], vec![prep, meas]);
//! bundle.validate()?;
//!
//! // Policy: a gate simulator with 4096 shots — swapping this re-targets the
//! // program without touching the intent above.
//! let ctx = ContextDescriptor::for_gate(
//!     ExecConfig::new("gate.aer_simulator").with_samples(4096).with_seed(42),
//! );
//! let job = bundle.with_context(ctx);
//! job.validate()?;
//! # Ok::<(), qml_types::QmlError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod bindings;
pub mod bundle;
pub mod class;
pub mod context;
pub mod cost;
pub mod decode;
pub mod encoding;
pub mod error;
pub mod fleet;
pub mod params;
pub mod qdt;
pub mod qod;
pub mod result_schema;
pub mod sealed;

pub use bindings::BindingSet;
pub use bundle::JobBundle;
pub use class::ServiceClass;
pub use context::{AnnealConfig, ContextDescriptor, ExecConfig, ExecOptions, QecConfig, Target};
pub use cost::CostHint;
pub use decode::{DecodedCounts, DecodedValue};
pub use encoding::{BitOrder, EncodingKind, MeasurementSemantics, PhaseScale};
pub use error::{QmlError, Result};
pub use fleet::{CapabilityDescriptor, HealthState, JobRequirements};
pub use params::{ParamValue, Params, SymbolRef};
pub use qdt::QuantumDataType;
pub use qod::{OperatorDescriptor, QodBuilder, RepKind};
pub use result_schema::{MeasurementBasis, ResultSchema};
pub use sealed::SealedBundle;

/// Convenience prelude re-exporting the types most programs need.
pub mod prelude {
    pub use crate::bindings::BindingSet;
    pub use crate::bundle::JobBundle;
    pub use crate::class::ServiceClass;
    pub use crate::context::{AnnealConfig, ContextDescriptor, ExecConfig, QecConfig, Target};
    pub use crate::cost::CostHint;
    pub use crate::decode::{DecodedCounts, DecodedValue};
    pub use crate::encoding::{BitOrder, EncodingKind, MeasurementSemantics, PhaseScale};
    pub use crate::error::{QmlError, Result};
    pub use crate::fleet::{CapabilityDescriptor, HealthState, JobRequirements};
    pub use crate::params::{ParamValue, Params};
    pub use crate::qdt::QuantumDataType;
    pub use crate::qod::{OperatorDescriptor, RepKind};
    pub use crate::result_schema::{MeasurementBasis, ResultSchema};
    pub use crate::sealed::SealedBundle;
}

#[cfg(test)]
mod proptests {
    use super::prelude::*;
    use crate::decode::decode_word;
    use proptest::prelude::*;

    fn arb_encoding() -> impl Strategy<Value = EncodingKind> {
        prop_oneof![
            Just(EncodingKind::IntRegister),
            Just(EncodingKind::BoolRegister),
            Just(EncodingKind::IsingSpin),
            Just(EncodingKind::SignedIntRegister),
        ]
    }

    proptest! {
        /// Any QDT built through the builder serializes to JSON and back to an
        /// identical descriptor.
        #[test]
        fn qdt_json_round_trip(width in 1usize..=63, encoding in arb_encoding(), msb in any::<bool>()) {
            let qdt = qml_types_builder(width, encoding, msb);
            let json = serde_json::to_string(&qdt).unwrap();
            let back: QuantumDataType = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(back, qdt);
        }

        /// Decoding an integer word and re-encoding its bits is the identity
        /// for every width and bit order.
        #[test]
        fn int_decode_matches_direct_binary(width in 1usize..=16, value in 0u64..65536, msb in any::<bool>()) {
            let value = value & ((1u64 << width) - 1);
            let order = if msb { BitOrder::Msb0 } else { BitOrder::Lsb0 };
            let qdt = QuantumDataType::builder("r", width).bit_order(order).build().unwrap();
            let mut schema = ResultSchema::for_register(&qdt);
            schema.bit_significance = order;
            // Build the word: character i is classical bit i.
            let word: String = (0..width)
                .map(|i| {
                    let exp = order.weight_exponent(i, width);
                    if (value >> exp) & 1 == 1 { '1' } else { '0' }
                })
                .collect();
            let decoded = decode_word(&word, &schema, &qdt).unwrap();
            prop_assert_eq!(decoded, DecodedValue::Int(value));
        }

        /// Binding never introduces new unbound symbols, and binding all
        /// listed symbols produces a fully bound parameter set.
        #[test]
        fn binding_is_monotone(names in proptest::collection::vec("[a-z]{1,8}", 1..5)) {
            let mut params = Params::new();
            for (i, name) in names.iter().enumerate() {
                params.insert(format!("p{i}"), ParamValue::symbol(name.clone()));
            }
            let before = params.unbound_symbols();
            let bindings: std::collections::BTreeMap<String, ParamValue> = before
                .iter()
                .map(|n| (n.clone(), ParamValue::Float(1.0)))
                .collect();
            let bound = params.bind(&bindings);
            prop_assert!(bound.unbound_symbols().is_empty());
        }
    }

    fn qml_types_builder(width: usize, encoding: EncodingKind, msb: bool) -> QuantumDataType {
        QuantumDataType::builder("reg", width)
            .encoding(encoding)
            .bit_order(if msb { BitOrder::Msb0 } else { BitOrder::Lsb0 })
            .build()
            .unwrap()
    }
}
