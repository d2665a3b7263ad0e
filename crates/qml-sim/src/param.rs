//! Symbolic rotation angles: the parameter expressions carried by the gate IR.
//!
//! The middle layer's late-binding rule (paper §3) means a circuit may be
//! lowered and transpiled while its rotation angles are still symbolic (the
//! QAOA γ/β of a variational sweep). [`ParamExpr`] is the angle type of every
//! rotation gate: either a fully bound constant or an **affine combination**
//! of symbol slots, `offset + Σ coeffᵢ·sym(slotᵢ)` — the closure of what the
//! transpiler's rewrites (negation, scaling, shifting, summing) can produce
//! from `Const` and `Sym` leaves. Keeping the representation affine and
//! inline (a fixed-size term array) keeps [`Gate`](crate::Gate) `Copy`, so
//! symbolic circuits move through routing and optimization exactly like
//! concrete ones.
//!
//! Storage: the offset, then the term slots and the term coefficients as two
//! parallel arrays, `slots: [u32; 2]` and `coeffs: [f64; 2]`. That is 8 + 8 +
//! 16 = 32 bytes with no padding; an array of `(u32, f64)` pairs pads each
//! slot to 8 bytes and costs 40. Every rotation gate carries one
//! `ParamExpr`, so this sets the size of [`Gate`](crate::Gate) (56 bytes),
//! and with it of every cached plan.
//!
//! Symbol *slots* are small integers assigned by whoever lowers a program
//! (the backend keeps the slot → name table); the simulator itself never
//! interprets them — it only requires that every expression is bound to a
//! constant before a matrix is requested.

use serde::de::Error as _;
use serde::value::Value;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;

/// Maximum number of distinct symbol slots one affine expression can carry.
///
/// Rotation merging respects this bound: a merge that would exceed it is
/// simply declined (both gates are kept), so the cap never changes semantics.
/// Two terms cover every merge the built-in realization rules can produce
/// (adjacent layers contribute at most one symbol each) while keeping
/// `ParamExpr` — and therefore every `Gate` — small enough to copy freely.
pub(crate) const MAX_PARAM_TERMS: usize = 2;

/// Sentinel slot marking an unused term entry.
const NO_SYM: u32 = u32::MAX;

/// A rotation angle: a constant, or an affine combination of symbol slots.
///
/// Invariants (maintained by every constructor and operation):
/// * active terms are sorted by slot, have non-zero coefficients, and are
///   packed at the front of `slots` and `coeffs`;
/// * an unused entry is slot `NO_SYM` with coefficient `0.0` — so derived
///   equality is structural equality of the canonical form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamExpr {
    offset: f64,
    slots: [u32; MAX_PARAM_TERMS],
    coeffs: [f64; MAX_PARAM_TERMS],
}

impl ParamExpr {
    /// A fully bound constant angle.
    pub fn constant(value: f64) -> Self {
        ParamExpr {
            offset: value,
            slots: [NO_SYM; MAX_PARAM_TERMS],
            coeffs: [0.0; MAX_PARAM_TERMS],
        }
    }

    /// The bare symbol `sym(slot)` (coefficient 1, offset 0).
    pub fn symbol(slot: u32) -> Self {
        assert_ne!(slot, NO_SYM, "symbol slot {NO_SYM} is reserved");
        let mut out = ParamExpr::constant(0.0);
        out.push_term(0, (slot, 1.0));
        out
    }

    /// Number of active symbol terms.
    fn num_terms(&self) -> usize {
        self.slots.iter().take_while(|&&s| s != NO_SYM).count()
    }

    /// Write `term` as entry `n`.
    fn push_term(&mut self, n: usize, (slot, coeff): (u32, f64)) {
        self.slots[n] = slot;
        self.coeffs[n] = coeff;
    }

    /// True if the expression references at least one symbol.
    pub fn is_symbolic(&self) -> bool {
        self.slots[0] != NO_SYM
    }

    /// The constant value, or `None` while any symbol is unbound.
    pub fn const_value(&self) -> Option<f64> {
        if self.is_symbolic() {
            None
        } else {
            Some(self.offset)
        }
    }

    /// The bound value of the angle.
    ///
    /// # Panics
    /// Panics if the expression still carries unbound symbols — reaching a
    /// simulator kernel with a symbolic angle is a pipeline bug (the backend
    /// must bind the plan's slot table first).
    pub fn value(&self) -> f64 {
        self.const_value()
            .expect("rotation angle still carries unbound symbolic parameters")
    }

    /// Active `(slot, coefficient)` terms, in slot order.
    pub(crate) fn terms(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        let n = self.num_terms();
        self.slots[..n]
            .iter()
            .copied()
            .zip(self.coeffs[..n].iter().copied())
    }

    /// Evaluate against a slot-indexed value table.
    ///
    /// # Panics
    /// Panics if a referenced slot is outside `values`.
    pub(crate) fn eval(&self, values: &[f64]) -> f64 {
        let mut acc = self.offset;
        for (slot, coeff) in self.terms() {
            let v = *values
                .get(slot as usize)
                .unwrap_or_else(|| panic!("no binding for symbol slot {slot}"));
            acc += coeff * v;
        }
        acc
    }

    /// Substitute the slot table, producing a constant expression.
    pub(crate) fn bind(&self, values: &[f64]) -> ParamExpr {
        if self.is_symbolic() {
            ParamExpr::constant(self.eval(values))
        } else {
            *self
        }
    }

    /// The negated expression (`-e`). Exact for both constants and symbols.
    pub(crate) fn neg(&self) -> ParamExpr {
        self.scale(-1.0)
    }

    /// The scaled expression (`k·e`). Exact on the affine form.
    pub fn scale(&self, k: f64) -> ParamExpr {
        let mut out = ParamExpr::constant(self.offset * k);
        let mut n = 0usize;
        for (slot, coeff) in self.terms() {
            let c = coeff * k;
            if c != 0.0 {
                out.push_term(n, (slot, c));
                n += 1;
            }
        }
        out
    }

    /// The shifted expression (`e + d`).
    pub fn shift(&self, d: f64) -> ParamExpr {
        let mut out = *self;
        out.offset += d;
        out
    }

    /// Affine sum `self + other`, or `None` when the result would carry more
    /// than `MAX_PARAM_TERMS` distinct symbols (the caller then keeps the
    /// operands separate instead of merging).
    pub fn try_add(&self, other: &ParamExpr) -> Option<ParamExpr> {
        // Up to `2 × MAX_PARAM_TERMS` merged terms, held inline.
        let mut merged = [(NO_SYM, 0.0); MAX_PARAM_TERMS * 2];
        let mut len = 0usize;
        let mut push = |term: (u32, f64)| {
            merged[len] = term;
            len += 1;
        };
        let (na, nb) = (self.num_terms(), other.num_terms());
        let (mut i, mut j) = (0usize, 0usize);
        while i < na || j < nb {
            let take_a = j >= nb || (i < na && self.slots[i] <= other.slots[j]);
            let take_b = i >= na || (j < nb && other.slots[j] <= self.slots[i]);
            if take_a && take_b {
                let c = self.coeffs[i] + other.coeffs[j];
                if c != 0.0 {
                    push((self.slots[i], c));
                }
                i += 1;
                j += 1;
            } else if take_a {
                push((self.slots[i], self.coeffs[i]));
                i += 1;
            } else {
                push((other.slots[j], other.coeffs[j]));
                j += 1;
            }
        }
        if len > MAX_PARAM_TERMS {
            return None;
        }
        let mut out = ParamExpr::constant(self.offset + other.offset);
        for (n, &term) in merged[..len].iter().enumerate() {
            out.push_term(n, term);
        }
        Some(out)
    }
}

impl From<f64> for ParamExpr {
    fn from(value: f64) -> Self {
        ParamExpr::constant(value)
    }
}

impl fmt::Display for ParamExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.const_value() {
            return write!(f, "{v}");
        }
        let mut first = true;
        if self.offset != 0.0 {
            write!(f, "{}", self.offset)?;
            first = false;
        }
        for (slot, coeff) in self.terms() {
            if !first {
                f.write_str(" + ")?;
            }
            first = false;
            if coeff == 1.0 {
                write!(f, "θ{slot}")?;
            } else {
                write!(f, "{coeff}·θ{slot}")?;
            }
        }
        Ok(())
    }
}

// A constant serializes as a bare number (so fully bound circuits keep the
// pre-symbolic JSON shape); a symbolic expression serializes as
// `{"offset": o, "terms": [[slot, coeff], ...]}`.
impl Serialize for ParamExpr {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let value = match self.const_value() {
            Some(v) => Value::F64(v),
            None => Value::Object(vec![
                ("offset".to_string(), Value::F64(self.offset)),
                (
                    "terms".to_string(),
                    Value::Array(
                        self.terms()
                            .map(|(slot, coeff)| {
                                Value::Array(vec![Value::U64(u64::from(slot)), Value::F64(coeff)])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        serializer.serialize_value(value)
    }
}

impl<'de> Deserialize<'de> for ParamExpr {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.take_value()?;
        if let Some(v) = value.as_f64() {
            return Ok(ParamExpr::constant(v));
        }
        let offset = value["offset"]
            .as_f64()
            .ok_or_else(|| D::Error::custom("ParamExpr object needs a numeric `offset`"))?;
        let terms = match &value["terms"] {
            Value::Array(items) => items,
            other => {
                return Err(D::Error::custom(format!(
                    "ParamExpr `terms` must be an array, found {}",
                    other.kind()
                )))
            }
        };
        if terms.len() > MAX_PARAM_TERMS {
            return Err(D::Error::custom(format!(
                "ParamExpr carries {} terms (max {MAX_PARAM_TERMS})",
                terms.len()
            )));
        }
        let mut out = ParamExpr::constant(offset);
        let mut n = 0usize;
        let mut last_slot: Option<u32> = None;
        for item in terms {
            let pair = match item {
                Value::Array(pair) if pair.len() == 2 => pair,
                _ => return Err(D::Error::custom("ParamExpr term must be [slot, coeff]")),
            };
            let slot = pair[0]
                .as_u64()
                .and_then(|s| u32::try_from(s).ok())
                .filter(|&s| s != NO_SYM)
                .ok_or_else(|| D::Error::custom("bad ParamExpr symbol slot"))?;
            let coeff = pair[1]
                .as_f64()
                .ok_or_else(|| D::Error::custom("bad ParamExpr coefficient"))?;
            if last_slot.is_some_and(|prev| prev >= slot) {
                return Err(D::Error::custom("ParamExpr terms must be sorted by slot"));
            }
            last_slot = Some(slot);
            if coeff != 0.0 {
                out.push_term(n, (slot, coeff));
                n += 1;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_round_trip() {
        let c = ParamExpr::constant(0.75);
        assert!(!c.is_symbolic());
        assert_eq!(c.const_value(), Some(0.75));
        assert_eq!(c.value(), 0.75);
        assert_eq!(c.eval(&[]), 0.75);
        assert_eq!(ParamExpr::from(0.75), c);
    }

    #[test]
    fn symbols_evaluate_against_slot_table() {
        let e = ParamExpr::symbol(1).scale(2.0).shift(0.5);
        assert!(e.is_symbolic());
        assert_eq!(e.const_value(), None);
        assert!((e.eval(&[9.0, 0.25]) - 1.0).abs() < 1e-15);
        assert_eq!(e.bind(&[9.0, 0.25]).const_value(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "unbound symbolic parameters")]
    fn value_of_symbolic_panics() {
        ParamExpr::symbol(0).value();
    }

    #[test]
    fn addition_merges_and_cancels() {
        let a = ParamExpr::symbol(0);
        let b = ParamExpr::symbol(1).scale(3.0);
        let sum = a.try_add(&b).unwrap();
        assert_eq!(sum.terms().collect::<Vec<_>>(), [(0, 1.0), (1, 3.0)]);

        // s − s cancels to a pure constant.
        let cancelled = a.shift(0.25).try_add(&a.neg()).unwrap();
        assert_eq!(cancelled.const_value(), Some(0.25));
    }

    #[test]
    fn addition_respects_term_capacity() {
        let mut acc = ParamExpr::symbol(0);
        for slot in 1..MAX_PARAM_TERMS as u32 {
            acc = acc.try_add(&ParamExpr::symbol(slot)).unwrap();
        }
        assert_eq!(acc.terms().count(), MAX_PARAM_TERMS);
        assert!(acc
            .try_add(&ParamExpr::symbol(MAX_PARAM_TERMS as u32))
            .is_none());
        // Adding a constant or an existing slot still fits.
        assert!(acc.try_add(&ParamExpr::constant(1.0)).is_some());
        assert!(acc.try_add(&ParamExpr::symbol(0)).is_some());
    }

    #[test]
    fn scale_by_zero_is_constant_zero() {
        let e = ParamExpr::symbol(2).shift(4.0).scale(0.0);
        assert_eq!(e.const_value(), Some(0.0));
    }

    #[test]
    fn neg_round_trips() {
        let e = ParamExpr::symbol(3).scale(2.0).shift(-1.0);
        let back = e.neg().neg();
        assert_eq!(back, e);
    }

    #[test]
    fn serde_const_is_bare_number() {
        let json = serde_json::to_string(&ParamExpr::constant(0.5)).unwrap();
        assert_eq!(json, "0.5");
        let back: ParamExpr = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ParamExpr::constant(0.5));
    }

    #[test]
    fn serde_symbolic_round_trips() {
        let e = ParamExpr::symbol(0)
            .scale(2.0)
            .try_add(&ParamExpr::symbol(7))
            .unwrap()
            .shift(1.5);
        let json = serde_json::to_string(&e).unwrap();
        let back: ParamExpr = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        assert!(json.contains("terms"));
    }

    /// The JSON forms are a wire format, pinned byte for byte: how a
    /// `ParamExpr` or a `U` stores its angles must not show in them.
    #[test]
    fn wire_forms_are_unchanged() {
        use crate::{Circuit, Gate};
        fn pinned<T>(value: &T, json: &str)
        where
            T: Serialize + for<'de> Deserialize<'de> + PartialEq + fmt::Debug,
        {
            assert_eq!(serde_json::to_string(value).unwrap(), json);
            assert_eq!(&serde_json::from_str::<T>(json).unwrap(), value);
        }
        pinned(&ParamExpr::constant(-0.375), "-0.375");
        let one = ParamExpr::symbol(3).scale(-2.5).shift(0.25);
        pinned(&one, r#"{"offset":0.25,"terms":[[3,-2.5]]}"#);
        let two = ParamExpr::symbol(1)
            .scale(0.5)
            .try_add(&ParamExpr::symbol(4).scale(-1.25))
            .unwrap()
            .shift(-0.125);
        pinned(&two, r#"{"offset":-0.125,"terms":[[1,0.5],[4,-1.25]]}"#);
        let mut qc = Circuit::new(2);
        qc.push(Gate::U(0, 1.5, -0.25, 3.0));
        qc.push(Gate::Cp(0, 1, ParamExpr::symbol(0)));
        qc.measure_all();
        pinned(
            &qc,
            r#"{"num_qubits":2,"gates":[{"U":[0,1.5,-0.25,3.0]},{"Cp":[0,1,{"offset":0.0,"terms":[[0,1.0]]}]}],"measured":[0,1]}"#,
        );
    }

    #[test]
    fn deserializer_rejects_non_canonical_terms() {
        for (json, error) in [
            (
                r#"{"offset":0,"terms":[[0,1],[1,1],[2,1]]}"#,
                "carries 3 terms",
            ),
            (r#"{"offset":0,"terms":[[4,1],[1,1]]}"#, "sorted by slot"),
            (r#"{"offset":0,"terms":[[1,1],[1,2]]}"#, "sorted by slot"),
            (
                r#"{"offset":0,"terms":[[4294967295,1]]}"#,
                "bad ParamExpr symbol slot",
            ),
        ] {
            let err = serde_json::from_str::<ParamExpr>(json).unwrap_err();
            assert!(err.to_string().contains(error), "{json}: {err}");
        }
    }

    #[test]
    fn display_shapes() {
        assert_eq!(ParamExpr::constant(2.0).to_string(), "2");
        assert_eq!(ParamExpr::symbol(3).to_string(), "θ3");
        assert_eq!(ParamExpr::symbol(1).scale(2.0).to_string(), "2·θ1");
    }
}
