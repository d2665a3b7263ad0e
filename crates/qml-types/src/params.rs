//! Operator parameters with support for **late binding**.
//!
//! The paper requires that the middle layer "allow late parameter binding"
//! (§3): an operator descriptor may carry symbolic parameters (for instance
//! the QAOA angles γ, β) which are bound only when the bundle is submitted to
//! a backend. [`ParamValue::Symbol`] represents such an unbound parameter;
//! `Params::bind` substitutes concrete values.

use serde::de::Error as _;
use serde::value::Value;
use serde::{Deserialize, Deserializer, Serialize};
use std::collections::BTreeMap;
use std::fmt;

use crate::error::{QmlError, Result};

/// Reference to a named, not-yet-bound parameter.
///
/// Serialized as `{"$param": "gamma_0"}` so it cannot be confused with an
/// ordinary nested map in the untagged [`ParamValue`] representation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SymbolRef {
    /// Name of the symbolic parameter.
    #[serde(rename = "$param")]
    pub name: String,
}

/// A JSON-compatible parameter value carried by an operator or context
/// descriptor.
///
/// Untagged: a value is the first variant, in declaration order, that its
/// JSON accepts (see the `Deserialize` impl).
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(untagged)]
pub enum ParamValue {
    /// Boolean flag (e.g. `do_swaps`).
    Bool(bool),
    /// Signed integer (e.g. `approx_degree`).
    Int(i64),
    /// Floating-point value (e.g. a rotation angle).
    Float(f64),
    /// A symbolic, late-bound parameter (`{"$param": "gamma_0"}`).
    Symbol(SymbolRef),
    /// Text value (e.g. an engine name inside an extension block).
    Str(String),
    /// Ordered list of values (e.g. an edge list).
    List(Vec<ParamValue>),
    /// Nested map of values.
    Map(BTreeMap<String, ParamValue>),
}

/// The untagged decode, dispatched on the JSON value's kind: each value is
/// moved into its variant, where trying the variants in turn would copy the
/// whole tree once per variant at every level of nesting. The result is the
/// first variant that accepts the value — an integer is `Int` unless it
/// exceeds `i64` (then `Float`); `{"$param": "<name>"}` and nothing else is
/// a `Symbol`; any other object is a `Map` — and a `null` anywhere in the
/// tree is an error.
impl<'de> Deserialize<'de> for ParamValue {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        ParamValue::from_value(deserializer.take_value()?).ok_or_else(|| {
            D::Error::custom("data did not match any variant of untagged enum ParamValue")
        })
    }
}

impl ParamValue {
    fn from_value(value: Value) -> Option<ParamValue> {
        Some(match value {
            Value::Null => return None,
            Value::Bool(b) => ParamValue::Bool(b),
            Value::I64(x) => ParamValue::Int(x),
            Value::U64(x) => match i64::try_from(x) {
                Ok(x) => ParamValue::Int(x),
                Err(_) => ParamValue::Float(x as f64),
            },
            Value::F64(x) => ParamValue::Float(x),
            Value::String(s) => ParamValue::Str(s),
            Value::Array(items) => ParamValue::List(
                items
                    .into_iter()
                    .map(ParamValue::from_value)
                    .collect::<Option<_>>()?,
            ),
            Value::Object(mut members) => {
                if let [(key, Value::String(name))] = members.as_mut_slice() {
                    if key == "$param" {
                        let name = std::mem::take(name);
                        return Some(ParamValue::Symbol(SymbolRef { name }));
                    }
                }
                ParamValue::Map(
                    members
                        .into_iter()
                        .map(|(key, value)| Some((key, ParamValue::from_value(value)?)))
                        .collect::<Option<_>>()?,
                )
            }
        })
    }

    /// Construct a symbolic (unbound) parameter.
    pub fn symbol(name: impl Into<String>) -> Self {
        ParamValue::Symbol(SymbolRef { name: name.into() })
    }

    /// Names of all unbound symbols contained in this value.
    pub(crate) fn symbols(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_symbols(&mut out);
        out
    }

    fn collect_symbols(&self, out: &mut Vec<String>) {
        match self {
            ParamValue::Symbol(s) => out.push(s.name.clone()),
            ParamValue::List(items) => items.iter().for_each(|v| v.collect_symbols(out)),
            ParamValue::Map(map) => map.values().for_each(|v| v.collect_symbols(out)),
            _ => {}
        }
    }

    /// The first non-finite float in this value, depth first, if any.
    /// Scalars are checked in place, so only nested containers recurse.
    pub(crate) fn first_non_finite(&self) -> Option<f64> {
        let check = |value: &ParamValue| match value {
            ParamValue::Float(x) => (!x.is_finite()).then_some(*x),
            ParamValue::List(_) | ParamValue::Map(_) => value.first_non_finite(),
            _ => None,
        };
        match self {
            ParamValue::List(items) => items.iter().find_map(check),
            ParamValue::Map(map) => map.values().find_map(check),
            scalar => check(scalar),
        }
    }

    /// Replace every symbol found in `bindings` with its concrete value.
    /// Symbols without a binding are left in place.
    pub(crate) fn bind(&self, bindings: &BTreeMap<String, ParamValue>) -> ParamValue {
        match self {
            ParamValue::Symbol(s) => bindings
                .get(&s.name)
                .cloned()
                .unwrap_or_else(|| self.clone()),
            ParamValue::List(items) => {
                ParamValue::List(items.iter().map(|v| v.bind(bindings)).collect())
            }
            ParamValue::Map(map) => ParamValue::Map(
                map.iter()
                    .map(|(k, v)| (k.clone(), v.bind(bindings)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    /// Interpret the value as an `f64` (integers widen, booleans map to 0/1).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Float(x) => Some(*x),
            ParamValue::Int(x) => Some(*x as f64),
            ParamValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Interpret the value as an `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ParamValue::Int(x) => Some(*x),
            ParamValue::Float(x) if x.fract() == 0.0 => Some(*x as i64),
            ParamValue::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Interpret the value as a `u64` (rejects negatives).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|x| u64::try_from(x).ok())
    }

    /// Interpret the value as a `bool`.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            ParamValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Interpret the value as a list.
    pub fn as_list(&self) -> Option<&[ParamValue]> {
        match self {
            ParamValue::List(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match serde_json::to_string(self) {
            Ok(s) => f.write_str(&s),
            Err(_) => f.write_str("<param>"),
        }
    }
}

impl From<bool> for ParamValue {
    fn from(b: bool) -> Self {
        ParamValue::Bool(b)
    }
}
impl From<i64> for ParamValue {
    fn from(x: i64) -> Self {
        ParamValue::Int(x)
    }
}
impl From<i32> for ParamValue {
    fn from(x: i32) -> Self {
        ParamValue::Int(x as i64)
    }
}
impl From<usize> for ParamValue {
    fn from(x: usize) -> Self {
        ParamValue::Int(x as i64)
    }
}
impl From<f64> for ParamValue {
    fn from(x: f64) -> Self {
        ParamValue::Float(x)
    }
}
impl From<&str> for ParamValue {
    fn from(s: &str) -> Self {
        ParamValue::Str(s.to_string())
    }
}
impl From<String> for ParamValue {
    fn from(s: String) -> Self {
        ParamValue::Str(s)
    }
}
impl<T: Into<ParamValue>> From<Vec<T>> for ParamValue {
    fn from(items: Vec<T>) -> Self {
        ParamValue::List(items.into_iter().map(Into::into).collect())
    }
}

/// Named parameter set attached to an operator descriptor (the `params`
/// block of the paper's Listing 3).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Params {
    /// Underlying ordered map (ordered so JSON artifacts are reproducible).
    pub entries: BTreeMap<String, ParamValue>,
}

impl Params {
    /// Empty parameter set.
    pub(crate) fn new() -> Self {
        Params::default()
    }

    /// Insert (or replace) a parameter in place.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<ParamValue>) {
        self.entries.insert(key.into(), value.into());
    }

    /// Look up a parameter by name.
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.entries.get(key)
    }

    /// Required `f64` parameter, with a descriptive error.
    pub fn require_f64(&self, key: &str) -> Result<f64> {
        match self.get(key) {
            Some(ParamValue::Symbol(s)) => Err(QmlError::UnboundParameter(s.name.clone())),
            Some(v) => v
                .as_f64()
                .ok_or_else(|| QmlError::Validation(format!("parameter `{key}` is not numeric"))),
            None => Err(QmlError::Validation(format!("missing parameter `{key}`"))),
        }
    }

    /// Required `u64` parameter.
    pub fn require_u64(&self, key: &str) -> Result<u64> {
        match self.get(key) {
            Some(ParamValue::Symbol(s)) => Err(QmlError::UnboundParameter(s.name.clone())),
            Some(v) => v.as_u64().ok_or_else(|| {
                QmlError::Validation(format!("parameter `{key}` is not an unsigned integer"))
            }),
            None => Err(QmlError::Validation(format!("missing parameter `{key}`"))),
        }
    }

    /// Optional `bool` parameter with a default.
    pub fn bool_or(&self, key: &str, default: bool) -> bool {
        self.get(key)
            .and_then(ParamValue::as_bool)
            .unwrap_or(default)
    }

    /// Optional `u64` parameter with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .and_then(ParamValue::as_u64)
            .unwrap_or(default)
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Names of every unbound symbol across all entries.
    pub(crate) fn unbound_symbols(&self) -> Vec<String> {
        let mut out: Vec<String> = self.entries.values().flat_map(|v| v.symbols()).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Return a copy with every symbol found in `bindings` substituted.
    pub(crate) fn bind(&self, bindings: &BTreeMap<String, ParamValue>) -> Params {
        Params {
            entries: self
                .entries
                .iter()
                .map(|(k, v)| (k.clone(), v.bind(bindings)))
                .collect(),
        }
    }

    /// Error if any entry still contains an unbound symbol.
    pub fn ensure_bound(&self) -> Result<()> {
        let symbols = self.unbound_symbols();
        if let Some(first) = symbols.first() {
            Err(QmlError::UnboundParameter(first.clone()))
        } else {
            Ok(())
        }
    }
}

impl FromIterator<(String, ParamValue)> for Params {
    fn from_iter<I: IntoIterator<Item = (String, ParamValue)>>(iter: I) -> Self {
        Params {
            entries: iter.into_iter().collect(),
        }
    }
}

/// The decode `#[derive(Deserialize)] #[serde(untagged)]` generates, kept
/// as the oracle the hand-written one is held to: it tries each variant on
/// a copy of the value, in declaration order.
#[cfg(test)]
mod derived {
    use super::SymbolRef;
    use serde::Deserialize;
    use std::collections::BTreeMap;

    #[derive(Deserialize)]
    #[serde(untagged)]
    pub enum ParamValue {
        Bool(bool),
        Int(i64),
        Float(f64),
        Symbol(SymbolRef),
        Str(String),
        List(Vec<ParamValue>),
        Map(BTreeMap<String, ParamValue>),
    }

    impl From<ParamValue> for super::ParamValue {
        fn from(value: ParamValue) -> Self {
            match value {
                ParamValue::Bool(b) => super::ParamValue::Bool(b),
                ParamValue::Int(x) => super::ParamValue::Int(x),
                ParamValue::Float(x) => super::ParamValue::Float(x),
                ParamValue::Symbol(s) => super::ParamValue::Symbol(s),
                ParamValue::Str(s) => super::ParamValue::Str(s),
                ParamValue::List(items) => {
                    super::ParamValue::List(items.into_iter().map(Into::into).collect())
                }
                ParamValue::Map(map) => {
                    super::ParamValue::Map(map.into_iter().map(|(k, v)| (k, v.into())).collect())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use rand::Rng;
    use serde::value::{from_value_any, ValueError};

    /// Value trees of every kind, nested up to `depth` levels: `null`,
    /// integers past `i64`, symbol-shaped objects with a non-string name or
    /// an extra member, duplicate keys, nested lists.
    struct Trees {
        depth: u32,
    }

    fn tree(rng: &mut TestRng, depth: u32) -> Value {
        const KEYS: [&str; 4] = ["$param", "x", "extra", "edges"];
        let kinds = if depth == 0 { 7 } else { 12 };
        match rng.gen_range(0..kinds) {
            0 => {
                if rng.gen_range(0..3) == 0 {
                    Value::Null
                } else {
                    Value::Bool(rng.gen())
                }
            }
            1 => Value::I64(rng.gen_range(-5i64..5)),
            2 => Value::I64(rng.gen()),
            3 => Value::U64(
                [0, 7, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX][rng.gen_range(0usize..5)],
            ),
            4 => Value::F64(rng.gen_range(-1e3f64..1e3)),
            5 | 6 => Value::String(KEYS[rng.gen_range(0usize..4)].to_string()),
            7 | 8 => Value::Array(
                (0..rng.gen_range(0..4))
                    .map(|_| tree(rng, depth - 1))
                    .collect(),
            ),
            9 => Value::Object(
                (0..rng.gen_range(0..4))
                    .map(|_| {
                        (
                            KEYS[rng.gen_range(0usize..4)].to_string(),
                            tree(rng, depth - 1),
                        )
                    })
                    .collect(),
            ),
            10 => Value::Object(vec![("$param".to_string(), tree(rng, depth - 1))]),
            _ => {
                let mut members = vec![("$param".to_string(), Value::String("x".into()))];
                let other = KEYS[rng.gen_range(0usize..4)].to_string();
                members.insert(rng.gen_range(0..2), (other, Value::I64(1)));
                Value::Object(members)
            }
        }
    }

    impl Strategy for Trees {
        type Value = Value;

        fn sample(&self, rng: &mut TestRng) -> Value {
            tree(rng, self.depth)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The kind-dispatched decode returns what the derived untagged
        /// decode returns, `Ok` and `Err` alike.
        #[test]
        fn decode_agrees_with_the_derived_untagged_decode(value in Trees { depth: 4 }) {
            let ours = from_value_any::<ParamValue, ValueError>(value.clone()).map_err(|e| e.0);
            let theirs = from_value_any::<derived::ParamValue, ValueError>(value.clone())
                .map(ParamValue::from)
                .map_err(|e| e.0);
            prop_assert!(ours == theirs, "{} decodes as {:?}, derived {:?}", value, ours, theirs);
        }
    }

    #[test]
    fn symbol_shaped_objects_that_are_not_symbols() {
        for (json, expected) in [
            (r#"{"$param": 3}"#, Some("Map")),
            (r#"{"$param": "x", "extra": 1}"#, Some("Map")),
            (r#"{"$param": "x", "$param": "y"}"#, Some("Map")),
            (r#"{"$param": null}"#, None),
            (r#"[1, null]"#, None),
            (r#"18446744073709551615"#, Some("Float")),
        ] {
            let decoded: std::result::Result<ParamValue, _> = serde_json::from_str(json);
            let kind = decoded.ok().map(|v| match v {
                ParamValue::Map(_) => "Map",
                ParamValue::Float(_) => "Float",
                _ => "other",
            });
            assert_eq!(kind, expected, "{json}");
        }
    }

    #[test]
    fn untagged_round_trip_scalars() {
        for (json, expected) in [
            ("true", ParamValue::Bool(true)),
            ("3", ParamValue::Int(3)),
            ("0.5", ParamValue::Float(0.5)),
            ("\"hello\"", ParamValue::Str("hello".into())),
        ] {
            let v: ParamValue = serde_json::from_str(json).unwrap();
            assert_eq!(v, expected, "parsing {json}");
        }
    }

    #[test]
    fn symbol_round_trip() {
        let v = ParamValue::symbol("gamma_0");
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(json, r#"{"$param":"gamma_0"}"#);
        let back: ParamValue = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
        assert!(!back.symbols().is_empty());
    }

    #[test]
    fn plain_map_is_not_a_symbol() {
        let json = r#"{"edges": [[0,1],[1,2]], "weight": 1.0}"#;
        let v: ParamValue = serde_json::from_str(json).unwrap();
        assert!(matches!(v, ParamValue::Map(_)));
        assert!(v.symbols().is_empty());
    }

    #[test]
    fn nested_symbol_detection_and_binding() {
        let v = ParamValue::List(vec![
            ParamValue::Int(1),
            ParamValue::symbol("beta_0"),
            ParamValue::Map(
                [("angle".to_string(), ParamValue::symbol("gamma_0"))]
                    .into_iter()
                    .collect(),
            ),
        ]);
        assert_eq!(
            v.symbols(),
            vec!["beta_0".to_string(), "gamma_0".to_string()]
        );

        let mut bindings = BTreeMap::new();
        bindings.insert("beta_0".to_string(), ParamValue::Float(0.3));
        bindings.insert("gamma_0".to_string(), ParamValue::Float(0.7));
        let bound = v.bind(&bindings);
        assert!(bound.symbols().is_empty());
    }

    #[test]
    fn partial_binding_leaves_unknown_symbols() {
        let v = ParamValue::symbol("delta");
        let bound = v.bind(&BTreeMap::new());
        assert!(!bound.symbols().is_empty());
    }

    #[test]
    fn params_builder_and_lookup() {
        let mut p = Params::new();
        p.insert("approx_degree", 0);
        p.insert("do_swaps", true);
        p.insert("inverse", false);
        assert_eq!(p.entries.len(), 3);
        assert_eq!(p.require_u64("approx_degree").unwrap(), 0);
        assert!(p.bool_or("do_swaps", false));
        assert!(!p.bool_or("inverse", true));
        assert!(p.require_f64("missing").is_err());
    }

    #[test]
    fn params_unbound_symbol_is_an_error() {
        let mut p = Params::new();
        p.insert("gamma", ParamValue::symbol("gamma_0"));
        assert_eq!(p.unbound_symbols(), vec!["gamma_0".to_string()]);
        assert!(matches!(
            p.require_f64("gamma"),
            Err(QmlError::UnboundParameter(_))
        ));
        assert!(p.ensure_bound().is_err());

        let mut bindings = BTreeMap::new();
        bindings.insert("gamma_0".to_string(), ParamValue::Float(1.2));
        let bound = p.bind(&bindings);
        assert!(bound.ensure_bound().is_ok());
        assert!((bound.require_f64("gamma").unwrap() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(ParamValue::Int(4).as_f64(), Some(4.0));
        assert_eq!(ParamValue::Float(4.0).as_i64(), Some(4));
        assert_eq!(ParamValue::Float(4.5).as_i64(), None);
        assert_eq!(ParamValue::Int(-1).as_u64(), None);
        assert_eq!(ParamValue::Bool(true).as_f64(), Some(1.0));
    }

    #[test]
    fn params_transparent_serialization() {
        let mut p = Params::new();
        p.insert("samples", 4096);
        p.insert("seed", 42);
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(json, r#"{"samples":4096,"seed":42}"#);
        let back: Params = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
