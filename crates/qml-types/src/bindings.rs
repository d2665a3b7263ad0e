//! Binding sets: the late-bound numeric parameter values of one job.
//!
//! The paper's late-binding rule (§3) separates a program's **symbolic
//! intent** (operators carrying `{"$param": "gamma_0"}` placeholders) from
//! the **values** a particular execution substitutes. A [`BindingSet`] is
//! that value half: an ordered `name → f64` map that travels with a
//! [`JobBundle`](crate::JobBundle) instead of being substituted into the
//! operators up front — so every point of a parameter sweep shares one
//! symbolic program (and therefore one transpiled plan), and the backend
//! binds values into the already-routed circuit at execute time.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::bundle::{fnv1a64_init, fnv1a64_update};
use crate::error::{QmlError, Result};
use crate::params::ParamValue;

/// Named numeric values for a job's late-bound symbolic parameters.
///
/// Ordered (BTreeMap) so the serialized form and the
/// [`fingerprint`](BindingSet::fingerprint) are reproducible.
///
/// ```
/// use qml_types::BindingSet;
///
/// let point = BindingSet::new().with("gamma_0", 0.4).with("beta_0", 0.3);
/// assert_eq!(point.get("gamma_0"), Some(0.4));
///
/// // values_for orders values by a plan's slot table, erroring on gaps.
/// let slots = ["beta_0".to_string(), "gamma_0".to_string()];
/// assert_eq!(point.values_for(&slots)?, vec![0.3, 0.4]);
///
/// // The fingerprint is value-sensitive: two jobs with equal symbolic
/// // programs and equal fingerprints realize the same concrete circuit.
/// let other = BindingSet::new().with("gamma_0", 0.5).with("beta_0", 0.3);
/// assert_ne!(point.fingerprint(), other.fingerprint());
/// # Ok::<(), qml_types::QmlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct BindingSet {
    /// Underlying ordered `symbol name → value` map.
    pub entries: BTreeMap<String, f64>,
}

impl BindingSet {
    /// An empty binding set.
    pub fn new() -> Self {
        BindingSet::default()
    }

    /// Insert (or replace) a binding, builder-style.
    pub fn with(mut self, name: impl Into<String>, value: f64) -> Self {
        self.entries.insert(name.into(), value);
        self
    }

    /// Look up a binding by symbol name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.get(name).copied()
    }

    /// True if no binding is present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the set binds the given symbol.
    pub fn binds(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Extract the numeric entries of a `ParamValue` binding map (the legacy
    /// sweep-dimension form), ignoring non-numeric values.
    pub fn from_param_values(bindings: &BTreeMap<String, ParamValue>) -> Self {
        BindingSet {
            entries: bindings
                .iter()
                .filter(|(_, v)| !matches!(v, ParamValue::Bool(_)))
                .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                .collect(),
        }
    }

    /// Convert to the `ParamValue` map accepted by
    /// [`JobBundle::bind`](crate::JobBundle::bind) (eager substitution).
    pub(crate) fn to_param_values(&self) -> BTreeMap<String, ParamValue> {
        self.entries
            .iter()
            .map(|(k, &v)| (k.clone(), ParamValue::Float(v)))
            .collect()
    }

    /// Values in the order of the given symbol names — the slot-table vector
    /// a parametric plan substitutes. Errors on the first missing symbol.
    pub fn values_for(&self, symbols: &[String]) -> Result<Vec<f64>> {
        symbols
            .iter()
            .map(|name| {
                self.get(name)
                    .ok_or_else(|| QmlError::UnboundParameter(name.clone()))
            })
            .collect()
    }

    /// Stable 64-bit signature of the binding set (names and exact bit
    /// patterns of the values). Two jobs with equal symbolic programs and
    /// equal binding fingerprints realize the same concrete program.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = fnv1a64_init();
        for (name, value) in &self.entries {
            hash = fnv1a64_update(hash, name.as_bytes());
            hash = fnv1a64_update(hash, b"\x1f");
            hash = fnv1a64_update(hash, &value.to_bits().to_le_bytes());
            hash = fnv1a64_update(hash, b"\x1e");
        }
        hash
    }
}

impl FromIterator<(String, f64)> for BindingSet {
    fn from_iter<I: IntoIterator<Item = (String, f64)>>(iter: I) -> Self {
        BindingSet {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let b = BindingSet::new().with("gamma_0", 0.4).with("beta_0", 0.3);
        assert_eq!(b.entries.len(), 2);
        assert_eq!(b.get("gamma_0"), Some(0.4));
        assert!(b.binds("beta_0"));
        assert!(!b.binds("delta"));
    }

    #[test]
    fn values_for_orders_by_slot_table() {
        let b = BindingSet::new().with("b", 2.0).with("a", 1.0);
        let values = b.values_for(&["b".to_string(), "a".to_string()]).unwrap();
        assert_eq!(values, vec![2.0, 1.0]);
        assert!(matches!(
            b.values_for(&["missing".to_string()]),
            Err(QmlError::UnboundParameter(_))
        ));
    }

    #[test]
    fn fingerprint_distinguishes_values_and_names() {
        let a = BindingSet::new().with("g", 0.25);
        let b = BindingSet::new().with("g", 0.5);
        let c = BindingSet::new().with("h", 0.25);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn from_param_values_keeps_numerics_only() {
        let mut raw = BTreeMap::new();
        raw.insert("gamma".to_string(), ParamValue::Float(0.7));
        raw.insert("layers".to_string(), ParamValue::Int(2));
        raw.insert("label".to_string(), ParamValue::Str("x".into()));
        let b = BindingSet::from_param_values(&raw);
        assert_eq!(b.entries.len(), 2);
        assert_eq!(b.get("gamma"), Some(0.7));
        assert_eq!(b.get("layers"), Some(2.0));
        assert!(!b.binds("label"));
    }

    #[test]
    fn serde_round_trip() {
        let b = BindingSet::new().with("gamma_0", 0.4);
        let json = serde_json::to_string(&b).unwrap();
        assert_eq!(json, r#"{"gamma_0":0.4}"#);
        let back: BindingSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b);
    }
}
