//! Device-independent cost hints.
//!
//! The paper's motivational example (§2) observes that without cost metadata
//! "a scheduler cannot choose an appropriate backend and topology, or estimate
//! queue and runtime", and proposes a `cost_hint` attached to each operator,
//! "analogous to FLOP counts and communication estimates used by HPC
//! schedulers". [`CostHint`] is that record.

use serde::{Deserialize, Serialize};

/// Advisory, device-independent cost estimate attached to an operator
/// descriptor. All fields are optional; absent fields mean "unknown".
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostHint {
    /// Estimated number of two-qubit (entangling) gates.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub twoq: Option<u64>,
    /// Estimated number of single-qubit gates.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub oneq: Option<u64>,
    /// Estimated circuit depth.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub depth: Option<u64>,
    /// Estimated number of ancilla carriers required.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub ancillas: Option<u64>,
    /// Estimated inter-device communication volume (e.g. teleportations).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub communication: Option<u64>,
    /// Estimated wall-clock duration in microseconds.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub duration_us: Option<f64>,
}

impl CostHint {
    /// An empty (all-unknown) hint.
    pub fn unknown() -> Self {
        CostHint::default()
    }

    /// Hint carrying only gate counts and depth — the form used in the
    /// paper's Listing 3 (`{"twoq": 45, "depth": 100}`).
    pub fn gates(twoq: u64, depth: u64) -> Self {
        CostHint {
            twoq: Some(twoq),
            depth: Some(depth),
            ..CostHint::default()
        }
    }

    /// Builder-style setter for the single-qubit gate count.
    pub fn with_oneq(mut self, oneq: u64) -> Self {
        self.oneq = Some(oneq);
        self
    }

    /// Builder-style setter for the ancilla demand.
    /// Builder-style setter for communication volume.
    pub fn with_communication(mut self, communication: u64) -> Self {
        self.communication = Some(communication);
        self
    }

    /// Builder-style setter for expected duration.
    pub fn with_duration_us(mut self, duration_us: f64) -> Self {
        self.duration_us = Some(duration_us);
        self
    }

    /// Element-wise sum of two hints. Unknown fields propagate: a field is
    /// present in the sum only if it is present in **both** operands, so the
    /// aggregate never over-claims precision.
    pub fn saturating_add(&self, other: &CostHint) -> CostHint {
        fn add(a: Option<u64>, b: Option<u64>) -> Option<u64> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a.saturating_add(b)),
                _ => None,
            }
        }
        CostHint {
            twoq: add(self.twoq, other.twoq),
            oneq: add(self.oneq, other.oneq),
            depth: add(self.depth, other.depth),
            ancillas: match (self.ancillas, other.ancillas) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
            communication: add(self.communication, other.communication),
            duration_us: match (self.duration_us, other.duration_us) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            },
        }
    }

    /// A scalar "weight" used by the runtime scheduler to rank backends:
    /// two-qubit gates dominate, depth is a tie-breaker. Unknown fields count
    /// as zero (the scheduler treats missing hints as "cheap but uncertain").
    pub fn scheduling_weight(&self) -> f64 {
        let twoq = self.twoq.unwrap_or(0) as f64;
        let oneq = self.oneq.unwrap_or(0) as f64;
        let depth = self.depth.unwrap_or(0) as f64;
        let comm = self.communication.unwrap_or(0) as f64;
        10.0 * twoq + oneq + 0.5 * depth + 50.0 * comm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing3_form_serializes_without_unknowns() {
        let hint = CostHint::gates(45, 100);
        let json = serde_json::to_string(&hint).unwrap();
        assert_eq!(json, r#"{"twoq":45,"depth":100}"#);
    }

    #[test]
    fn round_trip_full() {
        let hint = CostHint {
            ancillas: Some(2),
            ..CostHint::gates(45, 100)
                .with_oneq(30)
                .with_communication(0)
                .with_duration_us(12.5)
        };
        let json = serde_json::to_string(&hint).unwrap();
        let back: CostHint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, hint);
    }

    #[test]
    fn sum_requires_both_operands_known() {
        let a = CostHint::gates(10, 20);
        let b = CostHint {
            twoq: Some(5),
            ..CostHint::default()
        };
        let sum = a.saturating_add(&b);
        assert_eq!(sum.twoq, Some(15));
        assert_eq!(sum.depth, None, "depth unknown in b, so unknown in sum");
    }

    #[test]
    fn ancillas_take_max_not_sum() {
        let a = CostHint {
            ancillas: Some(3),
            ..CostHint::default()
        };
        let b = CostHint {
            ancillas: Some(5),
            ..CostHint::default()
        };
        assert_eq!(a.saturating_add(&b).ancillas, Some(5));
    }

    #[test]
    fn scheduling_weight_ranks_twoq_heavier_than_depth() {
        let shallow_but_entangling = CostHint::gates(100, 10);
        let deep_but_local = CostHint::gates(10, 500);
        assert!(
            shallow_but_entangling.scheduling_weight() > deep_but_local.scheduling_weight(),
            "two-qubit count should dominate the ranking"
        );
    }

    #[test]
    fn unknown_hint() {
        assert_eq!(CostHint::unknown(), CostHint::default());
        assert_eq!(CostHint::unknown().scheduling_weight(), 0.0);
    }
}
