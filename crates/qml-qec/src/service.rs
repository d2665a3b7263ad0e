//! The orthogonal QEC context service.
//!
//! This is the component the paper's §4.3.1/§4.3.2 describe: a service that
//! consumes the `qec` block of a context descriptor — without the operator
//! descriptors ever changing — and answers the questions a backend or
//! scheduler asks at realization time: How many physical qubits does this
//! logical register need? Are the requested logical gates in the policy's
//! fault-tolerant gate set? What failure probability should be expected?

use serde::{Deserialize, Serialize};

use qml_types::{CostHint, QecConfig, QmlError, Result};

use crate::repetition::RepetitionCode;
use crate::surface::{ResourceEstimate, SurfaceCode};

/// Code families understood by the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CodeFamily {
    /// Rotated surface code (resource model).
    Surface,
    /// Bit-flip repetition code (executable demonstrator).
    Repetition,
}

/// Default physical error rate assumed when the context does not specify one.
pub(crate) const DEFAULT_PHYSICAL_ERROR_RATE: f64 = 1e-3;

/// The orthogonal QEC service: interprets a [`QecConfig`] and produces
/// resource estimates for logical workloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QecService {
    /// Which code family the policy selected.
    pub family: CodeFamily,
    /// Code distance requested by the policy.
    pub distance: usize,
    /// Physical error rate assumed for estimates.
    pub physical_error_rate: f64,
    /// Fault-tolerant gate set synthesis is constrained to (upper-case names);
    /// empty means unconstrained.
    pub logical_gate_set: Vec<String>,
}

impl QecService {
    /// Interpret a context's QEC policy. Unknown code families are rejected —
    /// silently ignoring an error-correction request would violate the
    /// "no hidden side effects" principle.
    pub fn from_config(config: &QecConfig) -> Result<Self> {
        config.validate()?;
        let family = match config.code_family.to_ascii_lowercase().as_str() {
            "surface" => CodeFamily::Surface,
            "repetition" | "bit-flip" | "bitflip" => CodeFamily::Repetition,
            other => {
                return Err(QmlError::Unsupported(format!(
                    "unknown QEC code family `{other}`"
                )))
            }
        };
        Ok(QecService {
            family,
            distance: config.distance,
            physical_error_rate: config
                .physical_error_rate
                .unwrap_or(DEFAULT_PHYSICAL_ERROR_RATE),
            logical_gate_set: config
                .logical_gate_set
                .iter()
                .map(|g| g.to_ascii_uppercase())
                .collect(),
        })
    }

    /// True if the named logical gate is allowed by the policy's gate set.
    pub fn allows_logical_gate(&self, gate: &str) -> bool {
        self.logical_gate_set.is_empty()
            || self
                .logical_gate_set
                .iter()
                .any(|g| g.eq_ignore_ascii_case(gate))
    }

    /// Verify that every gate in `gates` is allowed; reports the first
    /// offender otherwise.
    pub fn check_logical_gates(&self, gates: &[&str]) -> Result<()> {
        for gate in gates {
            if !self.allows_logical_gate(gate) {
                return Err(QmlError::Unsupported(format!(
                    "logical gate `{gate}` is outside the policy's fault-tolerant gate set {:?}",
                    self.logical_gate_set
                )));
            }
        }
        Ok(())
    }

    /// Physical qubits required per logical qubit under this policy.
    pub fn physical_qubits_per_logical(&self) -> usize {
        match self.family {
            CodeFamily::Surface => SurfaceCode::new(self.distance, self.physical_error_rate)
                .physical_qubits_per_logical(),
            CodeFamily::Repetition => self.distance,
        }
    }

    /// Logical error rate per logical operation under this policy.
    pub fn logical_error_rate(&self) -> f64 {
        match self.family {
            CodeFamily::Surface => {
                SurfaceCode::new(self.distance, self.physical_error_rate).logical_error_rate()
            }
            CodeFamily::Repetition => RepetitionCode::new(self.distance)
                .analytic_logical_error_rate(self.physical_error_rate),
        }
    }

    /// Estimate the physical resources for a logical workload described by a
    /// register width and an (optional) cost hint. Unknown cost fields fall
    /// back to a width-proportional default so the estimate stays
    /// conservative rather than absent.
    pub fn estimate(&self, logical_qubits: usize, cost: Option<&CostHint>) -> ResourceEstimate {
        let logical_ops = cost
            .and_then(|c| match (c.depth, c.twoq, c.oneq) {
                (Some(d), _, _) => Some(d * logical_qubits as u64),
                (None, Some(twoq), oneq) => Some(twoq + oneq.unwrap_or(0)),
                _ => None,
            })
            .unwrap_or(10 * logical_qubits as u64) as usize;
        match self.family {
            CodeFamily::Surface => SurfaceCode::new(self.distance, self.physical_error_rate)
                .estimate(logical_qubits, logical_ops),
            CodeFamily::Repetition => {
                let per_patch = self.distance;
                let p_l = self.logical_error_rate();
                ResourceEstimate {
                    logical_qubits,
                    physical_qubits: logical_qubits * per_patch,
                    syndrome_rounds: logical_ops * self.distance,
                    workload_failure_probability: 1.0 - (1.0 - p_l).powi(logical_ops as i32),
                    time_overhead_factor: self.distance as f64,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing5_policy_round_trip() {
        let config = QecConfig::surface(7);
        let service = QecService::from_config(&config).unwrap();
        assert_eq!(service.family, CodeFamily::Surface);
        assert_eq!(service.distance, 7);
        assert_eq!(service.physical_qubits_per_logical(), 97);
        assert!(service.allows_logical_gate("H"));
        assert!(service.allows_logical_gate("cnot"));
        assert!(!service.allows_logical_gate("SQRT_ISWAP"));
        service
            .check_logical_gates(&["H", "CNOT", "T", "MEASURE_Z"])
            .unwrap();
        assert!(service.check_logical_gates(&["H", "CCZ"]).is_err());
    }

    #[test]
    fn unknown_code_family_rejected() {
        let mut config = QecConfig::surface(7);
        config.code_family = "bacon-shor".into();
        assert!(matches!(
            QecService::from_config(&config),
            Err(QmlError::Unsupported(_))
        ));
    }

    #[test]
    fn invalid_distance_rejected_through_config_validation() {
        let mut config = QecConfig::surface(7);
        config.distance = 4;
        assert!(QecService::from_config(&config).is_err());
    }

    #[test]
    fn repetition_family_supported() {
        let mut config = QecConfig::surface(5);
        config.code_family = "repetition".into();
        config.logical_gate_set.clear();
        let service = QecService::from_config(&config).unwrap();
        assert_eq!(service.family, CodeFamily::Repetition);
        assert_eq!(service.physical_qubits_per_logical(), 5);
        assert!(
            service.allows_logical_gate("ANYTHING"),
            "empty gate set is unconstrained"
        );
    }

    #[test]
    fn estimates_scale_with_distance_but_semantics_do_not_change() {
        // The composability claim: swapping only the QEC context changes the
        // resource estimate, nothing else is touched.
        let cost = CostHint::gates(45, 100);
        let small = QecService::from_config(&QecConfig::surface(3))
            .unwrap()
            .estimate(10, Some(&cost));
        let large = QecService::from_config(&QecConfig::surface(11))
            .unwrap()
            .estimate(10, Some(&cost));
        assert_eq!(small.logical_qubits, large.logical_qubits);
        assert!(large.physical_qubits > small.physical_qubits);
        assert!(large.syndrome_rounds > small.syndrome_rounds);
        assert!(large.workload_failure_probability < small.workload_failure_probability);
    }

    #[test]
    fn estimate_without_cost_hint_uses_default_workload() {
        let service = QecService::from_config(&QecConfig::surface(5)).unwrap();
        let est = service.estimate(4, None);
        assert_eq!(est.logical_qubits, 4);
        assert!(est.syndrome_rounds > 0);
    }

    #[test]
    fn physical_error_rate_from_config_is_used() {
        let mut config = QecConfig::surface(7);
        config.physical_error_rate = Some(5e-3);
        let noisy = QecService::from_config(&config).unwrap();
        let clean = QecService::from_config(&QecConfig::surface(7)).unwrap();
        assert!(noisy.logical_error_rate() > clean.logical_error_rate());
    }
}
