//! Fleet vocabulary: capability descriptors, per-job
//! requirements, and device health states.
//!
//! A production service does not run one monolithic backend per plane — it
//! runs a *fleet* of devices behind each backend plane (several gate
//! simulators of different widths, several annealers with different schedule
//! support), and a scheduler must know which devices *can* serve a job
//! before asking which one *should*. This module holds the shared
//! vocabulary: a [`CapabilityDescriptor`] declaring what a
//! device can realize, the [`JobRequirements`] a bundle derives for matching
//! against it, and the [`HealthState`] ladder failure tracking moves devices
//! along. The routing policy itself lives in the serving tier; these types
//! are the contract every layer agrees on.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::bundle::JobBundle;

/// What one device can realize. `None` fields are unconstrained — the
/// default descriptor accepts every job its backend plane can realize.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CapabilityDescriptor {
    /// Largest register width (total carriers) the device can hold.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_qubits: Option<usize>,
    /// Transpiler optimization levels the device supports (gate planes) /
    /// annealer schedule classes (anneal planes, on the same 0–3 scale).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub opt_levels: Option<Vec<u8>>,
}

impl CapabilityDescriptor {
    /// An unconstrained descriptor: the device serves anything its plane can.
    pub fn unlimited() -> Self {
        CapabilityDescriptor::default()
    }

    /// Cap the register width the device can hold, builder-style.
    pub fn with_max_qubits(mut self, max_qubits: usize) -> Self {
        self.max_qubits = Some(max_qubits);
        self
    }

    /// True if a job with the given requirements fits this device.
    pub fn supports(&self, req: &JobRequirements) -> bool {
        if self.max_qubits.is_some_and(|max| req.qubits > max) {
            return false;
        }
        if self
            .opt_levels
            .as_ref()
            .is_some_and(|levels| !levels.contains(&req.opt_level))
        {
            return false;
        }
        true
    }
}

/// What one job demands of a device, derived from its bundle at submission
/// and carried with the job so routing (and re-routing after a failure)
/// never re-parses descriptors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobRequirements {
    /// Total register width the job declares (see
    /// [`JobBundle::total_width`]).
    pub qubits: usize,
    /// The transpiler optimization level the context requests (default 1).
    pub opt_level: u8,
}

impl JobRequirements {
    /// Derive the requirements of a bundle: its declared register width and
    /// the optimization level of its execution context (contextless bundles
    /// require the default level).
    pub fn of(bundle: &JobBundle) -> Self {
        let opt_level = bundle
            .context
            .as_ref()
            .and_then(|c| c.exec.as_ref())
            .map(|e| e.options.optimization_level)
            .unwrap_or(1);
        JobRequirements {
            qubits: bundle.total_width(),
            opt_level,
        }
    }
}

/// Where a device sits on the health ladder. Driven by observed
/// [`DeviceFault`](crate::QmlError::DeviceFault) outcomes: failures push a
/// device down the ladder, a successful execution (e.g. a probe) restores it
/// to [`HealthState::Healthy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthState {
    /// Serving normally.
    Healthy,
    /// Recent device faults observed; still routable, deprioritized.
    Degraded,
    /// Fault streak exceeded the plane's threshold; receives no dispatches
    /// except recovery probes.
    Down,
}

impl HealthState {
    /// Lowercase schema name (stable; greppable in dumps).
    pub fn name(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Down => "down",
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ContextDescriptor, ExecConfig};
    use crate::qdt::QuantumDataType;

    fn bundle(width: usize) -> JobBundle {
        JobBundle::new(
            "caps-test",
            vec![QuantumDataType::bool_register("reg_q", "q", width).unwrap()],
            vec![],
        )
    }

    #[test]
    fn unlimited_descriptor_accepts_everything() {
        let caps = CapabilityDescriptor::unlimited();
        for qubits in [0, 1, 64, 4096] {
            for opt_level in 0..=3 {
                assert!(caps.supports(&JobRequirements { qubits, opt_level }));
            }
        }
    }

    #[test]
    fn width_and_opt_level_caps_are_enforced() {
        let caps = CapabilityDescriptor {
            opt_levels: Some(vec![0, 1]),
            ..CapabilityDescriptor::unlimited().with_max_qubits(8)
        };
        assert!(caps.supports(&JobRequirements {
            qubits: 8,
            opt_level: 1
        }));
        assert!(!caps.supports(&JobRequirements {
            qubits: 9,
            opt_level: 1
        }));
        assert!(!caps.supports(&JobRequirements {
            qubits: 4,
            opt_level: 2
        }));
    }

    #[test]
    fn requirements_derive_from_bundle_width_and_context() {
        let plain = bundle(6);
        let req = JobRequirements::of(&plain);
        assert_eq!(req.qubits, 6);
        assert_eq!(req.opt_level, 1, "contextless bundles use the default");

        let tuned = bundle(6).with_context(ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator").with_optimization_level(3),
        ));
        assert_eq!(JobRequirements::of(&tuned).opt_level, 3);
    }

    #[test]
    fn health_ladder_names_are_stable() {
        assert_eq!(HealthState::Healthy.to_string(), "healthy");
        assert_eq!(HealthState::Degraded.to_string(), "degraded");
        assert_eq!(HealthState::Down.to_string(), "down");
    }

    #[test]
    fn device_fault_is_distinguished_from_job_errors() {
        use crate::error::QmlError;
        assert!(QmlError::DeviceFault("link lost".into()).is_device_fault());
        assert!(!QmlError::Validation("bad width".into()).is_device_fault());
        let msg = QmlError::DeviceFault("link lost".into()).to_string();
        assert!(msg.contains("device fault"));
    }

    #[test]
    fn fleet_types_serialize() {
        let caps = CapabilityDescriptor::unlimited().with_max_qubits(16);
        let json = serde_json::to_string(&caps).unwrap();
        let back: CapabilityDescriptor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, caps);
    }
}
