//! Context descriptors: execution policy, orthogonal to program semantics
//! (paper §4.3, Listings 4 and 5).
//!
//! A [`ContextDescriptor`] says **how** an operator may be executed — which
//! engine, how many samples, with which target constraints, under which error
//! correction policy, with which annealer settings — without changing what the
//! operator means. Swapping the context re-targets a program; the intent
//! artifacts (data types and operators) stay untouched.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::error::{QmlError, Result};
use crate::params::ParamValue;

/// Name of the JSON Schema governing context descriptor artifacts.
pub(crate) const CTX_SCHEMA: &str = "ctx.schema.json";

/// Compilation target constraints (the `target` block of Listing 4).
///
/// Omitting the target yields "an ideal all-to-all configuration where all the
/// qubits are connected" (paper §4.3).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Target {
    /// Native gate set the transpiler must decompose into (e.g. `["sx","rz","cx"]`).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub basis_gates: Vec<String>,
    /// Undirected qubit connectivity as an edge list; `None` means all-to-all.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub coupling_map: Option<Vec<(usize, usize)>>,
    /// Number of physical carriers available on the target (optional).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub num_qubits: Option<usize>,
}

impl Target {
    /// A linear chain 0-1-2-...-(n-1), the topology of the paper's Listing 4.
    pub fn linear(n: usize) -> Self {
        Target {
            basis_gates: vec!["sx".into(), "rz".into(), "cx".into()],
            coupling_map: Some((0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect()),
            num_qubits: Some(n),
        }
    }

    /// A ring 0-1-...-(n-1)-0, the topology of the paper's Max-Cut context.
    pub fn ring(n: usize) -> Self {
        let mut edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        if n > 2 {
            edges.push((n - 1, 0));
        }
        Target {
            basis_gates: vec!["sx".into(), "rz".into(), "cx".into()],
            coupling_map: Some(edges),
            num_qubits: Some(n),
        }
    }

    /// Validate internal consistency (coupling map indices within
    /// `num_qubits`, no self-loops).
    pub(crate) fn validate(&self) -> Result<()> {
        if let Some(edges) = &self.coupling_map {
            for &(a, b) in edges {
                if a == b {
                    return Err(QmlError::Validation(format!(
                        "coupling map contains self-loop ({a},{b})"
                    )));
                }
                if let Some(n) = self.num_qubits {
                    if a >= n || b >= n {
                        return Err(QmlError::Validation(format!(
                            "coupling map edge ({a},{b}) exceeds declared num_qubits {n}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Free-form transpiler/engine options (the `options` block of Listing 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecOptions {
    /// Transpiler optimization level, 0–3 (Qiskit-compatible scale).
    #[serde(default = "default_optimization_level")]
    pub optimization_level: u8,
    /// Any further engine-specific options, preserved verbatim.
    #[serde(flatten)]
    pub extra: BTreeMap<String, ParamValue>,
}

fn default_optimization_level() -> u8 {
    1
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            optimization_level: default_optimization_level(),
            extra: BTreeMap::new(),
        }
    }
}

/// Execution policy for a gate/simulator engine (the `exec` block of
/// Listing 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecConfig {
    /// Engine identifier, e.g. `"gate.aer_simulator"` or `"anneal.neal_simulator"`.
    pub engine: String,
    /// Number of samples (shots / reads) to draw.
    #[serde(default = "default_samples")]
    pub samples: u64,
    /// Seed for reproducible sampling.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
    /// Compilation target constraints.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub target: Option<Target>,
    /// Engine/transpiler options.
    #[serde(default, skip_serializing_if = "is_default_options")]
    pub options: ExecOptions,
}

fn default_samples() -> u64 {
    1024
}

fn is_default_options(opts: &ExecOptions) -> bool {
    *opts == ExecOptions::default()
}

impl ExecConfig {
    /// New execution config for the given engine with default settings.
    pub fn new(engine: impl Into<String>) -> Self {
        ExecConfig {
            engine: engine.into(),
            samples: default_samples(),
            seed: None,
            target: None,
            options: ExecOptions::default(),
        }
    }

    /// Builder-style shot/read count.
    pub fn with_samples(mut self, samples: u64) -> Self {
        self.samples = samples;
        self
    }

    /// Builder-style seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Builder-style target constraints.
    pub fn with_target(mut self, target: Target) -> Self {
        self.target = Some(target);
        self
    }

    /// Builder-style optimization level.
    pub fn with_optimization_level(mut self, level: u8) -> Self {
        self.options.optimization_level = level;
        self
    }

    /// Validate the execution policy.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.engine.trim().is_empty() {
            return Err(QmlError::Validation("exec.engine must be non-empty".into()));
        }
        if self.samples == 0 {
            return Err(QmlError::Validation("exec.samples must be positive".into()));
        }
        if self.options.optimization_level > 3 {
            return Err(QmlError::Validation(format!(
                "optimization_level {} out of range 0..=3",
                self.options.optimization_level
            )));
        }
        if let Some(target) = &self.target {
            target.validate()?;
        }
        Ok(())
    }
}

/// Error-correction policy carried by the context (Listing 5).
///
/// The QEC block is *policy*, not semantics: the same logical program runs
/// unmodified with or without it; an orthogonal QEC service consumes it at
/// realization time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QecConfig {
    /// Code family, e.g. `"surface"`, `"repetition"`, `"color"`.
    pub code_family: String,
    /// Code distance.
    pub distance: usize,
    /// Patch placement / ancilla management policy (`"auto"` delegates to the
    /// runtime).
    #[serde(default = "default_allocator")]
    pub allocator: String,
    /// Fault-tolerant primitives synthesis is constrained to.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub logical_gate_set: Vec<String>,
    /// Decoder choice (e.g. `"mwpm"`, `"union_find"`, `"majority"`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub decoder: Option<String>,
    /// Physical error rate assumed by resource estimation.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub physical_error_rate: Option<f64>,
}

fn default_allocator() -> String {
    "auto".to_string()
}

impl QecConfig {
    /// The paper's Listing 5 policy: a distance-7 surface code with automatic
    /// allocation and the Clifford+T logical gate set.
    pub fn surface(distance: usize) -> Self {
        QecConfig {
            code_family: "surface".into(),
            distance,
            allocator: default_allocator(),
            logical_gate_set: vec![
                "H".into(),
                "S".into(),
                "CNOT".into(),
                "T".into(),
                "MEASURE_Z".into(),
            ],
            decoder: None,
            physical_error_rate: None,
        }
    }

    /// Validate the policy (odd positive distance, known allocator).
    pub fn validate(&self) -> Result<()> {
        if self.code_family.trim().is_empty() {
            return Err(QmlError::Validation(
                "qec.code_family must be non-empty".into(),
            ));
        }
        if self.distance == 0 {
            return Err(QmlError::Validation("qec.distance must be positive".into()));
        }
        if self.distance.is_multiple_of(2) {
            return Err(QmlError::Validation(format!(
                "qec.distance {} must be odd so majority decoding is well defined",
                self.distance
            )));
        }
        if let Some(p) = self.physical_error_rate {
            if !(0.0..=1.0).contains(&p) {
                return Err(QmlError::Validation(format!(
                    "qec.physical_error_rate {p} must lie in [0, 1]"
                )));
            }
        }
        Ok(())
    }
}

/// Annealer execution policy (the `anneal` block of the paper's Fig. 3
/// context: `{"num_reads": 1000}` plus optional schedule controls).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnealConfig {
    /// Number of independent anneals (samples) to draw.
    #[serde(default = "default_num_reads")]
    pub num_reads: u64,
    /// Metropolis sweeps per read.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub num_sweeps: Option<u64>,
    /// Inverse-temperature range `(beta_min, beta_max)` of the schedule.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub beta_range: Option<(f64, f64)>,
    /// Seed for reproducible sampling.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
}

fn default_num_reads() -> u64 {
    1000
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            num_reads: default_num_reads(),
            num_sweeps: None,
            beta_range: None,
            seed: None,
        }
    }
}

impl AnnealConfig {
    /// Config with the given number of reads and defaults otherwise.
    pub fn with_reads(num_reads: u64) -> Self {
        AnnealConfig {
            num_reads,
            ..AnnealConfig::default()
        }
    }

    /// Validate the policy.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.num_reads == 0 {
            return Err(QmlError::Validation(
                "anneal.num_reads must be positive".into(),
            ));
        }
        if let Some((lo, hi)) = self.beta_range {
            if !(lo > 0.0 && hi > lo) {
                return Err(QmlError::Validation(format!(
                    "anneal.beta_range ({lo}, {hi}) must satisfy 0 < beta_min < beta_max"
                )));
            }
        }
        if let Some(0) = self.num_sweeps {
            return Err(QmlError::Validation(
                "anneal.num_sweeps must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// The complete execution context attached to a job bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextDescriptor {
    /// JSON Schema identifier used to validate this artifact.
    #[serde(rename = "$schema", default = "default_ctx_schema")]
    pub schema: String,
    /// Gate/simulator execution policy.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub exec: Option<ExecConfig>,
    /// Error-correction policy (orthogonal to the program).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub qec: Option<QecConfig>,
    /// Annealer execution policy.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub anneal: Option<AnnealConfig>,
    /// Forward-compatible extension blocks, preserved verbatim.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub extensions: BTreeMap<String, ParamValue>,
}

fn default_ctx_schema() -> String {
    CTX_SCHEMA.to_string()
}

impl Default for ContextDescriptor {
    fn default() -> Self {
        ContextDescriptor {
            schema: CTX_SCHEMA.to_string(),
            exec: None,
            qec: None,
            anneal: None,
            extensions: BTreeMap::new(),
        }
    }
}

impl ContextDescriptor {
    /// Context selecting a gate engine with the given policy.
    pub fn for_gate(exec: ExecConfig) -> Self {
        ContextDescriptor {
            exec: Some(exec),
            ..ContextDescriptor::default()
        }
    }

    /// Context selecting an annealing engine.
    pub fn for_anneal(engine: impl Into<String>, anneal: AnnealConfig) -> Self {
        ContextDescriptor {
            exec: Some(ExecConfig::new(engine)),
            anneal: Some(anneal),
            ..ContextDescriptor::default()
        }
    }

    /// Attach a QEC policy, builder-style.
    pub fn with_qec(mut self, qec: QecConfig) -> Self {
        self.qec = Some(qec);
        self
    }

    /// The engine id requested by this context, if any.
    pub fn engine(&self) -> Option<&str> {
        self.exec.as_ref().map(|e| e.engine.as_str())
    }

    /// Validate every block present.
    pub fn validate(&self) -> Result<()> {
        if self.schema != CTX_SCHEMA {
            return Err(QmlError::Validation(format!(
                "context references unknown schema `{}` (expected `{CTX_SCHEMA}`)",
                self.schema
            )));
        }
        if let Some(exec) = &self.exec {
            exec.validate()?;
        }
        if let Some(qec) = &self.qec {
            qec.validate()?;
        }
        if let Some(anneal) = &self.anneal {
            anneal.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact artifact from the paper's Listing 4.
    const LISTING_4: &str = r#"
    {
        "$schema": "ctx.schema.json",
        "exec": {
            "engine": "gate.aer_simulator",
            "samples": 4096,
            "seed": 42,
            "target": {
                "basis_gates": ["sx", "rz", "cx"],
                "coupling_map": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[8,9]]
            },
            "options": { "optimization_level": 2 }
        }
    }"#;

    #[test]
    fn listing4_parses_and_validates() {
        let ctx: ContextDescriptor = serde_json::from_str(LISTING_4).unwrap();
        ctx.validate().unwrap();
        let exec = ctx.exec.as_ref().unwrap();
        assert_eq!(exec.engine, "gate.aer_simulator");
        assert_eq!(exec.samples, 4096);
        assert_eq!(exec.seed, Some(42));
        assert_eq!(exec.options.optimization_level, 2);
        let target = exec.target.as_ref().unwrap();
        assert_eq!(target.basis_gates, vec!["sx", "rz", "cx"]);
        assert_eq!(target.coupling_map.as_ref().unwrap().len(), 9);
    }

    #[test]
    fn listing4_matches_linear_target_constructor() {
        let ctx: ContextDescriptor = serde_json::from_str(LISTING_4).unwrap();
        let target = ctx.exec.unwrap().target.unwrap();
        let expected = Target::linear(10);
        assert_eq!(target.coupling_map, expected.coupling_map);
        assert_eq!(target.basis_gates, expected.basis_gates);
    }

    #[test]
    fn listing5_qec_block_parses() {
        let json = r#"
        {
            "$schema": "ctx.schema.json",
            "exec": { "engine": "gate.aer_simulator" },
            "qec": {
                "code_family": "surface",
                "distance": 7,
                "allocator": "auto",
                "logical_gate_set": ["H", "S", "CNOT", "T", "MEASURE_Z"]
            },
            "extensions": {}
        }"#;
        let ctx: ContextDescriptor = serde_json::from_str(json).unwrap();
        ctx.validate().unwrap();
        let qec = ctx.qec.as_ref().unwrap();
        assert_eq!(qec.code_family, "surface");
        assert_eq!(qec.distance, 7);
        assert_eq!(qec.allocator, "auto");
        assert_eq!(qec.logical_gate_set.len(), 5);
        assert_eq!(*qec, QecConfig::surface(7));
    }

    #[test]
    fn anneal_context_defaults() {
        let json = r#"{ "$schema": "ctx.schema.json", "exec": {"engine": "anneal.neal_simulator"}, "anneal": {"num_reads": 1000} }"#;
        let ctx: ContextDescriptor = serde_json::from_str(json).unwrap();
        ctx.validate().unwrap();
        assert_eq!(ctx.anneal.as_ref().unwrap().num_reads, 1000);
        assert_eq!(ctx.engine(), Some("anneal.neal_simulator"));
    }

    #[test]
    fn ring_target_has_wraparound_edge() {
        let t = Target::ring(4);
        let edges = t.coupling_map.unwrap();
        assert!(edges.contains(&(3, 0)));
        assert_eq!(edges.len(), 4);
    }

    #[test]
    fn invalid_optimization_level_rejected() {
        let exec = ExecConfig::new("gate.aer_simulator").with_optimization_level(7);
        assert!(exec.validate().is_err());
    }

    #[test]
    fn zero_samples_rejected() {
        let exec = ExecConfig::new("gate.aer_simulator").with_samples(0);
        assert!(exec.validate().is_err());
    }

    #[test]
    fn self_loop_coupling_rejected() {
        let t = Target {
            basis_gates: vec![],
            coupling_map: Some(vec![(2, 2)]),
            num_qubits: None,
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn coupling_exceeding_num_qubits_rejected() {
        let t = Target {
            basis_gates: vec![],
            coupling_map: Some(vec![(0, 5)]),
            num_qubits: Some(4),
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn even_qec_distance_rejected() {
        let mut qec = QecConfig::surface(7);
        qec.distance = 6;
        assert!(qec.validate().is_err());
    }

    #[test]
    fn bad_beta_range_rejected() {
        let mut cfg = AnnealConfig::with_reads(100);
        cfg.beta_range = Some((2.0, 1.0));
        assert!(cfg.validate().is_err());
        cfg.beta_range = Some((0.0, 1.0));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn context_round_trip_preserves_extensions() {
        let mut ctx = ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator")
                .with_samples(4096)
                .with_seed(42)
                .with_target(Target::ring(4))
                .with_optimization_level(2),
        );
        ctx.extensions
            .insert("pulse".into(), ParamValue::Map(Default::default()));
        let json = serde_json::to_string_pretty(&ctx).unwrap();
        let back: ContextDescriptor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ctx);
    }

    #[test]
    fn swapping_context_does_not_touch_intent_types() {
        // Portability claim at the type level: a context is a free-standing
        // artifact; building the anneal context never requires the gate one.
        let gate = ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator")
                .with_samples(4096)
                .with_seed(42),
        );
        let anneal =
            ContextDescriptor::for_anneal("anneal.neal_simulator", AnnealConfig::with_reads(1000));
        assert_ne!(gate, anneal);
        gate.validate().unwrap();
        anneal.validate().unwrap();
    }
}
