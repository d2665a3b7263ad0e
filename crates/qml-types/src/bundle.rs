//! Job bundles: packaging intent + context for submission (paper §4.4).
//!
//! "A packaging utility ... combine\[s\] the quantum data type, operators, and
//! optional context into a submission bundle (`job.json`)." A [`JobBundle`]
//! is that artifact. Its validation enforces the cross-descriptor rules the
//! paper requires of the algorithmic libraries: registers referenced by
//! operators must be declared, result schemas must match their registers, and
//! no operator may follow a measurement of the same register (the
//! "no hidden measurement/reset" non-interference rule).

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::bindings::BindingSet;
use crate::class::ServiceClass;
use crate::context::ContextDescriptor;
use crate::error::{QmlError, Result};
use crate::params::ParamValue;
use crate::qdt::QuantumDataType;
use crate::qod::OperatorDescriptor;

/// Name of the JSON Schema governing job bundles.
pub(crate) const JOB_SCHEMA: &str = "job.schema.json";

/// A complete, submittable middle-layer job: typed registers, an operator
/// descriptor sequence, and an optional execution context.
///
/// The program — the data types and the operators — is immutable and
/// `Arc`-shared: cloning a bundle bumps two reference counts instead of
/// copying its intent, so the members of a sweep point at one program
/// allocation and differ only in name, context, bindings, class and
/// metadata. To edit a program in place, use [`Arc::make_mut`], which copies
/// it first if another bundle shares it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobBundle {
    /// JSON Schema identifier used to validate this artifact.
    #[serde(rename = "$schema", default = "default_job_schema")]
    pub schema: String,
    /// Human-readable job name.
    pub name: String,
    /// Declared quantum data types (registers), shared by every clone.
    pub data_types: Arc<[QuantumDataType]>,
    /// Operator descriptor sequence, applied in order, shared by every clone.
    pub operators: Arc<[OperatorDescriptor]>,
    /// Optional execution context (policy). Intent stays valid without it.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub context: Option<ContextDescriptor>,
    /// Late-bound values for the operators' symbolic parameters. Carried
    /// **next to** the intent rather than substituted into it, so every
    /// binding of one sweep shares the same symbolic program (and the same
    /// cached transpilation plan); backends substitute at execute time.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub bindings: Option<BindingSet>,
    /// Scheduling class (policy, like the context): latency-critical with an
    /// optional deadline, or throughput-oriented (the default when absent).
    /// Excluded from every program hash — a latency job and a throughput job
    /// with identical intent share one transpiled plan.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub class: Option<ServiceClass>,
    /// Free-form metadata (provenance, workflow ids, ...).
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub metadata: BTreeMap<String, ParamValue>,
}

fn default_job_schema() -> String {
    JOB_SCHEMA.to_string()
}

/// FNV-1a 64-bit offset basis — the workspace-wide seed for every stable
/// cache-key fingerprint (program hashes, binding fingerprints, backend
/// schedule fingerprints). Shared so the byte-for-byte hashing rules live in
/// exactly one place.
pub fn fnv1a64_init() -> u64 {
    0xcbf2_9ce4_8422_2325
}

/// Fold bytes into an FNV-1a 64-bit hash started by [`fnv1a64_init`].
pub fn fnv1a64_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fold a sequence of 64-bit words into one FNV-1a hash — the shared helper
/// behind compound keys (batch keys, plan keys) built from other hashes.
pub fn fnv1a64_words(words: &[u64]) -> u64 {
    words.iter().fold(fnv1a64_init(), |hash, w| {
        fnv1a64_update(hash, &w.to_le_bytes())
    })
}

impl JobBundle {
    /// Create a bundle from intent artifacts, without a context.
    pub fn new(
        name: impl Into<String>,
        data_types: Vec<QuantumDataType>,
        operators: Vec<OperatorDescriptor>,
    ) -> Self {
        JobBundle {
            schema: JOB_SCHEMA.to_string(),
            name: name.into(),
            data_types: data_types.into(),
            operators: operators.into(),
            context: None,
            bindings: None,
            class: None,
            metadata: BTreeMap::new(),
        }
    }

    /// Attach (or replace) the execution context, builder-style. This is the
    /// only thing that changes when re-targeting a program: the intent
    /// artifacts are untouched.
    pub fn with_context(mut self, context: ContextDescriptor) -> Self {
        self.context = Some(context);
        self
    }

    /// Attach (or replace) the late-bound parameter values, builder-style.
    /// The operators keep their symbols; backends substitute at execute time.
    pub fn with_bindings(mut self, bindings: BindingSet) -> Self {
        self.bindings = Some(bindings);
        self
    }

    /// Set the scheduling class, builder-style. Like the context, the class
    /// is policy: it never changes what the program computes, only how the
    /// serving tier orders and batches it.
    pub fn with_service_class(mut self, class: ServiceClass) -> Self {
        self.class = Some(class);
        self
    }

    /// The effective scheduling class ([`ServiceClass::Throughput`] when
    /// none was set).
    pub fn service_class(&self) -> ServiceClass {
        self.class.unwrap_or_default()
    }

    /// Attach a metadata entry, builder-style.
    pub fn with_metadata(mut self, key: impl Into<String>, value: impl Into<ParamValue>) -> Self {
        self.metadata.insert(key.into(), value.into());
        self
    }

    /// Look up a declared register by id.
    pub fn find_qdt(&self, id: &str) -> Option<&QuantumDataType> {
        self.data_types.iter().find(|q| q.id == id)
    }

    /// Total width (in carriers) across all declared registers.
    pub fn total_width(&self) -> usize {
        self.data_types.iter().map(|q| q.width).sum()
    }

    /// Starting carrier offset of each register when registers are laid out
    /// contiguously in declaration order (used by gate backends to assign
    /// physical wires).
    pub fn register_offsets(&self) -> BTreeMap<String, usize> {
        let mut offsets = BTreeMap::new();
        let mut offset = 0usize;
        for qdt in self.data_types.iter() {
            offsets.insert(qdt.id.clone(), offset);
            offset += qdt.width;
        }
        offsets
    }

    /// Names of all unbound symbolic parameters across the operator sequence
    /// (sorted; ignores any attached [`BindingSet`]).
    pub fn unbound_symbols(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .operators
            .iter()
            .flat_map(|op| op.unbound_symbols())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The operators' symbolic parameters in **canonical order**: first
    /// appearance across the operator sequence (operators in program order,
    /// parameters in key order within each operator), deduplicated.
    ///
    /// This order is structural — it does not depend on the symbol *names* —
    /// so two programs that differ only in how their symbols are spelled
    /// assign the same canonical slot to corresponding parameters. It is the
    /// slot table of a parametric transpilation plan and the renaming basis
    /// of [`JobBundle::symbolic_program_hash`].
    pub fn canonical_symbols(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for op in self.operators.iter() {
            for value in op.params.entries.values() {
                for symbol in value.symbols() {
                    if seen.insert(symbol.clone()) {
                        out.push(symbol);
                    }
                }
            }
        }
        out
    }

    /// True if the named symbol appears in this bundle's operators **only**
    /// in continuous-angle parameter positions
    /// (`RepKind::is_angle_param`) — i.e.
    /// it can ride a [`BindingSet`] and be substituted into an
    /// already-transpiled parametric plan. A symbol used in any structural
    /// position (shape, edges, flags) — or not used at all — returns
    /// `false` and must be bound eagerly.
    pub fn symbol_is_angle_only(&self, name: &str) -> bool {
        let mut appears = false;
        for op in self.operators.iter() {
            for (key, value) in &op.params.entries {
                if value.symbols().iter().any(|s| s == name) {
                    if !op.rep_kind.is_angle_param(key) {
                        return false;
                    }
                    appears = true;
                }
            }
        }
        appears
    }

    /// Late binding: substitute symbolic parameters and return the bound
    /// bundle, with operators of its own and the data types still shared.
    /// Unknown symbols are left in place (call [`JobBundle::ensure_bound`]
    /// before submission).
    pub fn bind(&self, bindings: &BTreeMap<String, ParamValue>) -> JobBundle {
        JobBundle {
            operators: self.operators.iter().map(|op| op.bind(bindings)).collect(),
            ..self.clone()
        }
    }

    /// Eagerly substitute the attached [`BindingSet`] (if any) into the
    /// operators, returning a fully concrete bundle with no attached
    /// bindings — the "bind-first" form used by backends whose realization
    /// depends on parameter values (e.g. BQM lowering).
    pub fn resolved(&self) -> JobBundle {
        match &self.bindings {
            None => self.clone(),
            Some(bindings) => {
                let mut out = self.bind(&bindings.to_param_values());
                out.bindings = None;
                out
            }
        }
    }

    /// Error if any operator symbol is neither bound in place nor covered by
    /// the attached [`BindingSet`].
    pub fn ensure_bound(&self) -> Result<()> {
        let missing = self.unbound_symbols().into_iter().find(|name| {
            !self
                .bindings
                .as_ref()
                .is_some_and(|bindings| bindings.binds(name))
        });
        match missing {
            Some(first) => Err(QmlError::UnboundParameter(first)),
            None => Ok(()),
        }
    }

    /// Full cross-descriptor validation:
    ///
    /// 1. the name is non-empty and the schema is `JOB_SCHEMA`,
    /// 2. the context (if present) is valid,
    /// 3. every individual descriptor is structurally valid,
    /// 4. register ids are unique,
    /// 5. every operator references declared registers,
    /// 6. result schemas match the registers they read out,
    /// 7. **non-interference**: once a register has been measured, no further
    ///    operator may act on it (no hidden measurement/reset).
    ///
    /// Checks 1–2 are the member-level half, 3–7 the program-level half.
    pub fn validate(&self) -> Result<()> {
        self.validate_member()?;
        self.validate_program()
    }

    /// The member-level half of [`JobBundle::validate`]: name, schema and
    /// context.
    pub(crate) fn validate_member(&self) -> Result<()> {
        if self.name.trim().is_empty() {
            return Err(QmlError::Validation("job name must be non-empty".into()));
        }
        if self.schema != JOB_SCHEMA {
            return Err(QmlError::Validation(format!(
                "job bundle references unknown schema `{}` (expected `{JOB_SCHEMA}`)",
                self.schema
            )));
        }
        if let Some(ctx) = &self.context {
            ctx.validate()?;
        }
        Ok(())
    }

    /// The program-level half of [`JobBundle::validate`]: what depends only
    /// on the data types and operators.
    pub(crate) fn validate_program(&self) -> Result<()> {
        if self.data_types.is_empty() {
            return Err(QmlError::Validation(
                "job bundle must declare at least one quantum data type".into(),
            ));
        }
        let mut ids = BTreeSet::new();
        for qdt in self.data_types.iter() {
            qdt.validate()?;
            if !ids.insert(qdt.id.as_str()) {
                return Err(QmlError::Validation(format!(
                    "duplicate quantum data type id `{}`",
                    qdt.id
                )));
            }
        }

        let mut measured: BTreeSet<&str> = BTreeSet::new();
        for op in self.operators.iter() {
            op.validate()?;
            let domain = self
                .find_qdt(&op.domain_qdt)
                .ok_or_else(|| QmlError::UnknownRegister(op.domain_qdt.clone()))?;
            let codomain = self
                .find_qdt(&op.codomain_qdt)
                .ok_or_else(|| QmlError::UnknownRegister(op.codomain_qdt.clone()))?;
            op.check_registers(domain, codomain)?;

            for touched in [op.domain_qdt.as_str(), op.codomain_qdt.as_str()] {
                if measured.contains(touched) {
                    return Err(QmlError::Validation(format!(
                        "operator `{}` acts on register `{touched}` after it has been measured \
                         (non-interference rule)",
                        op.name
                    )));
                }
            }
            if op.rep_kind.is_measurement() {
                measured.insert(op.codomain_qdt.as_str());
            }
        }
        Ok(())
    }

    /// Hash of the declared data types and operator sequence, with an
    /// optional renaming applied to the operators' symbols.
    pub(crate) fn intent_hash(&self, rename: Option<&BTreeMap<String, ParamValue>>) -> u64 {
        let mut hash = fnv1a64_init();
        for qdt in self.data_types.iter() {
            let json = serde_json::to_string(qdt).unwrap_or_default();
            hash = fnv1a64_update(hash, json.as_bytes());
            hash = fnv1a64_update(hash, b"\x1f");
        }
        hash = fnv1a64_update(hash, b"\x1e");
        for op in self.operators.iter() {
            let renamed;
            let op = match rename {
                Some(map) => {
                    renamed = op.bind(map);
                    &renamed
                }
                None => op,
            };
            let json = serde_json::to_string(op).unwrap_or_default();
            hash = fnv1a64_update(hash, json.as_bytes());
            hash = fnv1a64_update(hash, b"\x1f");
        }
        hash
    }

    /// Stable 64-bit hash of the bundle's **realized program** — the declared
    /// data types, the operator sequence, and the attached [`BindingSet`]
    /// (when present) — excluding the execution context and free-form
    /// metadata.
    ///
    /// Two bundles with equal `program_hash` lower to identical circuits /
    /// quadratic models, so the hash is the program half of a realization
    /// cache key: re-submitting the same intent under a different context (or
    /// under the same context in a shot/seed sweep) can reuse the lowered
    /// artifact. The hash is computed over the canonical JSON encoding, so it
    /// is stable across processes and runs.
    pub fn program_hash(&self) -> u64 {
        self.program_hash_from(self.intent_hash(None))
    }

    /// [`JobBundle::program_hash`] from an already computed unrenamed intent
    /// hash: only the attached bindings are folded in here.
    pub(crate) fn program_hash_from(&self, intent: u64) -> u64 {
        match &self.bindings {
            Some(bindings) => {
                let hash = fnv1a64_update(intent, b"\x1d");
                fnv1a64_update(hash, &bindings.fingerprint().to_le_bytes())
            }
            None => intent,
        }
    }

    /// Stable 64-bit hash of the bundle's **symbolic program**: like
    /// [`JobBundle::program_hash`] but (i) excluding any attached
    /// [`BindingSet`] and (ii) with every symbol renamed to its canonical
    /// slot (`$0`, `$1`, ... in [`JobBundle::canonical_symbols`] order).
    ///
    /// Every point of a parameter sweep — and any two sweeps that differ only
    /// in symbol spelling — therefore shares one symbolic hash, which is what
    /// lets an N-point angle scan share a single parametric transpilation
    /// plan instead of transpiling N times.
    pub fn symbolic_program_hash(&self) -> u64 {
        self.symbolic_hash_with(&self.canonical_symbols())
    }

    /// [`JobBundle::symbolic_program_hash`] given this bundle's
    /// [`JobBundle::canonical_symbols`].
    pub(crate) fn symbolic_hash_with(&self, symbols: &[String]) -> u64 {
        if symbols.is_empty() {
            return self.intent_hash(None);
        }
        let rename: BTreeMap<String, ParamValue> = symbols
            .iter()
            .enumerate()
            .map(|(slot, name)| (name.clone(), ParamValue::symbol(format!("${slot}"))))
            .collect();
        self.intent_hash(Some(&rename))
    }

    /// Serialize to the `job.json` interchange form (pretty-printed).
    pub fn to_json(&self) -> Result<String> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parse a `job.json` artifact and validate it.
    pub fn from_json(json: &str) -> Result<Self> {
        let bundle: JobBundle = serde_json::from_str(json)?;
        bundle.validate()?;
        Ok(bundle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{AnnealConfig, ContextDescriptor, ExecConfig, Target};
    use crate::cost::CostHint;
    use crate::qod::RepKind;
    use crate::result_schema::ResultSchema;

    fn ising_qdt() -> QuantumDataType {
        QuantumDataType::ising_spins("ising_vars", "s", 4).unwrap()
    }

    fn prep(reg: &str) -> OperatorDescriptor {
        OperatorDescriptor::builder("prep", RepKind::PrepUniform, reg)
            .build()
            .unwrap()
    }

    fn measure(qdt: &QuantumDataType) -> OperatorDescriptor {
        OperatorDescriptor::builder("measure", RepKind::Measurement, &qdt.id)
            .result_schema(ResultSchema::for_register(qdt))
            .build()
            .unwrap()
    }

    fn simple_bundle() -> JobBundle {
        let qdt = ising_qdt();
        let ops = vec![prep("ising_vars"), measure(&qdt)];
        JobBundle::new("maxcut", vec![qdt], ops)
    }

    #[test]
    fn bundle_validates_and_round_trips() {
        let bundle = simple_bundle();
        bundle.validate().unwrap();
        let json = bundle.to_json().unwrap();
        let back = JobBundle::from_json(&json).unwrap();
        assert_eq!(back, bundle);
        assert!(json.contains("\"$schema\""));
    }

    #[test]
    fn unknown_register_rejected() {
        let qdt = ising_qdt();
        let ops = vec![prep("not_declared")];
        let bundle = JobBundle::new("bad", vec![qdt], ops);
        assert!(matches!(
            bundle.validate(),
            Err(QmlError::UnknownRegister(_))
        ));
    }

    #[test]
    fn duplicate_register_rejected() {
        let bundle = JobBundle::new("dup", vec![ising_qdt(), ising_qdt()], vec![]);
        assert!(bundle.validate().is_err());
    }

    #[test]
    fn empty_data_types_rejected() {
        let bundle = JobBundle::new("empty", vec![], vec![]);
        assert!(bundle.validate().is_err());
    }

    #[test]
    fn non_interference_rule_enforced() {
        let qdt = ising_qdt();
        let ops = vec![prep("ising_vars"), measure(&qdt), prep("ising_vars")];
        let bundle = JobBundle::new("post-measure", vec![qdt], ops);
        let err = bundle.validate().unwrap_err();
        assert!(err.to_string().contains("non-interference"), "{err}");
    }

    #[test]
    fn operating_on_other_register_after_measurement_is_fine() {
        let a = QuantumDataType::ising_spins("a", "a", 2).unwrap();
        let b = QuantumDataType::ising_spins("b", "b", 2).unwrap();
        let ops = vec![prep("a"), measure(&a), prep("b"), measure(&b)];
        let bundle = JobBundle::new("two-regs", vec![a, b], ops);
        bundle.validate().unwrap();
    }

    #[test]
    fn register_offsets_are_contiguous() {
        let a = QuantumDataType::ising_spins("a", "a", 3).unwrap();
        let b = QuantumDataType::int_register("b", "b", 5).unwrap();
        let bundle = JobBundle::new("layout", vec![a, b], vec![]);
        let offsets = bundle.register_offsets();
        assert_eq!(offsets["a"], 0);
        assert_eq!(offsets["b"], 3);
        assert_eq!(bundle.total_width(), 8);
    }

    #[test]
    fn context_swap_preserves_intent() {
        let bundle = simple_bundle();
        let gate = bundle.clone().with_context(ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator")
                .with_samples(4096)
                .with_seed(42)
                .with_target(Target::ring(4)),
        ));
        let anneal = bundle.clone().with_context(ContextDescriptor::for_anneal(
            "anneal.neal_simulator",
            AnnealConfig::with_reads(1000),
        ));
        gate.validate().unwrap();
        anneal.validate().unwrap();
        // The intent artifacts are bit-identical across both targets.
        assert_eq!(gate.data_types, anneal.data_types);
        assert_eq!(gate.operators, anneal.operators);
        assert_ne!(gate.context, anneal.context);
    }

    #[test]
    fn late_binding_round_trip() {
        let qdt = ising_qdt();
        let cost = OperatorDescriptor::builder("cost", RepKind::IsingCostPhase, "ising_vars")
            .param("gamma", ParamValue::symbol("gamma_0"))
            .cost_hint(CostHint::gates(4, 8))
            .build()
            .unwrap();
        let bundle = JobBundle::new("qaoa", vec![qdt], vec![cost]);
        assert_eq!(bundle.unbound_symbols(), vec!["gamma_0".to_string()]);
        assert!(bundle.ensure_bound().is_err());

        let mut bindings = BTreeMap::new();
        bindings.insert("gamma_0".to_string(), ParamValue::Float(0.9));
        let bound = bundle.bind(&bindings);
        bound.ensure_bound().unwrap();
        bound.validate().unwrap();
        // Binding never mutates the original (intent artifacts are immutable).
        assert!(bundle.ensure_bound().is_err());
    }

    #[test]
    fn invalid_context_rejected_at_bundle_level() {
        let bundle = simple_bundle().with_context(ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator").with_samples(0),
        ));
        assert!(bundle.validate().is_err());
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(JobBundle::from_json("{ not json").is_err());
        assert!(JobBundle::from_json("{}").is_err());
    }

    #[test]
    fn program_hash_ignores_context_and_metadata() {
        let bundle = simple_bundle();
        let with_ctx = bundle.clone().with_context(ContextDescriptor::for_anneal(
            "anneal.neal_simulator",
            AnnealConfig::with_reads(100),
        ));
        let with_meta = bundle.clone().with_metadata("workflow", "w");
        assert_eq!(bundle.program_hash(), with_ctx.program_hash());
        assert_eq!(bundle.program_hash(), with_meta.program_hash());
    }

    #[test]
    fn program_hash_sees_intent_changes() {
        let base = simple_bundle();
        let qdt = ising_qdt();
        let reordered = JobBundle::new("maxcut", vec![qdt.clone()], vec![measure(&qdt)]);
        assert_ne!(base.program_hash(), reordered.program_hash());

        // Binding a symbol changes the realized program, so it changes the hash.
        let cost = OperatorDescriptor::builder("cost", RepKind::IsingCostPhase, "ising_vars")
            .param("gamma", ParamValue::symbol("g"))
            .build()
            .unwrap();
        let symbolic = JobBundle::new("qaoa", vec![ising_qdt()], vec![cost]);
        let mut bindings = BTreeMap::new();
        bindings.insert("g".to_string(), ParamValue::Float(0.4));
        assert_ne!(
            symbolic.program_hash(),
            symbolic.bind(&bindings).program_hash()
        );
    }

    fn symbolic_qaoa_like(gamma_name: &str, beta_name: &str) -> JobBundle {
        let cost = OperatorDescriptor::builder("cost", RepKind::IsingCostPhase, "ising_vars")
            .param("gamma", ParamValue::symbol(gamma_name))
            .build()
            .unwrap();
        let mixer = OperatorDescriptor::builder("mixer", RepKind::MixerRx, "ising_vars")
            .param("beta", ParamValue::symbol(beta_name))
            .build()
            .unwrap();
        JobBundle::new("qaoa", vec![ising_qdt()], vec![cost, mixer])
    }

    #[test]
    fn canonical_symbols_follow_first_appearance() {
        let bundle = symbolic_qaoa_like("zz_gamma", "aa_beta");
        // Appearance order (cost layer first), not lexicographic order.
        assert_eq!(
            bundle.canonical_symbols(),
            vec!["zz_gamma".to_string(), "aa_beta".to_string()]
        );
        assert_eq!(
            bundle.unbound_symbols(),
            vec!["aa_beta".to_string(), "zz_gamma".to_string()]
        );
    }

    #[test]
    fn symbolic_hash_shared_across_bindings_and_spellings() {
        let bundle = symbolic_qaoa_like("gamma_0", "beta_0");
        let a = bundle.clone().with_bindings(
            crate::BindingSet::new()
                .with("gamma_0", 0.2)
                .with("beta_0", 0.3),
        );
        let b = bundle.clone().with_bindings(
            crate::BindingSet::new()
                .with("gamma_0", 0.9)
                .with("beta_0", 0.1),
        );
        // One symbolic program: every binding shares the hash...
        assert_eq!(a.symbolic_program_hash(), b.symbolic_program_hash());
        assert_eq!(a.symbolic_program_hash(), bundle.symbolic_program_hash());
        // ...while realized programs stay distinct.
        assert_ne!(a.program_hash(), b.program_hash());

        // Renamed symbols canonicalize to the same slot assignment.
        let renamed = symbolic_qaoa_like("g", "b");
        assert_eq!(
            renamed.symbolic_program_hash(),
            bundle.symbolic_program_hash()
        );
        // But a structurally different program does not collide.
        let swapped = symbolic_qaoa_like("beta_0", "gamma_0");
        assert_eq!(
            swapped.symbolic_program_hash(),
            bundle.symbolic_program_hash()
        );
        assert_ne!(
            symbolic_qaoa_like("gamma_0", "gamma_0").symbolic_program_hash(),
            bundle.symbolic_program_hash(),
            "sharing one symbol across layers is a different program shape"
        );
    }

    #[test]
    fn attached_bindings_satisfy_ensure_bound_and_resolve() {
        let bundle = symbolic_qaoa_like("gamma_0", "beta_0");
        assert!(bundle.ensure_bound().is_err());

        let partly = bundle
            .clone()
            .with_bindings(crate::BindingSet::new().with("gamma_0", 0.4));
        assert!(matches!(
            partly.ensure_bound(),
            Err(QmlError::UnboundParameter(name)) if name == "beta_0"
        ));

        let fully = bundle.with_bindings(
            crate::BindingSet::new()
                .with("gamma_0", 0.4)
                .with("beta_0", 0.3),
        );
        fully.ensure_bound().unwrap();

        let resolved = fully.resolved();
        assert!(resolved.bindings.is_none());
        assert!(resolved.unbound_symbols().is_empty());
        // Resolving matches eager binding through the legacy map API.
        let mut map = BTreeMap::new();
        map.insert("gamma_0".to_string(), ParamValue::Float(0.4));
        map.insert("beta_0".to_string(), ParamValue::Float(0.3));
        assert_eq!(resolved.operators, fully.bind(&map).operators);
        // program_hash of the resolved bundle is a concrete program hash.
        assert_eq!(resolved.program_hash(), resolved.symbolic_program_hash());
    }

    #[test]
    fn bindings_round_trip_through_json() {
        let bundle = symbolic_qaoa_like("gamma_0", "beta_0").with_bindings(
            crate::BindingSet::new()
                .with("gamma_0", 0.4)
                .with("beta_0", 0.3),
        );
        let json = bundle.to_json().unwrap();
        assert!(json.contains("bindings"));
        let back = JobBundle::from_json(&json).unwrap();
        assert_eq!(back, bundle);
        back.ensure_bound().unwrap();
    }

    #[test]
    fn metadata_round_trips() {
        let bundle = simple_bundle()
            .with_metadata("workflow", "maxcut-demo")
            .with_metadata("revision", 3);
        let json = bundle.to_json().unwrap();
        let back = JobBundle::from_json(&json).unwrap();
        assert_eq!(back.metadata.len(), 2);
    }
}
