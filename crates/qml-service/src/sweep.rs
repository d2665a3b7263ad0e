//! Parameter sweeps: one intent, many jobs — expanded server-side.
//!
//! A variational workflow (QAOA angle scans, seed restarts, shot-count
//! ladders) re-submits one program under many bindings and execution
//! policies. Shipping the full bundle once per point wastes validation and
//! transfer; a [`SweepRequest`] carries the intent **once** plus the
//! dimensions to vary, and the service expands it into concrete jobs. The
//! split mirrors the paper's separation of intent (operators) from policy
//! (context): bindings vary the intent's late-bound parameters, contexts vary
//! the execution policy.
//!
//! The intent is stored once on the service side too: a [`JobBundle`]'s
//! program is `Arc`-shared, so every member points at the base program's
//! allocation (or, when a structural binding rewrites the operators, at its
//! binding point's one new allocation), and each allocation is validated and
//! hashed once.

use std::collections::{BTreeMap, BTreeSet};

use qml_types::{
    BindingSet, ContextDescriptor, JobBundle, ParamValue, QmlError, Result, SealedBundle,
};

/// A sweep: one base bundle, N binding sets × M contexts.
///
/// Expansion is the cross product of binding sets and contexts, each
/// dimension defaulting to a single neutral element when empty (no bindings /
/// the base bundle's own context). Typical sweeps vary one dimension and
/// leave the other singular.
///
/// ```
/// use std::collections::BTreeMap;
/// use qml_service::SweepRequest;
/// use qml_algorithms::{qaoa_maxcut_program, QaoaSchedule};
/// use qml_graph::cycle;
/// use qml_types::{ContextDescriptor, ExecConfig, ParamValue, Target};
///
/// // One symbolic QAOA intent, three angle points, one context.
/// let template =
///     qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Symbolic { layers: 1 })?;
/// let mut sweep = SweepRequest::new("angle-scan", template).with_context(
///     ContextDescriptor::for_gate(
///         ExecConfig::new("gate.aer_simulator")
///             .with_samples(128)
///             .with_seed(7)
///             .with_target(Target::ring(4)),
///     ),
/// );
/// for gamma in [0.2, 0.4, 0.6] {
///     let mut point = BTreeMap::new();
///     point.insert("gamma_0".to_string(), ParamValue::Float(gamma));
///     point.insert("beta_0".to_string(), ParamValue::Float(0.3));
///     sweep = sweep.with_binding_set(point);
/// }
///
/// let jobs = sweep.expand()?;
/// assert_eq!(jobs.len(), 3);
/// // The points stay symbolic (values ride as BindingSets), so the whole
/// // sweep shares ONE symbolic program — and one cached transpiled plan.
/// assert!(jobs.iter().all(|j| j.bindings.is_some()));
/// assert!(jobs
///     .iter()
///     .all(|j| j.symbolic_program_hash() == jobs[0].symbolic_program_hash()));
/// # Ok::<(), qml_types::QmlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// Human-readable sweep name; expanded jobs are named `{name}#{index}`.
    pub name: String,
    /// The intent bundle (may carry unbound symbols and a default context).
    pub base: JobBundle,
    /// Parameter binding sets; empty means "bind nothing".
    pub binding_sets: Vec<BTreeMap<String, ParamValue>>,
    /// Execution contexts; empty means "keep the base bundle's context".
    pub contexts: Vec<ContextDescriptor>,
}

impl SweepRequest {
    /// A sweep over the given base bundle with no dimensions yet (expands to
    /// exactly one job).
    pub fn new(name: impl Into<String>, base: JobBundle) -> Self {
        SweepRequest {
            name: name.into(),
            base,
            binding_sets: Vec::new(),
            contexts: Vec::new(),
        }
    }

    /// Add one parameter binding set, builder-style.
    pub fn with_binding_set(mut self, bindings: BTreeMap<String, ParamValue>) -> Self {
        self.binding_sets.push(bindings);
        self
    }

    /// Add one execution context, builder-style.
    pub fn with_context(mut self, context: ContextDescriptor) -> Self {
        self.contexts.push(context);
        self
    }

    /// Number of jobs this sweep expands to.
    pub fn job_count(&self) -> usize {
        self.binding_sets.len().max(1) * self.contexts.len().max(1)
    }

    /// Expand into validated job bundles with **late-bound** parameters.
    ///
    /// The base bundle's symbolic operators are kept symbolic: each numeric
    /// binding set is attached as a [`BindingSet`] instead of being
    /// substituted into the operators, so every job of the sweep shares one
    /// symbolic program (`symbolic_program_hash`) and therefore one cached
    /// parametric transpilation plan — an N-point angle scan transpiles
    /// once. Non-numeric binding values (the rare structural case) are still
    /// substituted eagerly, since plans cannot stay symbolic in them.
    ///
    /// Every expanded job must be fully bound (in place or via its binding
    /// set) and pass cross-descriptor validation; the first violation rejects
    /// the whole sweep at submission time (jobs never fail on validation
    /// mid-batch).
    pub fn expand(&self) -> Result<Vec<JobBundle>> {
        Ok(self
            .expand_sealed()?
            .into_iter()
            .map(SealedBundle::into_bundle)
            .collect())
    }

    /// [`SweepRequest::expand`] into sealed bundles, the form
    /// [`QmlService::submit_sweep`](crate::QmlService::submit_sweep)
    /// submits. What depends only on the base program is derived once per
    /// sweep, not per member: the angle-only symbol set and the
    /// unbound-symbol list. The members share the base program's allocation
    /// (a structural binding makes one new allocation for its binding
    /// point), so [`SealedBundle::seal_sharing`] validates and hashes each
    /// program allocation once and checks only each member's name, schema
    /// and context.
    pub fn expand_sealed(&self) -> Result<Vec<SealedBundle>> {
        if self.name.trim().is_empty() {
            return Err(QmlError::Validation("sweep name must be non-empty".into()));
        }
        let neutral_binding = BTreeMap::new();
        let bindings: Vec<&BTreeMap<String, ParamValue>> = if self.binding_sets.is_empty() {
            vec![&neutral_binding]
        } else {
            self.binding_sets.iter().collect()
        };
        let contexts: Vec<Option<&ContextDescriptor>> = if self.contexts.is_empty() {
            vec![None]
        } else {
            self.contexts.iter().map(Some).collect()
        };
        // Only numeric values for symbols used purely as continuous angles
        // may ride late: a symbol in a structural position (approximation
        // degree, edge weight, flag) changes the lowered circuit's shape and
        // must be substituted before lowering.
        let angle_only: BTreeSet<String> = self
            .base
            .canonical_symbols()
            .into_iter()
            .filter(|name| self.base.symbol_is_angle_only(name))
            .collect();
        let base_unbound = self.base.unbound_symbols();

        let mut jobs: Vec<SealedBundle> = Vec::with_capacity(bindings.len() * contexts.len());
        let mut index = 0usize;
        for binding in &bindings {
            let mut late = BindingSet::from_param_values(binding);
            late.entries.retain(|name, _| angle_only.contains(name));
            let eager: BTreeMap<String, ParamValue> = binding
                .iter()
                .filter(|(name, _)| !late.binds(name))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            let bound_unbound;
            let (mut bound, unbound) = if eager.is_empty() {
                (self.base.clone(), &base_unbound)
            } else {
                let bound = self.base.bind(&eager);
                bound_unbound = bound.unbound_symbols();
                (bound, &bound_unbound)
            };
            if !late.is_empty() {
                bound = bound.with_bindings(late);
            }
            // Whether a job is fully bound does not depend on its context.
            let missing = unbound.iter().find(|name| {
                !bound
                    .bindings
                    .as_ref()
                    .is_some_and(|bindings| bindings.binds(name))
            });
            for context in &contexts {
                let mut job = match context {
                    Some(ctx) => bound.clone().with_context((*ctx).clone()),
                    None => bound.clone(),
                };
                job.name = format!("{}#{}", self.name, index);
                let job = job
                    .with_metadata("sweep", self.name.clone())
                    .with_metadata("sweep_index", index as i64);
                let job = match jobs.last() {
                    Some(sibling) => SealedBundle::seal_sharing(job, sibling)?,
                    None => SealedBundle::seal(job)?,
                };
                if let Some(name) = missing {
                    return Err(QmlError::Validation(format!(
                        "sweep `{}` job {index} still has unbound symbols: {}",
                        self.name,
                        QmlError::UnboundParameter(name.clone())
                    )));
                }
                jobs.push(job);
                index += 1;
            }
        }
        Ok(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qml_algorithms::{qaoa_maxcut_program, QaoaSchedule, RING_P1_ANGLES};
    use qml_graph::cycle;
    use qml_types::{AnnealConfig, ExecConfig, Target};

    fn fixed_program() -> JobBundle {
        qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap()
    }

    fn symbolic_program() -> JobBundle {
        qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Symbolic { layers: 1 }).unwrap()
    }

    fn gate_context(seed: u64) -> ContextDescriptor {
        ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator")
                .with_samples(64)
                .with_seed(seed)
                .with_target(Target::ring(4)),
        )
    }

    fn angle_binding(gamma: f64) -> BTreeMap<String, ParamValue> {
        let mut b = BTreeMap::new();
        b.insert("gamma_0".to_string(), ParamValue::Float(gamma));
        b.insert("beta_0".to_string(), ParamValue::Float(0.3));
        b
    }

    #[test]
    fn bare_sweep_expands_to_one_job() {
        let sweep = SweepRequest::new("single", fixed_program());
        let jobs = sweep.expand().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].name, "single#0");
        assert_eq!(sweep.job_count(), 1);
    }

    #[test]
    fn context_sweep_preserves_intent() {
        let mut sweep = SweepRequest::new("seeds", fixed_program());
        for seed in 0..3 {
            sweep = sweep.with_context(gate_context(seed));
        }
        let jobs = sweep.expand().unwrap();
        assert_eq!(jobs.len(), 3);
        let hash = jobs[0].program_hash();
        assert!(jobs.iter().all(|j| j.program_hash() == hash));
        assert!(jobs.iter().all(|j| j.metadata.contains_key("sweep")));
    }

    #[test]
    fn binding_cross_context_expansion() {
        let sweep = SweepRequest::new("grid", symbolic_program())
            .with_binding_set(angle_binding(0.2))
            .with_binding_set(angle_binding(0.4))
            .with_context(gate_context(0))
            .with_context(gate_context(1))
            .with_context(gate_context(2));
        assert_eq!(sweep.job_count(), 6);
        let jobs = sweep.expand().unwrap();
        assert_eq!(jobs.len(), 6);
        // Two distinct realized programs (one per binding), three contexts
        // each — but the jobs stay symbolic with attached binding sets...
        let distinct: std::collections::BTreeSet<u64> =
            jobs.iter().map(|j| j.program_hash()).collect();
        assert_eq!(distinct.len(), 2);
        assert!(jobs.iter().all(|j| j.bindings.is_some()));
        // ...so all six share ONE symbolic program (= one transpiled plan).
        let symbolic: std::collections::BTreeSet<u64> =
            jobs.iter().map(|j| j.symbolic_program_hash()).collect();
        assert_eq!(symbolic.len(), 1);
        // Names enumerate in expansion order.
        assert_eq!(jobs[5].name, "grid#5");
    }

    #[test]
    fn expansion_keeps_the_base_symbolic() {
        let sweep = SweepRequest::new("late", symbolic_program())
            .with_binding_set(angle_binding(0.7))
            .with_context(gate_context(3));
        let jobs = sweep.expand().unwrap();
        assert_eq!(jobs.len(), 1);
        // Operators still carry their symbols; the values ride alongside.
        assert_eq!(
            jobs[0].unbound_symbols(),
            vec!["beta_0".to_string(), "gamma_0".to_string()]
        );
        let bindings = jobs[0].bindings.as_ref().unwrap();
        assert_eq!(bindings.get("gamma_0"), Some(0.7));
        assert_eq!(bindings.get("beta_0"), Some(0.3));
        jobs[0].ensure_bound().unwrap();
    }

    #[test]
    fn unbound_sweep_rejected_at_expansion() {
        let sweep = SweepRequest::new("oops", symbolic_program()).with_context(gate_context(0));
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("unbound"), "{err}");
    }

    #[test]
    fn structural_symbols_bind_eagerly_even_when_numeric() {
        // A symbol in a structural position (QFT approximation degree) must
        // be substituted into the operators, not carried as a late binding —
        // late binding only works for continuous angles.
        let mut base =
            qml_algorithms::qft_program(4, qml_algorithms::QftParams::default()).unwrap();
        std::sync::Arc::make_mut(&mut base.operators)[0]
            .params
            .insert("approx_degree", ParamValue::symbol("d"));
        let mut binding = BTreeMap::new();
        binding.insert("d".to_string(), ParamValue::Int(2));
        let jobs = SweepRequest::new("shape", base)
            .with_binding_set(binding)
            .expand()
            .unwrap();
        assert!(jobs[0].bindings.is_none(), "no late binding for shapes");
        assert!(jobs[0].unbound_symbols().is_empty(), "eagerly substituted");
        assert_eq!(
            jobs[0].operators[0]
                .params
                .require_u64("approx_degree")
                .unwrap(),
            2
        );
    }

    #[test]
    fn anneal_context_sweep_expands() {
        let bundle = qml_algorithms::maxcut_ising_program(&cycle(4)).unwrap();
        let sweep = SweepRequest::new("reads", bundle)
            .with_context(ContextDescriptor::for_anneal(
                "anneal.neal_simulator",
                AnnealConfig::with_reads(50),
            ))
            .with_context(ContextDescriptor::for_anneal(
                "anneal.neal_simulator",
                AnnealConfig::with_reads(100),
            ));
        assert_eq!(sweep.expand().unwrap().len(), 2);
    }
}
