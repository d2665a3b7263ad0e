//! The gate-model backend: the repository's stand-in for the paper's
//! "IBM Qiskit Aer" execution path (Fig. 2).
//!
//! Pipeline: lower the bundle's operator descriptors to a circuit, transpile
//! it against the context's `target` block (basis gates, coupling map,
//! optimization level), run the state-vector simulator for the requested
//! number of shots with the requested seed, and report the counts; callers
//! decode them on demand through the measurement descriptor's explicit result
//! schema, which lowering checks once per plan. If the context carries a
//! `qec` block, the orthogonal QEC service contributes a resource estimate —
//! without changing the program's semantics.

use std::borrow::Cow;

use qml_qec::QecService;
use qml_sim::{Simulator, MAX_QUBITS};
use qml_transpile::{transpile, CouplingMap, TranspileTarget};
use qml_types::{
    ContextDescriptor, CostHint, ExecConfig, JobBundle, QmlError, Result, SealedBundle, Target,
};

use crate::cache::{GatePlan, GatePlanKey, TranspileCache};
use crate::lowering::lower_to_circuit;
use crate::results::ExecutionResult;
use crate::traits::{Backend, PlanFetch};

/// Default engine identifier served by [`GateBackend`].
pub(crate) const DEFAULT_GATE_ENGINE: &str = "gate.statevector_simulator";

/// Execution defaults used when a bundle carries no context: an ideal
/// all-to-all simulator with 1024 shots and seed 0.
fn default_exec() -> ExecConfig {
    ExecConfig::new(DEFAULT_GATE_ENGINE).with_seed(0)
}

/// Convert the context's device target into a transpilation target.
fn to_transpile_target(target: &Target, circuit_width: usize) -> TranspileTarget {
    let coupling_map = target.coupling_map.as_ref().map(|edges| {
        let min_qubits = target.num_qubits.unwrap_or(0).max(circuit_width);
        CouplingMap::new(edges, min_qubits)
    });
    TranspileTarget {
        basis_gates: target.basis_gates.clone(),
        coupling_map,
    }
}

/// The gate-model simulator backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct GateBackend;

impl GateBackend {
    /// Create a gate backend.
    pub fn new() -> Self {
        GateBackend
    }

    /// The sealed bundle's exec policy, defaulted when it has none, if this
    /// backend serves its engine. Sealing validated the context already.
    fn prepare<'a>(&self, bundle: &'a SealedBundle) -> Result<Cow<'a, ExecConfig>> {
        let exec = match bundle.context.as_ref().and_then(|c| c.exec.as_ref()) {
            Some(exec) => Cow::Borrowed(exec),
            None => Cow::Owned(default_exec()),
        };
        if !self.supports_engine(&exec.engine) {
            return Err(QmlError::Unsupported(format!(
                "gate backend cannot serve engine `{}`",
                exec.engine
            )));
        }
        Ok(exec)
    }

    /// The device target the exec policy resolves to.
    fn transpile_target(bundle: &JobBundle, exec: &ExecConfig) -> TranspileTarget {
        exec.target
            .as_ref()
            .map(|t| to_transpile_target(t, bundle.total_width()))
            .unwrap_or_else(TranspileTarget::ideal)
    }

    /// The deterministic realization phase: lower the intent — **symbols
    /// intact** — to a circuit and transpile it against the target. Pure in
    /// `(symbolic intent, target, level)`, so its output is what the
    /// [`TranspileCache`] memoizes and every binding of a sweep shares.
    ///
    /// A plan wider than the simulator's [`MAX_QUBITS`] is an error here, so
    /// it is never cached and never reaches a state vector. The transpiled
    /// width decides: routing widens a small program to its target's
    /// physical qubits.
    fn build_plan(bundle: &JobBundle, exec: &ExecConfig) -> Result<GatePlan> {
        let lowered = lower_to_circuit(bundle)?;
        let target = Self::transpile_target(bundle, exec);
        let transpiled = transpile(&lowered.circuit, &target, exec.options.optimization_level)
            .map_err(|e| QmlError::Unsupported(format!("transpilation failed: {e}")))?;
        let width = transpiled.circuit.num_qubits();
        if width > MAX_QUBITS {
            return Err(QmlError::Unsupported(format!(
                "the transpiled circuit is {width} qubits wide; the state-vector simulator \
                 holds at most {MAX_QUBITS}"
            )));
        }
        Ok(GatePlan::new(
            transpiled.circuit,
            lowered.symbols,
            transpiled.metrics,
            lowered.register,
            lowered.schema,
        ))
    }

    /// The per-job binding values for a plan, in slot order: the bundle's
    /// own canonical symbols looked up in its attached
    /// [`BindingSet`](qml_types::BindingSet). Positional, so a plan built
    /// from a differently-spelled (but canonically equal) program binds
    /// correctly.
    fn binding_values(bundle: &SealedBundle, plan: &GatePlan) -> Result<Vec<f64>> {
        let symbols = bundle.canonical_symbols();
        if symbols.len() != plan.symbols.len() {
            return Err(QmlError::Validation(format!(
                "bundle has {} symbolic parameters but the plan expects {}",
                symbols.len(),
                plan.symbols.len()
            )));
        }
        if symbols.is_empty() {
            return Ok(Vec::new());
        }
        match &bundle.bindings {
            Some(bindings) => bindings.values_for(symbols),
            None => Err(QmlError::UnboundParameter(symbols[0].clone())),
        }
    }

    /// The plan-cache key of a sealed bundle under its exec policy.
    fn plan_key(bundle: &SealedBundle, exec: &ExecConfig) -> GatePlanKey {
        GatePlanKey {
            program: bundle.symbolic_program_hash(),
            target: Self::transpile_target(bundle, exec).fingerprint(),
            optimization_level: exec.options.optimization_level,
        }
    }

    /// The policy-dependent phase: bind the plan's slot table with the
    /// bundle's late parameter values as a zero-copy overlay (O(#sites), no
    /// circuit copy, no re-transpilation), sample the bound view through the
    /// worker's shared scratch buffers, and report the counts. Decoding is
    /// left to callers: the plan's schema was checked when it was built.
    fn run_plan(
        &self,
        bundle: &SealedBundle,
        exec: &ExecConfig,
        plan: &GatePlan,
    ) -> Result<ExecutionResult> {
        let values = Self::binding_values(bundle, plan)?;
        // Concrete plans execute the shared plan circuit directly; parametric
        // plans pay only the O(#sites) overlay — never a gate-vector copy.
        let bound = plan.bind_overlay(&values)?;
        // An unseeded job derives its seed from the realized program instead
        // of a flat 0: two distinct unseeded programs (e.g. the points of a
        // sweep, which differ in their binding fingerprints) must not share
        // sampling noise. Deterministic and cache-transparent — re-running
        // the same unseeded bundle reproduces its counts exactly.
        let seed = exec.seed.unwrap_or_else(|| bundle.program_hash());
        let sim = Simulator::new();
        let run = qml_sim::with_thread_scratch(|scratch| {
            sim.run_view_with_scratch(&bound, exec.samples, seed, scratch)
        })
        .map_err(|e| QmlError::Validation(format!("cannot sample bound circuit: {e}")))?;

        // Orthogonal QEC service (advisory resource estimate only).
        let qec_estimate = bundle
            .context
            .as_ref()
            .and_then(|context| context.qec.as_ref())
            .map(|config| {
                QecService::from_config(config).map(|service| {
                    let realized_cost = CostHint::gates(
                        plan.metrics.two_qubit_gates as u64,
                        plan.metrics.depth as u64,
                    )
                    .with_oneq(plan.metrics.single_qubit_gates as u64);
                    service.estimate(bundle.total_width(), Some(&realized_cost))
                })
            })
            .transpose()?;

        Ok(ExecutionResult {
            backend: self.name().to_string(),
            engine: exec.engine.clone(),
            register: plan.register.id.clone(),
            shots: exec.samples,
            counts: run.counts,
            gate_metrics: Some(plan.metrics),
            energy_stats: None,
            qec_estimate,
        })
    }
}

impl Backend for GateBackend {
    fn name(&self) -> &str {
        "qml-gate-simulator"
    }

    fn supports_engine(&self, engine: &str) -> bool {
        engine.starts_with("gate.")
    }

    fn default_engine(&self) -> &str {
        DEFAULT_GATE_ENGINE
    }

    /// Prepare the exec policy, fetch the plan — keyed on the *symbolic*
    /// program hash, so every binding set of a sweep and any re-spelling of
    /// its symbols shares one parametric plan — and bind and sample it.
    fn execute_sealed(
        &self,
        bundle: &SealedBundle,
        cache: &TranspileCache,
    ) -> (Result<ExecutionResult>, Option<PlanFetch>) {
        let fetched = self.prepare(bundle).and_then(|exec| {
            let key = Self::plan_key(bundle, &exec);
            let build = || Self::build_plan(bundle, &exec);
            let (plan, fetch) = PlanFetch::time(|| cache.gate_plan_traced(key, build))?;
            Ok((exec, plan, fetch))
        });
        match fetched {
            Ok((exec, plan, fetch)) => (self.run_plan(bundle, &exec, &plan), Some(fetch)),
            Err(err) => (Err(err), None),
        }
    }

    /// Gate bundles share a batch key when they share a realized plan: the
    /// batch key is exactly the plan-cache key (symbolic program × target
    /// fingerprint × optimization level). Bundles this backend cannot serve
    /// return `None` and dispatch solo.
    fn batch_key(&self, bundle: &SealedBundle) -> Option<u64> {
        let exec = self.prepare(bundle).ok()?;
        let key = Self::plan_key(bundle, &exec);
        Some(qml_types::bundle::fnv1a64_words(&[
            key.program,
            key.target,
            u64::from(key.optimization_level),
        ]))
    }
}

/// Convenience: the Listing-4 style context for this backend — Aer-like
/// engine, 4096 samples, seed 42, hardware basis on the given coupling map,
/// optimization level 2.
pub fn listing4_context(target: Target) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(4096)
            .with_seed(42)
            .with_target(target)
            .with_optimization_level(2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::TranspileCache;
    use qml_algorithms::{
        qaoa_maxcut_program, qft_program, QaoaSchedule, QftParams, RING_P1_ANGLES,
    };
    use qml_graph::{cut_value_of_bitstring, cycle};
    use qml_types::{AnnealConfig, QecConfig};

    fn qaoa_bundle() -> JobBundle {
        qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap()
    }

    #[test]
    fn fig2_gate_path_end_to_end() {
        // The paper's Fig. 2 workflow: QAOA bundle + ring-coupled Aer context.
        let bundle = qaoa_bundle().with_context(listing4_context(Target::ring(4)));
        let result = GateBackend::new().execute(&bundle).unwrap();
        assert_eq!(result.shots, 4096);
        assert_eq!(result.engine, "gate.aer_simulator");
        assert_eq!(result.register, "ising_vars");
        assert_eq!(result.counts.values().sum::<u64>(), 4096);
        // The transpiled circuit respects the hardware basis.
        let metrics = result.gate_metrics.unwrap();
        assert!(metrics.two_qubit_gates >= 8, "4 ZZ couplings → ≥ 8 CX");
        // The optimal cuts are the two most likely outcomes among cut values.
        let graph = cycle(4);
        let expected_cut = result.expectation(|word| cut_value_of_bitstring(&graph, word));
        assert!(
            expected_cut > 2.0,
            "QAOA must beat the random baseline of 2.0, got {expected_cut}"
        );
    }

    #[test]
    fn default_context_is_ideal_simulator() {
        let result = GateBackend::new().execute(&qaoa_bundle()).unwrap();
        assert_eq!(result.engine, DEFAULT_GATE_ENGINE);
        assert_eq!(result.shots, 1024);
        assert_eq!(result.gate_metrics.unwrap().swaps_inserted, 0);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let bundle = qaoa_bundle().with_context(listing4_context(Target::ring(4)));
        let backend = GateBackend::new();
        let a = backend.execute(&bundle).unwrap();
        let b = backend.execute(&bundle).unwrap();
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn qft_listing1_runs_through_the_middle_layer() {
        let bundle = qft_program(10, QftParams::default())
            .unwrap()
            .with_context(listing4_context(Target::linear(10)));
        let result = GateBackend::new().execute(&bundle).unwrap();
        assert_eq!(result.counts.values().sum::<u64>(), 4096);
        let metrics = result.gate_metrics.unwrap();
        assert!(metrics.swaps_inserted > 0, "linear coupling forces routing");
        assert!(metrics.two_qubit_gates >= 45);
    }

    #[test]
    fn anneal_engine_rejected() {
        let bundle = qaoa_bundle().with_context(ContextDescriptor::for_anneal(
            "anneal.neal_simulator",
            AnnealConfig::with_reads(10),
        ));
        assert!(matches!(
            GateBackend::new().execute(&bundle),
            Err(QmlError::Unsupported(_))
        ));
    }

    #[test]
    fn qec_context_adds_resource_estimate_without_changing_counts() {
        let plain = qaoa_bundle().with_context(listing4_context(Target::ring(4)));
        let with_qec = qaoa_bundle()
            .with_context(listing4_context(Target::ring(4)).with_qec(QecConfig::surface(7)));
        let backend = GateBackend::new();
        let a = backend.execute(&plain).unwrap();
        let b = backend.execute(&with_qec).unwrap();
        assert_eq!(a.counts, b.counts, "QEC context must not change semantics");
        assert!(a.qec_estimate.is_none());
        let estimate = b.qec_estimate.unwrap();
        assert_eq!(estimate.logical_qubits, 4);
        assert!(estimate.physical_qubits >= 4 * 97);
    }

    #[test]
    fn unknown_qec_family_is_an_error_not_a_silent_ignore() {
        let mut qec = QecConfig::surface(7);
        qec.code_family = "fancy-new-code".into();
        let bundle = qaoa_bundle().with_context(listing4_context(Target::ring(4)).with_qec(qec));
        assert!(GateBackend::new().execute(&bundle).is_err());
    }

    #[test]
    fn estimate_cost_positive_for_qaoa() {
        assert!(GateBackend::new().estimate_cost(&qaoa_bundle()) > 0.0);
    }

    #[test]
    fn cached_execution_matches_uncached_and_counts_hits() {
        let bundle = qaoa_bundle().with_context(listing4_context(Target::ring(4)));
        let backend = GateBackend::new();
        let cache = TranspileCache::new();

        let direct = backend.execute(&bundle).unwrap();
        let cold = backend.execute_cached(&bundle, &cache).unwrap();
        let warm = backend.execute_cached(&bundle, &cache).unwrap();
        assert_eq!(
            direct.counts, cold.counts,
            "cache must not change semantics"
        );
        assert_eq!(cold, warm, "warm run must reproduce the cold run exactly");

        let stats = cache.gate_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn cache_distinguishes_targets_and_levels() {
        let backend = GateBackend::new();
        let cache = TranspileCache::new();
        let ring = qaoa_bundle().with_context(listing4_context(Target::ring(4)));
        let line = qaoa_bundle().with_context(listing4_context(Target::linear(4)));
        backend.execute_cached(&ring, &cache).unwrap();
        backend.execute_cached(&line, &cache).unwrap();
        assert_eq!(
            cache.gate_stats().entries,
            2,
            "different targets, different plans"
        );

        let level0 = qaoa_bundle().with_context(ContextDescriptor::for_gate(
            ExecConfig::new("gate.aer_simulator")
                .with_samples(64)
                .with_seed(1)
                .with_target(Target::ring(4))
                .with_optimization_level(0),
        ));
        backend.execute_cached(&level0, &cache).unwrap();
        assert_eq!(
            cache.gate_stats().entries,
            3,
            "optimization level is part of the key"
        );
    }

    #[test]
    fn cache_shared_across_shots_and_seeds() {
        // A parameter sweep re-submits the same intent with varying sampling
        // policy: only the first submission may transpile.
        let backend = GateBackend::new();
        let cache = TranspileCache::new();
        for (samples, seed) in [(64, 0u64), (128, 1), (256, 2), (512, 3)] {
            let bundle = qaoa_bundle().with_context(ContextDescriptor::for_gate(
                ExecConfig::new("gate.aer_simulator")
                    .with_samples(samples)
                    .with_seed(seed)
                    .with_target(Target::ring(4))
                    .with_optimization_level(2),
            ));
            let result = backend.execute_cached(&bundle, &cache).unwrap();
            assert_eq!(result.shots, samples);
        }
        let stats = cache.gate_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
    }
}
