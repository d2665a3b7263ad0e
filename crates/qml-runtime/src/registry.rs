//! Backend registry and cost-hint based scheduling.
//!
//! The paper's motivational example argues that without cost metadata "a
//! scheduler cannot choose an appropriate backend and topology" (§2). The
//! [`BackendRegistry`] holds every available backend; the [`Scheduler`] picks
//! one for a bundle — honouring an explicit engine request from the context
//! when present, and otherwise ranking candidate backends by the bundle's
//! aggregated cost hints (the HPC-scheduler analogy).

use std::cmp::Ordering;
use std::sync::Arc;

use qml_backends::Backend;
use qml_types::{JobBundle, QmlError, RepKind, Result};

/// A shared, thread-safe collection of registered backends.
#[derive(Clone, Default)]
pub struct BackendRegistry {
    backends: Vec<Arc<dyn Backend>>,
}

impl std::fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("backends", &self.names())
            .finish()
    }
}

impl BackendRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        BackendRegistry::default()
    }

    /// A registry with the two built-in backends (gate simulator + annealer).
    pub fn with_default_backends() -> Self {
        let mut registry = BackendRegistry::new();
        registry.register(Arc::new(qml_backends::GateBackend::new()));
        registry.register(Arc::new(qml_backends::AnnealBackend::new()));
        registry
    }

    /// Register a backend.
    pub fn register(&mut self, backend: Arc<dyn Backend>) {
        self.backends.push(backend);
    }

    /// Names of all registered backends, in registration order.
    pub(crate) fn names(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.name().to_string()).collect()
    }

    /// True if no backend is registered.
    pub(crate) fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// All registered backends.
    pub fn backends(&self) -> &[Arc<dyn Backend>] {
        &self.backends
    }

    /// The first backend that serves the given engine identifier.
    pub(crate) fn find_for_engine(&self, engine: &str) -> Option<Arc<dyn Backend>> {
        self.backends
            .iter()
            .find(|b| b.supports_engine(engine))
            .cloned()
    }
}

/// Cost-hint based backend selection.
#[derive(Clone, Debug, Default)]
pub struct Scheduler {
    registry: BackendRegistry,
}

/// The scheduling decision: which backend will run the bundle and why.
#[derive(Clone)]
pub struct Placement {
    /// The selected backend.
    pub backend: Arc<dyn Backend>,
    /// The engine the bundle will run under.
    pub engine: String,
    /// The scheduler's cost estimate for this placement.
    pub estimated_cost: f64,
}

impl std::fmt::Debug for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Placement")
            .field("backend", &self.backend.name())
            .field("engine", &self.engine)
            .field("estimated_cost", &self.estimated_cost)
            .finish()
    }
}

impl Scheduler {
    /// A scheduler over the given registry.
    pub fn new(registry: BackendRegistry) -> Self {
        Scheduler { registry }
    }

    /// The registry this scheduler draws from.
    pub fn registry(&self) -> &BackendRegistry {
        &self.registry
    }

    /// Does a bundle's operator mix match what a backend family can realize?
    /// Annealing backends only realize `ISING_PROBLEM`; gate backends realize
    /// everything except it.
    fn family_matches(bundle: &JobBundle, backend: &Arc<dyn Backend>) -> bool {
        let has_problem = bundle
            .operators
            .iter()
            .any(|op| op.rep_kind == RepKind::IsingProblem);
        let family = backend.default_engine().split('.').next().unwrap_or("");
        match family {
            "anneal" => has_problem,
            "gate" => !has_problem,
            _ => true,
        }
    }

    /// Choose a backend for a bundle.
    ///
    /// * If the context names an engine, the first backend supporting it wins
    ///   (the user's policy is explicit; the scheduler does not second-guess).
    /// * Otherwise every family-compatible backend is ranked by
    ///   [`Backend::estimate_cost`] — the descriptor cost hints — and the
    ///   cheapest placement wins (the first registered among equals; a NaN
    ///   estimate ranks behind every number).
    pub fn place(&self, bundle: &JobBundle) -> Result<Placement> {
        if self.registry.is_empty() {
            return Err(QmlError::Unsupported("no backends registered".into()));
        }
        if let Some(engine) = bundle.context.as_ref().and_then(|c| c.engine()) {
            let backend = self.registry.find_for_engine(engine).ok_or_else(|| {
                QmlError::Unsupported(format!("no registered backend serves engine `{engine}`"))
            })?;
            let estimated_cost = backend.estimate_cost(bundle);
            return Ok(Placement {
                backend,
                engine: engine.to_string(),
                estimated_cost,
            });
        }

        // The first cheapest candidate wins; a NaN estimate ranks last
        // rather than aborting the ranking.
        let rank = |p: &Placement| {
            if p.estimated_cost.is_nan() {
                f64::INFINITY
            } else {
                p.estimated_cost
            }
        };
        self.registry
            .backends()
            .iter()
            .filter(|b| Self::family_matches(bundle, b))
            .map(|b| Placement {
                backend: b.clone(),
                engine: b.default_engine().to_string(),
                estimated_cost: b.estimate_cost(bundle),
            })
            .min_by(|a, b| rank(a).partial_cmp(&rank(b)).unwrap_or(Ordering::Equal))
            .ok_or_else(|| {
                QmlError::Unsupported("no registered backend can realize this bundle".into())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qml_algorithms::{maxcut_ising_program, qaoa_maxcut_program, QaoaSchedule, RING_P1_ANGLES};
    use qml_graph::cycle;
    use qml_types::{AnnealConfig, ContextDescriptor, ExecConfig};

    fn scheduler() -> Scheduler {
        Scheduler::new(BackendRegistry::with_default_backends())
    }

    #[test]
    fn registry_lists_default_backends() {
        let registry = BackendRegistry::with_default_backends();
        assert_eq!(registry.backends.len(), 2);
        assert!(registry.find_for_engine("gate.aer_simulator").is_some());
        assert!(registry.find_for_engine("anneal.neal_simulator").is_some());
        assert!(registry.find_for_engine("pulse.qblox").is_none());
    }

    #[test]
    fn explicit_engine_wins() {
        let bundle = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
            .unwrap()
            .with_context(ContextDescriptor::for_gate(
                ExecConfig::new("gate.aer_simulator")
                    .with_samples(128)
                    .with_seed(1),
            ));
        let placement = scheduler().place(&bundle).unwrap();
        assert_eq!(placement.engine, "gate.aer_simulator");
        assert_eq!(placement.backend.name(), "qml-gate-simulator");
    }

    #[test]
    fn unknown_engine_is_an_error() {
        let bundle = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
            .unwrap()
            .with_context(ContextDescriptor::for_gate(ExecConfig::new("cv.gaussian")));
        assert!(matches!(
            scheduler().place(&bundle),
            Err(QmlError::Unsupported(_))
        ));
    }

    #[test]
    fn contextless_qaoa_bundle_goes_to_the_gate_backend() {
        let bundle =
            qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap();
        let placement = scheduler().place(&bundle).unwrap();
        assert_eq!(placement.backend.name(), "qml-gate-simulator");
        assert!(placement.estimated_cost > 0.0);
    }

    #[test]
    fn contextless_ising_bundle_goes_to_the_annealer() {
        let bundle = maxcut_ising_program(&cycle(4)).unwrap();
        let placement = scheduler().place(&bundle).unwrap();
        assert_eq!(placement.backend.name(), "qml-simulated-annealer");
    }

    #[test]
    fn placed_backend_executes_the_bundle() {
        let bundle =
            maxcut_ising_program(&cycle(4))
                .unwrap()
                .with_context(ContextDescriptor::for_anneal(
                    "anneal.neal_simulator",
                    AnnealConfig::with_reads(100),
                ));
        let placement = scheduler().place(&bundle).unwrap();
        let result = placement.backend.execute(&bundle).unwrap();
        assert_eq!(result.shots, 100);
        assert_eq!(result.backend, "qml-simulated-annealer");
    }

    /// The gate backend under another name, estimating every bundle at
    /// `cost`.
    struct Priced {
        name: &'static str,
        cost: f64,
        inner: qml_backends::GateBackend,
    }

    impl Backend for Priced {
        fn name(&self) -> &str {
            self.name
        }

        fn supports_engine(&self, engine: &str) -> bool {
            self.inner.supports_engine(engine)
        }

        fn default_engine(&self) -> &str {
            self.inner.default_engine()
        }

        fn execute_sealed(
            &self,
            bundle: &qml_types::SealedBundle,
            cache: &qml_backends::TranspileCache,
        ) -> (
            Result<qml_backends::ExecutionResult>,
            Option<qml_backends::PlanFetch>,
        ) {
            self.inner.execute_sealed(bundle, cache)
        }

        fn estimate_cost(&self, _bundle: &JobBundle) -> f64 {
            self.cost
        }
    }

    fn priced(name: &'static str, cost: f64) -> Arc<dyn Backend> {
        Arc::new(Priced {
            name,
            cost,
            inner: qml_backends::GateBackend::new(),
        })
    }

    #[test]
    fn a_nan_estimate_ranks_last_instead_of_panicking() {
        let bundle =
            qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap();
        let place = |backends: &[(&'static str, f64)]| {
            let mut registry = BackendRegistry::new();
            for &(name, cost) in backends {
                registry.register(priced(name, cost));
            }
            let placement = Scheduler::new(registry).place(&bundle).unwrap();
            placement.backend.name().to_string()
        };
        assert_eq!(place(&[("nan", f64::NAN), ("finite", 5.0)]), "finite");
        assert_eq!(place(&[("finite", 5.0), ("nan", f64::NAN)]), "finite");
        assert_eq!(
            place(&[("nan", f64::NAN)]),
            "nan",
            "a lone NaN still places"
        );
        // Finite estimates rank as before: cheapest first, ties to the
        // first registered.
        assert_eq!(place(&[("dear", 9.0), ("cheap", 2.0)]), "cheap");
        assert_eq!(place(&[("first", 3.0), ("second", 3.0)]), "first");
        assert_eq!(place(&[("inf", f64::INFINITY), ("nan", f64::NAN)]), "inf");
    }

    #[test]
    fn empty_registry_rejected() {
        let empty = Scheduler::new(BackendRegistry::new());
        let bundle = maxcut_ising_program(&cycle(4)).unwrap();
        assert!(empty.place(&bundle).is_err());
    }
}
