//! The backend abstraction: anything that can execute a middle-layer job
//! bundle.
//!
//! Backends are deliberately thin: they receive a complete, validated
//! bundle (intent + context) and return a uniform [`ExecutionResult`]. The
//! type enforces "validated": the one execution method takes a
//! [`SealedBundle`], which only a successful validation constructs, so a
//! backend never validates or re-hashes a program itself. Everything
//! device-specific — lowering, transpilation, sampling — happens behind this
//! trait, which is what makes the upper layers technology-agnostic.

use std::time::{Duration, Instant};

use qml_types::{JobBundle, Result, SealedBundle};

use crate::cache::TranspileCache;
use crate::results::ExecutionResult;

/// How one job's plan was fetched: answered from the plan cache (`hit`) or
/// realized on a miss, and the wall-clock of that lookup, realization
/// included. Exactly what the runtime's per-job `plan` trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanFetch {
    /// Whether the plan-cache lookup was answered from the cache.
    pub hit: bool,
    /// Wall-clock of the lookup, including the realization on a miss.
    pub elapsed: Duration,
}

impl PlanFetch {
    /// Time one traced plan-cache `lookup`, which reports its plan and
    /// whether it hit.
    pub(crate) fn time<P>(lookup: impl FnOnce() -> Result<(P, bool)>) -> Result<(P, PlanFetch)> {
        let started = Instant::now();
        let (plan, hit) = lookup()?;
        let elapsed = started.elapsed();
        Ok((plan, PlanFetch { hit, elapsed }))
    }
}

/// A backend able to realize and execute middle-layer job bundles.
pub trait Backend: Send + Sync {
    /// Stable backend name (used by the registry and in results).
    fn name(&self) -> &str;

    /// True if this backend can serve the given engine identifier
    /// (e.g. `"gate.aer_simulator"`, `"anneal.neal_simulator"`).
    fn supports_engine(&self, engine: &str) -> bool;

    /// The engine identifier this backend uses when a bundle carries no
    /// context (late binding to a sensible default).
    fn default_engine(&self) -> &str;

    /// Execute one sealed bundle through the given transpilation/lowering
    /// cache, reporting how its plan was fetched next to the outcome.
    /// **The one execution method a backend implements** —
    /// [`Backend::execute_cached`] and [`Backend::execute`] seal their bundle
    /// and call it, and the runtime calls nothing else. The bundle arrives
    /// validated, with its program hashes memoized: implementations use the
    /// sealed bundle's hashes and never call `validate` again.
    ///
    /// The built-in gate and annealing backends prepare the bundle's policy,
    /// make one plan-cache lookup (realizing the plan on a miss) and run the
    /// plan. The fetch is `None` when the job failed before its plan was in
    /// hand, or when the backend keeps no plans. A result is bit-identical
    /// on a cold or a warm cache.
    fn execute_sealed(
        &self,
        bundle: &SealedBundle,
        cache: &TranspileCache,
    ) -> (Result<ExecutionResult>, Option<PlanFetch>);

    /// Seal one bundle and execute it, reusing (and populating) the given
    /// transpilation/lowering cache.
    fn execute_cached(
        &self,
        bundle: &JobBundle,
        cache: &TranspileCache,
    ) -> Result<ExecutionResult> {
        let sealed = SealedBundle::seal(bundle.clone())?;
        self.execute_sealed(&sealed, cache).0
    }

    /// Execute one bundle with nothing shared: a throw-away cache.
    fn execute(&self, bundle: &JobBundle) -> Result<ExecutionResult> {
        self.execute_cached(bundle, &TranspileCache::new())
    }

    /// A stable grouping key: two bundles with the same key **on the same
    /// backend** realize one plan, so callers may treat them as one class —
    /// the service's fair scheduler coalesces them into one dispatch, and its
    /// cost model keys measured durations on it. `None` — the default —
    /// means this backend does not key the bundle (or cannot realize it at
    /// all), and the bundle always dispatches solo.
    ///
    /// The key must be at least as fine as the backend's realization-cache
    /// key: bundles that would realize different plans must never share a
    /// batch key. Keys need not be unique across backends — callers fold in
    /// the backend identity themselves.
    fn batch_key(&self, bundle: &SealedBundle) -> Option<u64> {
        let _ = bundle;
        None
    }

    /// A rough, device-independent score for how expensive this bundle would
    /// be on this backend — consumed by the runtime's cost-hint scheduler.
    /// The default implementation sums the descriptors' cost hints.
    fn estimate_cost(&self, bundle: &JobBundle) -> f64 {
        bundle
            .operators
            .iter()
            .filter_map(|op| op.cost_hint.as_ref())
            .map(|hint| hint.scheduling_weight())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::Counts;
    use qml_algorithms::{qaoa_maxcut_program, QaoaSchedule, RING_P1_ANGLES};
    use qml_graph::cycle;
    use qml_types::QmlError;

    /// A backend that implements only what the trait requires: a job
    /// answers with its bundle's name, and bundles named `bad*` fail.
    struct MinimalBackend;

    impl Backend for MinimalBackend {
        fn name(&self) -> &str {
            "minimal"
        }
        fn supports_engine(&self, engine: &str) -> bool {
            engine.starts_with("minimal.")
        }
        fn default_engine(&self) -> &str {
            "minimal.null"
        }
        fn execute_sealed(
            &self,
            bundle: &SealedBundle,
            _cache: &TranspileCache,
        ) -> (Result<ExecutionResult>, Option<PlanFetch>) {
            if bundle.name.starts_with("bad") {
                return (Err(QmlError::Unsupported(bundle.name.clone())), None);
            }
            let result = ExecutionResult {
                backend: self.name().into(),
                engine: self.default_engine().into(),
                register: bundle.name.clone(),
                shots: 0,
                counts: Counts::new(),
                gate_metrics: None,
                energy_stats: None,
                qec_estimate: None,
            };
            (Ok(result), None)
        }
    }

    fn named(name: &str) -> JobBundle {
        let mut bundle =
            qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap();
        bundle.name = name.into();
        bundle
    }

    #[test]
    fn provided_methods_project_the_one_required_method() {
        let backend = MinimalBackend;
        let cache = TranspileCache::new();
        let (good, bad) = (named("a"), named("bad-b"));

        let sealed = SealedBundle::seal(good.clone()).unwrap();
        let (direct, fetch) = backend.execute_sealed(&sealed, &cache);
        assert_eq!(direct.as_ref().unwrap().register, "a");
        assert_eq!(fetch, None, "this backend keeps no plans");

        // Cached or not, a plain bundle is sealed and run the same way.
        assert_eq!(
            backend.execute_cached(&good, &cache).unwrap(),
            direct.unwrap()
        );
        assert_eq!(backend.execute(&good).unwrap().register, "a");
        assert!(matches!(
            backend.execute(&bad),
            Err(QmlError::Unsupported(name)) if name == "bad-b"
        ));
        assert!(backend.execute_cached(&bad, &cache).is_err());

        // An invalid bundle never reaches the backend: sealing rejects it.
        let empty = JobBundle::new("empty", vec![], vec![]);
        assert!(matches!(
            backend.execute(&empty),
            Err(QmlError::Validation(_))
        ));
    }

    #[test]
    fn default_cost_estimate_sums_hints() {
        let cost = MinimalBackend.estimate_cost(&named("a"));
        assert!(
            cost > 0.0,
            "QAOA descriptors carry cost hints, so the estimate is positive"
        );
    }

    #[test]
    fn engine_matching() {
        let backend = MinimalBackend;
        assert!(backend.supports_engine("minimal.anything"));
        assert!(!backend.supports_engine("gate.aer_simulator"));
        assert_eq!(backend.default_engine(), "minimal.null");
        let sealed = SealedBundle::seal(named("a")).unwrap();
        assert_eq!(backend.batch_key(&sealed), None);
    }
}
