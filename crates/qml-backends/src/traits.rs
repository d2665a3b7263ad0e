//! The backend abstraction: anything that can execute a middle-layer job
//! bundle.
//!
//! Backends are deliberately thin: they receive a complete, validated
//! [`JobBundle`] (intent + context) and return a uniform
//! [`ExecutionResult`]. Everything
//! device-specific — lowering, transpilation, sampling — happens behind this
//! trait, which is what makes the upper layers technology-agnostic.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qml_types::{JobBundle, Result};

use crate::cache::TranspileCache;
use crate::results::ExecutionResult;

/// Per-member wall-clock breakdown of one [`Backend::execute_batch_timed`]
/// call.
///
/// A micro-batch executes as one backend call, but fairness and utilization
/// accounting need *honest per-job* durations — splitting the batch's
/// wall-clock evenly across members is fiction whenever members differ
/// (e.g. a shot ladder). The breakdown separates the cost nobody owns
/// individually (realizing the group's shared plans) from each member's own
/// bind + sample time, so callers can attribute the shared part
/// proportionally.
#[derive(Debug, Clone, Default)]
pub struct BatchTimings {
    /// Time spent realizing shared plans (transpilation / lowering / cache
    /// fetches) across the whole call — work owned by groups, not by any
    /// single member.
    pub shared: Duration,
    /// Each member's own bind + sample wall-clock, in `bundles` order.
    pub members: Vec<Duration>,
    /// Per member, in `bundles` order: whether its single plan-cache lookup
    /// was answered from the cache (`Some(true)`), realized the plan
    /// (`Some(false)`), or is unknown (`None` — failed members, and backends
    /// whose batch path reports no plan attribution). Feeds per-job `plan`
    /// trace events; empty vectors (from pre-attribution constructions)
    /// read as all-unknown.
    pub plan_hits: Vec<Option<bool>>,
}

impl BatchTimings {
    /// `members[i]` plus a share of [`BatchTimings::shared`] proportional to
    /// `members[i]`'s weight among all member durations — the honest
    /// attribution of the whole call's wall-clock to member `i`. When every
    /// member's own time is zero (degenerate resolution), the shared cost is
    /// split evenly.
    pub fn attributed(&self) -> Vec<Duration> {
        let total: f64 = self.members.iter().map(|d| d.as_secs_f64()).sum();
        let shared = self.shared.as_secs_f64();
        let n = self.members.len().max(1) as f64;
        self.members
            .iter()
            .map(|d| {
                let own = d.as_secs_f64();
                let share = if total > 0.0 {
                    shared * (own / total)
                } else {
                    shared / n
                };
                Duration::from_secs_f64(own + share)
            })
            .collect()
    }

    /// Member `i`'s plan-cache attribution, `None` when unknown (out of
    /// range, failed member, or an attribution-blind backend).
    pub fn plan_hit(&self, i: usize) -> Option<bool> {
        self.plan_hits.get(i).copied().flatten()
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

    /// Execute a batch of bundles against this backend through one shared
    /// cache, reporting the wall-clock breakdown next to the outcomes: shared
    /// realization time plus each member's own bind + sample time (see
    /// [`BatchTimings`]). **The one execution method a backend implements**
    /// — [`Backend::execute_batch`], [`Backend::execute_cached`] and
    /// [`Backend::execute`] are projections of it, and the runtime's worker
    /// loop calls nothing else.
    ///
    /// Backends with device-level batching (circuit merging, shared annealer
    /// schedules, calibration windows) group plan-compatible members — same
    /// [`Backend::batch_key`] — and realize each group's plan **once**, even
    /// on a cold cache, before binding/sampling per member. The built-in gate
    /// and annealing backends do exactly that. Contract, regardless of
    /// implementation:
    ///
    /// * outcomes are returned in submission order (`result[i]` belongs to
    ///   `bundles[i]`), and `timings.members` / `timings.plan_hits` are
    ///   aligned with them;
    /// * a member's result is bit-identical whether it runs alone or inside
    ///   any batch, on a cold or a warm cache;
    /// * a failing member yields `Err` at its own position and never poisons
    ///   the rest of its group.
    fn execute_batch_timed(
        &self,
        bundles: &[JobBundle],
        cache: &TranspileCache,
    ) -> (Vec<Result<ExecutionResult>>, BatchTimings);

    /// [`Backend::execute_batch_timed`] without the timings.
    fn execute_batch(
        &self,
        bundles: &[JobBundle],
        cache: &TranspileCache,
    ) -> Vec<Result<ExecutionResult>> {
        self.execute_batch_timed(bundles, cache).0
    }

    /// Execute one bundle, reusing (and populating) the given
    /// transpilation/lowering cache: a batch of one.
    fn execute_cached(
        &self,
        bundle: &JobBundle,
        cache: &TranspileCache,
    ) -> Result<ExecutionResult> {
        self.execute_batch(std::slice::from_ref(bundle), cache)
            .pop()
            .expect("a batch returns one result per bundle")
    }

    /// Execute one bundle with nothing shared: a batch of one over a
    /// throw-away cache.
    fn execute(&self, bundle: &JobBundle) -> Result<ExecutionResult> {
        self.execute_cached(bundle, &TranspileCache::new())
    }

    /// A stable grouping key for device-level batching: two bundles with the
    /// same key **on the same backend** share one realized plan, so callers
    /// (the service's fair scheduler) may coalesce them into a single
    /// [`Backend::execute_batch_timed`] call. `None` — the default — means this
    /// backend does not batch the bundle (or cannot realize it at all), and
    /// the bundle always dispatches solo.
    ///
    /// The key must be at least as fine as the backend's realization-cache
    /// key: bundles that would realize different plans must never share a
    /// batch key. Keys need not be unique across backends — callers fold in
    /// the backend identity themselves.
    fn batch_key(&self, bundle: &JobBundle) -> Option<u64> {
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

/// The group-by-key batch driver behind the built-in backends'
/// [`Backend::execute_batch_timed`].
///
/// * `prepare` validates one member and returns its plan key plus whatever
///   per-member state `run` needs; a member that fails to prepare gets `Err`
///   at its own slot and never joins a group.
/// * `fetch` performs that member's **single** cache lookup, returning the
///   plan plus whether the lookup *hit* (recorded per member in
///   [`BatchTimings::plan_hits`]). It receives the group's already-realized
///   plan (if any): passing it back as the build closure re-inserts a flat
///   clone when the entry was evicted mid-batch, so a group can never
///   realize its plan twice — while cache counters stay member-accurate (a
///   cold group of N is 1 miss + N−1 hits). If the first member's build
///   fails, the next member retries with its own build, mirroring sequential
///   semantics (failed builds are not cached).
/// * `run` executes one member against the shared plan.
///
/// Outcomes are returned in `bundles` order, alongside the wall-clock
/// breakdown: cache fetches / plan realizations count toward
/// [`BatchTimings::shared`] (a group's realization belongs to the group, not
/// to whichever member happened to go first), while each member's `prepare`
/// and `run` time is its own.
pub(crate) fn execute_grouped<K, P, Plan>(
    bundles: &[JobBundle],
    mut prepare: impl FnMut(&JobBundle) -> Result<(K, P)>,
    mut fetch: impl FnMut(K, &JobBundle, &P, Option<&Arc<Plan>>) -> Result<(Arc<Plan>, bool)>,
    mut run: impl FnMut(&JobBundle, &P, &Plan) -> Result<ExecutionResult>,
) -> (Vec<Result<ExecutionResult>>, BatchTimings)
where
    K: std::hash::Hash + Eq + Copy,
{
    let mut results: Vec<Option<Result<ExecutionResult>>> = Vec::with_capacity(bundles.len());
    results.resize_with(bundles.len(), || None);
    let mut timings = BatchTimings {
        shared: Duration::ZERO,
        members: vec![Duration::ZERO; bundles.len()],
        plan_hits: vec![None; bundles.len()],
    };
    let mut prepared: Vec<Option<P>> = Vec::with_capacity(bundles.len());
    prepared.resize_with(bundles.len(), || None);
    let mut groups: Vec<(K, Vec<usize>)> = Vec::new();
    let mut group_of: HashMap<K, usize> = HashMap::new();
    for (i, bundle) in bundles.iter().enumerate() {
        let started = Instant::now();
        match prepare(bundle) {
            Ok((key, prep)) => {
                prepared[i] = Some(prep);
                match group_of.entry(key) {
                    Entry::Occupied(slot) => groups[*slot.get()].1.push(i),
                    Entry::Vacant(slot) => {
                        slot.insert(groups.len());
                        groups.push((key, vec![i]));
                    }
                }
            }
            Err(err) => results[i] = Some(Err(err)),
        }
        timings.members[i] += started.elapsed();
    }
    for (key, members) in groups {
        // The group's shared realization, set by the first member whose
        // fetch succeeds (even if its own run then fails).
        let mut shared: Option<Arc<Plan>> = None;
        for i in members {
            let bundle = &bundles[i];
            let prep = prepared[i].as_ref().expect("grouped members are prepared");
            let fetch_started = Instant::now();
            let plan = fetch(key, bundle, prep, shared.as_ref());
            timings.shared += fetch_started.elapsed();
            let outcome = plan.and_then(|(plan, hit)| {
                timings.plan_hits[i] = Some(hit);
                shared.get_or_insert_with(|| Arc::clone(&plan));
                let run_started = Instant::now();
                let outcome = run(bundle, prep, &plan);
                timings.members[i] += run_started.elapsed();
                outcome
            });
            results[i] = Some(outcome);
        }
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("every member resolved"))
        .collect();
    (results, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qml_algorithms::{qaoa_maxcut_program, QaoaSchedule, RING_P1_ANGLES};
    use qml_graph::cycle;
    use qml_types::QmlError;
    use std::collections::BTreeMap;

    /// A backend that implements only what the trait requires: each member
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
        fn execute_batch_timed(
            &self,
            bundles: &[JobBundle],
            _cache: &TranspileCache,
        ) -> (Vec<Result<ExecutionResult>>, BatchTimings) {
            let results = bundles
                .iter()
                .map(|bundle| {
                    if bundle.name.starts_with("bad") {
                        return Err(QmlError::Unsupported(bundle.name.clone()));
                    }
                    Ok(ExecutionResult {
                        backend: self.name().into(),
                        engine: self.default_engine().into(),
                        register: bundle.name.clone(),
                        shots: 0,
                        counts: BTreeMap::new(),
                        gate_metrics: None,
                        energy_stats: None,
                        qec_estimate: None,
                    })
                })
                .collect();
            let timings = BatchTimings {
                shared: Duration::ZERO,
                members: vec![Duration::ZERO; bundles.len()],
                plan_hits: vec![None; bundles.len()],
            };
            (results, timings)
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
        let bundles = [named("a"), named("bad-b"), named("c")];

        let batch = backend.execute_batch(&bundles, &cache);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].as_ref().unwrap().register, "a");
        assert!(
            matches!(&batch[1], Err(QmlError::Unsupported(name)) if name == "bad-b"),
            "an Err stays at its own slot"
        );
        assert_eq!(batch[2].as_ref().unwrap().register, "c");

        // A solo job is a batch of one, cached or not.
        assert_eq!(
            backend.execute_cached(&bundles[2], &cache).unwrap(),
            *batch[2].as_ref().unwrap()
        );
        assert_eq!(
            backend.execute(&bundles[0]).unwrap(),
            *batch[0].as_ref().unwrap()
        );
        assert!(backend.execute(&bundles[1]).is_err());
        assert!(backend.execute_cached(&bundles[1], &cache).is_err());
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
        assert_eq!(backend.batch_key(&named("a")), None);
    }
}
