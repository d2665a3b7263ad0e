//! The transpilation/lowering cache shared by cache-aware backends.
//!
//! Realizing a job bundle has two phases: an expensive, *deterministic* one
//! (lowering descriptors and transpiling against the target) and a cheap,
//! policy-dependent one (binding late parameters, sampling with the requested
//! shots/seed, and decoding). The paper's context-descriptor split makes the
//! first phase a pure function of `(symbolic program, device target)` —
//! exactly what parameter sweeps and multi-tenant traffic repeat over and
//! over. [`TranspileCache`] memoizes that phase.
//!
//! Gate-path plans are **parametric**: keyed by
//! [`qml_types::JobBundle::symbolic_program_hash`] (which canonicalizes
//! symbol names) plus [`qml_transpile::TranspileTarget::fingerprint`] and the
//! optimization level, and stored with their symbols intact — so an N-point
//! angle sweep transpiles once and re-binds the routed circuit per point via
//! [`GatePlan::bind`]. Annealing plans are keyed per realized program *and*
//! annealer-schedule fingerprint, so two contexts with different schedules
//! can never collide on one BQM plan.
//!
//! Both cache planes are bounded LRU by default (see
//! [`TranspileCache::with_capacity`] / [`TranspileCache::unbounded`]);
//! evictions are counted in [`CacheStats`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use qml_anneal::BinaryQuadraticModel;
use qml_sim::{BoundCircuit, Circuit};
use qml_transpile::CircuitMetrics;
use qml_types::{QmlError, QuantumDataType, Result, ResultSchema};

/// Default per-plane LRU capacity of a [`TranspileCache`].
pub const DEFAULT_PLAN_CAPACITY: usize = 1024;

/// Cache key of a gate-path realization: **symbolic** program hash, device
/// target fingerprint, and transpiler optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GatePlanKey {
    /// [`qml_types::JobBundle::symbolic_program_hash`] of the submitted
    /// intent (binding-independent, symbol names canonicalized).
    pub program: u64,
    /// [`qml_transpile::TranspileTarget::fingerprint`] of the device target.
    pub target: u64,
    /// Transpiler optimization level (0–3).
    pub optimization_level: u8,
}

/// Cache key of an annealing-path realization: realized program hash plus
/// the annealer schedule fingerprint of the submitting context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnnealPlanKey {
    /// [`qml_types::JobBundle::program_hash`] of the (resolved) intent.
    pub program: u64,
    /// Fingerprint of the context's annealing schedule (engine, sweeps,
    /// β-range) — read policy (reads/seed) is deliberately excluded.
    pub schedule: u64,
}

/// A fully realized gate-path plan: everything execution needs except the
/// late-bound parameter values and the sampling policy (shots/seed).
///
/// The circuit may carry **symbolic** rotation angles. The hot path binds
/// with [`GatePlan::bind_overlay`]: the `Arc`-shared circuit is never copied,
/// only an O(#sites) overlay of bound gates is built per job.
/// [`GatePlan::bind`] remains as the materializing reference path
/// (differential tests, external consumers that need an owned circuit).
#[derive(Debug, Clone, PartialEq)]
pub struct GatePlan {
    /// The transpiled (routed, basis-lowered, optimized) circuit; possibly
    /// parametric. Shared: cloning the plan or binding a job never copies
    /// the gate vector.
    pub circuit: Arc<Circuit>,
    /// Slot table: symbol names in canonical order (`values[i]` binds
    /// `symbols[i]`). Empty for fully concrete plans.
    pub symbols: Vec<String>,
    /// Gate indices still carrying symbolic angles after optimization.
    param_sites: Vec<usize>,
    /// Cost metrics of the transpiled circuit (binding-independent).
    pub metrics: CircuitMetrics,
    /// The register the measurement reads out.
    pub register: QuantumDataType,
    /// The explicit result schema attached to the measurement descriptor.
    pub schema: ResultSchema,
}

impl GatePlan {
    /// Assemble a plan, recording the circuit's symbolic substitution sites.
    pub fn new(
        circuit: Circuit,
        symbols: Vec<String>,
        metrics: CircuitMetrics,
        register: QuantumDataType,
        schema: ResultSchema,
    ) -> Self {
        let param_sites = circuit.symbolic_gate_indices();
        GatePlan {
            circuit: Arc::new(circuit),
            symbols,
            param_sites,
            metrics,
            register,
            schema,
        }
    }

    /// True if the plan still carries symbolic angles to bind per execution.
    pub fn is_parametric(&self) -> bool {
        !self.param_sites.is_empty()
    }

    /// Number of symbolic substitution sites in the transpiled circuit.
    pub fn param_site_count(&self) -> usize {
        self.param_sites.len()
    }

    /// Substitute the slot-ordered `values` (aligned with
    /// [`GatePlan::symbols`]) into an owned copy of the plan's circuit.
    ///
    /// This is the materializing reference path; the execute hot path uses
    /// the copy-free [`GatePlan::bind_overlay`] instead.
    pub fn bind(&self, values: &[f64]) -> Result<Circuit> {
        self.check_binding(values)?;
        if self.param_sites.is_empty() {
            Ok((*self.circuit).clone())
        } else {
            Ok(self.circuit.bind_sites(&self.param_sites, values))
        }
    }

    /// Zero-copy binding: substitute the slot-ordered `values` as a
    /// [`BoundCircuit`] overlay over the shared plan circuit — O(#sites) per
    /// job, no gate-vector copy. Non-parametric plans return a view that
    /// executes the shared circuit directly.
    pub fn bind_overlay(&self, values: &[f64]) -> Result<BoundCircuit> {
        self.check_binding(values)?;
        if self.param_sites.is_empty() {
            Ok(BoundCircuit::concrete(Arc::clone(&self.circuit)))
        } else {
            Ok(BoundCircuit::bind_sites(
                Arc::clone(&self.circuit),
                &self.param_sites,
                values,
            ))
        }
    }

    fn check_binding(&self, values: &[f64]) -> Result<()> {
        if values.len() < self.symbols.len() {
            return Err(QmlError::Validation(format!(
                "parametric plan needs {} binding values, got {}",
                self.symbols.len(),
                values.len()
            )));
        }
        Ok(())
    }
}

/// A realized annealing-path plan: the lowered quadratic model plus decoding
/// information, independent of the read/sweep policy.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealPlan {
    /// The binary quadratic model to sample.
    pub bqm: BinaryQuadraticModel,
    /// The register the samples refer to.
    pub register: QuantumDataType,
    /// The explicit result schema.
    pub schema: ResultSchema,
}

/// Hit/miss/entry/eviction counters of one cache plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to realize the plan.
    pub misses: u64,
    /// Plans currently stored.
    pub entries: usize,
    /// Plans dropped by the LRU capacity bound since the cache was created.
    #[serde(default)]
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over total lookups, 0.0 when the cache is untouched.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A single-flight slot: empty until its plan is first realized. The
/// last-use stamp rides the slot itself so the hit path never takes a
/// plane-wide lock beyond the map's read lock.
struct Slot<V> {
    plan: Mutex<Option<Arc<V>>>,
    /// Last-use tick of the plane clock; 0 = never used.
    last_used: AtomicU64,
    /// True once the slot has been added to the plane's `entries` counter.
    /// Eviction only considers counted slots, so it can never decrement the
    /// counter for a freshly published plan whose builder has not counted it
    /// yet (and in-flight builds stay invisible to eviction entirely).
    counted: std::sync::atomic::AtomicBool,
}

impl<V> Default for Slot<V> {
    fn default() -> Self {
        Slot {
            plan: Mutex::new(None),
            last_used: AtomicU64::new(0),
            counted: std::sync::atomic::AtomicBool::new(false),
        }
    }
}

type PlanSlot<V> = Arc<Slot<V>>;

/// One single-flight cache plane: per-key slots so concurrent misses of the
/// *same* plan serialize on their slot (exactly one build — no thundering
/// herd) while different keys stay fully concurrent. Optionally bounded:
/// inserting beyond `capacity` evicts the least-recently-used realized plan.
struct CachePlane<K, V> {
    slots: RwLock<HashMap<K, PlanSlot<V>>>,
    /// Monotonic LRU clock; slots store the tick of their last use.
    clock: AtomicU64,
    /// Maximum realized entries; `None` = unbounded.
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Slots holding a realized plan — kept separately so a stats snapshot
    /// never has to take the per-slot locks (which may be held across an
    /// in-flight build).
    entries: AtomicUsize,
}

impl<K, V> CachePlane<K, V> {
    fn with_capacity(capacity: Option<usize>) -> Self {
        if let Some(cap) = capacity {
            assert!(cap > 0, "cache capacity must be at least 1");
        }
        CachePlane {
            slots: RwLock::new(HashMap::new()),
            clock: AtomicU64::new(0),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: AtomicUsize::new(0),
        }
    }

    /// Stamp a slot as most recently used (lock-free; ticks start at 1 so a
    /// stamped slot is always distinguishable from an unrealized one).
    fn touch(&self, slot: &Slot<V>) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        slot.last_used.store(now, Ordering::Relaxed);
    }
}

impl<K: std::hash::Hash + Eq + Clone, V> CachePlane<K, V> {
    /// Evict least-recently-used realized plans until the plane fits its
    /// capacity again. Never evicts `just_inserted` (the entry that triggered
    /// enforcement), so a hot miss cannot evict itself. Victim selection and
    /// removal happen atomically under the map's write lock; the O(entries)
    /// scan only runs on misses past capacity, never on hits.
    fn enforce_capacity(&self, just_inserted: &K) {
        let Some(capacity) = self.capacity else {
            return;
        };
        while self.entries.load(Ordering::Relaxed) > capacity {
            let mut slots = self.slots.write();
            // Re-check under the write lock (entries only grow under the
            // read lock): a racing insert may already have evicted down to
            // capacity while this one waited.
            if self.entries.load(Ordering::Relaxed) <= capacity {
                break;
            }
            let victim = slots
                .iter()
                .filter(|(key, slot)| *key != just_inserted && slot.counted.load(Ordering::Relaxed))
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(key, _)| key.clone());
            let Some(victim) = victim else {
                break;
            };
            slots.remove(&victim);
            self.entries.fetch_sub(1, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn get_or_build(&self, key: K, build: impl FnOnce() -> Result<V>) -> Result<Arc<V>> {
        self.get_or_build_traced(key, build).map(|(plan, _)| plan)
    }

    /// Like [`CachePlane::get_or_build`], additionally reporting whether the
    /// lookup was a hit (`true`) or realized the plan (`false`) — the
    /// attribution per-job plan trace events need, which the aggregate
    /// hit/miss counters cannot provide.
    fn get_or_build_traced(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V>,
    ) -> Result<(Arc<V>, bool)> {
        // Bind the fast-path lookup to its own statement so the read guard
        // drops before the write path runs (an `if let` over the guard would
        // hold it through the `else` and self-deadlock).
        let existing = self.slots.read().get(&key).cloned();
        let slot = match existing {
            Some(slot) => slot,
            None => self.slots.write().entry(key.clone()).or_default().clone(),
        };
        let mut guard = slot.plan.lock();
        if let Some(plan) = guard.as_ref() {
            let plan = plan.clone();
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.touch(&slot);
            return Ok((plan, true));
        }
        // Failed realizations leave the slot empty so the next submission
        // retries, mirroring how transpilation errors surface per job.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(build()?);
        *guard = Some(plan.clone());
        // Release the slot before touching map-level state: eviction takes
        // the map's write lock and must never wait behind a held slot.
        drop(guard);
        // Count the entry only while its slot is still reachable, with the
        // increment **under the map's read lock**: a concurrent clear()
        // (write lock) either ran before this block (slot orphaned, not
        // counted) or runs after and resets the counter while holding the
        // same lock — never in between, so the counter can never outlive the
        // plans it counts.
        let counted = {
            let slots = self.slots.read();
            let live = slots.get(&key).is_some_and(|l| Arc::ptr_eq(l, &slot));
            if live {
                self.entries.fetch_add(1, Ordering::Relaxed);
                slot.counted.store(true, Ordering::Relaxed);
            }
            live
        };
        if counted {
            self.touch(&slot);
            self.enforce_capacity(&key);
        }
        Ok((plan, false))
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn clear(&self) {
        let mut slots = self.slots.write();
        slots.clear();
        // Reset while still holding the write lock so no in-flight build can
        // interleave its reachability check with the reset.
        self.entries.store(0, Ordering::Relaxed);
    }
}

impl<K: std::fmt::Debug, V> std::fmt::Debug for CachePlane<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachePlane")
            .field("capacity", &self.capacity)
            .field("entries", &self.entries.load(Ordering::Relaxed))
            .finish()
    }
}

/// Thread-safe transpilation/lowering cache with hit/miss/eviction counters.
///
/// Entries are stored behind `Arc` so concurrent executions of the same plan
/// share one realization without cloning circuits, and lookups are
/// single-flight per key: when N workers miss the same plan at once, one
/// builds and the rest wait for its result. Both planes are bounded LRU
/// caches (default [`DEFAULT_PLAN_CAPACITY`] entries each); long-running
/// deployments that want the PR-1 behavior back can construct the cache with
/// [`TranspileCache::unbounded`].
#[derive(Debug)]
pub struct TranspileCache {
    gate: CachePlane<GatePlanKey, GatePlan>,
    anneal: CachePlane<AnnealPlanKey, AnnealPlan>,
}

impl Default for TranspileCache {
    fn default() -> Self {
        TranspileCache::new()
    }
}

impl TranspileCache {
    /// A cache bounded at [`DEFAULT_PLAN_CAPACITY`] plans per plane.
    pub fn new() -> Self {
        TranspileCache::with_capacity(DEFAULT_PLAN_CAPACITY)
    }

    /// A cache bounded at `capacity` plans per plane (LRU eviction).
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    pub fn with_capacity(capacity: usize) -> Self {
        TranspileCache {
            gate: CachePlane::with_capacity(Some(capacity)),
            anneal: CachePlane::with_capacity(Some(capacity)),
        }
    }

    /// An unbounded cache (the escape hatch for deployments that manage
    /// memory with [`TranspileCache::clear`] instead).
    pub fn unbounded() -> Self {
        TranspileCache {
            gate: CachePlane::with_capacity(None),
            anneal: CachePlane::with_capacity(None),
        }
    }

    /// Fetch the gate plan for `key`, realizing and storing it with `build`
    /// on a miss.
    pub fn gate_plan(
        &self,
        key: GatePlanKey,
        build: impl FnOnce() -> Result<GatePlan>,
    ) -> Result<Arc<GatePlan>> {
        self.gate.get_or_build(key, build)
    }

    /// Fetch the annealing plan for a key, realizing it on a miss.
    pub fn anneal_plan(
        &self,
        key: AnnealPlanKey,
        build: impl FnOnce() -> Result<AnnealPlan>,
    ) -> Result<Arc<AnnealPlan>> {
        self.anneal.get_or_build(key, build)
    }

    /// Like [`TranspileCache::gate_plan`], additionally reporting whether the
    /// lookup hit the cache — feeds the per-job `plan` trace events.
    pub(crate) fn gate_plan_traced(
        &self,
        key: GatePlanKey,
        build: impl FnOnce() -> Result<GatePlan>,
    ) -> Result<(Arc<GatePlan>, bool)> {
        self.gate.get_or_build_traced(key, build)
    }

    /// Like [`TranspileCache::anneal_plan`], additionally reporting whether
    /// the lookup hit the cache.
    pub(crate) fn anneal_plan_traced(
        &self,
        key: AnnealPlanKey,
        build: impl FnOnce() -> Result<AnnealPlan>,
    ) -> Result<(Arc<AnnealPlan>, bool)> {
        self.anneal.get_or_build_traced(key, build)
    }

    /// Counters of the gate-path plane.
    pub fn gate_stats(&self) -> CacheStats {
        self.gate.stats()
    }

    /// Counters of the annealing-path plane.
    pub fn anneal_stats(&self) -> CacheStats {
        self.anneal.stats()
    }

    /// Combined counters across both planes.
    pub fn stats(&self) -> CacheStats {
        let g = self.gate_stats();
        let a = self.anneal_stats();
        CacheStats {
            hits: g.hits + a.hits,
            misses: g.misses + a.misses,
            entries: g.entries + a.entries,
            evictions: g.evictions + a.evictions,
        }
    }

    /// Drop every cached plan (counters are kept).
    pub fn clear(&self) {
        self.gate.clear();
        self.anneal.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_plan() -> GatePlan {
        let qdt = QuantumDataType::ising_spins("r", "s", 2).unwrap();
        GatePlan::new(
            Circuit::new(2),
            Vec::new(),
            CircuitMetrics::of(&Circuit::new(2), 0),
            qdt.clone(),
            ResultSchema::for_register(&qdt),
        )
    }

    fn key(program: u64) -> GatePlanKey {
        GatePlanKey {
            program,
            target: 1,
            optimization_level: 2,
        }
    }

    #[test]
    fn hit_and_miss_counters() {
        let cache = TranspileCache::new();
        cache.gate_plan(key(1), || Ok(dummy_plan())).unwrap();
        cache
            .gate_plan(key(1), || panic!("must not rebuild"))
            .unwrap();
        cache.gate_plan(key(2), || Ok(dummy_plan())).unwrap();
        let stats = cache.gate_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let cache = TranspileCache::new();
        let attempt = cache.gate_plan(key(9), || Err(QmlError::Unsupported("nope".into())));
        assert!(attempt.is_err());
        assert_eq!(cache.gate_stats().entries, 0);
        // A later, successful build fills the slot.
        cache.gate_plan(key(9), || Ok(dummy_plan())).unwrap();
        assert_eq!(cache.gate_stats().entries, 1);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = TranspileCache::new();
        cache.gate_plan(key(1), || Ok(dummy_plan())).unwrap();
        cache.clear();
        let stats = cache.gate_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn lru_capacity_evicts_the_coldest_plan() {
        let cache = TranspileCache::with_capacity(2);
        cache.gate_plan(key(1), || Ok(dummy_plan())).unwrap();
        cache.gate_plan(key(2), || Ok(dummy_plan())).unwrap();
        // Touch key 1 so key 2 becomes the LRU victim.
        cache.gate_plan(key(1), || panic!("hit expected")).unwrap();
        cache.gate_plan(key(3), || Ok(dummy_plan())).unwrap();

        let stats = cache.gate_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // Key 1 survived (still a hit), key 2 was evicted (rebuilds).
        cache.gate_plan(key(1), || panic!("hit expected")).unwrap();
        let mut rebuilt = false;
        cache
            .gate_plan(key(2), || {
                rebuilt = true;
                Ok(dummy_plan())
            })
            .unwrap();
        assert!(rebuilt, "evicted plan must rebuild on next use");
        assert_eq!(cache.gate_stats().evictions, 2, "rebuilding 2 evicted 3");
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = TranspileCache::unbounded();
        for program in 0..64 {
            cache.gate_plan(key(program), || Ok(dummy_plan())).unwrap();
        }
        let stats = cache.gate_stats();
        assert_eq!(stats.entries, 64);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn parametric_plan_binds_slot_table() {
        use qml_sim::{Gate, ParamExpr};
        let qdt = QuantumDataType::ising_spins("r", "s", 2).unwrap();
        let mut circuit = Circuit::new(2);
        circuit.push(Gate::Rzz(0, 1, ParamExpr::symbol(0).scale(2.0)));
        circuit.push(Gate::Rx(1, ParamExpr::symbol(1)));
        circuit.push(Gate::H(0));
        circuit.measure_all();
        let plan = GatePlan::new(
            circuit,
            vec!["gamma_0".into(), "beta_0".into()],
            CircuitMetrics::of(&Circuit::new(2), 0),
            qdt.clone(),
            ResultSchema::for_register(&qdt),
        );
        assert!(plan.is_parametric());
        assert_eq!(plan.param_site_count(), 2);

        let bound = plan.bind(&[0.25, 0.5]).unwrap();
        assert!(!bound.is_symbolic());
        assert_eq!(bound.gates()[0], Gate::Rzz(0, 1, 0.5.into()));
        assert_eq!(bound.gates()[1], Gate::Rx(1, 0.5.into()));

        assert!(plan.bind(&[0.25]).is_err(), "missing slot value rejected");

        let overlay = plan.bind_overlay(&[0.25, 0.5]).unwrap();
        assert_eq!(overlay.to_circuit(), bound, "overlay == clone-bind");
        assert!(
            Arc::ptr_eq(overlay.base(), &plan.circuit),
            "overlay shares the plan circuit"
        );
        assert!(plan.bind_overlay(&[0.25]).is_err());
    }

    #[test]
    fn concrete_plan_overlay_shares_the_circuit() {
        let plan = dummy_plan();
        let overlay = plan.bind_overlay(&[]).unwrap();
        assert!(overlay.overrides().is_empty());
        assert!(Arc::ptr_eq(overlay.base(), &plan.circuit));
    }
}
