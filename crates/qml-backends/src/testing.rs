//! Deterministic fault injection for fleet and failure-domain tests.
//!
//! Failure-handling claims ("jobs are requeued exactly once", "a down device
//! receives no dispatches") are only testable if failures happen *on
//! schedule*. [`FaultyBackend`] wraps any real [`Backend`] and injects
//! [`QmlError::DeviceFault`] errors according to a scriptable [`FaultPlan`]:
//! fail the nth execution (transient — the device recovers afterwards), fail
//! every execution from an index onward (permanent — a dead device), or
//! panic at the nth execution (a backend bug, not a device fault). Everything else
//! delegates to the wrapped backend unchanged, so results on the
//! non-faulting path stay bit-identical to the inner backend's.
//!
//! This module is compiled into the library (not `#[cfg(test)]`) so unit
//! tests, the repository-level integration tests, and the fleet examples all
//! share one fault vocabulary instead of growing per-test ad-hoc doubles.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qml_types::{JobBundle, QmlError, Result, SealedBundle};

use crate::cache::TranspileCache;
use crate::results::ExecutionResult;
use crate::traits::{Backend, PlanFetch};

/// A deterministic fault schedule for a [`FaultyBackend`].
///
/// Execution indices are 0-based and count every execution the wrapper
/// performs, in call order, so a schedule is reproducible run-to-run for a
/// deterministic workload.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Transient faults: execution indices that fail once each; the device
    /// works again on the next execution (health flapping).
    pub fail_nth: BTreeSet<u64>,
    /// Permanent fault: every execution with index `>= fail_from` fails —
    /// the device is dead from that point on.
    pub fail_from: Option<u64>,
    /// Execution indices at which the wrapper **panics** instead of
    /// returning an error — a bug inside a backend, which the runtime has to
    /// contain at its job boundary.
    pub panic_nth: BTreeSet<u64>,
}

impl FaultPlan {
    /// An empty plan: never faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Fail the executions at these 0-based indices (transient faults),
    /// builder-style.
    pub fn with_fail_nth(mut self, indices: impl IntoIterator<Item = u64>) -> Self {
        self.fail_nth.extend(indices);
        self
    }

    /// Fail every execution from `index` onward (a permanent device death),
    /// builder-style.
    pub fn with_fail_from(mut self, index: u64) -> Self {
        self.fail_from = Some(index);
        self
    }

    /// Panic at the executions with these 0-based indices, builder-style.
    pub fn with_panic_nth(mut self, indices: impl IntoIterator<Item = u64>) -> Self {
        self.panic_nth.extend(indices);
        self
    }

    /// The fault scheduled for execution `index`, if any.
    fn fault_for(&self, index: u64) -> Option<QmlError> {
        if self.fail_from.is_some_and(|from| index >= from) {
            return Some(QmlError::DeviceFault(format!(
                "injected permanent fault (execution #{index})"
            )));
        }
        if self.fail_nth.contains(&index) {
            return Some(QmlError::DeviceFault(format!(
                "injected transient fault (execution #{index})"
            )));
        }
        None
    }
}

/// A [`Backend`] wrapper that injects [`QmlError::DeviceFault`] errors on a
/// deterministic [`FaultPlan`] schedule and otherwise delegates to the
/// wrapped backend. See the module docs.
#[derive(Debug)]
pub struct FaultyBackend<B: Backend> {
    inner: B,
    plan: FaultPlan,
    executions: AtomicU64,
}

impl<B: Backend> FaultyBackend<B> {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        FaultyBackend {
            inner,
            plan,
            executions: AtomicU64::new(0),
        }
    }

    /// Claim the next execution index and return the scheduled fault for it,
    /// if any — or panic, if the plan schedules a panic there.
    // A scheduled panic is the backend bug under test; the runtime's job
    // boundary contains it.
    #[allow(clippy::panic)]
    fn check(&self) -> Option<QmlError> {
        let index = self.executions.fetch_add(1, Ordering::Relaxed);
        if self.plan.panic_nth.contains(&index) {
            panic!("injected panic (execution #{index})");
        }
        self.plan.fault_for(index)
    }
}

impl<B: Backend> Backend for FaultyBackend<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn supports_engine(&self, engine: &str) -> bool {
        self.inner.supports_engine(engine)
    }

    fn default_engine(&self) -> &str {
        self.inner.default_engine()
    }

    /// Claim the job's fault index, then run it on the wrapped backend
    /// unless the plan faults it there.
    fn execute_sealed(
        &self,
        bundle: &SealedBundle,
        cache: &TranspileCache,
    ) -> (Result<ExecutionResult>, Option<PlanFetch>) {
        match self.check() {
            Some(fault) => (Err(fault), None),
            None => self.inner.execute_sealed(bundle, cache),
        }
    }

    fn batch_key(&self, bundle: &SealedBundle) -> Option<u64> {
        self.inner.batch_key(bundle)
    }

    fn estimate_cost(&self, bundle: &JobBundle) -> f64 {
        self.inner.estimate_cost(bundle)
    }
}

/// [`FaultyBackend::new`] boxed behind an `Arc<dyn Backend>`, the shape the
/// runtime registry takes.
pub fn faulty<B: Backend + 'static>(inner: B, plan: FaultPlan) -> Arc<dyn Backend> {
    Arc::new(FaultyBackend::new(inner, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateBackend;
    use qml_algorithms::{qaoa_maxcut_program, QaoaSchedule, RING_P1_ANGLES};
    use qml_graph::cycle;
    use qml_types::{ContextDescriptor, ExecConfig};

    fn job() -> JobBundle {
        qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
            .unwrap()
            .with_context(ContextDescriptor::for_gate(
                ExecConfig::new("gate.aer_simulator")
                    .with_samples(256)
                    .with_seed(7),
            ))
    }

    #[test]
    fn transient_fault_hits_only_scheduled_indices() {
        let backend = FaultyBackend::new(GateBackend::new(), FaultPlan::none().with_fail_nth([1]));
        let bundle = job();
        assert!(backend.execute(&bundle).is_ok());
        let err = backend.execute(&bundle).unwrap_err();
        assert!(err.is_device_fault(), "scheduled index faults: {err}");
        assert!(backend.execute(&bundle).is_ok(), "transient: recovers");
    }

    #[test]
    fn permanent_fault_kills_the_device() {
        let backend = FaultyBackend::new(GateBackend::new(), FaultPlan::none().with_fail_from(2));
        let bundle = job();
        assert!(backend.execute(&bundle).is_ok());
        assert!(backend.execute(&bundle).is_ok());
        for _ in 0..3 {
            assert!(backend.execute(&bundle).unwrap_err().is_device_fault());
        }
    }

    #[test]
    fn non_faulting_path_is_bit_identical_to_inner() {
        let reference = GateBackend::new().execute(&job()).unwrap();
        let backend = FaultyBackend::new(GateBackend::new(), FaultPlan::none());
        let wrapped = backend.execute(&job()).unwrap();
        assert_eq!(wrapped.counts, reference.counts);
        assert_eq!(wrapped.shots, reference.shots);
    }

    #[test]
    fn executions_are_counted_in_call_order() {
        let backend = FaultyBackend::new(GateBackend::new(), FaultPlan::none().with_fail_nth([1]));
        let cache = TranspileCache::new();
        let sealed = SealedBundle::seal(job()).unwrap();
        let (first, fetch) = backend.execute_sealed(&sealed, &cache);
        assert!(first.is_ok());
        assert_eq!(
            fetch.map(|f| f.hit),
            Some(false),
            "the inner fetch shows through"
        );
        let (second, fetch) = backend.execute_sealed(&sealed, &cache);
        assert!(second.unwrap_err().is_device_fault());
        assert_eq!(fetch, None, "a faulted job fetches no plan");
        let (third, fetch) = backend.execute_sealed(&sealed, &cache);
        assert!(third.is_ok());
        assert_eq!(fetch.map(|f| f.hit), Some(true));
    }
}
