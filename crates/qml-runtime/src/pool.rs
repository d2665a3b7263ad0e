//! The worker loop, and a feed-while-running pool of it over a shared job
//! source.
//!
//! A [`WorkerPool`] runs one loop per worker: each repeatedly calls
//! [`JobSource::next_job`], which hands out placed work or `None` to make
//! the worker exit. A source with nothing to hand out right now blocks
//! inside `next_job` until it has — a worker never sleeps or spins on its
//! own. The policy — which job runs next, on which backend and device, and
//! the waiting — lives entirely in the source; the serving tier
//! (`qml-service`) feeds the pool from its fair scheduler.
//!
//! A dispatch carries the sealed bundles it runs and the placement it runs
//! them on; a worker executes each member in turn through the runtime's one
//! execution routine (shared transpilation cache included) and reports it
//! to an outcome sink as it finishes, before the next member starts, so
//! callers can update metrics live rather than waiting for a drain to
//! return.

use std::sync::Arc;
use std::thread;

use qml_types::{SealedBundle, ServiceClass};

use crate::executor::{JobId, JobOutcome, Runtime};
use crate::registry::Placement;

/// One dispatched unit of work: a head job, optionally coalesced with
/// further plan-compatible jobs (a **micro-batch**, one scheduler
/// round-trip), plus the placement the source computed for it, so a worker
/// never places a bundle.
#[derive(Debug, Clone)]
pub struct JobDispatch {
    /// The jobs to execute, head first, each with its sealed bundle (a
    /// reference-count bump, not a copy). Never empty. All members share
    /// the head's backend and realization-plan key; the worker executes them
    /// one by one, in this order, each through its own
    /// [`Backend::execute_sealed`](qml_backends::Backend::execute_sealed)
    /// call, and each outcome reaches the sink before the next member
    /// starts.
    pub members: Vec<(JobId, SealedBundle)>,
    /// The placement every member executes on: the backend instance the
    /// worker calls, and the engine and cost estimate it was chosen by.
    pub placement: Placement,
    /// The fleet device this dispatch was routed to. Echoed back on every
    /// member's [`JobOutcome`] so the source can settle the right device's
    /// health and gauges; the runtime itself never reads it. Every
    /// dispatch of the serving tier names one; a source without a fleet
    /// leaves it `None`.
    pub device: Option<Arc<str>>,
    /// The service class the source dispatched this batch under. The batch
    /// was already formed under that class's cap — the field lets workers
    /// and backends attribute the work (e.g. prioritized draining) without
    /// re-deriving policy.
    pub class: ServiceClass,
}

impl JobDispatch {
    /// A solo throughput-class dispatch on `placement`, routed to no device.
    pub fn new(id: JobId, bundle: SealedBundle, placement: Placement) -> Self {
        JobDispatch {
            members: vec![(id, bundle)],
            placement,
            device: None,
            class: ServiceClass::Throughput,
        }
    }

    /// The head job.
    pub fn id(&self) -> JobId {
        self.members[0].0
    }

    /// Every job in this dispatch: the head, then the coalesced members.
    pub fn ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.members.iter().map(|(id, _)| *id)
    }

    /// Number of jobs in this dispatch (head + coalesced members).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the dispatch has no members; a source never hands out such a
    /// dispatch.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// A shared injector feeding a [`WorkerPool`].
///
/// Implementations own the queueing policy: which job runs next, which
/// tenant's turn it is, whether a rate limit applies, and when the pool
/// should shut down. `next_job` is called concurrently from every worker
/// thread, so implementations synchronize internally.
pub trait JobSource: Send + Sync {
    /// Hand the calling worker its next dispatch, blocking while nothing is
    /// dispatchable; `None` tells the worker to exit.
    fn next_job(&self, worker: usize) -> Option<JobDispatch>;
}

/// The outcome sink a pool reports finished jobs to, in completion order.
pub(crate) type OutcomeSink = dyn Fn(JobOutcome) + Send + Sync;

/// A long-lived pool of worker threads draining a shared [`JobSource`].
///
/// Workers run until the source answers `None`; dropping the pool without
/// [`WorkerPool::join`] detaches the threads (they still exit on the next
/// `None` answer).
pub struct WorkerPool {
    handles: Vec<thread::JoinHandle<usize>>,
}

impl WorkerPool {
    /// Spawn `workers` threads executing jobs from `source` on `runtime`,
    /// reporting each finished job to `sink`. The workers execute what the
    /// source dispatches and never touch the runtime's own job table, which
    /// serves [`Runtime::submit`] and [`Runtime::run_job`] alone.
    pub fn spawn(
        runtime: &Arc<Runtime>,
        workers: usize,
        source: Arc<dyn JobSource>,
        sink: Arc<OutcomeSink>,
    ) -> WorkerPool {
        let handles = (0..workers.max(1))
            .map(|worker| {
                let runtime = Arc::clone(runtime);
                let source = Arc::clone(&source);
                let sink = Arc::clone(&sink);
                thread::Builder::new()
                    .name(format!("qml-worker-{worker}"))
                    .spawn(move || worker_loop(worker, &runtime, &*source, &*sink))
                    .expect("failed to spawn pool worker thread")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Wait for every worker to exit (the source must answer `None`
    /// eventually). Returns the total number of jobs the pool executed.
    pub fn join(self) -> usize {
        self.handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .sum()
    }
}

/// The one job loop: ask `source` for work until it answers `None`, and
/// execute each member of a dispatch on `runtime` as its own call, in
/// dispatch order, reporting its outcome to `sink` before the next member
/// starts. Returns the number of jobs executed.
fn worker_loop(
    worker: usize,
    runtime: &Runtime,
    source: &dyn JobSource,
    sink: &(dyn Fn(JobOutcome) + Sync),
) -> usize {
    let mut executed = 0usize;
    while let Some(dispatch) = source.next_job(worker) {
        for (id, bundle) in dispatch.members {
            let outcome = runtime.execute_claimed(id, &bundle, &dispatch.placement);
            // Release this worker's share of the bundle before the outcome
            // settles: the source still holds one then, so the last share —
            // and the free — stays with the source's thread.
            drop(bundle);
            executed += 1;
            sink(JobOutcome {
                device: dispatch.device.clone(),
                worker,
                ..outcome
            });
        }
    }
    executed
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use qml_algorithms::{qaoa_maxcut_program, QaoaSchedule, RING_P1_ANGLES};
    use qml_graph::cycle;
    use qml_types::{ContextDescriptor, ExecConfig, JobBundle};
    use std::collections::{HashMap, VecDeque};
    use std::sync::Condvar;

    fn gate_bundle(seed: u64) -> JobBundle {
        qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
            .unwrap()
            .with_context(ContextDescriptor::for_gate(
                ExecConfig::new("gate.aer_simulator")
                    .with_samples(32)
                    .with_seed(seed),
            ))
    }

    /// Sealed gate bundles numbered `0..n`: the source owns the ids, the
    /// runtime's job table is never involved.
    fn gate_members(n: u64) -> Vec<(JobId, SealedBundle)> {
        (0..n)
            .map(|seed| (JobId(seed), SealedBundle::seal(gate_bundle(seed)).unwrap()))
            .collect()
    }

    /// The placement a runtime's scheduler gives the head member.
    fn place_head(runtime: &Runtime, members: &[(JobId, SealedBundle)]) -> Placement {
        runtime.scheduler().place(&members[0].1).unwrap()
    }

    /// A FIFO source of solo dispatches on one placement that blocks while
    /// its queue is empty, and shuts the pool down once told to stop and
    /// drained.
    struct FifoSource {
        state: Mutex<Fifo>,
        wake: Condvar,
        placement: Placement,
    }

    #[derive(Default)]
    struct Fifo {
        queue: VecDeque<(JobId, SealedBundle)>,
        stopping: bool,
    }

    impl FifoSource {
        fn new(placement: Placement) -> Self {
            FifoSource {
                state: Mutex::new(Fifo::default()),
                wake: Condvar::new(),
                placement,
            }
        }

        fn push(&self, member: (JobId, SealedBundle)) {
            self.state.lock().queue.push_back(member);
            self.wake.notify_all();
        }

        fn stop(&self) {
            self.state.lock().stopping = true;
            self.wake.notify_all();
        }
    }

    impl JobSource for FifoSource {
        fn next_job(&self, _worker: usize) -> Option<JobDispatch> {
            let mut state = self.state.lock();
            loop {
                if let Some((id, bundle)) = state.queue.pop_front() {
                    return Some(JobDispatch::new(id, bundle, self.placement.clone()));
                }
                if state.stopping {
                    return None;
                }
                state = self.wake.wait(state).unwrap();
            }
        }
    }

    #[test]
    fn pool_executes_jobs_fed_while_running() {
        let runtime = Arc::new(Runtime::with_default_backends());
        let members = gate_members(6);
        let source = Arc::new(FifoSource::new(place_head(&runtime, &members)));
        let completed = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let completed = Arc::clone(&completed);
            Arc::new(move |outcome: JobOutcome| {
                completed.lock().push((outcome.id, outcome.result.is_ok()));
            })
        };
        let pool = WorkerPool::spawn(&runtime, 2, source.clone(), sink);

        // Feed jobs *after* the pool is already running.
        let ids: Vec<JobId> = members.iter().map(|(id, _)| *id).collect();
        for member in members {
            source.push(member);
        }
        source.stop();
        let executed = pool.join();

        assert_eq!(executed, 6);
        let mut seen: Vec<JobId> = completed.lock().iter().map(|(id, _)| *id).collect();
        seen.sort();
        assert_eq!(seen, ids);
        assert!(completed.lock().iter().all(|(_, ok)| *ok));
    }

    /// A source that hands out its whole queue as one micro-batch, placed
    /// by the runtime's scheduler.
    struct OneBatchSource {
        members: Mutex<Vec<(JobId, SealedBundle)>>,
        placement: Placement,
    }

    impl OneBatchSource {
        fn new(runtime: &Runtime, members: Vec<(JobId, SealedBundle)>) -> Arc<Self> {
            Arc::new(OneBatchSource {
                placement: place_head(runtime, &members),
                members: Mutex::new(members),
            })
        }
    }

    impl JobSource for OneBatchSource {
        fn next_job(&self, _worker: usize) -> Option<JobDispatch> {
            let mut members = self.members.lock();
            if members.is_empty() {
                return None;
            }
            Some(JobDispatch {
                members: std::mem::take(&mut *members),
                placement: self.placement.clone(),
                device: None,
                class: ServiceClass::Throughput,
            })
        }
    }

    #[test]
    fn batched_dispatch_streams_every_member_in_order() {
        let runtime = Arc::new(Runtime::with_default_backends());
        let members = gate_members(4);
        let ids: Vec<JobId> = members.iter().map(|(id, _)| *id).collect();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let seen = Arc::clone(&seen);
            Arc::new(move |outcome: JobOutcome| {
                seen.lock().push((outcome.id, outcome.result.is_ok()));
            })
        };
        let executed =
            WorkerPool::spawn(&runtime, 1, OneBatchSource::new(&runtime, members), sink).join();
        assert_eq!(executed, 4);
        let seen = seen.lock();
        assert_eq!(
            seen.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            ids,
            "outcomes reach the sink in dispatch order"
        );
        assert!(seen.iter().all(|(_, ok)| *ok));
    }

    #[test]
    fn batch_members_report_honest_unequal_durations() {
        use qml_algorithms::maxcut_ising_program;
        use qml_types::AnnealConfig;

        // A shot ladder: one Ising problem at 16 reads and at 4096 reads,
        // coalesced into a single micro-batch (one shared BQM lowering).
        // Each member is timed around its own call, so the 4096-read member,
        // which does ~256× the sampling work, reports the larger duration
        // even though the 16-read member realized the shared plan.
        let runtime = Arc::new(Runtime::with_default_backends());
        let ladder = |reads: u64| {
            let bundle = maxcut_ising_program(&cycle(4)).unwrap().with_context(
                ContextDescriptor::for_anneal(
                    "anneal.neal_simulator",
                    AnnealConfig::with_reads(reads),
                ),
            );
            SealedBundle::seal(bundle).unwrap()
        };
        let (small, large) = (JobId(0), JobId(1));
        let source =
            OneBatchSource::new(&runtime, vec![(small, ladder(16)), (large, ladder(4096))]);
        let durations = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let durations = Arc::clone(&durations);
            Arc::new(move |outcome: JobOutcome| {
                assert!(outcome.result.is_ok(), "{:?}", outcome.result);
                durations.lock().push((outcome.id, outcome.duration));
            })
        };
        let executed = WorkerPool::spawn(&runtime, 1, source, sink).join();
        assert_eq!(executed, 2);
        let durations = durations.lock();
        let small_dur = durations.iter().find(|(id, _)| *id == small).unwrap().1;
        let large_dur = durations.iter().find(|(id, _)| *id == large).unwrap().1;
        assert_ne!(
            small_dur, large_dur,
            "batch members must not report an even wall-clock split"
        );
        assert!(
            large_dur > small_dur * 2,
            "a 256× sampling workload must be attributed a larger duration \
             (got {small_dur:?} vs {large_dur:?})"
        );
    }

    #[test]
    fn a_panicking_member_fails_alone_and_keeps_the_worker() {
        use crate::{BackendRegistry, Scheduler};
        use qml_backends::testing::{faulty, FaultPlan};
        use qml_backends::GateBackend;

        // The second member of a three-job dispatch panics inside the
        // backend: it fails, its neighbours complete, and the worker is
        // still alive to be joined.
        let mut registry = BackendRegistry::new();
        registry.register(faulty(
            GateBackend::new(),
            FaultPlan::none().with_panic_nth([1]),
        ));
        let runtime = Arc::new(Runtime::new(Scheduler::new(registry)));
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let outcomes = Arc::clone(&outcomes);
            Arc::new(move |outcome: JobOutcome| {
                outcomes.lock().push((outcome.id, outcome.result));
            })
        };
        let executed = WorkerPool::spawn(
            &runtime,
            1,
            OneBatchSource::new(&runtime, gate_members(3)),
            sink,
        )
        .join();
        assert_eq!(executed, 3, "every member is reported, none stranded");
        let outcomes = outcomes.lock();
        let ids: Vec<JobId> = outcomes.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [JobId(0), JobId(1), JobId(2)]);
        assert!(outcomes[0].1.is_ok(), "{:?}", outcomes[0].1);
        let err = outcomes[1].1.as_ref().unwrap_err();
        assert!(!err.is_device_fault());
        assert!(err.to_string().contains("backend panicked"), "{err}");
        assert!(outcomes[2].1.is_ok(), "{:?}", outcomes[2].1);
    }

    #[test]
    fn a_dispatch_reports_each_member_before_the_next_starts() {
        use crate::{BackendRegistry, Scheduler};
        use qml_backends::{Backend, ExecutionResult, GateBackend, PlanFetch, TranspileCache};

        /// The gate backend, logging `start <job>` as each execution begins.
        struct Logged {
            inner: GateBackend,
            log: Arc<Mutex<Vec<String>>>,
        }

        impl Backend for Logged {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn supports_engine(&self, engine: &str) -> bool {
                self.inner.supports_engine(engine)
            }
            fn default_engine(&self) -> &str {
                self.inner.default_engine()
            }
            fn execute_sealed(
                &self,
                bundle: &SealedBundle,
                cache: &TranspileCache,
            ) -> (qml_types::Result<ExecutionResult>, Option<PlanFetch>) {
                let seed = bundle.context.as_ref().and_then(|c| c.exec.as_ref()?.seed);
                self.log.lock().push(format!("start {}", seed.unwrap()));
                self.inner.execute_sealed(bundle, cache)
            }
        }

        // Member `i` is seeded `i`, so the backend can name it.
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut registry = BackendRegistry::new();
        registry.register(Arc::new(Logged {
            inner: GateBackend::new(),
            log: Arc::clone(&log),
        }));
        let runtime = Arc::new(Runtime::new(Scheduler::new(registry)));
        let sink = {
            let log = Arc::clone(&log);
            Arc::new(move |outcome: JobOutcome| {
                assert!(outcome.result.is_ok(), "{:?}", outcome.result);
                log.lock().push(format!("sink {}", outcome.id.0));
            })
        };
        let source = OneBatchSource::new(&runtime, gate_members(3));
        assert_eq!(WorkerPool::spawn(&runtime, 1, source, sink).join(), 3);
        assert_eq!(
            *log.lock(),
            ["start 0", "sink 0", "start 1", "sink 1", "start 2", "sink 2"],
            "each outcome reaches the sink before the next member starts"
        );
    }

    #[test]
    fn a_worker_releases_its_bundle_before_the_sink_runs() {
        // The source keeps its own share of every bundle it hands out, as
        // the service's retired bundles do. The sink drops that share: if the
        // worker has already released its own, the drop frees the bundle,
        // on the sink's thread, and leaves the probe taken here as the only
        // owner of its operators.
        let runtime = Arc::new(Runtime::with_default_backends());
        let members = gate_members(4);
        let source = Arc::new(FifoSource::new(place_head(&runtime, &members)));
        let shares: HashMap<JobId, SealedBundle> = members.iter().cloned().collect();
        let shares = Arc::new(Mutex::new(shares));
        let owners = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let (shares, owners) = (Arc::clone(&shares), Arc::clone(&owners));
            Arc::new(move |outcome: JobOutcome| {
                let share = shares.lock().remove(&outcome.id).unwrap();
                let operators = Arc::clone(&share.operators);
                drop(share);
                owners.lock().push(Arc::strong_count(&operators));
            })
        };
        let pool = WorkerPool::spawn(&runtime, 1, source.clone(), sink);
        for member in members {
            source.push(member);
        }
        source.stop();
        assert_eq!(pool.join(), 4);
        assert_eq!(
            *owners.lock(),
            [1, 1, 1, 1],
            "the worker still held a bundle when its outcome settled"
        );
    }

    #[test]
    fn shutdown_with_empty_source_exits_immediately() {
        let runtime = Arc::new(Runtime::with_default_backends());
        let placement = place_head(&runtime, &gate_members(1));
        let source = Arc::new(FifoSource::new(placement));
        source.stop();
        let pool = WorkerPool::spawn(&runtime, 3, source, Arc::new(|_| {}));
        assert_eq!(pool.workers(), 3);
        assert_eq!(pool.join(), 0);
    }
}
