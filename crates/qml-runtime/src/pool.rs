//! The worker loop, and a feed-while-running pool of it over a shared job
//! source.
//!
//! Every way of executing jobs is a [`JobSource`] feeding one worker loop:
//! each worker repeatedly calls [`JobSource::next_job`], which either hands
//! out queued work ([`Feed::Job`]), asks the worker to back off briefly
//! ([`Feed::Idle`]), or tells it to exit ([`Feed::Shutdown`]). The policy —
//! FIFO, cost-ranked, deficit-round-robin across tenants — lives entirely in
//! the source. [`Runtime::run_all`](crate::Runtime::run_all) feeds the loop a
//! ranked *snapshot* of the queue on scoped threads and returns when it is
//! exhausted; a long-running service needs workers that
//! live as long as it does and pick up new submissions immediately, which is
//! the [`WorkerPool`] here, fed by the serving tier's (`qml-service`) fair
//! scheduler.
//!
//! Dispatched jobs go through the runtime's atomic claim and its one
//! execution routine (shared transpilation cache included) and are reported
//! to an outcome sink as they finish, so callers can update metrics live
//! rather than waiting for a drain to return.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use qml_types::ServiceClass;

use crate::executor::{JobId, JobOutcome, Runtime};
use crate::registry::Placement;

/// Shortest idle back-off; doubles per consecutive idle poll up to
/// [`MAX_IDLE_BACKOFF`], so a service with no queued work converges to a
/// few source polls per worker per hundred milliseconds instead of a
/// sustained busy-spin on the source's lock.
const IDLE_BACKOFF: Duration = Duration::from_micros(500);

/// Longest idle back-off (also the worst-case extra dispatch latency a
/// long-idle service adds to the next submission).
const MAX_IDLE_BACKOFF: Duration = Duration::from_millis(10);

/// One dispatched unit of work: a head job, optionally coalesced with
/// further plan-compatible jobs (a **micro-batch**), plus the placement the
/// source already computed for it, if any (sources that rank jobs by
/// placement cost pass it along so the worker does not place the bundle a
/// second time).
#[derive(Debug, Clone)]
pub struct JobDispatch {
    /// The (head) job to execute.
    pub id: JobId,
    /// Additional jobs coalesced into this dispatch by the source. All
    /// members share the head's backend and realization-plan key, so the
    /// worker executes `[id, rest...]` through one
    /// [`Backend::execute_batch_timed`](qml_backends::Backend::execute_batch_timed)
    /// call (a solo dispatch is the same call with `rest` empty); outcomes
    /// reach the sink per member, in this order.
    pub rest: Vec<JobId>,
    /// A placement computed at admission time, reused for execution (and
    /// shared by every batched member).
    pub placement: Option<Placement>,
    /// The fleet device this dispatch was routed to, if the source routes at
    /// device granularity. Echoed back on every member's [`JobOutcome`] so
    /// the source can settle the right device's health and gauges; the
    /// runtime itself is device-blind.
    pub device: Option<Arc<str>>,
    /// The service class the source dispatched this batch under. The batch
    /// was already formed under that class's cap — the field lets workers
    /// and backends attribute the work (e.g. prioritized draining) without
    /// re-deriving policy.
    pub class: ServiceClass,
}

impl JobDispatch {
    /// A solo dispatch with no precomputed placement (the worker places).
    pub fn new(id: JobId) -> Self {
        JobDispatch {
            id,
            rest: Vec::new(),
            placement: None,
            device: None,
            class: ServiceClass::Throughput,
        }
    }

    /// Every job in this dispatch: the head, then the coalesced members.
    pub fn ids(&self) -> impl Iterator<Item = JobId> + '_ {
        std::iter::once(self.id).chain(self.rest.iter().copied())
    }

    /// Number of jobs in this dispatch (head + coalesced members).
    pub fn len(&self) -> usize {
        1 + self.rest.len()
    }

    /// Always false: a dispatch carries at least its head job. Provided for
    /// `len`/`is_empty` symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// What a [`JobSource`] hands a worker that asked for work.
#[derive(Debug, Clone)]
pub enum Feed {
    /// Execute this queued job next.
    Job(JobDispatch),
    /// Nothing dispatchable right now; back off briefly and ask again.
    Idle,
    /// No more work will ever be dispatched; the worker should exit.
    Shutdown,
}

/// A shared injector feeding a [`WorkerPool`].
///
/// Implementations own the queueing policy: which job runs next, which
/// tenant's turn it is, whether a rate limit applies, and when the pool
/// should shut down. `next_job` is called concurrently from every worker
/// thread, so implementations synchronize internally.
pub trait JobSource: Send + Sync {
    /// Hand the calling worker its next instruction.
    fn next_job(&self, worker: usize) -> Feed;

    /// Called when a dispatched job could not be claimed: the runtime does
    /// not know it, or it is no longer queued because another path (a
    /// concurrent [`Runtime::run_all`] or [`Runtime::run_job`] on the same
    /// runtime) ran it first. A safety net for sources that track in-flight
    /// slots, so a lost claim releases its slot instead of leaking it; a
    /// source that dispatches only jobs it alone admitted never sees it.
    fn job_skipped(&self, _id: JobId) {}
}

/// The outcome sink a pool reports finished jobs to, in completion order.
pub type OutcomeSink = dyn Fn(JobOutcome) + Send + Sync;

/// A long-lived pool of worker threads draining a shared [`JobSource`].
///
/// Workers run until the source answers [`Feed::Shutdown`]; dropping the
/// pool without [`WorkerPool::join`] detaches the threads (they still exit
/// on the next `Shutdown` answer).
pub struct WorkerPool {
    handles: Vec<thread::JoinHandle<usize>>,
}

impl WorkerPool {
    /// Spawn `workers` threads executing jobs from `source` on `runtime`,
    /// reporting each finished job to `sink`.
    ///
    /// Every dispatched job goes through the runtime's atomic claim, so no
    /// job runs twice even if another path ([`Runtime::run_all`],
    /// [`Runtime::run_job`]) reaches it first; the lost claim is reported
    /// through [`JobSource::job_skipped`].
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

    /// Wait for every worker to exit (the source must answer
    /// [`Feed::Shutdown`] eventually). Returns the total number of jobs the
    /// pool executed.
    pub fn join(self) -> usize {
        self.handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .sum()
    }
}

/// The one job loop: ask `source` for work until it answers
/// [`Feed::Shutdown`], execute each dispatch on `runtime`, report every
/// member to `sink`. Returns the number of jobs executed.
pub(crate) fn worker_loop(
    worker: usize,
    runtime: &Runtime,
    source: &dyn JobSource,
    sink: &(dyn Fn(JobOutcome) + Sync),
) -> usize {
    let mut executed = 0usize;
    let mut idle_backoff = IDLE_BACKOFF;
    loop {
        match source.next_job(worker) {
            Feed::Shutdown => break,
            Feed::Idle => {
                thread::sleep(idle_backoff);
                idle_backoff = (idle_backoff * 2).min(MAX_IDLE_BACKOFF);
            }
            Feed::Job(dispatch) => {
                // Solo dispatch or micro-batch — one path: claim every
                // member in order (a concurrent drain may have raced us to a
                // job; lost claims release the source's in-flight slot and
                // are skipped individually), execute the survivors as one
                // timed batch, and stream per-member outcomes to the sink in
                // dispatch order.
                idle_backoff = IDLE_BACKOFF;
                let mut claimed = Vec::with_capacity(dispatch.len());
                for id in dispatch.ids() {
                    match runtime.claim(id) {
                        Ok(Some(bundle)) => claimed.push((id, bundle)),
                        _ => source.job_skipped(id),
                    }
                }
                if claimed.is_empty() {
                    continue;
                }
                for outcome in runtime.execute_claimed_batch(claimed, dispatch.placement) {
                    executed += 1;
                    sink(JobOutcome {
                        device: dispatch.device.clone(),
                        worker,
                        ..outcome
                    });
                }
            }
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
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn gate_bundle(seed: u64) -> JobBundle {
        qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
            .unwrap()
            .with_context(ContextDescriptor::for_gate(
                ExecConfig::new("gate.aer_simulator")
                    .with_samples(32)
                    .with_seed(seed),
            ))
    }

    /// A FIFO source that keeps feeding until told to stop, then shuts the
    /// pool down once its queue is empty.
    struct FifoSource {
        queue: Mutex<VecDeque<JobId>>,
        stopping: AtomicBool,
    }

    impl FifoSource {
        fn new() -> Self {
            FifoSource {
                queue: Mutex::new(VecDeque::new()),
                stopping: AtomicBool::new(false),
            }
        }

        fn push(&self, id: JobId) {
            self.queue.lock().push_back(id);
        }
    }

    impl JobSource for FifoSource {
        fn next_job(&self, _worker: usize) -> Feed {
            if let Some(id) = self.queue.lock().pop_front() {
                return Feed::Job(JobDispatch::new(id));
            }
            if self.stopping.load(Ordering::SeqCst) {
                Feed::Shutdown
            } else {
                Feed::Idle
            }
        }
    }

    #[test]
    fn pool_executes_jobs_fed_while_running() {
        let runtime = Arc::new(Runtime::with_default_backends());
        let source = Arc::new(FifoSource::new());
        let completed = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let completed = Arc::clone(&completed);
            Arc::new(move |outcome: JobOutcome| {
                completed.lock().push((outcome.id, outcome.result.is_ok()));
            })
        };
        let pool = WorkerPool::spawn(&runtime, 2, source.clone(), sink);

        // Feed jobs *after* the pool is already running.
        let mut ids = Vec::new();
        for seed in 0..6 {
            let id = runtime.submit(gate_bundle(seed)).unwrap();
            source.push(id);
            ids.push(id);
        }
        source.stopping.store(true, Ordering::SeqCst);
        let executed = pool.join();

        assert_eq!(executed, 6);
        let mut seen: Vec<JobId> = completed.lock().iter().map(|(id, _)| *id).collect();
        seen.sort();
        assert_eq!(seen, ids);
        assert!(completed.lock().iter().all(|(_, ok)| *ok));
    }

    #[test]
    fn already_executed_jobs_are_skipped_not_failed() {
        let runtime = Arc::new(Runtime::with_default_backends());
        let source = Arc::new(FifoSource::new());
        let id = runtime.submit(gate_bundle(1)).unwrap();
        // Execute through the one-shot path first; the pool must then skip.
        runtime.run_job(id).unwrap();
        source.push(id);
        source.stopping.store(true, Ordering::SeqCst);
        let sink = Arc::new(|_outcome: JobOutcome| {});
        let executed = WorkerPool::spawn(&runtime, 1, source, sink).join();
        assert_eq!(executed, 0, "stale dispatch is skipped, not re-run");
    }

    /// A source that hands out its whole queue as one micro-batch.
    struct OneBatchSource {
        ids: Mutex<Vec<JobId>>,
    }

    impl JobSource for OneBatchSource {
        fn next_job(&self, _worker: usize) -> Feed {
            let mut ids = self.ids.lock();
            if ids.is_empty() {
                return Feed::Shutdown;
            }
            let id = ids.remove(0);
            let rest = ids.drain(..).collect();
            Feed::Job(JobDispatch {
                id,
                rest,
                placement: None,
                device: None,
                class: ServiceClass::Throughput,
            })
        }
    }

    #[test]
    fn batched_dispatch_streams_every_member_in_order() {
        let runtime = Arc::new(Runtime::with_default_backends());
        let ids: Vec<JobId> = (0..4)
            .map(|seed| runtime.submit(gate_bundle(seed)).unwrap())
            .collect();
        let source = Arc::new(OneBatchSource {
            ids: Mutex::new(ids.clone()),
        });
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let seen = Arc::clone(&seen);
            Arc::new(move |outcome: JobOutcome| {
                seen.lock().push((outcome.id, outcome.result.is_ok()));
            })
        };
        let executed = WorkerPool::spawn(&runtime, 1, source, sink).join();
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
        // Before per-member timing, both outcomes reported the same even
        // split of the batch wall-clock — fiction, since the 4096-read
        // member does ~256× the sampling work.
        let runtime = Arc::new(Runtime::with_default_backends());
        let ladder = |reads: u64| {
            maxcut_ising_program(&cycle(4))
                .unwrap()
                .with_context(ContextDescriptor::for_anneal(
                    "anneal.neal_simulator",
                    AnnealConfig::with_reads(reads),
                ))
        };
        let small = runtime.submit(ladder(16)).unwrap();
        let large = runtime.submit(ladder(4096)).unwrap();
        let source = Arc::new(OneBatchSource {
            ids: Mutex::new(vec![small, large]),
        });
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
    fn batched_dispatch_skips_already_executed_members() {
        let runtime = Arc::new(Runtime::with_default_backends());
        let ids: Vec<JobId> = (0..3)
            .map(|seed| runtime.submit(gate_bundle(seed)).unwrap())
            .collect();
        // The middle member races a one-shot execution and loses its claim;
        // the rest of the batch is unaffected.
        runtime.run_job(ids[1]).unwrap();
        let source = Arc::new(OneBatchSource {
            ids: Mutex::new(ids.clone()),
        });
        let sink = Arc::new(|_outcome: JobOutcome| {});
        let executed = WorkerPool::spawn(&runtime, 1, source, sink).join();
        assert_eq!(executed, 2, "lost claims are skipped, not re-run");
    }

    #[test]
    fn backend_panic_fails_the_whole_batch_and_keeps_the_worker() {
        use crate::{BackendRegistry, JobStatus, Scheduler};
        use qml_backends::testing::{faulty, FaultPlan};
        use qml_backends::GateBackend;

        // The second member of a three-job batch panics inside the backend:
        // the call never returns, so all three members fail — reported by a
        // worker that is still alive to be joined.
        let mut registry = BackendRegistry::new();
        registry.register(faulty(
            GateBackend::new(),
            FaultPlan::none().with_panic_nth([1]),
        ));
        let runtime = Arc::new(Runtime::new(Scheduler::new(registry)));
        let ids: Vec<JobId> = (0..3)
            .map(|seed| runtime.submit(gate_bundle(seed)).unwrap())
            .collect();
        let source = Arc::new(OneBatchSource {
            ids: Mutex::new(ids.clone()),
        });
        let sink = Arc::new(|outcome: JobOutcome| {
            assert!(!outcome.result.unwrap_err().is_device_fault());
        });
        let executed = WorkerPool::spawn(&runtime, 1, source, sink).join();
        assert_eq!(executed, 3, "every member is reported, none stranded");
        for id in ids {
            match runtime.status(id) {
                Some(JobStatus::Failed(msg)) => {
                    assert!(msg.contains("backend panicked"), "{msg}")
                }
                other => panic!("expected a failed job, got {other:?}"),
            }
        }
    }

    #[test]
    fn shutdown_with_empty_source_exits_immediately() {
        let runtime = Arc::new(Runtime::with_default_backends());
        let source = Arc::new(FifoSource::new());
        source.stopping.store(true, Ordering::SeqCst);
        let pool = WorkerPool::spawn(&runtime, 3, source, Arc::new(|_| {}));
        assert_eq!(pool.workers(), 3);
        assert_eq!(pool.join(), 0);
    }
}
