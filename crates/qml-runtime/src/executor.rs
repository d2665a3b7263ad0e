//! Job lifecycle and execution.
//!
//! The runtime accepts packaged job bundles (`job.json` artifacts in the
//! paper's workflow) through [`Runtime::submit`], tracks each submitted job's
//! state behind a `parking_lot` mutex so callers can poll status from other
//! threads, and executes jobs in exactly one routine —
//! `Runtime::execute_claimed`, one job through the runtime's shared
//! transpilation/lowering cache, on a placement its caller already chose.
//! [`Runtime::run_job`] places a queued job and runs it; a
//! [`WorkerPool`](crate::pool::WorkerPool) runs each member of whatever its
//! source dispatches, each dispatch carrying its placement. The job table
//! belongs to `submit` and `run_job`: a pool's source owns the jobs it
//! dispatches, and execution writes no table, so the two never overlap.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use qml_backends::{ExecutionResult, PlanFetch, TranspileCache};
use qml_observe::{NoopTracer, Stage, Tracer};
use qml_types::{JobBundle, QmlError, Result, SealedBundle};

use crate::registry::{Placement, Scheduler};

/// Identifier of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// Lifecycle state of a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Submitted, not yet executed.
    Queued,
    /// Currently executing on a backend.
    Running,
    /// Finished successfully.
    Completed,
    /// Finished with an error (message attached).
    Failed(String),
}

/// A job submitted through [`Runtime::submit`]: the bundle and its status.
#[derive(Debug)]
pub(crate) struct Job {
    /// The submitted bundle, sealed at submission: claiming the job shares
    /// it instead of copying it.
    bundle: SealedBundle,
    status: JobStatus,
}

/// Everything the worker loop records about one executed job.
#[derive(Debug)]
pub struct JobOutcome {
    /// Identifier of the job.
    pub id: JobId,
    /// The execution result or the error that failed the job.
    pub result: Result<ExecutionResult>,
    /// Name of the backend the job was placed on (failed executions
    /// included).
    pub backend: String,
    /// The fleet device the dispatch was routed to, echoed from
    /// [`JobDispatch::device`](crate::pool::JobDispatch::device): set on
    /// every dispatch of a fleet-routing source such as the serving tier,
    /// `None` from a source without a fleet.
    pub device: Option<Arc<str>>,
    /// Wall-clock of this job's backend call: its plan fetch (a realization
    /// on a miss), bind and sample.
    pub duration: Duration,
    /// Index of the pool worker that executed the job.
    pub worker: usize,
}

/// The middle-layer runtime: a scheduler, a job store, and a shared
/// transpilation/lowering cache.
pub struct Runtime {
    scheduler: Scheduler,
    jobs: Mutex<BTreeMap<JobId, Job>>,
    /// The next job id. `Relaxed` suffices: an id publishes no other data
    /// (the job itself is published under `jobs`' lock).
    next_id: AtomicU64,
    cache: Arc<TranspileCache>,
    /// Stage-event sink for per-job `plan`/`bound` events from the execution
    /// paths. [`NoopTracer`] by default; a service wanting end-to-end traces
    /// installs its shared tracer via [`Runtime::set_tracer`] so runtime
    /// events share the service epoch.
    tracer: Arc<dyn Tracer>,
}

impl Runtime {
    /// A runtime over the given scheduler, with a fresh cache.
    pub fn new(scheduler: Scheduler) -> Self {
        Runtime::with_cache(scheduler, Arc::new(TranspileCache::new()))
    }

    /// A runtime sharing an existing transpilation/lowering cache (e.g. one
    /// owned by a service spanning several runtimes).
    pub fn with_cache(scheduler: Scheduler, cache: Arc<TranspileCache>) -> Self {
        Runtime {
            scheduler,
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(0),
            cache,
            tracer: Arc::new(NoopTracer),
        }
    }

    /// The transpilation/lowering cache shared by this runtime's executions.
    pub fn cache(&self) -> &Arc<TranspileCache> {
        &self.cache
    }

    /// Install a stage-event tracer (before the runtime is shared): the
    /// execution path emits per-job `plan` (cache hit/miss, plan fetch time)
    /// and `bound` events through it. Callers that also trace
    /// submission/scheduling should pass the *same* tracer instance so all
    /// timestamps share one epoch.
    pub fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        self.tracer = tracer;
    }

    /// A runtime with the built-in gate and annealing backends.
    pub fn with_default_backends() -> Self {
        Runtime::new(Scheduler::new(
            crate::registry::BackendRegistry::with_default_backends(),
        ))
    }

    /// The scheduler backing this runtime.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Submit a bundle for execution. Validation failures are rejected at
    /// submission time, not at run time.
    pub fn submit(&self, bundle: JobBundle) -> Result<JobId> {
        let bundle = SealedBundle::seal(bundle)?;
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let job = Job {
            bundle,
            status: JobStatus::Queued,
        };
        self.jobs.lock().insert(id, job);
        Ok(id)
    }

    /// Status of a job.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.jobs.lock().get(&id).map(|j| j.status.clone())
    }

    /// Execute one queued job synchronously: claim it (Queued → Running,
    /// sharing its sealed bundle), place it, and run it.
    /// A job that is not queued — already run, or claimed by a concurrent
    /// caller — is rejected, never run twice. A job no registered backend
    /// can take records `Failed` with the placement error, and no backend is
    /// called.
    pub fn run_job(&self, id: JobId) -> Result<ExecutionResult> {
        let bundle = {
            let mut jobs = self.jobs.lock();
            let job = jobs
                .get_mut(&id)
                .ok_or_else(|| QmlError::Validation(format!("unknown job id {id:?}")))?;
            if job.status != JobStatus::Queued {
                return Err(QmlError::Validation(format!(
                    "job {id:?} is not queued (status {:?})",
                    job.status
                )));
            }
            job.status = JobStatus::Running;
            job.bundle.clone()
        };
        let result = self
            .scheduler
            .place(&bundle)
            .and_then(|placement| self.execute_claimed(id, &bundle, &placement).result);
        let mut jobs = self.jobs.lock();
        let job = jobs.get_mut(&id).expect("claimed jobs stay in the table");
        job.status = match &result {
            Ok(_) => JobStatus::Completed,
            Err(err) => JobStatus::Failed(err.to_string()),
        };
        result
    }

    /// Execute one claimed job on `placement`'s backend through the shared
    /// cache ([`qml_backends::Backend::execute_sealed`]) — **the only routine
    /// in the runtime that calls a backend**. It neither places nor writes a
    /// job table: whoever handed the job out placed it and records its
    /// outcome (`run_job` into the runtime's table, a pool's sink into its
    /// source's). The outcome's duration is the wall-clock of the call.
    /// `device` and `worker` are left for the worker loop to stamp.
    ///
    /// This is also the one job boundary for backend bugs: a panic inside
    /// the backend call is caught and the job settles as an ordinary failure
    /// (not a device fault, so nothing is requeued onto the same bug), and
    /// the calling worker lives on to report it and run the next job — the
    /// job never strands in `Running`, its in-flight slot is released.
    ///
    /// The gate plane binds the job as a zero-copy overlay over the cached
    /// plan circuit and samples through the worker thread's scratch pool
    /// (`qml_sim::with_thread_scratch`): amplitude, CDF, and draw buffers are
    /// reused across jobs, so a warm job runs allocation-free in the
    /// simulator.
    pub(crate) fn execute_claimed(
        &self,
        id: JobId,
        bundle: &SealedBundle,
        placement: &Placement,
    ) -> JobOutcome {
        let started = Instant::now();
        // Unwind-safe: the bundle is only read, and an unwinding plan build
        // leaves its cache slot empty, like a failed one.
        let call = catch_unwind(AssertUnwindSafe(|| {
            placement.backend.execute_sealed(bundle, &self.cache)
        }));
        let duration = started.elapsed();
        let result = match call {
            Ok((result, fetch)) => {
                self.trace(id, &result, fetch);
                result
            }
            Err(panic) => {
                let reason = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                Err(QmlError::Unsupported(format!("backend panicked: {reason}")))
            }
        };
        // Attribute a job to its placed backend even when the execution
        // itself failed.
        JobOutcome {
            id,
            result,
            backend: placement.backend.name().to_string(),
            device: None,
            duration,
            worker: 0,
        }
    }

    /// One job's `plan` and `bound` stage events, in lifecycle order, once
    /// its call has returned; the runtime is tenant-blind, so attribution by
    /// job id is what it records.
    fn trace(&self, id: JobId, result: &Result<ExecutionResult>, fetch: Option<PlanFetch>) {
        if !self.tracer.enabled() {
            return;
        }
        if let Some(fetch) = fetch {
            let plan = Stage::Plan {
                cache_hit: fetch.hit,
                realize_us: fetch.elapsed.as_micros() as u64,
            };
            self.tracer.record(id.0, None, None, plan);
        }
        if result.is_ok() {
            self.tracer.record(id.0, None, None, Stage::Bound);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qml_algorithms::{maxcut_ising_program, qaoa_maxcut_program, QaoaSchedule, RING_P1_ANGLES};
    use qml_graph::cycle;
    use qml_types::{AnnealConfig, ContextDescriptor, ExecConfig, JobBundle};

    fn gate_bundle(samples: u64) -> JobBundle {
        qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
            .unwrap()
            .with_context(ContextDescriptor::for_gate(
                ExecConfig::new("gate.aer_simulator")
                    .with_samples(samples)
                    .with_seed(1),
            ))
    }

    fn anneal_bundle(reads: u64) -> JobBundle {
        maxcut_ising_program(&cycle(4))
            .unwrap()
            .with_context(ContextDescriptor::for_anneal(
                "anneal.neal_simulator",
                AnnealConfig::with_reads(reads),
            ))
    }

    #[test]
    fn submit_run_and_query() {
        let runtime = Runtime::with_default_backends();
        let id = runtime.submit(gate_bundle(128)).unwrap();
        assert_eq!(runtime.status(id), Some(JobStatus::Queued));
        let result = runtime.run_job(id).unwrap();
        assert_eq!(result.shots, 128);
        assert_eq!(runtime.status(id), Some(JobStatus::Completed));
    }

    #[test]
    fn invalid_bundle_rejected_at_submission() {
        let runtime = Runtime::with_default_backends();
        let bundle = JobBundle::new("empty", vec![], vec![]);
        assert!(runtime.submit(bundle).is_err());
        assert_eq!(runtime.status(JobId(0)), None, "nothing was queued");
    }

    #[test]
    fn running_a_job_twice_is_rejected() {
        let runtime = Runtime::with_default_backends();
        let id = runtime.submit(anneal_bundle(50)).unwrap();
        runtime.run_job(id).unwrap();
        assert!(runtime.run_job(id).is_err());
    }

    #[test]
    fn failed_jobs_record_their_error() {
        let runtime = Runtime::with_default_backends();
        // A QAOA bundle forced onto the annealing engine cannot be realized.
        let bundle = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
            .unwrap()
            .with_context(ContextDescriptor::for_anneal(
                "anneal.neal_simulator",
                AnnealConfig::with_reads(10),
            ));
        let id = runtime.submit(bundle).unwrap();
        assert!(runtime.run_job(id).is_err());
        match runtime.status(id).unwrap() {
            JobStatus::Failed(msg) => assert!(msg.contains("ISING_PROBLEM"), "{msg}"),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn unplaceable_job_fails_without_reaching_a_backend() {
        let runtime = Runtime::with_default_backends();
        let bundle = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
            .unwrap()
            .with_context(ContextDescriptor::for_gate(ExecConfig::new(
                "pulse.qblox_cluster",
            )));
        let id = runtime.submit(bundle).unwrap();
        let err = runtime.run_job(id).unwrap_err();
        assert!(matches!(err, QmlError::Unsupported(_)), "{err}");
        assert!(err.to_string().contains("pulse.qblox_cluster"), "{err}");
        assert_eq!(runtime.status(id), Some(JobStatus::Failed(err.to_string())));
        let stats = runtime.cache().stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 0),
            "no backend looked up a plan"
        );
        assert!(runtime.run_job(id).is_err(), "a failed job stays failed");
    }

    #[test]
    fn shared_loop_drains_every_job() {
        // More jobs than workers, fed to the pool's worker loop one solo
        // dispatch at a time: everything completes exactly once, and the
        // outcomes cover every dispatched id.
        use crate::pool::{JobDispatch, JobSource, WorkerPool};

        struct Queue(Mutex<Vec<JobDispatch>>);
        impl JobSource for Queue {
            fn next_job(&self, _worker: usize) -> Option<JobDispatch> {
                self.0.lock().pop()
            }
        }

        let runtime = Arc::new(Runtime::with_default_backends());
        let mut dispatches = Vec::new();
        for i in 0..12 {
            let bundle = if i % 2 == 0 {
                gate_bundle(32)
            } else {
                anneal_bundle(32)
            };
            let bundle = SealedBundle::seal(bundle).unwrap();
            let placement = runtime.scheduler().place(&bundle).unwrap();
            dispatches.push(JobDispatch::new(JobId(i), bundle, placement));
        }
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let outcomes = Arc::clone(&outcomes);
            Arc::new(move |outcome: JobOutcome| outcomes.lock().push(outcome))
        };
        let source = Arc::new(Queue(Mutex::new(dispatches)));
        let executed = WorkerPool::spawn(&runtime, 3, source, sink).join();
        assert_eq!(executed, 12);
        let outcomes = outcomes.lock();
        let mut seen: Vec<JobId> = outcomes.iter().map(|o| o.id).collect();
        seen.sort();
        assert_eq!(seen, (0..12).map(JobId).collect::<Vec<_>>());
        for outcome in outcomes.iter() {
            assert!(outcome.result.is_ok(), "{:?}", outcome.result);
            assert!(outcome.worker < 3);
            let expected = if outcome.id.0 % 2 == 0 {
                "qml-gate-simulator"
            } else {
                "qml-simulated-annealer"
            };
            assert_eq!(outcome.backend, expected);
        }
    }

    #[test]
    fn repeated_intents_hit_the_runtime_cache() {
        let runtime = Runtime::with_default_backends();
        let ids: Vec<JobId> = (0..4)
            .map(|_| runtime.submit(gate_bundle(32)).unwrap())
            .collect();
        for id in ids {
            runtime.run_job(id).unwrap();
        }
        let stats = runtime.cache().gate_stats();
        assert_eq!(
            stats.misses, 1,
            "one transpilation for four identical intents"
        );
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn failed_job_does_not_poison_the_batch() {
        // One anneal dispatch of three whose middle member is a QAOA program
        // forced onto the annealing engine: it fails at its own position,
        // the others complete.
        use crate::pool::{JobDispatch, JobSource, WorkerPool};

        struct Once(Mutex<Option<JobDispatch>>);
        impl JobSource for Once {
            fn next_job(&self, _worker: usize) -> Option<JobDispatch> {
                self.0.lock().take()
            }
        }

        let runtime = Arc::new(Runtime::with_default_backends());
        let bad = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
            .unwrap()
            .with_context(ContextDescriptor::for_anneal(
                "anneal.neal_simulator",
                AnnealConfig::with_reads(10),
            ));
        let members: Vec<(JobId, SealedBundle)> = [anneal_bundle(16), bad, anneal_bundle(16)]
            .into_iter()
            .enumerate()
            .map(|(i, bundle)| (JobId(i as u64), SealedBundle::seal(bundle).unwrap()))
            .collect();
        let dispatch = JobDispatch {
            placement: runtime.scheduler().place(&members[0].1).unwrap(),
            members,
            device: None,
            class: qml_types::ServiceClass::Throughput,
        };
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let outcomes = Arc::clone(&outcomes);
            Arc::new(move |outcome: JobOutcome| outcomes.lock().push(outcome))
        };
        let source = Arc::new(Once(Mutex::new(Some(dispatch))));
        assert_eq!(WorkerPool::spawn(&runtime, 1, source, sink).join(), 3);
        let outcomes = outcomes.lock();
        let ids: Vec<u64> = outcomes.iter().map(|o| o.id.0).collect();
        assert_eq!(ids, [0, 1, 2]);
        assert!(outcomes[0].result.is_ok(), "{:?}", outcomes[0].result);
        assert!(outcomes[1].result.is_err());
        assert!(outcomes[2].result.is_ok(), "{:?}", outcomes[2].result);
        for outcome in outcomes.iter() {
            assert_eq!(outcome.backend, "qml-simulated-annealer");
        }
    }

    #[test]
    fn concurrent_drains_never_double_run_or_phantom_fail() {
        // Two threads race to run every queued job: each job executes
        // exactly once, and no job ends Failed from a lost claim race.
        let runtime = Runtime::with_default_backends();
        let ids: Vec<JobId> = (0..10)
            .map(|i| {
                let bundle = if i % 2 == 0 {
                    gate_bundle(16)
                } else {
                    anneal_bundle(16)
                };
                runtime.submit(bundle).unwrap()
            })
            .collect();
        let drain = || {
            ids.iter()
                .filter_map(|id| runtime.run_job(*id).ok().map(|_| *id))
                .collect::<Vec<JobId>>()
        };
        let (a, b) = std::thread::scope(|scope| {
            let h1 = scope.spawn(drain);
            let h2 = scope.spawn(drain);
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert_eq!(a.len() + b.len(), 10, "each job ran exactly once");
        let mut seen: Vec<JobId> = a.iter().chain(b.iter()).copied().collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 10);
        assert!(ids
            .iter()
            .all(|id| runtime.status(*id) == Some(JobStatus::Completed)));
    }

    /// `(job, cache_hit)` of every `plan` event and the job of every `bound`
    /// event, in publish order.
    fn plan_and_bound(runtime: &Runtime) -> (Vec<(u64, bool)>, Vec<u64>) {
        let mut plans = Vec::new();
        let mut bounds = Vec::new();
        for event in runtime.tracer.drain() {
            match event.stage {
                Stage::Plan { cache_hit, .. } => plans.push((event.job, cache_hit)),
                Stage::Bound => bounds.push(event.job),
                _ => {}
            }
        }
        (plans, bounds)
    }

    #[test]
    fn one_shot_entry_points_trace_plan_and_bound() {
        let mut runtime = Runtime::with_default_backends();
        runtime.set_tracer(Arc::new(qml_observe::RingTracer::new()));
        let ids = [
            runtime.submit(gate_bundle(32)).unwrap(),
            runtime.submit(gate_bundle(32)).unwrap(),
        ];
        runtime.run_job(ids[0]).unwrap();
        runtime.run_job(ids[1]).unwrap();
        let (plans, bounds) = plan_and_bound(&runtime);
        assert_eq!(
            plans,
            vec![(ids[0].0, false), (ids[1].0, true)],
            "run_job: one plan event per job, the miss first"
        );
        assert_eq!(bounds, vec![ids[0].0, ids[1].0]);
    }
}
