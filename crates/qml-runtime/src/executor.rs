//! Job lifecycle and execution.
//!
//! The runtime accepts packaged job bundles (`job.json` artifacts in the
//! paper's workflow) through [`Runtime::submit`], tracks each submitted job's
//! state behind a `parking_lot` mutex so callers can poll status from other
//! threads, and executes jobs in exactly one routine —
//! `Runtime::execute_claimed_batch`, a timed batch through the runtime's
//! shared transpilation/lowering cache. Every entry point reaches it the same
//! way: [`Runtime::run_job`] is a batch of one, and [`Runtime::run_all`]
//! feeds a cost-ranked snapshot of the queue (longest first, the classic LPT
//! heuristic) to the same worker loop the streaming
//! [`WorkerPool`](crate::pool::WorkerPool) runs; the snapshot never blocks,
//! it answers `None` once empty. The job table belongs to those three entry
//! points: a pool's source owns the jobs it dispatches, and execution writes
//! no table, so the two never overlap.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use qml_backends::{BatchTimings, ExecutionResult, TranspileCache};
use qml_observe::{NoopTracer, Stage, Tracer};
use qml_types::{JobBundle, QmlError, Result, SealedBundle};

use crate::pool::{worker_loop, JobDispatch, JobSource};
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

/// A job submitted through [`Runtime::submit`]: the bundle, its status,
/// and (eventually) its result.
#[derive(Debug)]
pub(crate) struct Job {
    /// The submitted bundle, sealed at submission: claiming the job shares
    /// it instead of copying it.
    bundle: SealedBundle,
    status: JobStatus,
    result: Option<ExecutionResult>,
}

/// Everything the worker loop records about one executed job.
#[derive(Debug)]
pub struct JobOutcome {
    /// Identifier of the job.
    pub id: JobId,
    /// The execution result or the error that failed the job.
    pub result: Result<ExecutionResult>,
    /// Name of the backend the job was placed on (present for failed
    /// executions too; `None` only when placement itself failed).
    pub backend: Option<String>,
    /// The fleet device the dispatch was routed to, echoed from
    /// [`JobDispatch::device`](crate::pool::JobDispatch::device). `None` on
    /// device-blind paths (one-shot drains, manual `run_job`).
    pub device: Option<Arc<str>>,
    /// Execution time attributed to this job: its own bind + sample time
    /// plus its share of the batch's plan realization.
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
    /// batch execution path emits per-job `plan` (cache hit/miss, attributed
    /// realization time) and `bound` events through it. Callers that also
    /// trace submission/scheduling should pass the *same* tracer instance so
    /// all timestamps share one epoch.
    pub fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        self.tracer = tracer;
    }

    /// The installed stage-event tracer ([`NoopTracer`] unless
    /// [`Runtime::set_tracer`] replaced it).
    pub fn tracer(&self) -> &Arc<dyn Tracer> {
        &self.tracer
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
            result: None,
        };
        self.jobs.lock().insert(id, job);
        Ok(id)
    }

    /// Status of a job.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.jobs.lock().get(&id).map(|j| j.status.clone())
    }

    /// Result of a completed job.
    pub fn result(&self, id: JobId) -> Option<ExecutionResult> {
        self.jobs.lock().get(&id).and_then(|j| j.result.clone())
    }

    /// Ids of all jobs in submission order.
    pub fn job_ids(&self) -> Vec<JobId> {
        self.jobs.lock().keys().copied().collect()
    }

    /// Execute one queued job synchronously: claim it (Queued → Running,
    /// sharing its sealed bundle), place it, and run it as a batch of one.
    /// A job that is not queued — already run, or claimed by a concurrent
    /// drain — is rejected, never run twice.
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
        let outcome = self
            .execute_claimed_batch(vec![(id, bundle)], None)
            .pop()
            .expect("one outcome per claimed job");
        self.record_terminal(&outcome);
        outcome.result
    }

    /// Record a claimed job's terminal state from its execution outcome.
    fn record_terminal(&self, outcome: &JobOutcome) {
        let mut jobs = self.jobs.lock();
        let job = jobs
            .get_mut(&outcome.id)
            .expect("claimed jobs stay in the table");
        match &outcome.result {
            Ok(result) => {
                job.status = JobStatus::Completed;
                job.result = Some(result.clone());
            }
            Err(err) => job.status = JobStatus::Failed(err.to_string()),
        }
    }

    /// Execute claimed jobs as one timed batch through the shared cache
    /// ([`qml_backends::Backend::execute_batch_timed`]) — **the only routine
    /// in the runtime that calls a backend**; a solo job is a batch of one.
    /// It writes no job table: whoever handed the jobs out records their
    /// outcomes (the one-shot entry points into the runtime's table, a
    /// pool's sink into its source's). Outcomes are returned
    /// in input order with an **honest per-member duration**: each member's
    /// own bind + sample time plus a share of the group's one plan
    /// realization proportional to that time — never an even split of the
    /// batch's wall-clock, which is fiction whenever members differ (e.g. a
    /// shot ladder). One failing member never poisons the rest. `device` and
    /// `worker` are left for the worker loop to stamp.
    ///
    /// `claimed` is never empty, and all members share one placement — the
    /// service's fair scheduler only coalesces jobs with one batch key, which
    /// implies one backend. `None` places the head here; if no backend can
    /// take it, every member fails with the placement error.
    ///
    /// This is also the one job boundary for backend bugs: a panic inside
    /// the backend call is caught, every member of the batch settles as an
    /// ordinary failure (not a device fault, so nothing is requeued onto the
    /// same bug), and the calling worker lives on to report it — its jobs
    /// never strand in `Running`, its in-flight slots are released.
    ///
    /// The gate plane binds each member as a zero-copy overlay over the
    /// shared plan circuit and samples through the worker thread's scratch
    /// pool (`qml_sim::with_thread_scratch`): amplitude, CDF, and draw
    /// buffers are reused across members, so a warm batch runs
    /// allocation-free after its first member.
    pub(crate) fn execute_claimed_batch(
        &self,
        claimed: Vec<(JobId, SealedBundle)>,
        placement: Option<Placement>,
    ) -> Vec<JobOutcome> {
        let (ids, bundles): (Vec<JobId>, Vec<SealedBundle>) = claimed.into_iter().unzip();
        let n = ids.len();
        let placement = placement.map_or_else(|| self.scheduler.place(&bundles[0]), Ok);
        let (results, durations) = match &placement {
            Ok(placement) => {
                let started = Instant::now();
                // Unwind-safe: the bundles are only read, and an unwinding
                // plan build leaves its cache slot empty, like a failed one.
                let call = catch_unwind(AssertUnwindSafe(|| {
                    placement.backend.execute_batch_timed(&bundles, &self.cache)
                }));
                match call {
                    Ok((results, timings)) => {
                        let durations = timings.attributed();
                        self.trace_members(&ids, &results, &timings, &durations);
                        (results, durations)
                    }
                    Err(panic) => {
                        let reason = panic
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".into());
                        let err = QmlError::Unsupported(format!("backend panicked: {reason}"));
                        (vec![Err(err); n], vec![started.elapsed() / n as u32; n])
                    }
                }
            }
            Err(err) => (vec![Err(err.clone()); n], vec![Duration::ZERO; n]),
        };
        // Attribute a job to its placed backend even when the execution
        // itself failed.
        let backend = placement.ok().map(|p| p.backend.name().to_string());
        ids.into_iter()
            .zip(results.into_iter().zip(durations))
            .map(|(id, (result, duration))| JobOutcome {
                id,
                result,
                backend: backend.clone(),
                device: None,
                duration,
                worker: 0,
            })
            .collect()
    }

    /// Per-member `plan`/`bound` stage events of one resolved batch call.
    /// Emitted in lifecycle order (`plan` then `bound`) once the call has
    /// returned — that is when the per-member cache attribution and
    /// realization share are known; the runtime is tenant-blind, so
    /// attribution by job id is what it records.
    fn trace_members(
        &self,
        ids: &[JobId],
        results: &[Result<ExecutionResult>],
        timings: &BatchTimings,
        durations: &[Duration],
    ) {
        if !self.tracer.enabled() {
            return;
        }
        for (i, id) in ids.iter().enumerate() {
            if let Some(cache_hit) = timings.plan_hit(i) {
                let own = timings.members.get(i).copied().unwrap_or_default();
                let realize = durations
                    .get(i)
                    .copied()
                    .unwrap_or_default()
                    .saturating_sub(own);
                self.tracer.record(
                    id.0,
                    None,
                    None,
                    Stage::Plan {
                        cache_hit,
                        realize_us: realize.as_micros() as u64,
                    },
                );
            }
            if results.get(i).is_some_and(|r| r.is_ok()) {
                self.tracer.record(id.0, None, None, Stage::Bound);
            }
        }
    }

    /// Execute every queued job with at most `max_parallel` workers.
    /// Returns the per-job outcomes in submission order.
    pub fn run_all(&self, max_parallel: usize) -> Vec<(JobId, Result<ExecutionResult>)> {
        let mut outcomes: Vec<(JobId, Result<ExecutionResult>)> = self
            .run_all_detailed(max_parallel)
            .into_iter()
            .map(|o| (o.id, o.result))
            .collect();
        outcomes.sort_by_key(|(id, _)| *id);
        outcomes
    }

    /// Execute every job queued right now on `num_workers` threads and
    /// report detailed per-job outcomes (in completion order).
    ///
    /// Queued jobs are ranked by the scheduler's cost estimate for their
    /// placement (descriptor cost hints — the paper's HPC-scheduler analogy),
    /// longest first, which minimizes makespan under the LPT heuristic. The
    /// ranked snapshot is a one-shot [`JobSource`] for the same worker loop
    /// the streaming pool runs, here borrowed on scoped threads: each idle
    /// worker takes the next-longest job, so one slow job delays only the
    /// worker executing it. Jobs submitted after the snapshot wait for the
    /// next drain.
    fn run_all_detailed(&self, num_workers: usize) -> Vec<JobOutcome> {
        // Claim the whole snapshot under one lock (Queued → Running), so
        // concurrent drains split the queue by construction; then run the
        // placement / cost-ranking pass outside it so status()/submit()
        // callers never block behind an O(batch) scheduler scan.
        let queued: Vec<(JobId, SealedBundle)> = {
            let mut jobs = self.jobs.lock();
            jobs.iter_mut()
                .filter(|(_, job)| job.status == JobStatus::Queued)
                .map(|(id, job)| {
                    job.status = JobStatus::Running;
                    (*id, job.bundle.clone())
                })
                .collect()
        };
        // One placement pass serves both the cost ranking and execution: the
        // chosen backend rides the dispatch so jobs are not re-placed on the
        // hot path. Jobs whose placement fails are still handed out; they
        // fail (and record their error) at execution time.
        let mut ranked: Vec<JobDispatch> = queued
            .into_iter()
            .map(|(id, bundle)| JobDispatch {
                placement: self.scheduler.place(&bundle).ok(),
                ..JobDispatch::new(id, bundle)
            })
            .collect();
        let cost = |d: &JobDispatch| d.placement.as_ref().map_or(0.0, |p| p.estimated_cost);
        ranked.sort_by(|a, b| {
            cost(b)
                .partial_cmp(&cost(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let num_workers = num_workers.max(1).min(ranked.len());
        let source = Snapshot(Mutex::new(ranked.into()));
        let outcomes: Mutex<Vec<JobOutcome>> = Mutex::new(Vec::new());
        let sink = |outcome: JobOutcome| {
            self.record_terminal(&outcome);
            outcomes.lock().push(outcome);
        };
        std::thread::scope(|scope| {
            for worker in 0..num_workers {
                let (source, sink) = (&source, &sink);
                scope.spawn(move || worker_loop(worker, self, source, sink));
            }
        });
        outcomes.into_inner()
    }
}

/// The one-shot [`JobSource`] behind [`Runtime::run_all`]: a ranked
/// snapshot handed out front to back. Nothing is ever re-queued into it, so
/// "empty" is a stable reason to shut a worker down.
struct Snapshot(Mutex<VecDeque<JobDispatch>>);

impl JobSource for Snapshot {
    fn next_job(&self, _worker: usize) -> Option<JobDispatch> {
        self.0.lock().pop_front()
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
        assert_eq!(runtime.result(id).unwrap().shots, 128);
    }

    #[test]
    fn invalid_bundle_rejected_at_submission() {
        let runtime = Runtime::with_default_backends();
        let bundle = JobBundle::new("empty", vec![], vec![]);
        assert!(runtime.submit(bundle).is_err());
        assert!(runtime.job_ids().is_empty());
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
    fn run_all_executes_mixed_workloads_in_parallel() {
        let runtime = Runtime::with_default_backends();
        let ids = [
            runtime.submit(gate_bundle(64)).unwrap(),
            runtime.submit(anneal_bundle(64)).unwrap(),
            runtime.submit(gate_bundle(32)).unwrap(),
            runtime.submit(anneal_bundle(32)).unwrap(),
        ];
        let outcomes = runtime.run_all(4);
        assert_eq!(outcomes.len(), 4);
        for (id, outcome) in &outcomes {
            assert!(outcome.is_ok(), "job {id:?} failed: {outcome:?}");
            assert_eq!(runtime.status(*id), Some(JobStatus::Completed));
        }
        // Gate jobs went to the gate backend, anneal jobs to the annealer.
        assert_eq!(
            runtime.result(ids[0]).unwrap().backend,
            "qml-gate-simulator"
        );
        assert_eq!(
            runtime.result(ids[1]).unwrap().backend,
            "qml-simulated-annealer"
        );
    }

    #[test]
    fn run_all_with_single_thread_budget() {
        let runtime = Runtime::with_default_backends();
        runtime.submit(gate_bundle(16)).unwrap();
        runtime.submit(anneal_bundle(16)).unwrap();
        let outcomes = runtime.run_all(1);
        assert!(outcomes.iter().all(|(_, o)| o.is_ok()));
    }

    #[test]
    fn shared_loop_drains_every_job() {
        // More jobs than workers: everything must complete exactly once, and
        // the detailed outcomes must cover every submitted id.
        let runtime = Runtime::with_default_backends();
        let mut ids = Vec::new();
        for i in 0..12 {
            let bundle = if i % 2 == 0 {
                gate_bundle(32)
            } else {
                anneal_bundle(32)
            };
            ids.push(runtime.submit(bundle).unwrap());
        }
        let outcomes = runtime.run_all_detailed(3);
        assert_eq!(outcomes.len(), 12);
        let mut seen: Vec<JobId> = outcomes.iter().map(|o| o.id).collect();
        seen.sort();
        assert_eq!(seen, ids);
        for outcome in &outcomes {
            assert!(outcome.result.is_ok(), "{:?}", outcome.result);
            assert!(outcome.worker < 3);
            assert!(outcome.backend.is_some());
        }
        assert!(runtime
            .job_ids()
            .iter()
            .all(|id| runtime.status(*id) == Some(JobStatus::Completed)));
    }

    #[test]
    fn repeated_intents_hit_the_runtime_cache() {
        let runtime = Runtime::with_default_backends();
        for _ in 0..4 {
            runtime.submit(gate_bundle(32)).unwrap();
        }
        let outcomes = runtime.run_all(4);
        assert!(outcomes.iter().all(|(_, o)| o.is_ok()));
        let stats = runtime.cache().gate_stats();
        assert_eq!(
            stats.misses, 1,
            "one transpilation for four identical intents"
        );
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn failed_job_does_not_poison_the_batch() {
        let runtime = Runtime::with_default_backends();
        let good = runtime.submit(gate_bundle(16)).unwrap();
        // A QAOA bundle forced onto the annealing engine fails at run time.
        let bad_bundle = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
            .unwrap()
            .with_context(ContextDescriptor::for_anneal(
                "anneal.neal_simulator",
                AnnealConfig::with_reads(10),
            ));
        let bad = runtime.submit(bad_bundle).unwrap();
        let good2 = runtime.submit(anneal_bundle(16)).unwrap();

        let outcomes = runtime.run_all(2);
        assert_eq!(outcomes.len(), 3);
        assert_eq!(runtime.status(good), Some(JobStatus::Completed));
        assert_eq!(runtime.status(good2), Some(JobStatus::Completed));
        assert!(matches!(runtime.status(bad), Some(JobStatus::Failed(_))));
    }

    #[test]
    fn concurrent_drains_never_double_run_or_phantom_fail() {
        // Two simultaneous drains over one queue: every job executes exactly
        // once, the combined outcome count equals the job count, and no job
        // ends Failed from a lost claim race.
        let runtime = Runtime::with_default_backends();
        for i in 0..10 {
            let bundle = if i % 2 == 0 {
                gate_bundle(16)
            } else {
                anneal_bundle(16)
            };
            runtime.submit(bundle).unwrap();
        }
        let (a, b) = std::thread::scope(|scope| {
            let h1 = scope.spawn(|| runtime.run_all_detailed(2));
            let h2 = scope.spawn(|| runtime.run_all_detailed(2));
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert_eq!(a.len() + b.len(), 10, "each job reported exactly once");
        let mut seen: Vec<JobId> = a.iter().chain(b.iter()).map(|o| o.id).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 10);
        for outcome in a.iter().chain(b.iter()) {
            assert!(outcome.result.is_ok(), "{:?}", outcome.result);
        }
        assert!(runtime
            .job_ids()
            .iter()
            .all(|id| runtime.status(*id) == Some(JobStatus::Completed)));
    }

    /// `(job, cache_hit)` of every `plan` event and the job of every `bound`
    /// event, in publish order.
    fn plan_and_bound(runtime: &Runtime) -> (Vec<(u64, bool)>, Vec<u64>) {
        let mut plans = Vec::new();
        let mut bounds = Vec::new();
        for event in runtime.tracer().drain() {
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
        let traced = || {
            let mut runtime = Runtime::with_default_backends();
            runtime.set_tracer(Arc::new(qml_observe::RingTracer::new()));
            let ids = [
                runtime.submit(gate_bundle(32)).unwrap(),
                runtime.submit(gate_bundle(32)).unwrap(),
            ];
            (runtime, ids)
        };

        let (runtime, ids) = traced();
        runtime.run_job(ids[0]).unwrap();
        runtime.run_job(ids[1]).unwrap();
        let (plans, bounds) = plan_and_bound(&runtime);
        assert_eq!(
            plans,
            vec![(ids[0].0, false), (ids[1].0, true)],
            "run_job: one plan event per job, the miss first"
        );
        assert_eq!(bounds, vec![ids[0].0, ids[1].0]);

        let (runtime, ids) = traced();
        assert!(runtime.run_all(2).iter().all(|(_, o)| o.is_ok()));
        let (mut plans, mut bounds) = plan_and_bound(&runtime);
        assert_eq!(
            plans.iter().filter(|(_, hit)| !hit).count(),
            1,
            "run_all: exactly one of the two identical jobs realizes the plan"
        );
        plans.sort();
        bounds.sort();
        assert_eq!(
            plans.iter().map(|(job, _)| *job).collect::<Vec<_>>(),
            vec![ids[0].0, ids[1].0],
            "one plan event per job"
        );
        assert_eq!(bounds, vec![ids[0].0, ids[1].0], "one bound event per job");
    }

    #[test]
    fn run_all_reports_submission_order() {
        let runtime = Runtime::with_default_backends();
        let ids = vec![
            runtime.submit(gate_bundle(16)).unwrap(),
            runtime.submit(anneal_bundle(16)).unwrap(),
            runtime.submit(gate_bundle(8)).unwrap(),
        ];
        let outcomes = runtime.run_all(2);
        let reported: Vec<JobId> = outcomes.iter().map(|(id, _)| *id).collect();
        assert_eq!(reported, ids);
    }
}
