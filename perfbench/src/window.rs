//! One measured window: a fresh service, the workload's submissions, the
//! drain, and the checks on every output.
//!
//! Each window builds its own service so that windows are independent
//! samples: the job store a long-lived service accumulates would otherwise
//! make a run's memory and lookup costs depend on how many windows fit into
//! its time budget.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use qml_core::backends::{Backend, ExecutionResult, GateBackend, DEFAULT_PLAN_CAPACITY};
use qml_core::graph::{energy_to_cut, greedy, maxcut_to_ising};
use qml_core::runtime::{JobId, JobStatus};
use qml_core::service::{
    ObservabilitySnapshot, QmlService, ServiceConfig, ServiceHandle, ServiceMetrics,
};
use qml_core::types::bundle::{fnv1a64_init, fnv1a64_update};
use qml_core::types::{JobBundle, Result};
use qml_observe::TraceEvent;

use crate::inputs::{
    bulk_chunk, generate, seeded_sample, Inputs, Kind, Submission, Workload, BULK_CHUNK,
};
use crate::stats::{cpu_seconds, heap_mb};

/// Worker threads of every service the benchmark builds (the reference box
/// has two cores; `nproc` is echoed in the output).
pub const WORKERS: usize = 2;

const TENANT: &str = "bench";
const PROBE_TENANT: &str = "probe";
const BULK_TENANT: &str = "bulk";
/// A probe still not terminal after this long counts as failed.
const PROBE_TIMEOUT: Duration = Duration::from_secs(20);
const IDLE_TIMEOUT: Duration = Duration::from_secs(120);
/// Throughput jobs in a `mixed_latency` window per probe of its minimum:
/// sized so the backlog outlasts the minimum probe count by about a third
/// on the reference box, and the probe loop's length is the backlog's.
const BULK_PER_PROBE: usize = 12;
/// Share of a window's first probes left out of the latency percentiles,
/// while the throughput tenant's backlog is still building.
const PROBE_WARMUP_SHARE: usize = 10;

/// What one window measured.
pub struct Window {
    /// Jobs submitted or refused.
    pub attempted: usize,
    /// Jobs refused, timed out or not `Completed`.
    pub failed: usize,
    /// Jobs the service finished inside the window.
    pub jobs: usize,
    /// Submit + drain wall time.
    pub wall_s: f64,
    /// Process CPU time over the same interval.
    pub cpu_s: f64,
    /// Heap in use when the window ends and the service still holds every
    /// job of it.
    pub heap_mb: f64,
    /// Time spent inside submit calls.
    pub submit_s: f64,
    /// Lifetime of the worker pool, as the service reports it.
    pub pool_s: f64,
    /// Input generation + service construction + priming, before the window.
    pub setup_s: f64,
    /// Submit → result in hand, per job as the client sees it.
    pub latencies_ms: Vec<f64>,
    /// FNV-1a over every job's (index, counts, energy statistics).
    pub digest: u64,
    pub metrics: ServiceMetrics,
    pub snapshot: ObservabilitySnapshot,
    /// Stage events of the window (empty unless traced).
    pub trace: Vec<TraceEvent>,
    pub trace_dropped: u64,
    /// Output checks that failed.
    pub errors: Vec<String>,
}

/// What the timed part of a window hands to the checks.
struct Timed {
    /// Job ids in job order; `None` for a refused submission.
    ids: Vec<Option<JobId>>,
    latencies_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
    finished: usize,
    submit_s: f64,
    pool_s: f64,
    wall_s: f64,
}

/// Submit everything, then `run_pending`: the offline-batch shape.
fn drain_window(service: &QmlService, submissions: Vec<Submission>) -> Timed {
    let mut ids = Vec::new();
    let mut sent_at = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    for submission in submissions {
        let at = start.elapsed().as_secs_f64();
        let count = submission.job_count();
        attempted += count;
        let accepted: Result<()> = match submission {
            Submission::Sweep(sweep) => service
                .submit_sweep(TENANT, sweep)
                .map(|batch| ids.extend(service.batch_jobs(batch).into_iter().map(Some))),
            Submission::Json(text) => JobBundle::from_json(&text)
                .and_then(|bundle| service.submit(TENANT, bundle))
                .map(|(_, id)| ids.push(Some(id))),
            Submission::Bundle(bundle) => service
                .submit(TENANT, bundle)
                .map(|(_, id)| ids.push(Some(id))),
        };
        if accepted.is_err() {
            failed += count;
            ids.extend(std::iter::repeat_n(None, count));
        }
        sent_at.extend(std::iter::repeat_n(at, count));
    }
    let submit_s = start.elapsed().as_secs_f64();
    let summary = service.run_pending();
    let wall_s = start.elapsed().as_secs_f64();
    Timed {
        ids,
        // A result can first be read when the drain returns.
        latencies_ms: sent_at.iter().map(|at| (wall_s - at) * 1e3).collect(),
        attempted,
        failed,
        finished: summary.jobs,
        submit_s,
        pool_s: summary.wall_seconds,
        wall_s,
    }
}

/// `mixed_latency`: the throughput tenant works through a backlog of fixed
/// size, topped up chunk by chunk; the probe tenant runs its closed loop for
/// as long as that takes, cycling through its bundles, and for at least one
/// cycle. A fixed backlog keeps the window's memory and job mix independent
/// of how fast the probes happen to be.
fn probe_window(
    service: &QmlService,
    handle: ServiceHandle,
    inputs: &Inputs,
    seed: u64,
    primed: usize,
) -> Timed {
    let bulk = inputs
        .bulk
        .as_ref()
        .expect("mixed_latency has a bulk program");
    let cycle = inputs.submissions.len();
    let backlog = BULK_PER_PROBE * cycle;
    let mut ids = Vec::with_capacity(cycle);
    let mut latencies_ms = Vec::new();
    let (mut bulk_jobs, mut probes, mut failed) = (0, 0, 0);
    let mut in_submit = Duration::ZERO;
    let start = Instant::now();
    while probes < cycle || bulk_jobs < backlog {
        if service.metrics().queue_depth < BULK_CHUNK {
            let chunk = bulk_chunk(bulk, seed, bulk_jobs);
            if service.submit_sweep(BULK_TENANT, chunk).is_err() {
                failed += BULK_CHUNK;
            }
            bulk_jobs += BULK_CHUNK;
        }
        let Submission::Bundle(probe) = inputs.submissions[probes % cycle].clone() else {
            unreachable!("mixed_latency submits bundles");
        };
        let sent = Instant::now();
        let accepted = service.submit(PROBE_TENANT, probe);
        in_submit += sent.elapsed();
        let id = accepted.ok().map(|(_, id)| id);
        match id {
            Some(id) => {
                let status = service.wait_for(id, PROBE_TIMEOUT);
                latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                if status != Some(JobStatus::Completed) {
                    failed += 1;
                }
            }
            None => failed += 1,
        }
        // The digest covers the first cycle through the probe bundles.
        if probes < cycle {
            ids.push(id);
        }
        probes += 1;
    }
    if !service.wait_idle(IDLE_TIMEOUT) {
        failed += 1;
    }
    let summary = handle.drain();
    let wall_s = start.elapsed().as_secs_f64();
    latencies_ms.drain(..latencies_ms.len() / PROBE_WARMUP_SHARE);
    Timed {
        ids,
        latencies_ms,
        attempted: probes + bulk_jobs,
        failed: failed + summary.failed,
        finished: summary.jobs.saturating_sub(primed),
        submit_s: in_submit.as_secs_f64(),
        pool_s: summary.wall_seconds,
        wall_s,
    }
}

/// Set up and run one window. `deep` adds the expensive output checks: the
/// direct-execution comparison and the anneal energy recomputation.
pub fn run(
    workload: &Workload,
    seed: u64,
    jobs: usize,
    tracing: bool,
    deep: bool,
) -> Result<Window> {
    let setup = Instant::now();
    let inputs = generate(workload.kind, seed, jobs)?;
    let streaming = workload.kind == Kind::MixedLatency;
    // Room for every stage event of the window, so the fold sees all of them.
    let traced_jobs = if streaming {
        jobs * (1 + BULK_PER_PROBE)
    } else {
        jobs
    };
    let service = QmlService::with_config(
        ServiceConfig::with_workers(WORKERS)
            .with_tracing(tracing)
            .with_trace_capacity((8 * traced_jobs).max(1 << 16)),
    );
    let handle = if streaming {
        Some(service.start()?)
    } else {
        None
    };
    for bundle in &inputs.prime {
        service.submit(TENANT, bundle.clone())?;
    }
    if streaming {
        service.wait_idle(IDLE_TIMEOUT);
    } else if !inputs.prime.is_empty() {
        service.run_pending();
    }
    // Priming's stage events are not the window's.
    service.trace_events();
    let setup_s = setup.elapsed().as_secs_f64();

    let cpu_before = cpu_seconds();
    let timed = match handle {
        Some(handle) => probe_window(&service, handle, &inputs, seed, inputs.prime.len()),
        // The client owns what it submits; the copy is made before the clock starts.
        None => drain_window(&service, inputs.submissions.clone()),
    };
    let cpu_s = cpu_seconds() - cpu_before;

    let mut window = Window {
        attempted: timed.attempted,
        failed: timed.failed,
        jobs: timed.finished,
        wall_s: timed.wall_s,
        cpu_s,
        heap_mb: heap_mb(),
        submit_s: timed.submit_s,
        pool_s: timed.pool_s,
        setup_s,
        latencies_ms: timed.latencies_ms,
        digest: 0,
        metrics: service.metrics(),
        snapshot: service.snapshot(),
        trace: service.trace_events(),
        trace_dropped: service.trace_stats().dropped,
        errors: Vec::new(),
    };
    check_outputs(
        workload.kind,
        &service,
        &inputs,
        &timed.ids,
        seed,
        deep,
        &mut window,
    )?;
    Ok(window)
}

fn fold_result(mut digest: u64, index: usize, result: &ExecutionResult) -> u64 {
    digest = fnv1a64_update(digest, &(index as u64).to_le_bytes());
    for (word, count) in &result.counts {
        digest = fnv1a64_update(digest, word.as_bytes());
        digest = fnv1a64_update(digest, &count.to_le_bytes());
    }
    if let Some(energy) = &result.energy_stats {
        digest = fnv1a64_update(digest, &energy.min_energy.to_bits().to_le_bytes());
        digest = fnv1a64_update(digest, &energy.mean_energy.to_bits().to_le_bytes());
    }
    digest
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Fold every job's result into the digest and check it; failures land in
/// `window.errors` and `window.failed`.
fn check_outputs(
    kind: Kind,
    service: &QmlService,
    inputs: &Inputs,
    ids: &[Option<JobId>],
    seed: u64,
    deep: bool,
    window: &mut Window,
) -> Result<()> {
    let jobs = ids.len();
    let bundles: Vec<JobBundle> = if deep {
        let mut all = Vec::with_capacity(jobs);
        for submission in &inputs.submissions {
            all.extend(submission.bundles()?);
        }
        all
    } else {
        Vec::new()
    };
    // The seeded 1 % of gate jobs compared against a direct, uncached run.
    let sampled: BTreeSet<usize> = seeded_sample(jobs, jobs / 100, seed).collect();

    let mut digest = fnv1a64_init();
    for (index, id) in ids.iter().enumerate() {
        let Some(id) = *id else { continue };
        if service.status(id) != Some(JobStatus::Completed) {
            // Probes were already counted when their wait returned.
            if kind != Kind::MixedLatency {
                window.failed += 1;
            }
            window.errors.push(format!("job {index} is not Completed"));
            continue;
        }
        let result = service.result(id).expect("completed jobs have a result");
        digest = fold_result(digest, index, &result);
        if result.counts.values().sum::<u64>() != result.shots {
            window.errors.push(format!(
                "job {index}: counts do not sum to {}",
                result.shots
            ));
        }
        if !deep {
            continue;
        }
        let bundle = &bundles[index];
        let wanted = bundle.context.as_ref().and_then(|c| match &c.anneal {
            Some(anneal) => Some(anneal.num_reads),
            None => c.exec.as_ref().map(|e| e.samples),
        });
        if wanted != Some(result.shots) {
            window.errors.push(format!(
                "job {index}: {} samples, asked {wanted:?}",
                result.shots
            ));
        }
        if kind == Kind::AnnealSweep {
            check_anneal(index, &inputs.graphs[index], &result, &mut window.errors);
        } else if sampled.contains(&index) {
            // Independent path: no cache, no batch, no shared overlay.
            let direct = GateBackend::new().execute(bundle)?;
            if direct != result {
                window.errors.push(format!(
                    "job {index}: service result differs from direct execution"
                ));
            }
        }
    }
    window.digest = digest;

    let refused = ids.iter().filter(|id| id.is_none()).count();
    if refused == 0 && window.errors.is_empty() {
        check_cache_counters(kind, jobs, &window.metrics, &mut window.errors);
    }
    Ok(())
}

/// Energies recomputed from the returned bitstrings must equal the reported
/// statistics, and the best cut must be at least the greedy heuristic's.
fn check_anneal(
    index: usize,
    graph: &qml_core::graph::Graph,
    result: &ExecutionResult,
    errors: &mut Vec<String>,
) {
    let ising = maxcut_to_ising(graph);
    let mut min = f64::INFINITY;
    let mut total = 0.0;
    for (word, &count) in &result.counts {
        let spins: Vec<i8> = word
            .bytes()
            .map(|b| if b == b'0' { 1 } else { -1 })
            .collect();
        let energy = ising.energy(&spins);
        min = min.min(energy);
        total += energy * count as f64;
    }
    let mean = total / result.shots as f64;
    match &result.energy_stats {
        Some(stats) if close(stats.min_energy, min) && close(stats.mean_energy, mean) => {}
        other => errors.push(format!(
            "job {index}: energy statistics {other:?} differ from recomputed min {min} mean {mean}"
        )),
    }
    let best_cut = energy_to_cut(graph, min);
    let greedy_cut = greedy(graph).value;
    if best_cut < greedy_cut - 1e-9 {
        errors.push(format!(
            "job {index}: best cut {best_cut} below greedy {greedy_cut}"
        ));
    }
}

/// The plan cache must have been used the way the workload is designed to
/// use it: hits on the warm workloads, misses and evictions on the cold one.
fn check_cache_counters(
    kind: Kind,
    jobs: usize,
    metrics: &ServiceMetrics,
    errors: &mut Vec<String>,
) {
    let jobs = jobs as u64;
    let gate = metrics.gate_cache;
    let anneal = metrics.anneal_cache;
    let ok = match kind {
        Kind::SweepWarm | Kind::StateSerial | Kind::StateParallel => {
            gate.misses == 1 && gate.hits == jobs
        }
        Kind::CompileCold => {
            gate.misses == jobs
                && gate.hits == 0
                && gate.evictions == jobs.saturating_sub(DEFAULT_PLAN_CAPACITY as u64)
        }
        Kind::AnnealSweep => {
            let distinct = 1 + (jobs - jobs / 2);
            anneal.misses == distinct && anneal.hits == jobs - distinct
        }
        // One plan for the probes, one for the bulk tenant.
        Kind::MixedLatency => gate.misses == 2,
    };
    if !ok {
        errors.push(format!(
            "cache counters off design: gate {gate:?} anneal {anneal:?}"
        ));
    }
}
