//! One run of one workload: the measured windows (`--trace 0`) or the traced
//! windows and the layer walk (`--trace 1`), folded into named metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qml_core::types::Result;
use qml_observe::Stage;

use crate::inputs::{generate, Kind, Workload};
use crate::stats::{median, percentile, quartiles};
use crate::walk::walk;
use crate::window::{self, Window, WORKERS};

/// Measured windows a run holds at least, however short its time budget.
const MIN_WINDOWS: usize = 3;

/// What a run reports.
pub struct Report {
    /// Every output check passed and every window gave the same digest.
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: BTreeMap<String, f64>,
    /// Digest of one window's results; equal for equal seeds.
    pub digest: u64,
    pub windows: usize,
    /// First and third quartile over windows of the per-window metrics.
    pub quartiles: BTreeMap<&'static str, (f64, f64)>,
    /// Failed output checks, for the operator.
    pub errors: Vec<String>,
    /// The walk's spans as JSON lines (`--trace 1` only).
    pub spans_jsonl: Option<String>,
}

impl Report {
    fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            digest: 0,
            windows: 0,
            quartiles: BTreeMap::new(),
            errors: Vec::new(),
            spans_jsonl: None,
        }
    }

    /// Count a window's jobs and failures; its digest must match the run's.
    fn absorb(&mut self, window: &Window) {
        self.attempted += window.attempted;
        self.failed += window.failed;
        if self.windows == 0 {
            self.digest = window.digest;
        } else if window.digest != self.digest {
            self.errors.push(format!(
                "window {} digest {:#018x} differs from {:#018x}",
                self.windows, window.digest, self.digest
            ));
        }
        self.errors.extend(window.errors.iter().cloned());
        self.windows += 1;
    }

    fn finish(mut self) -> Self {
        self.correct = self.errors.is_empty() && self.failed == 0;
        self
    }
}

type PerWindow = fn(&Window) -> f64;

/// Each end-to-end metric as a value per window, and the rank among the
/// run's windows (a percentile) that is reported.
///
/// Interference on a shared box only ever slows a window down, so the
/// time-based metrics report the window at the fastest fifth rather than the
/// median: between runs it moved half as much. Memory and set-up time report
/// the median.
const END_TO_END: [(&str, f64, PerWindow); 6] = [
    ("jobs_per_s", 80.0, |w| w.jobs as f64 / w.wall_s),
    ("cpu_ms_per_job", 20.0, |w| w.cpu_s * 1e3 / w.jobs as f64),
    ("latency_p50_ms", 20.0, |w| {
        percentile(&w.latencies_ms, 50.0)
    }),
    ("latency_p95_ms", 20.0, |w| {
        percentile(&w.latencies_ms, 95.0)
    }),
    ("heap_mb", 50.0, |w| w.heap_mb),
    ("setup_s", 50.0, |w| w.setup_s),
];

fn per_window(windows: &[Window], f: impl Fn(&Window) -> f64) -> Vec<f64> {
    windows.iter().map(f).collect()
}

/// `--trace 0`: one discarded warm-up window, then measured windows of the
/// workload's fixed job count until `seconds` have passed. Tracing is off.
pub fn measure(workload: &Workload, seed: u64, seconds: f64, jobs: usize) -> Result<Report> {
    let mut report = Report::new();
    // Discarded: the process's first window runs 30–40 % slow (page faults,
    // allocator growth, clock ramp). Its outputs are still checked.
    let warm_up = window::run(workload, seed, jobs, false, false)?;
    report.errors.extend(warm_up.errors);

    let started = Instant::now();
    let mut windows = Vec::new();
    while windows.len() < MIN_WINDOWS || started.elapsed().as_secs_f64() < seconds {
        let window = window::run(workload, seed, jobs, false, windows.is_empty())?;
        report.absorb(&window);
        windows.push(window);
    }

    for (name, rank, value) in END_TO_END {
        let values = per_window(&windows, value);
        report
            .metrics
            .insert(name.into(), percentile(&values, rank));
        report.quartiles.insert(name, quartiles(&values));
    }
    Ok(report.finish())
}

/// `--trace 1`: walk a sample of the jobs through the layers by hand for up
/// to half the time budget, then alternate untraced and traced windows for
/// the rest of it.
pub fn trace(workload: &Workload, seed: u64, seconds: f64, jobs: usize) -> Result<Report> {
    let mut report = Report::new();
    let started = Instant::now();
    let warm_up = window::run(workload, seed, jobs, false, false)?;
    report.errors.extend(warm_up.errors);

    let inputs = generate(workload.kind, seed, jobs)?;
    match walk(&inputs, seed, Duration::from_secs_f64(0.5 * seconds)) {
        Ok(walked) => {
            report.spans_jsonl = Some(walked.to_jsonl());
            report.metrics.extend(walked.values);
        }
        Err(e) => report.errors.push(format!("layer walk: {e}")),
    }
    drop(inputs);

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        for (tracing, side) in [(false, &mut plain), (true, &mut traced)] {
            let window = window::run(workload, seed, jobs, tracing, false)?;
            report.absorb(&window);
            side.push(window);
        }
    }
    report
        .metrics
        .extend(service_layers(workload.kind, &plain, &traced));
    Ok(report.finish())
}

/// The service-level layer metrics: medians over the untraced windows'
/// `metrics()` / `snapshot()`, and the traced windows' stage events folded
/// per job.
fn service_layers(kind: Kind, plain: &[Window], traced: &[Window]) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let per_job = |w: &Window, seconds: f64| seconds * 1e6 / w.jobs as f64;
    let mut put = |name: &str, f: &dyn Fn(&Window) -> f64| {
        m.insert(name.into(), median(&per_window(plain, f)));
    };
    put("service.submit_us", &|w| per_job(w, w.submit_s));
    put("service.drain_us", &|w| per_job(w, w.wall_s - w.submit_s));
    put("service.dispatch_overhead_us", &|w| {
        let busy: f64 = w.metrics.per_backend.values().map(|b| b.busy_seconds).sum();
        per_job(w, WORKERS as f64 * w.pool_s - busy)
    });
    put("scheduler.rounds", &|w| w.metrics.scheduler.rounds as f64);
    put("scheduler.idle_polls", &|w| {
        w.metrics.scheduler.idle_polls as f64
    });
    put("scheduler.batches", &|w| w.metrics.scheduler.batches as f64);
    put("scheduler.mean_batch_size", &|w| {
        w.metrics.scheduler.mean_batch_size()
    });
    put("scheduler.mean_abs_estimate_error", &|w| {
        w.metrics.scheduler.mean_abs_estimate_error()
    });
    put("cache.hits", &|w| w.metrics.cache.hits as f64);
    put("cache.misses", &|w| w.metrics.cache.misses as f64);
    put("cache.evictions", &|w| w.metrics.cache.evictions as f64);
    for class in ["latency", "throughput"] {
        let wait = |w: &Window| w.snapshot.latency.class_queue_wait.get(class).copied();
        put(&format!("service.queue_wait_p50_us.{class}"), &|w| {
            wait(w).map_or(0.0, |h| h.p50 as f64)
        });
        put(&format!("service.queue_wait_p95_us.{class}"), &|w| {
            wait(w).map_or(0.0, |h| h.p95 as f64)
        });
    }
    if kind == Kind::MixedLatency {
        // What the client sees beyond the service's own wait + execute
        // histograms: mostly `wait_for`'s poll interval.
        put("service.poll_slack_us", &|w| {
            let inside = |map: &BTreeMap<String, qml_observe::HistogramSnapshot>| {
                map.get("latency").map_or(0.0, |h| h.p50 as f64)
            };
            let latency = &w.snapshot.latency;
            percentile(&w.latencies_ms, 50.0) * 1e3
                - inside(&latency.class_queue_wait)
                - inside(&latency.class_execute)
        });
    }
    let pooled: Vec<f64> = plain.iter().flat_map(|w| w.latencies_ms.clone()).collect();
    m.insert("service.latency_p99_ms".into(), percentile(&pooled, 99.0));

    // The service's own stage events, folded per job, beside the
    // outside-in numbers.
    let fold = |pick: &dyn Fn(&Stage) -> Option<u64>| {
        let per_window = traced.iter().map(|w| {
            let total: u64 = w.trace.iter().filter_map(|e| pick(&e.stage)).sum();
            total as f64 / w.jobs as f64
        });
        median(&per_window.collect::<Vec<_>>())
    };
    m.insert(
        "trace.realize_us".into(),
        fold(&|s| match s {
            Stage::Plan { realize_us, .. } => Some(*realize_us),
            _ => None,
        }),
    );
    m.insert(
        "trace.measured_us".into(),
        fold(&|s| match s {
            Stage::Executed { measured_us } => Some(*measured_us),
            _ => None,
        }),
    );
    m.insert(
        "trace.queue_wait_us".into(),
        fold(&|s| match s {
            Stage::Dispatched { queue_wait_us, .. } => Some(*queue_wait_us),
            _ => None,
        }),
    );
    m.insert("observe.trace_events_per_job".into(), fold(&|_| Some(1)));
    let dropped = per_window(traced, |w| w.trace_dropped as f64);
    m.insert("observe.trace_dropped".into(), median(&dropped));
    let rate = |side: &[Window]| median(&per_window(side, |w| w.jobs as f64 / w.wall_s));
    let overhead = (rate(plain) - rate(traced)) / rate(plain) * 100.0;
    m.insert("observe.trace_overhead_pct".into(), overhead);
    m
}
