//! The service's unified observability surface: one registry feeding one
//! versioned snapshot.
//!
//! Before this module, the stack's health lived on three disconnected
//! surfaces — [`ServiceMetrics`], [`SchedulerMetrics`](crate::SchedulerMetrics)
//! and [`CacheStats`](crate::CacheStats) — with no latency percentiles and no
//! way to follow one job through its life. [`MetricsRegistry`] is the single
//! sink the service, scheduler, and runtime report through:
//!
//! * a shared [`Tracer`] (one epoch for every layer's stage events), and
//! * four [`HistogramSet`]s: queue-wait and execute latency, each keyed per
//!   tenant and per backend.
//!
//! [`MetricsRegistry::snapshot`] folds all of it — the three legacy metric
//! surfaces, the cost-model gauges, the latency percentiles, and the
//! tracer's buffer health — into one versioned, serde-serializable
//! [`ObservabilitySnapshot`], exportable as JSON
//! ([`ObservabilitySnapshot::to_json`] / [`to_jsonl`](ObservabilitySnapshot::to_jsonl))
//! or as greppable `key=value` text ([`ObservabilitySnapshot::dump_kv`]) —
//! the format CI asserts against, and the one a future fleet front-end will
//! diff across PRs.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use qml_runtime::JobId;

use crate::metrics::ServiceMetrics;

pub use qml_observe::{
    Histogram, HistogramSet, HistogramSnapshot, NoopTracer, RingTracer, Stage, TraceEvent,
    TraceStats, Tracer, DEFAULT_TRACE_CAPACITY,
};

/// Schema version stamped into every [`ObservabilitySnapshot`]; bump on any
/// breaking change to the snapshot layout so stored trajectories stay
/// diffable. Version 2 dropped `RunSummary::stolen` (always 0: one shared
/// job source, no per-worker deques to steal from). Version 3 dropped
/// `DeviceUtilization::stolen_from` and `queue_depth` (a device queues no
/// work: a job waits in its tenant's queue until a device slot frees).
pub const SNAPSHOT_VERSION: u32 = 3;

/// Cost-model accuracy gauges, lifted out of
/// [`SchedulerMetrics`](crate::SchedulerMetrics) so the snapshot exposes the
/// measured-cost fairness health in one place.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostModelGauges {
    /// Measured outcomes folded into the model and the error gauges.
    pub cost_samples: u64,
    /// Total absolute estimate error across measured outcomes, in cost
    /// units.
    pub estimate_error_units: f64,
    /// Total magnitude of applied deficit charge-backs, in cost units.
    pub charge_back_units: f64,
    /// Mean absolute estimate error per measured outcome, in cost units.
    pub mean_abs_estimate_error: f64,
}

/// Queue-wait and execute-latency percentiles, keyed per tenant and per
/// backend. All values in microseconds.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Submit→dispatch wait per tenant.
    pub tenant_queue_wait: BTreeMap<String, HistogramSnapshot>,
    /// Measured execution latency per tenant.
    pub tenant_execute: BTreeMap<String, HistogramSnapshot>,
    /// Submit→dispatch wait per placed backend.
    pub backend_queue_wait: BTreeMap<String, HistogramSnapshot>,
    /// Measured execution latency per backend.
    pub backend_execute: BTreeMap<String, HistogramSnapshot>,
    /// Submit→dispatch wait per service class (`"latency"`,
    /// `"throughput"`). Absent from pre-class snapshots, hence the default.
    #[serde(default)]
    pub class_queue_wait: BTreeMap<String, HistogramSnapshot>,
    /// Measured execution latency per service class.
    #[serde(default)]
    pub class_execute: BTreeMap<String, HistogramSnapshot>,
}

/// The one versioned snapshot folding every metric surface of the stack:
/// service totals (with scheduler and cache counters inside), cost-model
/// gauges, latency percentiles, and tracer buffer health.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservabilitySnapshot {
    /// Schema version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The classic service surface: job totals, queue depth, cache planes,
    /// scheduler counters, per-backend / per-tenant utilization.
    pub service: ServiceMetrics,
    /// Cost-model accuracy gauges.
    pub cost: CostModelGauges,
    /// Latency percentiles per tenant and per backend.
    pub latency: LatencyBreakdown,
    /// Tracer buffer health (all-zero when tracing is disabled).
    pub trace: TraceStats,
}

impl ObservabilitySnapshot {
    /// Pretty-printed JSON (multi-line, for humans).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// One JSON line (no interior newlines) — append to a `.jsonl` file to
    /// record a trajectory of snapshots across runs or PRs.
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }

    /// Greppable `key=value` rendering, one subject per line — the format
    /// CI asserts against (`p99_wait_us=`, `dropped=`, ...).
    pub fn dump_kv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "observability version={} jobs_submitted={} jobs_completed={} jobs_failed={} queue_depth={}",
            self.version,
            self.service.jobs_submitted,
            self.service.jobs_completed,
            self.service.jobs_failed,
            self.service.queue_depth,
        );
        let _ = writeln!(
            out,
            "trace recorded={} dropped={} capacity={}",
            self.trace.recorded, self.trace.dropped, self.trace.capacity,
        );
        let _ = writeln!(
            out,
            "cost samples={} estimate_error_units={:.3} charge_back_units={:.3} mean_abs_estimate_error={:.3}",
            self.cost.cost_samples,
            self.cost.estimate_error_units,
            self.cost.charge_back_units,
            self.cost.mean_abs_estimate_error,
        );
        for (plane, stats) in [
            ("gate", &self.service.gate_cache),
            ("anneal", &self.service.anneal_cache),
        ] {
            let _ = writeln!(
                out,
                "cache plane={plane} hits={} misses={} entries={} evictions={}",
                stats.hits, stats.misses, stats.entries, stats.evictions,
            );
        }
        for (tenant, wait) in &self.latency.tenant_queue_wait {
            let exec = self
                .latency
                .tenant_execute
                .get(tenant)
                .copied()
                .unwrap_or_default();
            let _ = writeln!(out, "tenant={tenant} {}", latency_kv(wait, &exec));
        }
        for (backend, wait) in &self.latency.backend_queue_wait {
            let exec = self
                .latency
                .backend_execute
                .get(backend)
                .copied()
                .unwrap_or_default();
            let _ = writeln!(out, "backend={backend} {}", latency_kv(wait, &exec));
        }
        for (class, stats) in &self.service.per_class {
            let wait = self
                .latency
                .class_queue_wait
                .get(class)
                .copied()
                .unwrap_or_default();
            let exec = self
                .latency
                .class_execute
                .get(class)
                .copied()
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "class={class} queued={} dispatched={} completed={} failed={} deadline_miss={} {}",
                stats.queued,
                stats.dispatched,
                stats.completed,
                stats.failed,
                stats.deadline_miss,
                latency_kv(&wait, &exec),
            );
        }
        for (device, util) in &self.service.per_device {
            let _ = writeln!(
                out,
                "device={device} plane={} health={} cordoned={} dispatched={} completed={} \
                 failed={} requeued={} busy_seconds={:.6} in_flight={}",
                util.plane,
                util.health,
                util.cordoned,
                util.dispatched,
                util.completed,
                util.failed,
                util.requeued,
                util.busy_seconds,
                util.in_flight,
            );
        }
        out
    }
}

/// The shared `key=value` latency fields of one dump line.
fn latency_kv(wait: &HistogramSnapshot, exec: &HistogramSnapshot) -> String {
    format!(
        "waits={} p50_wait_us={} p95_wait_us={} p99_wait_us={} execs={} p50_exec_us={} p95_exec_us={} p99_exec_us={}",
        wait.count, wait.p50, wait.p95, wait.p99, exec.count, exec.p50, exec.p95, exec.p99,
    )
}

/// The single sink every layer reports through: the shared stage-event
/// tracer plus the keyed latency histograms. One registry is created per
/// service (see [`ServiceConfig::with_tracing`](crate::ServiceConfig)) and
/// shared — behind one `Arc` — by the service core, the fair scheduler, and
/// (tracer only) the runtime, so all timestamps share one epoch.
#[derive(Debug)]
pub struct MetricsRegistry {
    tracer: Arc<dyn Tracer>,
    tenant_wait: HistogramSet,
    tenant_exec: HistogramSet,
    backend_wait: HistogramSet,
    backend_exec: HistogramSet,
    class_wait: HistogramSet,
    class_exec: HistogramSet,
}

impl MetricsRegistry {
    /// A registry recording through `tracer` (pass [`NoopTracer`] for
    /// histogram-only observability).
    pub fn new(tracer: Arc<dyn Tracer>) -> Self {
        MetricsRegistry {
            tracer,
            tenant_wait: HistogramSet::new(),
            tenant_exec: HistogramSet::new(),
            backend_wait: HistogramSet::new(),
            backend_exec: HistogramSet::new(),
            class_wait: HistogramSet::new(),
            class_exec: HistogramSet::new(),
        }
    }

    /// The shared stage-event tracer.
    pub fn tracer(&self) -> &Arc<dyn Tracer> {
        &self.tracer
    }

    /// True if stage events are retained (callers skip event preparation
    /// when false — the [`NoopTracer`] fast path).
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Record one stage event for a service job.
    pub fn trace(
        &self,
        job: JobId,
        tenant: Option<&Arc<str>>,
        plan_key: Option<u64>,
        stage: Stage,
    ) {
        self.tracer.record(job.0, tenant, plan_key, stage);
    }

    /// Feed one submit→dispatch wait observation (microseconds) into the
    /// tenant's and the placed backend's queue-wait histograms.
    pub(crate) fn observe_wait(&self, tenant: &str, backend: &str, wait_us: u64) {
        self.tenant_wait.observe(tenant, wait_us);
        self.backend_wait.observe(backend, wait_us);
    }

    /// Feed one measured execution latency (microseconds) into the tenant's
    /// and the placed backend's execute histograms.
    pub(crate) fn observe_exec(&self, tenant: &str, backend: &str, us: u64) {
        self.tenant_exec.observe(tenant, us);
        self.backend_exec.observe(backend, us);
    }

    /// Feed one submit→dispatch wait observation (microseconds) into the
    /// service class's queue-wait histogram.
    pub(crate) fn observe_class_wait(&self, class: &str, wait_us: u64) {
        self.class_wait.observe(class, wait_us);
    }

    /// Feed one measured execution latency (microseconds) into the service
    /// class's execute histogram.
    pub(crate) fn observe_class_exec(&self, class: &str, us: u64) {
        self.class_exec.observe(class, us);
    }

    /// Fold the given service surface, the latency histograms, the
    /// cost-model gauges, and the tracer health into one versioned snapshot.
    pub fn snapshot(&self, service: ServiceMetrics) -> ObservabilitySnapshot {
        let cost = CostModelGauges {
            cost_samples: service.scheduler.cost_samples,
            estimate_error_units: service.scheduler.estimate_error_units,
            charge_back_units: service.scheduler.charge_back_units,
            mean_abs_estimate_error: service.scheduler.mean_abs_estimate_error(),
        };
        ObservabilitySnapshot {
            version: SNAPSHOT_VERSION,
            cost,
            latency: LatencyBreakdown {
                tenant_queue_wait: self.tenant_wait.snapshots(),
                tenant_execute: self.tenant_exec.snapshots(),
                backend_queue_wait: self.backend_wait.snapshots(),
                backend_execute: self.backend_exec.snapshots(),
                class_queue_wait: self.class_wait.snapshots(),
                class_execute: self.class_exec.snapshots(),
            },
            trace: self.tracer.stats(),
            service,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_and_dumps() {
        let registry = MetricsRegistry::new(Arc::new(NoopTracer));
        registry.observe_wait("alice", "qml-gate-simulator", 150);
        registry.observe_wait("alice", "qml-gate-simulator", 900);
        registry.observe_exec("alice", "qml-gate-simulator", 4_200);
        let snapshot = registry.snapshot(ServiceMetrics::default());
        assert_eq!(snapshot.version, SNAPSHOT_VERSION);
        assert_eq!(snapshot.latency.tenant_queue_wait["alice"].count, 2);
        assert_eq!(
            snapshot.latency.backend_execute["qml-gate-simulator"].count,
            1
        );

        let line = snapshot.to_jsonl();
        assert!(!line.contains('\n'));
        let back: ObservabilitySnapshot = serde_json::from_str(&line).unwrap();
        assert_eq!(back, snapshot);

        let kv = snapshot.dump_kv();
        assert!(kv.contains("tenant=alice"));
        assert!(kv.contains("p99_wait_us="));
        assert!(kv.contains("trace recorded=0 dropped=0 capacity=0"));
    }

    #[test]
    fn registry_routes_stage_events_through_its_tracer() {
        let tracer = Arc::new(RingTracer::with_capacity(8));
        let registry = MetricsRegistry::new(tracer);
        assert!(registry.tracing_enabled());
        let tenant: Arc<str> = Arc::from("bob");
        registry.trace(JobId(3), Some(&tenant), Some(9), Stage::Submitted);
        let events = registry.tracer().drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].job, 3);
        assert_eq!(events[0].tenant.as_deref(), Some("bob"));
    }
}
