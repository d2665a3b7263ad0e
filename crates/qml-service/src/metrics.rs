//! Service observability: throughput, queue depth, cache efficiency, and
//! per-backend / per-tenant utilization.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

pub use crate::fleet::DeviceUtilization;
pub use crate::scheduler::SchedulerMetrics;
pub use qml_backends::CacheStats;

/// Execution totals attributed to one backend.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BackendUtilization {
    /// Jobs this backend completed (including failed executions it owned).
    pub jobs: u64,
    /// Total busy wall-clock seconds across all pool workers.
    pub busy_seconds: f64,
}

/// Submission/completion totals and live scheduler gauges attributed to one
/// tenant.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TenantStats {
    /// Jobs the tenant has submitted (directly or via sweeps).
    pub submitted: u64,
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Jobs that finished with an error.
    pub failed: u64,
    /// Jobs the fair scheduler has handed to workers.
    pub dispatched: u64,
    /// Jobs dispatched and not yet settled (gauge): each is executing on a
    /// fleet device and holds one of that device's slots, so the sum over
    /// tenants equals the sum of the per-device `in_flight` gauges.
    pub in_flight: u64,
    /// Scheduler visits skipped because the tenant's token bucket was empty.
    pub throttled: u64,
    /// Total submit→dispatch wait across all dispatched jobs, in seconds.
    pub total_wait_seconds: f64,
    /// Total **measured** busy wall-clock across the tenant's finished jobs,
    /// in seconds — the quantity measured-cost fairness equalizes per unit
    /// weight (absent from pre-measured snapshots, hence the default).
    #[serde(default)]
    pub busy_seconds: f64,
}

impl TenantStats {
    /// Mean submit→dispatch wait per dispatched job, in seconds.
    pub fn mean_wait_seconds(&self) -> f64 {
        if self.dispatched == 0 {
            0.0
        } else {
            self.total_wait_seconds / self.dispatched as f64
        }
    }
}

/// Queue/dispatch/outcome totals attributed to one service class
/// (`"latency"` or `"throughput"`), across all tenants.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ClassStats {
    /// Jobs of this class currently queued (gauge).
    pub queued: u64,
    /// Jobs of this class handed to workers.
    pub dispatched: u64,
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Jobs that finished with an error.
    pub failed: u64,
    /// Terminal outcomes that settled after the job's absolute deadline.
    /// Deadline-free jobs (all throughput jobs, and latency jobs submitted
    /// without one) can never miss.
    pub deadline_miss: u64,
}

/// Summary of one service run — a `run_pending` drain or a full
/// streaming-pool lifetime (start → drain/abort).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Jobs executed in this run.
    pub jobs: usize,
    /// Jobs that completed successfully.
    pub completed: usize,
    /// Jobs that finished with an error.
    pub failed: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock duration of the run, in seconds.
    pub wall_seconds: f64,
    /// Throughput of the run: jobs per wall-clock second.
    pub jobs_per_second: f64,
}

/// A point-in-time snapshot of service health.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ServiceMetrics {
    /// Jobs accepted since the service started.
    pub jobs_submitted: u64,
    /// Jobs completed successfully since the service started.
    pub jobs_completed: u64,
    /// Jobs that finished with an error since the service started.
    pub jobs_failed: u64,
    /// Jobs currently waiting to execute: admitted but not yet dispatched,
    /// each in its tenant's queue. On a stopped service these are exactly
    /// the jobs whose status is `Queued`.
    pub queue_depth: usize,
    /// Combined transpilation/lowering cache counters.
    pub cache: CacheStats,
    /// Gate-path (transpilation) cache counters.
    pub gate_cache: CacheStats,
    /// Annealing-path (lowering) cache counters.
    pub anneal_cache: CacheStats,
    /// Fair-scheduler counters (rounds, dispatches, throttles, cap skips).
    pub scheduler: SchedulerMetrics,
    /// Execution totals per backend name.
    pub per_backend: BTreeMap<String, BackendUtilization>,
    /// Fleet gauges per device id (health, dispatch/failover counters,
    /// busy-seconds, queue depth). Summing one plane's device busy-seconds
    /// reproduces that plane's [`BackendUtilization::busy_seconds`]. Absent
    /// from pre-fleet snapshots, hence the default.
    #[serde(default)]
    pub per_device: BTreeMap<String, DeviceUtilization>,
    /// Queue/dispatch/outcome totals per service class (`"latency"`,
    /// `"throughput"`), including deadline misses. Absent from pre-class
    /// snapshots, hence the default.
    #[serde(default)]
    pub per_class: BTreeMap<String, ClassStats>,
    /// Submission totals per tenant.
    pub per_tenant: BTreeMap<String, TenantStats>,
    /// Summary of the most recent pool run (a drain or an abort).
    pub last_run: Option<RunSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_serialize() {
        let mut metrics = ServiceMetrics::default();
        metrics.per_backend.insert(
            "qml-gate-simulator".into(),
            BackendUtilization {
                jobs: 4,
                busy_seconds: 0.25,
            },
        );
        let json = serde_json::to_string(&metrics).unwrap();
        let back: ServiceMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, metrics);
    }
}
