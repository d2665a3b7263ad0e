//! Per-job stage-event tracing: the [`Tracer`] trait, the zero-cost
//! [`NoopTracer`], and the bounded [`RingTracer`] ring buffer.
//!
//! Every layer of the serving stack owns one measurement about a job's life:
//! the service knows when it was submitted, the scheduler what its admission
//! was charged and how long it queued, the backend whether its plan came from
//! the cache, the pool how long it really ran. A [`TraceEvent`] records each
//! of those moments with one shared monotone clock (the tracer's epoch), so
//! a drained trace reconstructs every job's full timeline:
//!
//! ```text
//! submitted → admitted → dispatched → [plan] → bound → executed → outcome
//! ```
//!
//! (`plan` is present when the executing backend reports how it fetched
//! the job's plan — the built-in backends do; opaque third-party backends
//! may not.)
//!
//! [`RingTracer`] writers never contend on a global lock: a slot is reserved
//! with one atomic `fetch_add` and filled under that slot's own mutex, so
//! concurrent recorders only collide when the buffer has wrapped a full lap
//! onto the same slot. When the buffer overflows, the *oldest* events are
//! overwritten and counted in [`TraceStats::dropped`] — tracing degrades by
//! forgetting history, never by blocking the hot path or growing without
//! bound.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Default [`RingTracer`] capacity: roomy enough that a full streaming run
/// of several thousand jobs (7 events each) drains loss-free, small enough
/// (~1 MiB of slots) to leave always-on in a service.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// One lifecycle stage of a job, with the measurement the recording layer
/// owns. Stages are ordered; see [`Stage::order`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stage {
    /// The service accepted the job (validated, placed, bookkept).
    Submitted,
    /// The fair scheduler admitted the job to its tenant queue.
    Admitted {
        /// The job's price at admission, in cost units: its rank in its
        /// tenant's cost-ranked queue. What its dispatch actually spends is
        /// [`Stage::Dispatched`]'s `deficit_spent`.
        cost: f64,
    },
    /// The scheduler handed the job to a pool worker.
    Dispatched {
        /// Submit→dispatch queue wait, in microseconds.
        queue_wait_us: u64,
        /// Members in the dispatch (1 = solo, ≥ 2 = micro-batch).
        batch_size: u32,
        /// Deficit spent on this member at dispatch, in cost units.
        deficit_spent: f64,
    },
    /// The backend resolved the job's realization plan.
    Plan {
        /// True if the plan came from the transpilation/lowering cache.
        cache_hit: bool,
        /// This job's plan fetch time, the realization included on a miss,
        /// in microseconds (≈ 0 on a cache hit).
        realize_us: u64,
    },
    /// The realized plan was bound to the job's late parameters/policy.
    Bound,
    /// Execution finished on the backend.
    Executed {
        /// Measured busy wall-clock attributed to this job, in microseconds.
        measured_us: u64,
    },
    /// The outcome was folded into service metrics and fairness accounting.
    Outcome {
        /// True if the job completed successfully.
        ok: bool,
    },
    /// A device fault closed this attempt and the job was re-admitted with
    /// the failed device excluded. Like [`Stage::Outcome`], this closes an
    /// attempt — the requeued job repeats `admitted → dispatched → …` on
    /// another device.
    Requeued {
        /// How many attempts the job has consumed so far (1 = first retry).
        attempt: u32,
    },
}

impl Stage {
    /// The stage's lowercase schema name (stable; greppable in dumps).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Submitted => "submitted",
            Stage::Admitted { .. } => "admitted",
            Stage::Dispatched { .. } => "dispatched",
            Stage::Plan { .. } => "plan",
            Stage::Bound => "bound",
            Stage::Executed { .. } => "executed",
            Stage::Outcome { .. } => "outcome",
            Stage::Requeued { .. } => "requeued",
        }
    }

    /// Position in the canonical lifecycle (0 = submitted … 6 = outcome).
    /// A job's drained events, sorted by this, must carry non-decreasing
    /// timestamps — the invariant the trace-completeness tests assert.
    pub fn order(&self) -> u8 {
        match self {
            Stage::Submitted => 0,
            Stage::Admitted { .. } => 1,
            Stage::Dispatched { .. } => 2,
            Stage::Plan { .. } => 3,
            Stage::Bound => 4,
            Stage::Executed { .. } => 5,
            Stage::Outcome { .. } => 6,
            Stage::Requeued { .. } => 6,
        }
    }
}

/// One recorded stage event. Timestamps are microseconds since the tracer's
/// epoch, taken from one monotone clock, so events of one job (which are
/// causally ordered across threads) always carry non-decreasing `at_us`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global publish order (dense; assigned by the tracer).
    pub seq: u64,
    /// Microseconds since the tracer's epoch.
    pub at_us: u64,
    /// The job this event belongs to (`JobId.0` at the service layer).
    pub job: u64,
    /// Owning tenant, when the recording layer knows it (the runtime and
    /// backends are tenant-blind; scheduler and service events carry it).
    pub tenant: Option<Arc<str>>,
    /// The job's device-level plan/batch key, when known.
    pub plan_key: Option<u64>,
    /// The lifecycle stage and its measurement.
    pub stage: Stage,
}

impl fmt::Display for TraceEvent {
    /// Greppable `key=value` rendering, one event per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace seq={} at_us={} job={} stage={}",
            self.seq,
            self.at_us,
            self.job,
            self.stage.name()
        )?;
        if let Some(tenant) = &self.tenant {
            write!(f, " tenant={tenant}")?;
        }
        if let Some(key) = self.plan_key {
            write!(f, " plan_key={key:016x}")?;
        }
        match self.stage {
            Stage::Admitted { cost } => write!(f, " cost={cost:.3}"),
            Stage::Dispatched {
                queue_wait_us,
                batch_size,
                deficit_spent,
            } => write!(
                f,
                " queue_wait_us={queue_wait_us} batch_size={batch_size} deficit_spent={deficit_spent:.3}"
            ),
            Stage::Plan {
                cache_hit,
                realize_us,
            } => write!(f, " cache_hit={cache_hit} realize_us={realize_us}"),
            Stage::Executed { measured_us } => write!(f, " measured_us={measured_us}"),
            Stage::Outcome { ok } => write!(f, " ok={ok}"),
            Stage::Requeued { attempt } => write!(f, " attempt={attempt}"),
            Stage::Submitted | Stage::Bound => Ok(()),
        }
    }
}

/// Counters describing a tracer's buffer health.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceStats {
    /// Events recorded since creation (dropped ones included).
    pub recorded: u64,
    /// Events overwritten before being drained (0 = the buffer kept up).
    pub dropped: u64,
    /// Ring capacity in events (0 for [`NoopTracer`]).
    pub capacity: usize,
}

/// The stage-event sink threaded through runtime, scheduler, and service.
///
/// Implementations must be cheap and non-blocking: `record` runs under the
/// scheduler lock and on pool workers' hot paths. Call sites guard any
/// expensive argument computation behind [`Tracer::enabled`] so the
/// [`NoopTracer`] default costs one virtual call and a branch.
pub trait Tracer: Send + Sync + fmt::Debug {
    /// True if recorded events are retained (callers skip argument
    /// preparation when false).
    fn enabled(&self) -> bool;

    /// Record one stage event for `job`. The tracer stamps sequence number
    /// and timestamp.
    fn record(&self, job: u64, tenant: Option<&Arc<str>>, plan_key: Option<u64>, stage: Stage);

    /// Buffer-health counters.
    fn stats(&self) -> TraceStats;

    /// Remove and return all retained events, sorted by publish order.
    fn drain(&self) -> Vec<TraceEvent>;
}

/// The zero-cost default: records nothing, retains nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _job: u64, _tenant: Option<&Arc<str>>, _plan_key: Option<u64>, _stage: Stage) {
    }

    fn stats(&self) -> TraceStats {
        TraceStats::default()
    }

    fn drain(&self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// A bounded ring-buffer tracer. Writers reserve a slot with one atomic
/// `fetch_add` (no global lock, no allocation beyond the event itself) and
/// publish under that slot's own mutex; overwriting an undrained event
/// increments [`TraceStats::dropped`]. See the module docs.
#[derive(Debug)]
pub struct RingTracer {
    /// One shared epoch: every event's `at_us` is measured against this
    /// instant, which is what makes cross-thread timestamps comparable.
    epoch: Instant,
    slots: Box<[Mutex<Option<TraceEvent>>]>,
    /// Next sequence number; `seq % capacity` is the slot index.
    head: AtomicU64,
    dropped: AtomicU64,
}

impl Default for RingTracer {
    fn default() -> Self {
        RingTracer::new()
    }
}

impl RingTracer {
    /// A tracer with [`DEFAULT_TRACE_CAPACITY`] event slots.
    pub fn new() -> Self {
        RingTracer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A tracer retaining up to `capacity` events (values of 0 are treated
    /// as 1). Once full, new events overwrite the oldest undrained ones.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| Mutex::new(None))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        RingTracer {
            epoch: Instant::now(),
            slots,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }
}

impl Tracer for RingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, job: u64, tenant: Option<&Arc<str>>, plan_key: Option<u64>, stage: Stage) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let at_us = self.epoch.elapsed().as_micros() as u64;
        let event = TraceEvent {
            seq,
            at_us,
            job,
            tenant: tenant.cloned(),
            plan_key,
            stage,
        };
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        if slot.lock().replace(event).is_some() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> TraceStats {
        TraceStats {
            recorded: self.head.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            capacity: self.slots.len(),
        }
    }

    fn drain(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().take())
            .collect();
        events.sort_by_key(|event| event.seq);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracer_retains_nothing() {
        let tracer = NoopTracer;
        assert!(!tracer.enabled());
        tracer.record(1, None, None, Stage::Submitted);
        assert_eq!(tracer.stats(), TraceStats::default());
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn ring_tracer_records_in_order_with_monotone_timestamps() {
        let tracer = RingTracer::with_capacity(16);
        let tenant: Arc<str> = Arc::from("alice");
        tracer.record(7, Some(&tenant), Some(42), Stage::Submitted);
        tracer.record(7, Some(&tenant), Some(42), Stage::Admitted { cost: 2.5 });
        tracer.record(
            7,
            Some(&tenant),
            Some(42),
            Stage::Dispatched {
                queue_wait_us: 120,
                batch_size: 1,
                deficit_spent: 2.5,
            },
        );
        let events = tracer.drain();
        assert_eq!(events.len(), 3);
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
            assert!(pair[0].at_us <= pair[1].at_us, "timestamps not monotone");
            assert!(pair[0].stage.order() < pair[1].stage.order());
        }
        assert_eq!(events[0].tenant.as_deref(), Some("alice"));
        assert_eq!(events[0].plan_key, Some(42));
        // Drained events are gone; counters survive.
        assert!(tracer.drain().is_empty());
        assert_eq!(tracer.stats().recorded, 3);
        assert_eq!(tracer.stats().dropped, 0);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let tracer = RingTracer::with_capacity(4);
        for job in 0..10u64 {
            tracer.record(job, None, None, Stage::Submitted);
        }
        let stats = tracer.stats();
        assert_eq!(stats.recorded, 10);
        assert_eq!(stats.dropped, 6);
        let events = tracer.drain();
        assert_eq!(events.len(), 4);
        // The survivors are the newest four, in publish order.
        let jobs: Vec<u64> = events.iter().map(|e| e.job).collect();
        assert_eq!(jobs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let tracer = Arc::new(RingTracer::with_capacity(4096));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let tracer = Arc::clone(&tracer);
                std::thread::spawn(move || {
                    for i in 0..256u64 {
                        tracer.record(t * 1000 + i, None, None, Stage::Bound);
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let stats = tracer.stats();
        assert_eq!(stats.recorded, 1024);
        assert_eq!(stats.dropped, 0);
        let events = tracer.drain();
        assert_eq!(events.len(), 1024);
        // Sequence numbers are dense and unique.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..1024).collect::<Vec<_>>());
    }

    #[test]
    fn display_is_greppable_key_value() {
        let event = TraceEvent {
            seq: 3,
            at_us: 1500,
            job: 9,
            tenant: Some(Arc::from("bob")),
            plan_key: Some(0xabcd),
            stage: Stage::Dispatched {
                queue_wait_us: 42,
                batch_size: 4,
                deficit_spent: 1.0,
            },
        };
        let line = event.to_string();
        assert!(line.contains("stage=dispatched"));
        assert!(line.contains("tenant=bob"));
        assert!(line.contains("queue_wait_us=42"));
        assert!(line.contains("batch_size=4"));
    }
}
