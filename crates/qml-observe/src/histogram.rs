//! A dependency-free log-bucketed histogram for latency percentiles.
//!
//! Latency distributions are heavy-tailed, so fixed-width buckets waste
//! resolution where it matters (the fast path) and run out of range where it
//! hurts (the tail). The classic answer — used by HDR-style recorders — is
//! logarithmic bucketing with a few linear sub-buckets per octave: bucket
//! width grows with magnitude, keeping *relative* error bounded across the
//! whole `u64` range at a fixed, small memory cost.
//!
//! This implementation uses `SUB_BUCKETS` (8) sub-buckets per octave, so a
//! reported percentile overstates the true sample by at most `1/8 = 12.5 %`
//! (values below `LINEAR_MAX` are exact). Counters saturate instead of
//! wrapping, histograms [`merge`](Histogram::merge) element-wise, and
//! [`percentile`](Histogram::percentile) is nearest-rank over the cumulative
//! counts — the bucket containing the rank-th smallest sample is found
//! exactly; only the position *within* that bucket is approximated.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// log2 of the sub-buckets per octave.
const SUB_BITS: u32 = 3;

/// Linear sub-buckets per octave: each bucket spans `1/SUB_BUCKETS` of its
/// octave, bounding relative error at `1/SUB_BUCKETS`.
pub(crate) const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Values below this are recorded exactly (one bucket per value).
pub(crate) const LINEAR_MAX: u64 = SUB_BUCKETS * 2;

/// Total bucket count covering the whole `u64` range: `LINEAR_MAX` exact
/// buckets plus `SUB_BUCKETS` per octave for octaves `SUB_BITS+1 ..= 63`.
const BUCKETS: usize = (LINEAR_MAX + (64 - SUB_BITS as u64 - 1) * SUB_BUCKETS) as usize;

/// Bucket index of a value (monotone non-decreasing in the value).
fn index_of(value: u64) -> usize {
    if value < LINEAR_MAX {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let mantissa = ((value >> (exp - SUB_BITS)) & (SUB_BUCKETS - 1)) as usize;
    ((exp - SUB_BITS) as usize) * SUB_BUCKETS as usize + SUB_BUCKETS as usize + mantissa
}

/// Largest value mapping into bucket `index` — what percentiles report, so
/// the approximation always errs on the safe (pessimistic) side.
fn upper_bound(index: usize) -> u64 {
    if index < LINEAR_MAX as usize {
        return index as u64;
    }
    let exp = SUB_BITS + ((index as u64 - SUB_BUCKETS) >> SUB_BITS) as u32;
    let mantissa = (index as u64 - SUB_BUCKETS) & (SUB_BUCKETS - 1);
    let width = 1u64 << (exp - SUB_BITS);
    let low = (SUB_BUCKETS + mantissa) << (exp - SUB_BITS);
    low + (width - 1)
}

/// A mergeable log-bucketed histogram over `u64` samples (typically
/// microseconds), with ≤ `1/SUB_BUCKETS` relative percentile error and
/// saturating counters. See the module docs for the bucketing scheme.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (allocates its fixed bucket array).
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample. Counters saturate at `u64::MAX` instead of
    /// wrapping, so a pathological recorder degrades percentile precision
    /// rather than corrupting it.
    pub fn record(&mut self, value: u64) {
        let bucket = &mut self.counts[index_of(value)];
        *bucket = bucket.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value as u128);
        self.max = self.max.max(value);
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`): an upper bound for the
    /// `⌈q·count⌉`-th smallest sample, exact for values below
    /// `LINEAR_MAX` and within `1/SUB_BUCKETS` relative error above it
    /// (clamped to the observed maximum). Returns 0 on an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= rank {
                return upper_bound(index).min(self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one, element-wise and saturating —
    /// per-worker or per-shard recorders aggregate losslessly (up to the
    /// shared bucket resolution).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The serializable percentile summary of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            max: self.max,
            mean: self.mean(),
        }
    }
}

/// A point-in-time percentile summary of one [`Histogram`], in the
/// histogram's sample unit (microseconds everywhere in this workspace).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Median (see [`Histogram::percentile`] for the error bound).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest recorded sample.
    pub max: u64,
    /// Mean of recorded samples.
    pub mean: f64,
}

/// A thread-safe, lazily keyed family of histograms — one per tenant, per
/// backend, per whatever the caller keys by. Feeding takes one short mutex
/// hold (the histograms live in a `BTreeMap` so snapshots come out in stable
/// order).
#[derive(Debug, Default)]
pub struct HistogramSet {
    inner: Mutex<BTreeMap<String, Histogram>>,
}

impl HistogramSet {
    /// An empty set.
    pub fn new() -> Self {
        HistogramSet::default()
    }

    /// Record `value` under `key`, creating the histogram on first sight.
    pub fn observe(&self, key: &str, value: u64) {
        let mut inner = self.inner.lock();
        match inner.get_mut(key) {
            Some(histogram) => histogram.record(value),
            None => {
                let mut histogram = Histogram::new();
                histogram.record(value);
                inner.insert(key.to_string(), histogram);
            }
        }
    }

    /// Percentile summaries of every keyed histogram, in key order.
    pub fn snapshots(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.inner
            .lock()
            .iter()
            .map(|(key, histogram)| (key.clone(), histogram.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0usize;
        for value in 0..4096u64 {
            let index = index_of(value);
            assert!(index >= last, "index not monotone at {value}");
            assert!(upper_bound(index) >= value, "upper bound below {value}");
            last = index;
        }
        assert!(index_of(u64::MAX) < BUCKETS);
        assert_eq!(upper_bound(index_of(u64::MAX)), u64::MAX);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let histogram = Histogram::new();
        assert_eq!(histogram.count, 0);
        assert_eq!(histogram.percentile(0.5), 0);
        assert_eq!(histogram.percentile(0.99), 0);
        assert_eq!(histogram.max, 0);
        assert_eq!(histogram.mean(), 0.0);
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot, HistogramSnapshot::default());
    }

    #[test]
    fn small_values_are_exact() {
        let mut histogram = Histogram::new();
        for value in [0u64, 1, 2, 3, 7, 11, 15] {
            histogram.record(value);
        }
        assert_eq!(histogram.percentile(0.0), 0);
        assert_eq!(histogram.percentile(1.0), 15);
        // 7 samples: the nearest-rank median is the 4th smallest = 3.
        assert_eq!(histogram.percentile(0.5), 3);
    }

    #[test]
    fn saturation_at_extreme_values() {
        let mut histogram = Histogram::new();
        histogram.record(u64::MAX);
        histogram.record(u64::MAX - 1);
        histogram.record(1);
        assert_eq!(histogram.max, u64::MAX);
        assert_eq!(histogram.percentile(1.0), u64::MAX);
        assert_eq!(histogram.count, 3);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for value in [3u64, 900, 17, 4_000_000] {
            a.record(value);
            combined.record(value);
        }
        for value in [250u64, 250, 1_000_000_000] {
            b.record(value);
            combined.record(value);
        }
        a.merge(&b);
        assert_eq!(a.count, combined.count);
        assert_eq!(a.max, combined.max);
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(a.percentile(q), combined.percentile(q), "q={q}");
        }
    }

    #[test]
    fn histogram_set_keys_and_merges() {
        let set = HistogramSet::new();
        set.observe("alice", 100);
        set.observe("alice", 200);
        set.observe("bob", 50);
        let snapshots = set.snapshots();
        assert_eq!(snapshots.len(), 2);
        assert_eq!(snapshots["alice"].count, 2);
        assert_eq!(snapshots["bob"].count, 1);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut histogram = Histogram::new();
        for value in [12u64, 90, 1500, 72_000] {
            histogram.record(value);
        }
        let snapshot = histogram.snapshot();
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Percentiles agree with a sorted-vec reference within the bucket
        /// resolution: never below the true order statistic, and at most
        /// `1/SUB_BUCKETS` relative error above it.
        #[test]
        fn percentiles_match_sorted_reference(
            samples in proptest::collection::vec(0u64..2_000_000, 1..200),
            q in 0.0f64..1.0,
        ) {
            let mut histogram = Histogram::new();
            for &sample in &samples {
                histogram.record(sample);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize)
                .clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let reported = histogram.percentile(q);
            prop_assert!(reported >= truth,
                "reported {reported} below true {truth}");
            prop_assert!(reported <= truth + truth / SUB_BUCKETS + 1,
                "reported {reported} beyond error bound of true {truth}");
        }

        /// The recorded maximum is always exact, and p100 equals it.
        #[test]
        fn max_is_exact(samples in proptest::collection::vec(0u64..u64::MAX, 1..64)) {
            let mut histogram = Histogram::new();
            for &sample in &samples {
                histogram.record(sample);
            }
            prop_assert_eq!(histogram.max, *samples.iter().max().unwrap());
            prop_assert_eq!(histogram.percentile(1.0), histogram.max);
        }
    }
}
