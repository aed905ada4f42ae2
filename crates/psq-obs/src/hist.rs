//! Lock-free latency histograms and the exact nearest-rank percentile.
//!
//! [`Histogram`] is the always-on collector for the hot paths: recording is
//! a handful of relaxed atomic adds (no locks, no allocation), so the
//! engine and serving layers leave it enabled at full throughput.
//! [`HistogramSnapshot`] is its serialisable point-in-time view — snapshots
//! from independent shards [`merge`](HistogramSnapshot::merge) into exactly
//! the snapshot one shared histogram would have produced, which is what the
//! planned multi-worker tier needs to aggregate per-process metrics.
//!
//! [`percentile`] is the exact nearest-rank percentile promoted out of
//! `psq-engine`/`psq-serve`, which both used to duplicate it.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Power-of-two buckets: bucket `i` counts values in `[2^i, 2^{i+1})`
/// microseconds (bucket 0 also takes `0`), covering the full `u64` range.
pub const BUCKET_COUNT: usize = 64;

/// A lock-free log2-bucketed latency histogram.
///
/// `record` is wait-free: one relaxed `fetch_add` per counter and a
/// `fetch_max` for the exact maximum. Values are microseconds; negative or
/// NaN inputs clamp to zero rather than poisoning the buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    /// Sum of whole microseconds (fractions below 1 µs are dropped; the
    /// mean stays accurate to the bucket resolution the percentiles have).
    sum_us: AtomicU64,
    /// Bit pattern of the maximum recorded `f64`. Non-negative IEEE-754
    /// doubles order the same as their bit patterns, so an integer
    /// `fetch_max` keeps the exact float maximum without a lock.
    max_us_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us_bits: AtomicU64::new(0),
        }
    }

    /// Records one latency sample, in microseconds.
    #[inline]
    pub fn record(&self, us: f64) {
        let clamped = if us.is_finite() && us > 0.0 { us } else { 0.0 };
        let whole = clamped as u64;
        self.buckets[bucket_index(whole)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(whole, Ordering::Relaxed);
        self.max_us_bits
            .fetch_max(clamped.to_bits(), Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets every counter to zero, as if freshly constructed.
    ///
    /// Not atomic as a whole: a `record` racing the reset may land partly
    /// before and partly after it, skewing one sample. The only caller is
    /// the windowed rotation in [`crate::window`], where a slice being
    /// cleared is by construction one no recorder should still target, so
    /// the race window is the rotation instant itself — acceptable for
    /// metrics, never used for the engine's deterministic results.
    pub fn clear(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_us.store(0, Ordering::Relaxed);
        self.max_us_bits.store(0, Ordering::Relaxed);
    }

    /// A serialisable point-in-time view (trailing empty buckets trimmed).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: f64::from_bits(self.max_us_bits.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

/// The bucket holding `value`: `floor(log2(value))`, with `0` and `1`
/// sharing bucket 0.
#[inline]
fn bucket_index(value: u64) -> usize {
    (63 - (value | 1).leading_zeros()) as usize
}

/// An unsynchronised scratch histogram for one thread's tight loop.
///
/// [`Histogram::record`] costs four relaxed RMWs — nothing on a µs-scale
/// execution path, but a measurable tax on a loop that serves result-cache
/// hits in ~200 ns. A tight loop records into this plain-integer scratch
/// instead and folds the whole thing into the shared histogram with one
/// [`flush_into`](LocalHistogram::flush_into) at the end (the engine's
/// batch planning loop does exactly this for the plan and cache-lookup
/// stages).
#[derive(Debug)]
pub struct LocalHistogram {
    buckets: [u64; BUCKET_COUNT],
    count: u64,
    sum_us: u64,
    max_us: f64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKET_COUNT],
            count: 0,
            sum_us: 0,
            max_us: 0.0,
        }
    }
}

impl LocalHistogram {
    /// An empty scratch histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample, in microseconds (same clamping as
    /// [`Histogram::record`], no atomics).
    #[inline]
    pub fn record(&mut self, us: f64) {
        let clamped = if us.is_finite() && us > 0.0 { us } else { 0.0 };
        let whole = clamped as u64;
        self.buckets[bucket_index(whole)] += 1;
        self.count += 1;
        self.sum_us += whole;
        if clamped > self.max_us {
            self.max_us = clamped;
        }
    }

    /// Samples recorded since the last flush.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds every recorded sample into `shared` and resets this scratch.
    /// The shared histogram ends exactly as if each sample had been
    /// recorded on it directly.
    pub fn flush_into(&mut self, shared: &Histogram) {
        if self.count == 0 {
            return;
        }
        for (shared_bucket, &count) in shared.buckets.iter().zip(&self.buckets) {
            if count > 0 {
                shared_bucket.fetch_add(count, Ordering::Relaxed);
            }
        }
        shared.count.fetch_add(self.count, Ordering::Relaxed);
        shared.sum_us.fetch_add(self.sum_us, Ordering::Relaxed);
        shared
            .max_us_bits
            .fetch_max(self.max_us.to_bits(), Ordering::Relaxed);
        *self = Self::default();
    }
}

/// A serialisable, mergeable view of a [`Histogram`].
///
/// Percentiles are nearest-rank over the buckets and report the matching
/// bucket's upper edge clamped to the exact observed maximum — an upper
/// bound within one power of two of the true order statistic (exact for
/// the maximum, and exact whenever the rank falls in the top occupied
/// bucket). `buckets` stores bucket 0 upward with trailing zeros trimmed,
/// so idle stages serialise compactly.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of whole microseconds across all samples.
    pub sum_us: u64,
    /// Exact maximum recorded value, microseconds.
    pub max_us: f64,
    /// Per-bucket counts from bucket 0 up (trailing zeros trimmed).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Folds `other` into `self`. Merging shard snapshots produces exactly
    /// the snapshot of a histogram that had seen the union of samples.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        if other.max_us > self.max_us {
            self.max_us = other.max_us;
        }
    }

    /// Nearest-rank percentile for `q` in `[0, 1]`, as the matching
    /// bucket's upper edge clamped to the observed maximum (microseconds).
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let upper_edge = if index >= 63 {
                    f64::INFINITY
                } else {
                    (1u64 << (index + 1)) as f64
                };
                return upper_edge.min(self.max_us);
            }
        }
        self.max_us
    }

    /// Median latency (see [`HistogramSnapshot::percentile`] semantics).
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 90th-percentile latency.
    pub fn p90(&self) -> f64 {
        self.percentile(0.90)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// Mean latency in microseconds (whole-microsecond resolution).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Nearest-rank percentile of a sample sorted ascending (`q` in `[0, 1]`).
///
/// Promoted from `psq_engine::metrics` (re-exported there): the single
/// exact-percentile implementation for both the engine's per-batch latency
/// vector and the bench recorder's sample windows.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn single_valued_distributions_report_exact_percentiles() {
        let hist = Histogram::new();
        for _ in 0..100 {
            hist.record(500.0);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.max_us, 500.0);
        // Rank falls in the top occupied bucket, so the max clamp makes the
        // percentile exact.
        assert_eq!(snap.p50(), 500.0);
        assert_eq!(snap.p99(), 500.0);
        assert_eq!(snap.mean_us(), 500.0);
    }

    #[test]
    fn percentiles_are_upper_bounds_within_one_bucket() {
        let hist = Histogram::new();
        for sample in [100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 1000.0] {
            hist.record(sample);
        }
        let snap = hist.snapshot();
        // p50 rank 4 → 400 lives in [256, 512): reported 512.
        assert_eq!(snap.p50(), 512.0);
        assert!(snap.p50() >= 400.0 && snap.p50() <= 800.0);
        assert_eq!(snap.max_us, 1000.0);
        assert_eq!(snap.p99(), 1000.0, "top bucket clamps to the exact max");
        assert!(snap.p50() <= snap.p90() && snap.p90() <= snap.p99());
    }

    #[test]
    fn degenerate_inputs_clamp_to_zero() {
        let hist = Histogram::new();
        hist.record(-3.0);
        hist.record(f64::NAN);
        hist.record(0.0);
        let snap = hist.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.max_us, 0.0);
        assert_eq!(snap.p99(), 0.0);
        assert_eq!(snap.buckets, vec![3]);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let snap = Histogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.percentile(0.5), 0.0);
        assert_eq!(snap.mean_us(), 0.0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn merge_is_the_union_histogram() {
        let a = Histogram::new();
        let b = Histogram::new();
        let union = Histogram::new();
        for i in 0..50 {
            let sample = (i * 37 % 2000) as f64;
            a.record(sample);
            union.record(sample);
        }
        for i in 0..80 {
            let sample = (i * 91 % 60_000) as f64;
            b.record(sample);
            union.record(sample);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, union.snapshot());
    }

    #[test]
    fn clear_resets_to_the_freshly_constructed_state() {
        let hist = Histogram::new();
        for sample in [3.0, 700.0, 90_000.0] {
            hist.record(sample);
        }
        assert_eq!(hist.count(), 3);
        hist.clear();
        assert_eq!(hist.count(), 0);
        assert_eq!(hist.snapshot(), Histogram::new().snapshot());
        hist.record(12.0);
        assert_eq!(hist.snapshot().count, 1);
        assert_eq!(hist.snapshot().max_us, 12.0);
    }

    #[test]
    fn records_race_free_across_threads() {
        let hist = std::sync::Arc::new(Histogram::new());
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let hist = std::sync::Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        hist.record((t * 1000 + i) as f64);
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().expect("writer thread");
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 4000);
        assert_eq!(snap.max_us, 3999.0);
    }

    #[test]
    fn nearest_rank_percentile_matches_the_engine_semantics() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.90), 90.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn local_histogram_flush_matches_direct_records() {
        let samples = [0.0, 1.5, 30.0, 2048.9, 70_000.0, f64::NAN, -4.0];
        let direct = Histogram::new();
        let shared = Histogram::new();
        // Seed the shared target so the flush provably adds, not replaces.
        direct.record(5.0);
        shared.record(5.0);
        let mut local = LocalHistogram::new();
        for sample in samples {
            direct.record(sample);
            local.record(sample);
        }
        assert_eq!(local.count(), samples.len() as u64);
        local.flush_into(&shared);
        assert_eq!(shared.snapshot(), direct.snapshot());
        // The scratch resets; a second flush is a no-op.
        assert_eq!(local.count(), 0);
        local.flush_into(&shared);
        assert_eq!(shared.snapshot(), direct.snapshot());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let hist = Histogram::new();
        for sample in [1.5, 30.0, 70_000.0] {
            hist.record(sample);
        }
        let snap = hist.snapshot();
        let json = serde_json::to_string(&snap).expect("serialises");
        let back: HistogramSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(snap, back);
    }
}
