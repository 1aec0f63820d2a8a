//! Log-bucketed, lock-free latency histograms.
//!
//! Buckets follow an HdrHistogram-style log-linear layout: values below
//! [`SUB_BUCKETS`] get exact buckets; above that, each power-of-two
//! octave is split into [`SUB_BUCKETS`] linear sub-buckets, bounding the
//! relative bucket width at `1 / SUB_BUCKETS` (12.5%). A `u64`
//! nanosecond value anywhere in range maps to one of
//! [`BUCKET_COUNT`] buckets with two shifts and a subtract — cheap
//! enough for the swap hot path.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::export::HistogramSnapshot;

/// Sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: u64 = 8;
const SUB_BITS: u32 = 3; // log2(SUB_BUCKETS)

/// Total bucket count covering the full `u64` range.
pub const BUCKET_COUNT: usize = ((64 - SUB_BITS as usize) * SUB_BUCKETS as usize) + 7 + 1;

/// Maps a value to its bucket index.
#[must_use]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BITS + 1) as u64;
    let sub = (v >> (msb - SUB_BITS)) - SUB_BUCKETS;
    (octave * SUB_BUCKETS + sub) as usize
}

/// Inclusive lower bound of bucket `idx` (the inverse of
/// [`bucket_index`] up to bucket granularity).
#[must_use]
pub(crate) fn bucket_lower_bound(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_BUCKETS {
        return idx;
    }
    let octave = idx / SUB_BUCKETS;
    let sub = idx % SUB_BUCKETS;
    (SUB_BUCKETS + sub) << (octave - 1)
}

/// A lock-free latency histogram with quantile reporting.
///
/// Recording is one relaxed `fetch_add` per call plus min/max updates;
/// histograms can be recorded into concurrently from any number of
/// threads and merged across workers or channels. Merging is
/// associative and order-independent (bucket-wise addition), which the
/// crate's property tests verify.
///
/// # Examples
///
/// ```
/// use xfm_telemetry::Histogram;
///
/// let h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.50);
/// assert!((450..=560).contains(&p50), "p50 {p50}");
/// assert_eq!(h.max(), 1000);
/// assert_eq!(h.count(), 1000);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKET_COUNT]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the boxed array via a Vec.
        let v: Vec<AtomicU64> = (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKET_COUNT]> =
            v.into_boxed_slice().try_into().expect("bucket count");
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (conventionally nanoseconds).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    /// Largest recorded value.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`, reported as the lower bound of
    /// the bucket containing the `ceil(q * count)`-th value (0 when
    /// empty). Accuracy is bounded by the 12.5% bucket width.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        if rank >= n {
            return self.max();
        }
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_lower_bound(i).min(self.max());
            }
        }
        self.max()
    }

    /// Merges `other` into `self` (bucket-wise saturating addition).
    ///
    /// Saturating matters at the boundary: long-lived aggregation
    /// registries merge per-worker histograms repeatedly, and a wrapped
    /// `count`/`sum` would silently corrupt every derived mean and
    /// quantile rank. A saturated value pins at `u64::MAX` instead.
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = b.load(Ordering::Relaxed);
            if v > 0 {
                saturating_fetch_add(a, v);
            }
        }
        saturating_fetch_add(&self.count, other.count.load(Ordering::Relaxed));
        saturating_fetch_add(&self.sum, other.sum.load(Ordering::Relaxed));
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Point-in-time summary (count, sum, min/max, p50/p90/p99).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Adds `v` to `cell` with saturation at `u64::MAX` (CAS loop; merge is
/// cold-path, so contention is irrelevant).
fn saturating_fetch_add(cell: &AtomicU64, v: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(v);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_consistent_with_bounds() {
        let mut prev = 0usize;
        for v in (0..1 << 20).step_by(37) {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index must not decrease at {v}");
            prev = idx;
            let lo = bucket_lower_bound(idx);
            assert!(lo <= v, "lower bound {lo} above value {v}");
            if idx + 1 < BUCKET_COUNT {
                assert!(bucket_lower_bound(idx + 1) > v, "value {v} past bucket");
            }
        }
    }

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn extreme_values_stay_in_range() {
        assert!(bucket_index(u64::MAX) < BUCKET_COUNT);
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn uniform_distribution_quantiles_within_bucket_error() {
        // 1..=10_000 uniformly: pX must sit within 12.5% of X% * 10_000.
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.50, 5_000.0), (0.90, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel <= 0.125, "q{q}: got {got}, expect {expect}");
        }
        assert_eq!(h.quantile(1.0), 10_000);
    }

    #[test]
    fn bimodal_distribution_quantiles() {
        // 90% fast ops at ~100 ns, 10% slow at ~1 ms: p50 must report the
        // fast mode, p99 the slow mode.
        let h = Histogram::new();
        for _ in 0..900 {
            h.record(100);
        }
        for _ in 0..100 {
            h.record(1_000_000);
        }
        let p50 = h.quantile(0.50);
        assert!((90..=110).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!(
            (875_000..=1_000_000).contains(&p99),
            "p99 {p99} should be in the slow mode"
        );
    }

    #[test]
    fn point_mass_distribution() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(4096);
        }
        assert_eq!(h.quantile(0.01), 4096);
        assert_eq!(h.quantile(0.99), 4096);
        assert_eq!(h.min(), 4096);
        assert_eq!(h.max(), 4096);
        assert_eq!(h.mean(), 4096.0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for v in 1..500u64 {
            a.record(v * 3);
            combined.record(v * 3);
        }
        for v in 1..300u64 {
            b.record(v * 7);
            combined.record(v * 7);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.sum(), combined.sum());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), combined.quantile(q), "q{q}");
        }
        assert_eq!(a.snapshot(), combined.snapshot());
    }

    #[test]
    fn merge_saturates_count_and_sum_at_the_boundary() {
        // Drive the atomics to the edge directly: merging must pin at
        // u64::MAX rather than wrap and corrupt means/ranks.
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(u64::MAX - 3); // sum near the top
        b.record(u64::MAX - 7);
        a.merge(&b);
        assert_eq!(a.sum(), u64::MAX, "sum must saturate");
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), u64::MAX - 3);
        // Repeated self-merge of a saturated histogram stays pinned.
        let c = Histogram::new();
        c.record(u64::MAX);
        c.merge(&a);
        c.merge(&a);
        assert_eq!(c.sum(), u64::MAX);
        assert_eq!(c.count(), 5);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..20_000u64 {
                        h.record(t * 1000 + i % 997);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.count(), 8 * 20_000);
    }
}
