//! Estimators that repeat on a noisy shared host: exact per-epoch
//! percentiles, and medians across epochs.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Exact nearest-rank percentile `q` (0 < q < 1) of `samples`
/// (reordered in place). `None` unless at least [`MIN_BEYOND`] samples
/// lie beyond the chosen rank — a p99 of 500 samples is one outlier,
/// not a percentile.
pub fn percentile(samples: &mut [u32], q: f64) -> Option<u32> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    if n - 1 - rank < MIN_BEYOND {
        return None;
    }
    Some(*samples.select_nth_unstable(rank).1)
}

/// Median of `values` (mean of the middle two for an even count);
/// `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The value a tenth of the way up the sorted `values`; `None` when
/// empty.
fn lower_decile(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len() / 10).copied()
}

/// First and third quartile, by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance driver computes. `None` below two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // position k * (n + 1) / 4, 1-based, linearly interpolated.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the spread figure
/// a metric's bound is judged against.
#[must_use]
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1).abs() / m.abs())
}

/// Latency samples of one class within one epoch: a fixed-capacity
/// buffer filled inside the timed loop (no allocation), handed over
/// between epochs.
#[derive(Debug)]
pub struct Samples {
    buf: Vec<u32>,
}

impl Samples {
    /// A buffer holding up to `cap` samples; further ones are dropped.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Records one latency in nanoseconds (saturating at ~4.29 s).
    #[inline]
    pub fn push(&mut self, ns: u64) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ns.min(u64::from(u32::MAX)) as u32);
        }
    }

    /// Appends the samples to `pool` and empties the buffer.
    pub fn move_into(&mut self, pool: &mut Vec<u32>) {
        pool.extend_from_slice(&self.buf);
        self.buf.clear();
    }
}

/// Per-epoch percentiles of one latency class, collected over a pass.
#[derive(Debug, Default, Clone)]
pub struct LatencySeries {
    /// Samples summarised, over all epochs.
    pub samples: u64,
    /// Median of each epoch that had enough samples for one.
    pub p50: Vec<f64>,
    /// 99th percentile of each epoch that had enough samples for one.
    pub p99: Vec<f64>,
}

impl LatencySeries {
    /// Folds in one epoch's samples (reordered in place), taken while
    /// the host ran at `speed` times the reference speed: the epoch's
    /// percentiles are recorded as they would be at reference speed.
    pub fn add(&mut self, epoch: &mut [u32], speed: f64) {
        self.samples += epoch.len() as u64;
        self.p50
            .extend(percentile(epoch, 0.50).map(|ns| f64::from(ns) * speed));
        self.p99
            .extend(percentile(epoch, 0.99).map(|ns| f64::from(ns) * speed));
    }

    /// The median of a quiet epoch, in nanoseconds: see [`Self::p99_ns`].
    #[must_use]
    pub fn p50_ns(&self) -> Option<f64> {
        lower_decile(&self.p50)
    }

    /// The 99th percentile of a quiet epoch: the lower decile of the
    /// per-epoch p99s, in nanoseconds.
    ///
    /// On a shared host a neighbour's burst only ever lengthens an
    /// operation, and in a disturbed epoch it *is* the tail: the median
    /// epoch then reports the host, not the program. The quiet epochs
    /// show the program's own latencies, and a change that lengthens
    /// those lengthens them there too. The decile rather than the
    /// minimum, because the host can also shorten a tail: with one of
    /// two clients descheduled for most of an epoch, the other runs
    /// uncontended.
    #[must_use]
    pub fn p99_ns(&self) -> Option<f64> {
        lower_decile(&self.p99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let mut v: Vec<u32> = (1..=1000).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), Some(500));
        assert_eq!(percentile(&mut v, 0.99), Some(990));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, nine.
        let mut ok: Vec<u32> = (0..1000).collect();
        assert!(percentile(&mut ok, 0.99).is_some());
        let mut short: Vec<u32> = (0..999).collect();
        assert_eq!(percentile(&mut short, 0.99), None);
        let mut p50: Vec<u32> = (0..21).collect();
        assert_eq!(percentile(&mut p50, 0.50), Some(10));
        let mut p50_short: Vec<u32> = (0..19).collect();
        assert_eq!(percentile(&mut p50_short, 0.50), None);
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn epochs_reduce_to_the_percentiles_of_a_quiet_epoch() {
        let mut s = LatencySeries::default();
        // Five epochs of 2000 samples, the fourth disturbed: its values
        // are fifty times the others'.
        for scale in [100u32, 101, 99, 5000, 100] {
            let mut epoch: Vec<u32> = (1..=2000).map(|i| scale * i / 1000).collect();
            s.add(&mut epoch, 1.0);
        }
        // An epoch too short for a p99 contributes its p50 only.
        s.add(&mut (1..=500).collect::<Vec<u32>>(), 1.0);
        assert_eq!(s.samples, 10_500);
        assert_eq!((s.p50.len(), s.p99.len()), (6, 5));
        // Per-epoch p50s: 100, 101, 99, 5000, 100, 250 -> lower decile 99.
        assert_eq!(s.p50_ns(), Some(99.0));
        // Per-epoch p99s: 198, 199, 196, 9900, 198 -> lower decile 196.
        assert_eq!(s.p99_ns(), Some(196.0));
        // With twenty epochs the lower decile skips the two lowest: an
        // epoch the host made *faster* does not set the figure either.
        let mut many = LatencySeries {
            p99: (1..=20).map(f64::from).collect(),
            ..LatencySeries::default()
        };
        many.p99[7] = 0.001;
        assert_eq!(many.p99_ns(), Some(2.0));
        assert_eq!(LatencySeries::default().p50_ns(), None);
        assert_eq!(LatencySeries::default().p99_ns(), None);
    }

    #[test]
    fn an_epoch_on_a_slow_host_is_recorded_at_reference_speed() {
        let mut s = LatencySeries::default();
        // The same operations, timed while the host ran at 0.8 of the
        // reference speed, took 1.25 times as long.
        s.add(&mut (1..=2000).collect::<Vec<u32>>(), 1.0);
        s.add(
            &mut (1..=2000).map(|i| i * 5 / 4).collect::<Vec<u32>>(),
            0.8,
        );
        assert_eq!(s.p50, [1000.0, 1000.0]);
        assert_eq!(s.p99, [1980.0, 1980.0]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn samples_stop_at_capacity_without_growing() {
        let mut s = Samples::with_capacity(4);
        for ns in 0..10 {
            s.push(ns);
        }
        assert_eq!(s.buf.capacity(), 4);
        let mut pool = vec![9];
        s.move_into(&mut pool);
        assert_eq!(pool, [9, 0, 1, 2, 3]);
        assert!(s.buf.is_empty());
    }
}
