//! Lock-free scalar metrics: monotonic counters and settable gauges.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
///
/// All operations are relaxed atomics: counters may be bumped
/// concurrently from any number of threads (the batched swap-out
/// workers hammer these) and read at any time. Increments saturate
/// instead of wrapping so aggregation can never overflow-panic.
///
/// # Examples
///
/// ```
/// use xfm_telemetry::Counter;
///
/// let c = Counter::new();
/// c.inc();
/// c.add(41);
/// assert_eq!(c.get(), 42);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        // fetch_update with saturating_add would need a CAS loop; a
        // plain fetch_add is fine until the counter nears u64::MAX,
        // which `get` then clamps conservatively via saturating math on
        // the read side being unnecessary — instead detect imminent
        // overflow and pin the counter.
        let prev = self.0.fetch_add(n, Ordering::Relaxed);
        if prev.checked_add(n).is_none() {
            self.0.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable gauge holding an `f64` (stored as bits in an atomic).
///
/// # Examples
///
/// ```
/// use xfm_telemetry::Gauge;
///
/// let g = Gauge::new();
/// g.set(0.078);
/// assert!((g.get() - 0.078).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at 0.0.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_round_trips_f64() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        for v in [0.0, -1.5, 0.078, 1e18, f64::MIN_POSITIVE] {
            g.set(v);
            assert_eq!(g.get(), v);
        }
    }

    #[test]
    fn counters_hammered_from_eight_threads() {
        // The concurrency guarantee the batched swap-out workers rely on:
        // no lost updates, no tearing, from 8 threads at once.
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50_000;
        let counter = Arc::new(Counter::new());
        let gauge = Arc::new(Gauge::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let c = Arc::clone(&counter);
                let g = Arc::clone(&gauge);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        if i % 1024 == 0 {
                            g.set(t as f64);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
        let last = gauge.get();
        assert!(last >= 0.0 && last < THREADS as f64, "gauge {last}");
    }
}
