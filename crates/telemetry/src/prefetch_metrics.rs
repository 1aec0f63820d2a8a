//! The prefetch-plane metric bundle.
//!
//! The prefetch engine (`xfm-sfm`) reports through these series; like
//! [`crate::swap_metrics::SwapMetrics`], every handle is pre-registered
//! at attach time so steady-state recording is a relaxed atomic with no
//! registry lookups and no allocation — the staging-cache *hit* path
//! carries the same zero-allocation proof as the swap path itself.

use std::sync::Arc;

use crate::counter::{Counter, Gauge};
use crate::registry::Registry;

/// Pre-registered handles for every prefetch-plane metric.
///
/// # Examples
///
/// ```
/// use xfm_telemetry::{PrefetchMetrics, Registry};
///
/// let registry = Registry::new();
/// let m = PrefetchMetrics::register(&registry);
/// m.issued.inc();
/// m.hits.inc();
/// assert_eq!(registry.counter("xfm_prefetch_issued_total").get(), 1);
/// assert_eq!(registry.counter("xfm_prefetch_hits_total").get(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchMetrics {
    /// Speculative swap-ins issued (pages staged).
    pub issued: Arc<Counter>,
    /// Demand faults served from the staging cache (memcpy, no codec).
    pub hits: Arc<Counter>,
    /// Predictions dropped by the precision gate or staging back-pressure.
    pub throttled: Arc<Counter>,
    /// Stale staged pages written back into the compressed pool.
    pub writebacks: Arc<Counter>,
    /// Pages currently held in the staging cache.
    pub staged_pages: Arc<Gauge>,
    /// Rolling `hits / issued` precision (set by the engine's pump).
    pub precision: Arc<Gauge>,
    /// Measured predictor accuracy (fraction of faults predicted).
    pub accuracy: Arc<Gauge>,
}

impl PrefetchMetrics {
    /// Registers (or re-binds to) the prefetch metric family on
    /// `registry`.
    #[must_use]
    pub fn register(registry: &Registry) -> Self {
        for (name, help) in [
            (
                "xfm_prefetch_issued_total",
                "Speculative swap-ins issued (pages staged).",
            ),
            (
                "xfm_prefetch_hits_total",
                "Demand faults served from the prefetch staging cache.",
            ),
            (
                "xfm_prefetch_throttled_total",
                "Predictions dropped by the precision gate or staging back-pressure.",
            ),
            (
                "xfm_prefetch_writebacks_total",
                "Stale staged pages written back into the compressed pool.",
            ),
            (
                "xfm_prefetch_staging_pages",
                "Pages currently held in the prefetch staging cache.",
            ),
            (
                "xfm_prefetch_precision",
                "Rolling prefetch precision (staging hits / pages issued).",
            ),
            (
                "xfm_prefetch_accuracy",
                "Measured predictor accuracy (fraction of faults predicted).",
            ),
        ] {
            registry.describe(name, help);
        }
        Self {
            issued: registry.counter("xfm_prefetch_issued_total"),
            hits: registry.counter("xfm_prefetch_hits_total"),
            throttled: registry.counter("xfm_prefetch_throttled_total"),
            writebacks: registry.counter("xfm_prefetch_writebacks_total"),
            staged_pages: registry.gauge("xfm_prefetch_staging_pages"),
            precision: registry.gauge("xfm_prefetch_precision"),
            accuracy: registry.gauge("xfm_prefetch_accuracy"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_binds_prefetch_names() {
        let r = Registry::new();
        let m = PrefetchMetrics::register(&r);
        m.issued.add(4);
        m.hits.add(3);
        m.throttled.inc();
        m.staged_pages.set(2.0);
        m.precision.set(0.75);
        let s = r.snapshot();
        assert_eq!(s.counters["xfm_prefetch_issued_total"], 4);
        assert_eq!(s.counters["xfm_prefetch_hits_total"], 3);
        assert_eq!(s.counters["xfm_prefetch_throttled_total"], 1);
        assert!((s.gauges["xfm_prefetch_staging_pages"] - 2.0).abs() < 1e-12);
        assert!((s.gauges["xfm_prefetch_precision"] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn re_registration_shares_handles() {
        let r = Registry::new();
        let a = PrefetchMetrics::register(&r);
        let b = PrefetchMetrics::register(&r);
        a.hits.add(2);
        b.hits.add(3);
        assert_eq!(r.counter("xfm_prefetch_hits_total").get(), 5);
    }
}
