//! The standard swap-path metric bundle shared by every SFM backend.
//!
//! Both the Baseline-CPU backend (`xfm-sfm`) and the XFM backend
//! (`xfm-core`) report through the same metric names, so co-run and
//! fallback comparisons read from one schema regardless of which data
//! plane served the traffic.

use std::sync::Arc;

use crate::counter::Counter;
use crate::hist::Histogram;
use crate::lifecycle::LifecycleTrace;
use crate::registry::Registry;

/// Pre-registered handles for every swap-path metric.
///
/// Built once at attach time ([`SwapMetrics::register`]); afterwards
/// each recording is a relaxed atomic with no registry lookups and no
/// allocation, keeping the instrumented hot path within noise of the
/// uninstrumented one.
///
/// # Examples
///
/// ```
/// use xfm_telemetry::{Registry, SwapMetrics};
///
/// let registry = Registry::new();
/// let m = SwapMetrics::register(&registry);
/// m.swap_outs.inc();
/// m.swap_out_ns.record(1_700);
/// assert_eq!(registry.counter("xfm_swap_outs_total").get(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SwapMetrics {
    /// Completed swap-outs.
    pub swap_outs: Arc<Counter>,
    /// Completed swap-ins.
    pub swap_ins: Arc<Counter>,
    /// Operations that executed on the NMA.
    pub nma_executions: Arc<Counter>,
    /// Operations that ran on (or fell back to) the CPU.
    pub cpu_executions: Arc<Counter>,
    /// Offloads redone by the CPU after missing their refresh windows.
    pub refresh_window_misses: Arc<Counter>,
    /// Pages stored raw (did not compress under the threshold).
    pub stored_raw: Arc<Counter>,
    /// Same-filled pages short-circuited before the codec.
    pub same_filled: Arc<Counter>,
    /// End-to-end swap-out latency (wall clock, ns).
    pub swap_out_ns: Arc<Histogram>,
    /// End-to-end swap-in latency (wall clock, ns).
    pub swap_in_ns: Arc<Histogram>,
    /// Compression latency (wall clock, ns).
    pub compress_ns: Arc<Histogram>,
    /// Decompression latency (wall clock, ns).
    pub decompress_ns: Arc<Histogram>,
    /// Zpool store (alloc + copy) latency (wall clock, ns).
    pub zpool_store_ns: Arc<Histogram>,
    /// Zpool load (lookup + copy out) latency (wall clock, ns).
    pub zpool_load_ns: Arc<Histogram>,
    /// The shared registry (its lifecycle trail is [`SwapMetrics::lifecycle`]).
    registry: Registry,
}

impl SwapMetrics {
    /// Registers (or re-binds to) the standard swap metrics on
    /// `registry`.
    #[must_use]
    pub fn register(registry: &Registry) -> Self {
        describe_standard_families(registry);
        Self {
            swap_outs: registry.counter("xfm_swap_outs_total"),
            swap_ins: registry.counter("xfm_swap_ins_total"),
            nma_executions: registry.counter("xfm_nma_executions_total"),
            cpu_executions: registry.counter("xfm_cpu_executions_total"),
            refresh_window_misses: registry.counter("xfm_refresh_window_misses_total"),
            stored_raw: registry.counter("xfm_stored_raw_total"),
            same_filled: registry.counter("xfm_same_filled_total"),
            swap_out_ns: registry.histogram("xfm_swap_out_latency_ns"),
            swap_in_ns: registry.histogram("xfm_swap_in_latency_ns"),
            compress_ns: registry.histogram("xfm_compress_latency_ns"),
            decompress_ns: registry.histogram("xfm_decompress_latency_ns"),
            zpool_store_ns: registry.histogram("xfm_zpool_store_latency_ns"),
            zpool_load_ns: registry.histogram("xfm_zpool_load_latency_ns"),
            registry: registry.clone(),
        }
    }

    /// The page-lifecycle audit trail of the shared registry, where the
    /// swap path records its events ([`LifecycleTrace::record`]).
    #[must_use]
    pub fn lifecycle(&self) -> &LifecycleTrace {
        self.registry.lifecycle()
    }
}

/// Registers `# HELP` text for the standard swap-path metric families.
fn describe_standard_families(registry: &Registry) {
    for (name, help) in [
        ("xfm_swap_outs_total", "Completed swap-outs."),
        ("xfm_swap_ins_total", "Completed swap-ins."),
        (
            "xfm_nma_executions_total",
            "Operations executed on the NMA over the refresh side channel.",
        ),
        (
            "xfm_cpu_executions_total",
            "Operations that ran on (or fell back to) the CPU.",
        ),
        (
            "xfm_refresh_window_misses_total",
            "Offloads redone by the CPU after missing their refresh windows.",
        ),
        (
            "xfm_stored_raw_total",
            "Pages stored raw (did not compress under the threshold).",
        ),
        (
            "xfm_same_filled_total",
            "Same-filled pages short-circuited before the codec.",
        ),
        (
            "xfm_swap_out_latency_ns",
            "End-to-end swap-out latency (wall clock, ns).",
        ),
        (
            "xfm_swap_in_latency_ns",
            "End-to-end swap-in latency (wall clock, ns).",
        ),
        (
            "xfm_compress_latency_ns",
            "Compression latency (wall clock, ns).",
        ),
        (
            "xfm_decompress_latency_ns",
            "Decompression latency (wall clock, ns).",
        ),
        (
            "xfm_zpool_store_latency_ns",
            "Zpool store (alloc + copy) latency (wall clock, ns).",
        ),
        (
            "xfm_zpool_load_latency_ns",
            "Zpool load (lookup + copy out) latency (wall clock, ns).",
        ),
    ] {
        registry.describe(name, help);
    }
}

/// A minimal wall-clock stopwatch for latency sections.
///
/// # Examples
///
/// ```
/// use xfm_telemetry::swap_metrics::Stopwatch;
///
/// let sw = Stopwatch::start();
/// let ns = sw.elapsed_ns();
/// # let _ = ns;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts timing.
    #[must_use]
    pub fn start() -> Self {
        Self(std::time::Instant::now())
    }

    /// Nanoseconds since start (saturating).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{Cause, LifecycleStage};
    use xfm_types::TenantId;

    #[test]
    fn register_binds_standard_names() {
        let r = Registry::new();
        let m = SwapMetrics::register(&r);
        m.swap_outs.inc();
        m.nma_executions.inc();
        m.swap_out_ns.record(500);
        let (stage, tenant) = (LifecycleStage::Compress, TenantId::new(2));
        m.lifecycle()
            .record(stage, Cause::NmaOffload, tenant, 3, 0, 0, 500);
        let s = r.snapshot();
        assert_eq!(s.counters["xfm_swap_outs_total"], 1);
        assert_eq!(s.counters["xfm_nma_executions_total"], 1);
        assert_eq!(s.histograms["xfm_swap_out_latency_ns"].count, 1);
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events[0].tenant, tenant);
    }

    #[test]
    fn re_registration_shares_handles() {
        let r = Registry::new();
        let a = SwapMetrics::register(&r);
        let b = SwapMetrics::register(&r);
        a.cpu_executions.add(2);
        b.cpu_executions.add(3);
        assert_eq!(r.counter("xfm_cpu_executions_total").get(), 5);
    }

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }
}
