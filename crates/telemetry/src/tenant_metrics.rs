//! Per-tenant metric series for the multi-tenant swap fabric.
//!
//! A shared far-memory pool serves many workloads, and the serving
//! question ("who is consuming the pool, and are they inside their
//! SLO?") requires series keyed by tenant, not just by shard. Unlike
//! [`crate::ShardMetrics`], whose population is fixed at attach time,
//! tenants appear dynamically: series are registered lazily on each
//! tenant's first operation and cached behind a small mutex-protected
//! map, so a lookup is one short lock, one `BTreeMap` lookup and a
//! refcount bump — no allocation after a tenant's first touch (the
//! zero-allocation gates cover exactly this path). No caller looks a
//! tenant up under another lock: a plane resolves the handle before it
//! takes a shard lock and the stored entry carries it to the swap-in
//! (`xfm_sfm::store::Owner`); the serve layer resolves its fixed tenant
//! set once, when telemetry attaches.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use xfm_types::TenantId;

use crate::counter::Counter;
use crate::hist::Histogram;
use crate::registry::Registry;

/// Pre-registered handles for one tenant's series.
#[derive(Debug)]
pub struct TenantSeries {
    /// Completed swap-outs billed to this tenant.
    pub swap_outs: Arc<Counter>,
    /// Completed swap-ins (faults) on this tenant's pages.
    pub swap_ins: Arc<Counter>,
    /// Compressed bytes stored on this tenant's account (cumulative).
    pub bytes_stored: Arc<Counter>,
    /// Compressed bytes credited back when entries were consumed.
    pub bytes_freed: Arc<Counter>,
    /// Demand-fault latency for this tenant's pages (wall ns).
    pub fault_ns: Arc<Histogram>,
    /// Operations shed by admission control before reaching the plane.
    pub sheds: Arc<Counter>,
}

/// Lazily-registered per-tenant series, keyed by tenant id.
///
/// # Examples
///
/// ```
/// use xfm_telemetry::{Registry, TenantMetrics};
/// use xfm_types::TenantId;
///
/// let registry = Registry::new();
/// let m = TenantMetrics::register(&registry);
/// m.series(TenantId::new(3)).swap_outs.inc();
/// assert_eq!(
///     registry.counter("xfm_tenant_swap_outs_total{tenant=\"3\"}").get(),
///     1
/// );
/// ```
#[derive(Debug, Clone)]
pub struct TenantMetrics {
    registry: Registry,
    series: Arc<Mutex<BTreeMap<u16, Arc<TenantSeries>>>>,
}

impl TenantMetrics {
    /// Binds a lazily-populated per-tenant bundle to `registry`.
    #[must_use]
    pub fn register(registry: &Registry) -> Self {
        for (name, help) in [
            (
                "xfm_tenant_swap_outs_total",
                "Completed swap-outs billed to the tenant.",
            ),
            (
                "xfm_tenant_swap_ins_total",
                "Completed swap-ins (faults) on the tenant's pages.",
            ),
            (
                "xfm_tenant_bytes_stored_total",
                "Compressed bytes stored on the tenant's account (cumulative).",
            ),
            (
                "xfm_tenant_bytes_freed_total",
                "Compressed bytes credited back to the tenant when its entries were consumed.",
            ),
            (
                "xfm_tenant_fault_latency_ns",
                "Demand-fault latency of the tenant's pages (wall clock, ns).",
            ),
            (
                "xfm_tenant_shed_total",
                "The tenant's operations shed by admission control before reaching the plane.",
            ),
        ] {
            registry.describe(name, help);
        }
        Self {
            registry: registry.clone(),
            series: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// The series for `tenant`, registering them on first touch.
    ///
    /// Steady state (tenant already seen) is lock + lookup + refcount
    /// bump: no allocation, so it is safe on the swap hot path — before
    /// the plane's own lock is taken, not under it.
    #[must_use]
    pub fn series(&self, tenant: TenantId) -> Arc<TenantSeries> {
        let mut map = self.series.lock();
        if let Some(s) = map.get(&tenant.as_u16()) {
            return Arc::clone(s);
        }
        let id = tenant.as_u16();
        let name = |family: &str| format!("{family}{{tenant=\"{id}\"}}");
        let s = Arc::new(TenantSeries {
            swap_outs: self.registry.counter(&name("xfm_tenant_swap_outs_total")),
            swap_ins: self.registry.counter(&name("xfm_tenant_swap_ins_total")),
            bytes_stored: self
                .registry
                .counter(&name("xfm_tenant_bytes_stored_total")),
            bytes_freed: self.registry.counter(&name("xfm_tenant_bytes_freed_total")),
            fault_ns: self
                .registry
                .histogram(&name("xfm_tenant_fault_latency_ns")),
            sheds: self.registry.counter(&name("xfm_tenant_shed_total")),
        });
        map.insert(id, Arc::clone(&s));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_registers_labeled_series() {
        let r = Registry::new();
        let m = TenantMetrics::register(&r);
        m.series(TenantId::new(1)).swap_ins.add(4);
        m.series(TenantId::new(2)).bytes_stored.add(100);
        m.series(TenantId::new(2)).bytes_freed.add(40);
        let s = r.snapshot();
        assert_eq!(s.counters["xfm_tenant_swap_ins_total{tenant=\"1\"}"], 4);
        assert_eq!(
            s.counters["xfm_tenant_bytes_stored_total{tenant=\"2\"}"],
            100
        );
        assert_eq!(s.counters["xfm_tenant_bytes_freed_total{tenant=\"2\"}"], 40);
    }

    #[test]
    fn repeat_touch_shares_handles() {
        let r = Registry::new();
        let m = TenantMetrics::register(&r);
        let a = m.series(TenantId::new(7));
        let b = m.series(TenantId::new(7));
        a.swap_outs.add(2);
        b.swap_outs.add(3);
        assert_eq!(a.swap_outs.get(), 5);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn clones_share_the_series_map() {
        let r = Registry::new();
        let m = TenantMetrics::register(&r);
        let m2 = m.clone();
        m.series(TenantId::new(5)).sheds.inc();
        assert!(Arc::ptr_eq(
            &m.series(TenantId::new(5)),
            &m2.series(TenantId::new(5))
        ));
    }
}
