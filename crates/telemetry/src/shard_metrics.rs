//! Per-shard metric bundle for the sharded swap data plane.
//!
//! The sharded backend stripes the page table and zpool across N
//! independent shards; validating that the stripes actually spread the
//! load requires per-shard series. All handles are pre-registered at
//! attach time ([`ShardMetrics::register`]), so steady-state recording
//! is one relaxed atomic per event — the same zero-allocation
//! discipline as [`crate::SwapMetrics`].

use std::sync::Arc;

use crate::counter::{Counter, Gauge};
use crate::hist::Histogram;
use crate::registry::Registry;

/// Pre-registered per-shard handles, indexed by shard id.
///
/// Series names follow the labeled convention of the registry:
/// `xfm_shard_swap_outs_total{shard="3"}` and so on.
///
/// # Examples
///
/// ```
/// use xfm_telemetry::{Registry, ShardMetrics};
///
/// let registry = Registry::new();
/// let m = ShardMetrics::register(&registry, 4);
/// m.swap_outs[2].inc();
/// assert_eq!(
///     registry.counter("xfm_shard_swap_outs_total{shard=\"2\"}").get(),
///     1
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    /// Completed swap-outs per shard.
    pub swap_outs: Vec<Arc<Counter>>,
    /// Completed swap-ins (faults) per shard.
    pub swap_ins: Vec<Arc<Counter>>,
    /// Wall ns of the swap operations routed to each shard, whole: a
    /// swap-out from its start to its store, its compress included; a
    /// fault from its fetch to its booking, its decode included. Not
    /// lock hold time — neither codec call runs under the shard lock —
    /// so a shard's busy time can exceed the wall time it was locked.
    pub busy_ns: Vec<Arc<Counter>>,
    /// Live compressed entries per shard.
    pub entries: Vec<Arc<Gauge>>,
    /// Wall ns an operation waited for a shard's lock
    /// (`xfm_shard_lock_wait_ns{shard=".."}`): recorded only when a
    /// non-blocking attempt failed, so an uncontended acquisition reads
    /// no clock and records nothing.
    pub lock_wait_ns: Vec<Arc<Histogram>>,
    /// Wall ns an operation waited for the plane's codec-state spill
    /// list (`xfm_codec_state_lock_wait_ns`), which a caller locks only
    /// when its shard's codec slot is taken; one lock shared by every
    /// shard and both directions, recorded the way `lock_wait_ns` is.
    pub codec_state_lock_wait_ns: Arc<Histogram>,
}

impl ShardMetrics {
    /// Registers (or re-binds to) per-shard series for `shards` shards.
    #[must_use]
    pub fn register(registry: &Registry, shards: usize) -> Self {
        for (name, help) in [
            (
                "xfm_shard_swap_outs_total",
                "Completed swap-outs per shard.",
            ),
            ("xfm_shard_swap_ins_total", "Completed swap-ins per shard."),
            (
                "xfm_shard_busy_ns_total",
                "Wall ns of each shard's swaps, codec included.",
            ),
            ("xfm_shard_entries", "Live compressed entries per shard."),
            (
                "xfm_shard_lock_wait_ns",
                "Wall ns waited for a contended shard lock.",
            ),
            (
                "xfm_codec_state_lock_wait_ns",
                "Wall ns waited for the codec-state spill list.",
            ),
        ] {
            registry.describe(name, help);
        }
        let series = |name: &str| -> Vec<Arc<Counter>> {
            (0..shards)
                .map(|s| registry.counter(&format!("{name}{{shard=\"{s}\"}}")))
                .collect()
        };
        Self {
            swap_outs: series("xfm_shard_swap_outs_total"),
            swap_ins: series("xfm_shard_swap_ins_total"),
            busy_ns: series("xfm_shard_busy_ns_total"),
            entries: (0..shards)
                .map(|s| registry.gauge(&format!("xfm_shard_entries{{shard=\"{s}\"}}")))
                .collect(),
            lock_wait_ns: (0..shards)
                .map(|s| registry.histogram(&format!("xfm_shard_lock_wait_ns{{shard=\"{s}\"}}")))
                .collect(),
            codec_state_lock_wait_ns: registry.histogram("xfm_codec_state_lock_wait_ns"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_binds_labeled_series() {
        let r = Registry::new();
        let m = ShardMetrics::register(&r, 2);
        m.swap_ins[0].inc();
        m.swap_ins[1].add(3);
        m.busy_ns[1].add(500);
        let s = r.snapshot();
        assert_eq!(s.counters["xfm_shard_swap_ins_total{shard=\"0\"}"], 1);
        assert_eq!(s.counters["xfm_shard_swap_ins_total{shard=\"1\"}"], 3);
        assert_eq!(s.counters["xfm_shard_busy_ns_total{shard=\"1\"}"], 500);
    }

    #[test]
    fn re_registration_shares_handles() {
        let r = Registry::new();
        let a = ShardMetrics::register(&r, 4);
        let b = ShardMetrics::register(&r, 4);
        a.swap_outs[3].add(2);
        b.swap_outs[3].add(5);
        assert_eq!(a.swap_outs[3].get(), 7);
    }
}
