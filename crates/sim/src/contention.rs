//! Memory-channel contention: bandwidth load → effective latency.
//!
//! A standard first-order queueing abstraction: as offered load
//! approaches the channels' sustainable bandwidth, queueing delay
//! inflates the unloaded access latency. SFM adds load two ways:
//! extra *bandwidth* (the Baseline-CPU's `4 × GBSwapped` traffic,
//! overhead **O3**) and extra *unavailability* (Host-Lockout-NMA
//! blocking host access to a rank while the NMA holds it).

use xfm_types::{Bandwidth, Nanos};

/// The channel model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryChannelModel {
    /// Unloaded DRAM access latency.
    pub base_latency: Nanos,
    /// Aggregate sustainable bandwidth of all channels.
    pub peak_bandwidth: Bandwidth,
    /// Load at which the queueing term saturates (fraction of peak a
    /// real controller sustains; ~0.85 for interleaved traffic).
    pub knee: f64,
}

impl MemoryChannelModel {
    /// The paper's testbed: 6 channels of DDR4-3200 (~25.6 GB/s each),
    /// ~80 ns unloaded latency.
    #[must_use]
    pub fn paper_testbed() -> Self {
        Self {
            base_latency: Nanos::from_ns(80),
            peak_bandwidth: Bandwidth::from_gbps(6.0 * 25.6),
            knee: 0.85,
        }
    }

    /// Effective memory latency when the channels carry `offered`
    /// bandwidth and the ranks are additionally unavailable for a
    /// `blocked_fraction` of time (lockout-style NMA designs).
    ///
    /// The queueing term follows `1 / (1 - u)` on utilization
    /// `u = offered / (peak × (1 - blocked))`, clamped below
    /// saturation; unavailability additionally adds its expected
    /// blocking wait.
    #[must_use]
    pub fn effective_latency(&self, offered: Bandwidth, blocked_fraction: f64) -> Nanos {
        let usable = self.peak_bandwidth.as_bytes_per_sec()
            * self.knee
            * (1.0 - blocked_fraction.clamp(0.0, 0.95));
        let u = (offered.as_bytes_per_sec() / usable).clamp(0.0, 0.98);
        // M/D/1-flavor delay inflation.
        let queueing = 1.0 + u / (2.0 * (1.0 - u));
        // Expected extra wait from rank unavailability: the mean
        // residual of the blocking interval, folded in as a latency adder
        // proportional to how often an access collides with a busy rank.
        let block_penalty_ns = blocked_fraction.clamp(0.0, 0.95) * MEAN_BLOCK_RESIDUAL_NS;
        Nanos::from_ps(
            (self.base_latency.as_ps() as f64 * queueing + block_penalty_ns * 1000.0).round()
                as u64,
        )
    }

    /// Utilization of the sustainable bandwidth at an offered load.
    #[must_use]
    pub fn utilization(&self, offered: Bandwidth) -> f64 {
        offered.as_bytes_per_sec() / (self.peak_bandwidth.as_bytes_per_sec() * self.knee)
    }
}

/// Mean residual blocking time (ns) an access experiences when it
/// collides with an in-progress lockout-mode NMA transfer. A 4 KiB
/// page at the prototype's ~1.5 GB/s engine rate holds the rank ~2.7 us;
/// the residual seen by a random arrival is half that, derated because
/// only the target rank (1 of several) is blocked.
const MEAN_BLOCK_RESIDUAL_NS: f64 = 220.0;

impl Default for MemoryChannelModel {
    fn default() -> Self {
        Self::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_with_load() {
        let m = MemoryChannelModel::paper_testbed();
        let idle = m.effective_latency(Bandwidth::ZERO, 0.0);
        let half = m.effective_latency(Bandwidth::from_gbps(65.0), 0.0);
        let heavy = m.effective_latency(Bandwidth::from_gbps(120.0), 0.0);
        assert_eq!(idle, m.base_latency);
        assert!(half > idle);
        assert!(heavy > half);
    }

    #[test]
    fn blocking_adds_latency_even_when_idle() {
        let m = MemoryChannelModel::paper_testbed();
        let unblocked = m.effective_latency(Bandwidth::from_gbps(30.0), 0.0);
        let blocked = m.effective_latency(Bandwidth::from_gbps(30.0), 0.10);
        assert!(blocked > unblocked);
        // 10% blocking should add ~22 ns of expected wait.
        let delta = blocked - unblocked;
        assert!(delta.as_ns_f64() > 15.0, "{delta}");
    }

    #[test]
    fn latency_bounded_near_saturation() {
        let m = MemoryChannelModel::paper_testbed();
        let sat = m.effective_latency(Bandwidth::from_gbps(1000.0), 0.0);
        // Clamped utilization keeps the model finite.
        assert!(sat.as_ns_f64() < 3000.0, "{sat}");
    }

    #[test]
    fn utilization_is_linear_in_load() {
        let m = MemoryChannelModel::paper_testbed();
        let u1 = m.utilization(Bandwidth::from_gbps(13.0));
        let u2 = m.utilization(Bandwidth::from_gbps(26.0));
        assert!((u2 - 2.0 * u1).abs() < 1e-9);
    }
}
