//! Bandwidth, latency, and row-buffer statistics for a memory channel.

use xfm_types::{Bandwidth, ByteSize, Nanos};

/// Who issued a memory access: the host CPU or the near-memory accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessSource {
    /// Host CPU traffic over the DDR channel.
    Cpu,
    /// NMA traffic over the on-DIMM side channel (invisible to the DDR bus).
    Nma,
}

/// Aggregated statistics for one memory channel.
///
/// # Examples
///
/// ```
/// use xfm_dram::stats::{AccessSource, ChannelStats};
/// use xfm_types::{ByteSize, Nanos};
///
/// let mut s = ChannelStats::new();
/// s.record_access(
///     AccessSource::Cpu,
///     false,
///     ByteSize::from_bytes(64),
///     Nanos::from_ns(50),
///     Nanos::from_ns(3),
/// );
/// assert_eq!(s.bytes_read(AccessSource::Cpu).as_bytes(), 64);
/// assert_eq!(s.accesses(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelStats {
    cpu_read: u64,
    cpu_written: u64,
    nma_read: u64,
    nma_written: u64,
    accesses: u64,
    latency_sum: Nanos,
    latency_max: Nanos,
    bus_busy: Nanos,
}

impl ChannelStats {
    /// Creates empty statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed access.
    ///
    /// Accumulation is saturating: statistics from arbitrarily long runs
    /// clamp at the representable maximum rather than overflowing (which
    /// would panic in debug builds).
    pub fn record_access(
        &mut self,
        source: AccessSource,
        is_write: bool,
        bytes: ByteSize,
        latency: Nanos,
        bus_time: Nanos,
    ) {
        let b = bytes.as_bytes();
        match (source, is_write) {
            (AccessSource::Cpu, false) => self.cpu_read = self.cpu_read.saturating_add(b),
            (AccessSource::Cpu, true) => self.cpu_written = self.cpu_written.saturating_add(b),
            (AccessSource::Nma, false) => self.nma_read = self.nma_read.saturating_add(b),
            (AccessSource::Nma, true) => self.nma_written = self.nma_written.saturating_add(b),
        }
        self.accesses = self.accesses.saturating_add(1);
        self.latency_sum = self.latency_sum.saturating_add(latency);
        self.latency_max = self.latency_max.max(latency);
        // NMA traffic rides the refresh side channel, not the DDR bus.
        if source == AccessSource::Cpu {
            self.bus_busy = self.bus_busy.saturating_add(bus_time);
        }
    }

    /// Total completed accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Bytes read by `source`.
    #[must_use]
    pub fn bytes_read(&self, source: AccessSource) -> ByteSize {
        ByteSize::from_bytes(match source {
            AccessSource::Cpu => self.cpu_read,
            AccessSource::Nma => self.nma_read,
        })
    }

    /// Bytes written by `source`.
    #[must_use]
    pub fn bytes_written(&self, source: AccessSource) -> ByteSize {
        ByteSize::from_bytes(match source {
            AccessSource::Cpu => self.cpu_written,
            AccessSource::Nma => self.nma_written,
        })
    }

    /// Total bytes moved on the DDR data bus (CPU reads + writes).
    #[must_use]
    pub fn ddr_bus_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(self.cpu_read.saturating_add(self.cpu_written))
    }

    /// Mean access latency, or zero when no accesses completed.
    #[must_use]
    pub fn mean_latency(&self) -> Nanos {
        if self.accesses == 0 {
            Nanos::ZERO
        } else {
            self.latency_sum / self.accesses
        }
    }

    /// Worst-case access latency observed.
    #[must_use]
    pub fn max_latency(&self) -> Nanos {
        self.latency_max
    }

    /// Fraction of `elapsed` the DDR data bus was busy.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero.
    #[must_use]
    pub fn bus_utilization(&self, elapsed: Nanos) -> f64 {
        assert!(!elapsed.is_zero(), "elapsed must be non-zero");
        self.bus_busy.as_ps() as f64 / elapsed.as_ps() as f64
    }

    /// Average DDR-bus bandwidth over `elapsed`.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero.
    #[must_use]
    pub fn ddr_bandwidth(&self, elapsed: Nanos) -> Bandwidth {
        Bandwidth::average(self.ddr_bus_bytes(), elapsed)
    }

    /// Merges another statistics block into this one.
    ///
    /// Saturating, like [`ChannelStats::record_access`]: aggregating any
    /// number of channels or workers cannot overflow-panic.
    pub fn merge(&mut self, other: &ChannelStats) {
        self.cpu_read = self.cpu_read.saturating_add(other.cpu_read);
        self.cpu_written = self.cpu_written.saturating_add(other.cpu_written);
        self.nma_read = self.nma_read.saturating_add(other.nma_read);
        self.nma_written = self.nma_written.saturating_add(other.nma_written);
        self.accesses = self.accesses.saturating_add(other.accesses);
        self.latency_sum = self.latency_sum.saturating_add(other.latency_sum);
        self.latency_max = self.latency_max.max(other.latency_max);
        self.bus_busy = self.bus_busy.saturating_add(other.bus_busy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nma_traffic_does_not_touch_the_bus() {
        let mut s = ChannelStats::new();
        s.record_access(
            AccessSource::Nma,
            false,
            ByteSize::from_kib(4),
            Nanos::from_ns(110),
            Nanos::from_ns(80),
        );
        assert_eq!(s.ddr_bus_bytes(), ByteSize::ZERO);
        assert_eq!(s.bus_utilization(Nanos::from_us(1)), 0.0);
        assert_eq!(s.bytes_read(AccessSource::Nma), ByteSize::from_kib(4));
    }

    #[test]
    fn cpu_traffic_accumulates_bus_time() {
        let mut s = ChannelStats::new();
        for _ in 0..10 {
            s.record_access(
                AccessSource::Cpu,
                true,
                ByteSize::from_bytes(64),
                Nanos::from_ns(40),
                Nanos::from_ns(3),
            );
        }
        assert_eq!(s.bytes_written(AccessSource::Cpu).as_bytes(), 640);
        assert!((s.bus_utilization(Nanos::from_ns(300)) - 0.1).abs() < 1e-9);
        assert_eq!(s.mean_latency(), Nanos::from_ns(40));
    }

    #[test]
    fn latency_stats() {
        let mut s = ChannelStats::new();
        s.record_access(
            AccessSource::Cpu,
            false,
            ByteSize::from_bytes(64),
            Nanos::from_ns(10),
            Nanos::ZERO,
        );
        s.record_access(
            AccessSource::Cpu,
            false,
            ByteSize::from_bytes(64),
            Nanos::from_ns(30),
            Nanos::ZERO,
        );
        assert_eq!(s.mean_latency(), Nanos::from_ns(20));
        assert_eq!(s.max_latency(), Nanos::from_ns(30));
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = ChannelStats::new();
        let mut b = ChannelStats::new();
        a.record_access(
            AccessSource::Cpu,
            false,
            ByteSize::from_bytes(64),
            Nanos::from_ns(10),
            Nanos::from_ns(2),
        );
        b.record_access(
            AccessSource::Cpu,
            true,
            ByteSize::from_bytes(128),
            Nanos::from_ns(50),
            Nanos::from_ns(4),
        );
        a.merge(&b);
        assert_eq!(a.accesses(), 2);
        assert_eq!(a.ddr_bus_bytes().as_bytes(), 192);
        assert_eq!(a.max_latency(), Nanos::from_ns(50));
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        // Two near-saturated blocks: merging must clamp, not panic
        // (pre-saturation this overflowed in debug builds).
        let mut a = ChannelStats::new();
        a.record_access(
            AccessSource::Cpu,
            false,
            ByteSize::from_bytes(u64::MAX - 10),
            Nanos::from_ps(u64::MAX - 10),
            Nanos::from_ps(u64::MAX - 10),
        );
        let b = a.clone();
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.bytes_read(AccessSource::Cpu).as_bytes(), u64::MAX);
        assert_eq!(a.accesses(), 3);
        assert_eq!(a.max_latency(), Nanos::from_ps(u64::MAX - 10));
        // Mean stays well-defined (saturated sum / count).
        assert!(a.mean_latency() > Nanos::ZERO);
    }
}
