//! Request-driven CPU-side memory controller.
//!
//! [`MemController`] models one DDR channel: per-bank open-row state, a
//! shared data bus, and periodic all-bank refresh blackouts. It is
//! *request-driven* rather than cycle-stepped: each request is resolved to
//! a completion time as it arrives (in non-decreasing time order), which
//! is accurate enough for the bandwidth/latency/interference accounting
//! the XFM evaluation needs while staying fast enough to simulate seconds
//! of DRAM traffic.
//!
//! [`MemSystem`] wraps one controller per channel behind the system
//! [`AddressMapping`].

pub use crate::stats::AccessSource;
use xfm_types::{ByteSize, Error, Nanos, PhysAddr, Result};

use crate::bank::Bank;
use crate::geometry::SystemGeometry;
use crate::mapping::AddressMapping;
use crate::refresh::RefreshScheduler;
use crate::stats::ChannelStats;
use crate::timing::DramTimings;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// A read access.
    Read,
    /// A write access.
    Write,
}

/// One memory request presented to a channel controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Target physical address.
    pub addr: PhysAddr,
    /// Read or write.
    pub kind: RequestKind,
    /// Transfer size in bytes (split into bursts internally).
    pub bytes: u32,
    /// Originator (CPU over the channel, or NMA over the side channel).
    pub source: AccessSource,
    /// Time the request arrives at the controller.
    pub at: Nanos,
}

impl MemRequest {
    /// Convenience constructor for a 64 B CPU cacheline read.
    #[must_use]
    pub fn cacheline_read(addr: PhysAddr, at: Nanos) -> Self {
        Self {
            addr,
            kind: RequestKind::Read,
            bytes: 64,
            source: AccessSource::Cpu,
            at,
        }
    }
}

/// Completion record for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When the request actually started being serviced.
    pub start: Nanos,
    /// When the last data beat left the bus.
    pub finish: Nanos,
    /// `finish - request.at`: the latency the requester observed.
    pub latency: Nanos,
}

/// One DDR channel: banks, bus, refresh calendar, statistics.
///
/// # Examples
///
/// ```
/// use xfm_dram::{DramTimings, MemController, MemRequest, SystemGeometry};
/// use xfm_types::{Nanos, PhysAddr};
///
/// let mut ctrl = MemController::new(
///     DramTimings::paper_emulator(),
///     SystemGeometry::skylake_4ch(),
/// );
/// let c = ctrl
///     .submit(MemRequest::cacheline_read(PhysAddr::new(0), Nanos::from_us(1)))
///     .unwrap();
/// assert!(c.latency > Nanos::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct MemController {
    timings: DramTimings,
    mapping: AddressMapping,
    refresh: RefreshScheduler,
    /// Banks indexed `[rank][bank]`.
    banks: Vec<Vec<Bank>>,
    /// Earliest time the shared data bus is free.
    bus_free_at: Nanos,
    /// Monotonic clock: last request arrival accepted.
    now: Nanos,
    stats: ChannelStats,
}

impl MemController {
    /// Creates a controller for one channel of `geometry`.
    #[must_use]
    pub fn new(timings: DramTimings, geometry: SystemGeometry) -> Self {
        let ranks = geometry.ranks_per_channel() as usize;
        let banks_per = geometry.device.banks_per_chip as usize;
        Self {
            timings,
            mapping: AddressMapping::dimm_local(geometry),
            refresh: RefreshScheduler::new(timings, geometry.device),
            banks: vec![vec![Bank::new(); banks_per]; ranks],
            bus_free_at: Nanos::ZERO,
            now: Nanos::ZERO,
            stats: ChannelStats::new(),
        }
    }

    /// The refresh calendar this channel follows.
    #[must_use]
    pub fn refresh(&self) -> &RefreshScheduler {
        &self.refresh
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// The channel-local address mapping.
    #[must_use]
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Submits a request. Requests must arrive in non-decreasing `at`
    /// order (the controller is request-driven, not cycle-stepped).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TimingViolation`] when requests arrive out of
    /// order and [`Error::AddressOutOfRange`] when the address is outside
    /// the channel's capacity.
    pub fn submit(&mut self, req: MemRequest) -> Result<Completion> {
        if req.at < self.now {
            return Err(Error::TimingViolation(format!(
                "request at {} arrived before controller clock {}",
                req.at, self.now
            )));
        }
        self.now = req.at;

        // Refresh blackout: if the request lands inside a tRFC window, the
        // whole rank is locked — it cannot start before the window closes.
        let mut start = req.at;
        if let Some(w) = self.refresh.window_at(start) {
            start = w.end;
        }

        let coord = self.mapping.decompose(req.addr)?;
        let bank = &mut self.banks[coord.rank.as_usize()][coord.bank.as_usize()];
        let (data_at, _outcome) = bank.access(coord.row, start, &self.timings);

        // Data bus occupancy: bursts serialize on the shared bus.
        let bursts = u64::from(req.bytes.div_ceil(self.timings.burst_bytes));
        let bus_time = self.timings.t_burst * bursts;
        let xfer_start = data_at.max(self.bus_free_at);
        // A transfer cannot straddle a refresh blackout.
        let xfer_start = match self.refresh.window_at(xfer_start) {
            Some(w) => w.end,
            None => xfer_start,
        };
        let finish = xfer_start + bus_time;
        self.bus_free_at = finish;

        let latency = finish - req.at;
        self.stats.record_access(
            req.source,
            req.kind == RequestKind::Write,
            ByteSize::from_bytes(u64::from(req.bytes)),
            latency,
            bus_time,
        );
        Ok(Completion {
            start,
            finish,
            latency,
        })
    }
}

/// A multi-channel memory system routing requests by the system mapping.
///
/// [`MemSystem::submit`] is the one request path: requests must arrive
/// in non-decreasing time order *per channel* or that channel's
/// controller rejects them. A caller holding an out-of-order trace sorts
/// it by arrival first (a stable sort keeps same-time requests in
/// generation order).
///
/// # Examples
///
/// ```
/// use xfm_dram::controller::MemSystem;
/// use xfm_dram::{DramTimings, MemRequest, SystemGeometry};
/// use xfm_types::{Nanos, PhysAddr};
///
/// let mut sys = MemSystem::new(
///     DramTimings::paper_emulator(),
///     SystemGeometry::skylake_4ch(),
/// );
/// // A full 4 KiB page access fans out over all four channels.
/// let completions = sys
///     .access_page(PhysAddr::new(0), false, Nanos::from_us(1))
///     .unwrap();
/// assert!(!completions.is_empty());
///
/// // One cacheline, routed to its channel.
/// let done = sys
///     .submit(MemRequest::cacheline_read(PhysAddr::new(64), Nanos::from_us(2)))
///     .unwrap();
/// assert!(done.latency > Nanos::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct MemSystem {
    mapping: AddressMapping,
    channels: Vec<MemController>,
    geometry: SystemGeometry,
}

impl MemSystem {
    /// Creates a memory system with one controller per channel.
    #[must_use]
    pub fn new(timings: DramTimings, geometry: SystemGeometry) -> Self {
        let per_channel = SystemGeometry {
            channels: 1,
            ..geometry
        };
        Self {
            mapping: AddressMapping::skylake(geometry),
            channels: (0..geometry.channels)
                .map(|_| MemController::new(timings, per_channel))
                .collect(),
            geometry,
        }
    }

    /// The system geometry.
    #[must_use]
    pub fn geometry(&self) -> &SystemGeometry {
        &self.geometry
    }

    /// The system-level (channel-interleaved) address mapping.
    #[must_use]
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Per-channel statistics.
    #[must_use]
    pub fn channel_stats(&self) -> Vec<&ChannelStats> {
        self.channels.iter().map(MemController::stats).collect()
    }

    /// Merged statistics across channels.
    #[must_use]
    pub fn total_stats(&self) -> ChannelStats {
        let mut total = ChannelStats::new();
        for ch in &self.channels {
            total.merge(ch.stats());
        }
        total
    }

    /// Submits one cacheline-sized request, routed to its channel.
    ///
    /// # Errors
    ///
    /// Propagates controller errors (out-of-order arrival, bad address).
    pub fn submit(&mut self, req: MemRequest) -> Result<Completion> {
        let coord = self.mapping.decompose(req.addr)?;
        // Rewrite the address into the channel-local space: drop the
        // channel digit by recomposing with channel 0 in a 1-channel map.
        let local =
            self.channels[coord.channel.as_usize()]
                .mapping()
                .compose(xfm_types::DramCoord {
                    channel: xfm_types::ChannelId::new(0),
                    ..coord
                })?;
        self.channels[coord.channel.as_usize()].submit(MemRequest {
            addr: local + (req.addr.as_u64() % 128),
            ..req
        })
    }

    /// Accesses a whole 4 KiB page starting at `base` (which must be
    /// page-aligned), splitting it into channel-interleaved chunks, and
    /// returns every chunk completion.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `base` is not page-aligned, or
    /// propagates controller errors.
    pub fn access_page(
        &mut self,
        base: PhysAddr,
        is_write: bool,
        at: Nanos,
    ) -> Result<Vec<Completion>> {
        if !base.is_aligned(xfm_types::PAGE_SIZE as u64) {
            return Err(Error::InvalidConfig(format!(
                "page access at unaligned address {base}"
            )));
        }
        let chunk = self.mapping.channel_interleave;
        let kind = if is_write {
            RequestKind::Write
        } else {
            RequestKind::Read
        };
        (0..(xfm_types::PAGE_SIZE as u64 / chunk))
            .map(|i| {
                self.submit(MemRequest {
                    addr: base + i * chunk,
                    kind,
                    bytes: chunk as u32,
                    source: AccessSource::Cpu,
                    at,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl() -> MemController {
        MemController::new(DramTimings::paper_emulator(), SystemGeometry::skylake_4ch())
    }

    #[test]
    fn sequential_reads_hit_open_row() {
        let mut c = ctrl();
        let t0 = Nanos::from_us(1); // skip window 0 blackout
        let first = c
            .submit(MemRequest::cacheline_read(PhysAddr::new(0), t0))
            .unwrap();
        let second = c
            .submit(MemRequest::cacheline_read(PhysAddr::new(0), first.finish))
            .unwrap();
        // Row hit: much cheaper than the first (row-empty) access.
        assert!(second.latency < first.latency);
    }

    #[test]
    fn request_in_refresh_window_is_delayed() {
        let mut c = ctrl();
        // Window 0 starts at t=0 and lasts tRFC=410ns.
        let r = c
            .submit(MemRequest::cacheline_read(
                PhysAddr::new(0),
                Nanos::from_ns(100),
            ))
            .unwrap();
        assert!(r.start >= Nanos::from_ns(410), "start {}", r.start);
        assert!(r.latency >= Nanos::from_ns(310));
    }

    #[test]
    fn per_channel_monotonicity_is_internal_invariant() {
        // The controller rejects time running backwards: a caller with
        // an out-of-order trace sorts it by arrival before submitting.
        let mut c = ctrl();
        c.submit(MemRequest::cacheline_read(
            PhysAddr::new(0),
            Nanos::from_us(2),
        ))
        .unwrap();
        assert!(matches!(
            c.submit(MemRequest::cacheline_read(
                PhysAddr::new(64),
                Nanos::from_us(1)
            )),
            Err(Error::TimingViolation(_))
        ));
    }

    #[test]
    fn bus_serializes_back_to_back_transfers() {
        let mut c = ctrl();
        let t0 = Nanos::from_us(1);
        // Two reads to different banks at the same instant: second must
        // wait for the bus.
        let a = c
            .submit(MemRequest::cacheline_read(PhysAddr::new(0), t0))
            .unwrap();
        let b = c
            .submit(MemRequest::cacheline_read(PhysAddr::new(128), t0))
            .unwrap();
        assert!(b.finish >= a.finish + c.timings.t_burst);
    }

    #[test]
    fn stats_accumulate_bytes() {
        let mut c = ctrl();
        let t0 = Nanos::from_us(1);
        c.submit(MemRequest::cacheline_read(PhysAddr::new(0), t0))
            .unwrap();
        c.submit(MemRequest {
            kind: RequestKind::Write,
            ..MemRequest::cacheline_read(PhysAddr::new(64), t0)
        })
        .unwrap();
        assert_eq!(c.stats().ddr_bus_bytes().as_bytes(), 128);
        assert_eq!(c.stats().accesses(), 2);
    }

    #[test]
    fn mem_system_routes_page_over_channels() {
        let mut sys = MemSystem::new(DramTimings::paper_emulator(), SystemGeometry::skylake_4ch());
        let completions = sys
            .access_page(PhysAddr::new(0), false, Nanos::from_us(1))
            .unwrap();
        assert_eq!(completions.len(), 16); // 4 KiB / 256 B
        let total = sys.total_stats();
        assert_eq!(total.ddr_bus_bytes().as_bytes(), 4096);
        // Every channel carried a quarter of the page.
        for ch in sys.channel_stats() {
            assert_eq!(ch.ddr_bus_bytes().as_bytes(), 1024);
        }
    }

    #[test]
    fn mem_system_rejects_unaligned_page() {
        let mut sys = MemSystem::new(DramTimings::paper_emulator(), SystemGeometry::skylake_4ch());
        assert!(sys
            .access_page(PhysAddr::new(64), false, Nanos::from_us(1))
            .is_err());
    }

    #[test]
    fn sustained_streaming_approaches_peak_bandwidth() {
        let mut c = ctrl();
        let mut at = Nanos::from_us(1);
        let mut last = at;
        // Stream 4000 cachelines as fast as completions allow.
        for i in 0..4000u64 {
            let done = c
                .submit(MemRequest::cacheline_read(PhysAddr::new(i * 64), at))
                .unwrap();
            at = at.max(done.finish.saturating_sub(Nanos::from_ns(50)));
            last = done.finish;
        }
        let elapsed = last - Nanos::from_us(1);
        let bw = c.stats().ddr_bandwidth(elapsed);
        let peak = c.timings.peak_bandwidth();
        let util = bw.as_bytes_per_sec() / peak.as_bytes_per_sec();
        assert!(
            util > 0.5,
            "streaming should exceed 50% of peak, got {util}"
        );
    }
}
