//! The `XFM_Backend`: a [`SwapPlane`] that offloads (de)compression to
//! the near-memory accelerators, with `CPU_Fallback` (paper §6).
//!
//! In the paper the `XFM_Backend` *is* the zswap backend with the codec
//! call replaced by `do_offload` / `CPU_Fallback`: same zpool, same
//! entry tree. So it is here — the backend holds one
//! [`PageStore`] (the store [`xfm_sfm::ShardedSfm`] holds N of) behind
//! its mutex, and what this module adds is policy over it: the
//! multi-DIMM container, the offload attempt (`offload`: degrade gate,
//! bounded retry) and the virtual clock with its late-fallback
//! accounting (`clock`). A page is stored first and offered to the
//! NMA second, so a swap-out the store refuses leaves the accelerator,
//! the drivers' scratchpad estimates and the degrade controller exactly
//! as they were.
//!
//! Control flow mirrors the paper exactly:
//!
//! - `xfm_swap_out` (our [`SwapPlane::swap_out_ctx`]) checks SFM space plus
//!   NMA resources *lazily* (through each [`XfmDriver`]'s inferred SPM
//!   occupancy), falls back to the CPU when the device rejects the
//!   offload, and otherwise pushes the page into the
//!   `Compress_Request_Queue`;
//! - `xfm_swap_in` (our [`SwapPlane::swap_in_into_ctx`]) looks the page up in
//!   the entry table and calls `CPU_Fallback` **by default**, unless the
//!   `do_offload` parameter is asserted (prefetch path), "as
//!   applications may be sensitive to the decompression latencies
//!   incurred by XFM's datapath";
//! - multi-channel mode stripes the page across `n_dimms` accelerators
//!   and stores the same-offset container (see [`xfm_compress::ratio`]).
//!
//! On top of the paper's per-operation fallback, this backend layers the
//! operational failure model:
//!
//! - every stored block carries an XXH64 checksum, verified at swap-in
//!   *before* the entry is consumed — a corrupted fetch surfaces as a
//!   retryable [`Error::ChecksumMismatch`] with the stored copy intact
//!   (the store's contract, shared with the CPU plane);
//! - transient NMA rejects (queue full, SPM pressure) can be retried
//!   with exponential backoff ([`PlaneBuilder::retry_policy`]), each
//!   backoff advancing the clock so refresh windows drain the device;
//! - a sticky degraded-mode state machine
//!   ([`xfm_faults::DegradeController`]) stops submitting doomed
//!   offloads when the failure rate spikes and probes its way back.
//!
//! Who computes what: the host runs the codec once per page, here —
//! `pack_page_into` to store it, `unpack_page_into` to restore it — so data
//! integrity holds end to end whatever the devices do. An offload then
//! hands every DIMM the two sizes of its share of that work, the bytes
//! read and the bytes written back
//! ([`crate::multichannel::offload_shares`]); the device times those
//! sizes through its scratchpad, engine pipeline and write-back and
//! never sees the data. *Timing* flows through the
//! refresh-window scheduler and surfaces in [`XfmBackend::nma_stats`]
//! (completions, conditional/random mix, structural-hazard fallbacks —
//! the inputs to Fig. 12).

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use xfm_compress::ratio::{pack_page_into, unpack_page_into};
use xfm_compress::{Codec, CodecKind, CostModel, Scratch, XDeflate};
use xfm_event::ClockMirror;
use xfm_faults::{DegradeController, DegradedMode, FaultInjector, RetryPolicy};
use xfm_sfm::backend::{
    block_for, same_filled, BackendStats, ExecutedOn, SfmConfig, SwapOutcome, SwapPlane,
};
use xfm_sfm::store::{Owner, PageStore, RegionBudget};
use xfm_sfm::zpool::{CompactReport, ZpoolStats};
use xfm_telemetry::lifecycle::NO_SHARD;
use xfm_telemetry::swap_metrics::Stopwatch;
use xfm_telemetry::{Cause, FlightRecorder, Gauge, Registry, SwapMetrics, TenantMetrics};
use xfm_types::{
    ByteSize, Cycles, Error, Nanos, OpContext, PageNumber, Result, SwapError, SwapResult, TenantId,
    PAGE_SIZE,
};

use crate::driver::XfmDriver;
use crate::multichannel::{offload_shares, packed_codec_kind, Shares};
use crate::nma::{NearMemoryAccelerator, NmaConfig, NmaStats};
use crate::regs::OffloadKind;

mod clock;
mod offload;
#[cfg(test)]
mod tests;

/// Telemetry handles held by an attached backend: the standard swap
/// metric bundle plus per-DIMM refresh-window gauges. Registered once
/// at attach time; every hot-path recording afterwards is a relaxed
/// atomic.
struct XfmTelemetry {
    metrics: SwapMetrics,
    /// `xfm_refresh_window_utilization{rank="i"}`, one per DIMM.
    rank_util: Vec<Arc<Gauge>>,
    /// `xfm_refresh_windows_processed{rank="i"}`, one per DIMM.
    rank_windows: Vec<Arc<Gauge>>,
    /// `xfm_degraded_mode`: the [`DegradedMode::level`] encoding.
    degraded_mode: Arc<Gauge>,
    /// The registry's shared clock mirror: every `XfmInner::advance_clock`
    /// publishes the simulated time so lifecycle events carry virtual
    /// timestamps consistent with the backend's clock.
    mirror: ClockMirror,
}

/// Configuration for the XFM backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XfmBackendConfig {
    /// Shared SFM parameters (region capacity, reject threshold, clock).
    pub sfm: SfmConfig,
    /// Per-DIMM accelerator parameters.
    pub nma: NmaConfig,
    /// DIMMs the SFM region is striped over (1, 2, or 4).
    pub n_dimms: usize,
    /// Offload demotions to the NMA (true in any sane deployment; false
    /// degenerates to the CPU baseline and exists for ablation).
    pub offload_swap_out: bool,
}

impl Default for XfmBackendConfig {
    fn default() -> Self {
        Self {
            sfm: SfmConfig::default(),
            nma: NmaConfig::default(),
            n_dimms: 1,
            offload_swap_out: true,
        }
    }
}

/// The XFM backend.
///
/// The whole data-path surface is `&self` (the [`SwapPlane`] contract):
/// one mutex fronts the single-owner state, so the backend can be
/// shared across threads and boxed as a `dyn SwapPlane` next to the CPU
/// baseline. [`SwapPlane`] is the only way to move a page through it.
///
/// # Examples
///
/// ```
/// use xfm_core::backend::XfmBackend;
/// use xfm_sfm::SwapPlane;
/// use xfm_types::{Nanos, PageNumber};
///
/// let b = XfmBackend::builder().build()?;
/// b.advance_to(Nanos::from_ms(1));
/// let page = b"compressible cold page data. ".repeat(142)[..4096].to_vec();
/// let out = b.swap_out(PageNumber::new(1), &page)?;
/// // The offload rode the refresh side channel: zero DDR traffic.
/// assert_eq!(out.ddr_bytes.as_bytes(), 0);
/// # Ok::<(), xfm_types::Error>(())
/// ```
pub struct XfmBackend {
    config: XfmBackendConfig,
    inner: Mutex<XfmInner>,
    /// The per-tenant ledger series, looked up before `inner` is locked
    /// (see [`Owner`]); `None` until telemetry is attached.
    tenants: Option<TenantMetrics>,
}

/// Single-owner state behind the mutex; every data-path method lives
/// here so the public wrappers are one lock acquisition each.
struct XfmInner {
    config: XfmBackendConfig,
    drivers: Vec<XfmDriver>,
    codec: Arc<dyn Codec + Send + Sync>,
    cost: CostModel,
    /// The compressed region: pool, entry table, statistics and the
    /// host-side fault sites (`zpool_store_failure`, `bit_corruption`).
    store: PageStore,
    /// Codec state single-page swaps pack and unpack through; once
    /// warm, a swap allocates nothing.
    scratch: Scratch,
    /// Codec state for batch workers, which pack with no other backend
    /// state touched: each takes one for a page and puts it back. Grows
    /// to one entry per worker a batch has run.
    batch_scratch: Mutex<Vec<Scratch>>,
    /// Container buffers: a swap-out packs its page into one and puts
    /// it back once the page is stored; a batch holds one per page from
    /// its parallel phase to its sequential one. Grows to the most a
    /// batch has held.
    containers: Mutex<Vec<Vec<u8>>>,
    /// Offloads accepted but later spilled by the scheduler (the CPU had
    /// to redo them).
    late_fallbacks: u64,
    now: Nanos,
    /// Attached observability sink; `None` costs nothing on the hot path.
    telemetry: Option<XfmTelemetry>,
    /// Bounded retry for transient NMA rejects; [`RetryPolicy::none`]
    /// (the paper's single attempt) unless the builder set one.
    retry: RetryPolicy,
    /// Sticky degraded-mode state machine gating offload attempts.
    degrade: DegradeController,
    /// Post-mortem flight recorder ([`PlaneBuilder::flight_recorder`]).
    /// Dumps fire on retry exhaustion and degraded-mode transitions.
    flight: Option<Arc<FlightRecorder>>,
    /// The offload of the operation under way that exhausted its
    /// retries (its kind, page and retries), reported by
    /// `report_give_up` (a swap-in's once its fault event is on the
    /// trail).
    gave_up: Option<(OffloadKind, PageNumber, u32)>,
}

impl std::fmt::Debug for XfmBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("XfmBackend")
            .field("n_dimms", &self.config.n_dimms)
            .field("entries", &inner.store.len())
            .field("now", &inner.now)
            .field("mode", &inner.degrade.mode())
            .finish_non_exhaustive()
    }
}

/// The one way to construct an [`XfmBackend`].
///
/// Obtained from [`XfmBackend::builder`]; an option left unset keeps
/// its default. [`PlaneBuilder::build`] validates the configuration once
/// and hands back a fully wired backend.
///
/// # Examples
///
/// ```
/// use xfm_core::backend::XfmBackend;
/// use xfm_faults::RetryPolicy;
/// use xfm_telemetry::Registry;
///
/// let registry = Registry::new();
/// let backend = XfmBackend::builder()
///     .telemetry(&registry)
///     .retry_policy(RetryPolicy::default())
///     .build()?;
/// assert_eq!(backend.table_len(), 0);
/// # Ok::<(), xfm_types::Error>(())
/// ```
#[derive(Default)]
#[must_use = "call .build() to construct the backend"]
pub struct PlaneBuilder {
    config: XfmBackendConfig,
    codec: Option<Arc<dyn Codec + Send + Sync>>,
    registry: Option<Registry>,
    faults: Option<Arc<FaultInjector>>,
    retry: Option<RetryPolicy>,
    flight: Option<Arc<FlightRecorder>>,
}

impl std::fmt::Debug for PlaneBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlaneBuilder")
            .field("config", &self.config)
            .field("has_codec", &self.codec.is_some())
            .field("has_telemetry", &self.registry.is_some())
            .field("has_faults", &self.faults.is_some())
            .finish_non_exhaustive()
    }
}

impl PlaneBuilder {
    /// Replaces the backend configuration (defaults to
    /// [`XfmBackendConfig::default`]).
    pub fn config(mut self, config: XfmBackendConfig) -> Self {
        self.config = config;
        self
    }

    /// Uses an explicit per-share codec instead of the default
    /// [`XDeflate`]: the seam a tracing or fault-injecting wrapper (or
    /// another match-finder profile) goes through. Every 256 B-striped
    /// share of the multi-channel container is compressed and
    /// decompressed by it.
    pub fn codec(mut self, codec: Arc<dyn Codec + Send + Sync>) -> Self {
        self.codec = Some(codec);
        self
    }

    /// Wires telemetry into `registry`: swap-path counters, latency
    /// histograms and lifecycle events, per-DIMM refresh-window gauges
    /// (`xfm_refresh_window_utilization{rank="i"}`, refreshed on every
    /// [`XfmBackend::advance_to`]), the `xfm_degraded_mode` gauge
    /// (refreshed on every transition), per-tenant series, and the
    /// shared clock mirror that stamps events with simulated time.
    pub fn telemetry(mut self, registry: &Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Arms fault-injection hooks across the whole stack: every driver's
    /// device (admission, engine, and window-scheduler sites) plus the
    /// host-side store and fetch paths (`zpool_store_failure`,
    /// `bit_corruption`).
    pub fn faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the bounded retry policy for transient NMA rejects (queue
    /// full, SPM pressure). Without one the backend makes a single
    /// attempt ([`RetryPolicy::none`]), the paper's try-then-fallback
    /// semantics.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Attaches a post-mortem flight recorder: a retry exhaustion or a
    /// degraded-mode transition dumps the trailing lifecycle events (see
    /// [`xfm_telemetry::FlightRecorder`]). The recorder should wrap the
    /// registry given to [`PlaneBuilder::telemetry`], so the dumped
    /// trail is the one this backend writes.
    pub fn flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.flight = Some(recorder);
        self
    }

    /// Validates the configuration and constructs the wired backend.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `n_dimms` is not 1, 2, or 4
    /// (the paper's configurations), when the device's geometry or
    /// timings are inconsistent ([`xfm_dram::DeviceGeometry::validate`],
    /// [`xfm_dram::DramTimings::validate`]), or when `xfm_paramset`
    /// rejects the per-DIMM region slice (e.g. a zero-sized region).
    pub fn build(self) -> Result<XfmBackend> {
        let config = self.config;
        if ![1, 2, 4].contains(&config.n_dimms) {
            return Err(Error::InvalidConfig(format!(
                "multi-channel mode supports 1, 2, or 4 DIMMs, got {}",
                config.n_dimms
            )));
        }
        config.nma.geometry.validate()?;
        config.nma.timings.validate()?;
        let mut drivers = Vec::with_capacity(config.n_dimms);
        for i in 0..config.n_dimms {
            let mut d = XfmDriver::new(NearMemoryAccelerator::new(config.nma));
            d.xfm_paramset(
                xfm_types::PhysAddr::new(i as u64 * config.sfm.region_capacity.as_bytes()),
                config.sfm.region_capacity / config.n_dimms as u64,
            )?;
            if let Some(faults) = &self.faults {
                d.attach_faults(Arc::clone(faults));
            }
            drivers.push(d);
        }
        let mut store = PageStore::new(RegionBudget::new(config.sfm.region_capacity));
        if let Some(faults) = self.faults {
            store.attach_faults(faults);
        }
        let mut backend = XfmBackend {
            config,
            inner: Mutex::new(XfmInner {
                drivers,
                codec: self.codec.unwrap_or_else(|| Arc::new(XDeflate::default())),
                cost: CostModel::paper_average(),
                store,
                scratch: Scratch::new(),
                batch_scratch: Mutex::new(Vec::new()),
                containers: Mutex::new(Vec::new()),
                late_fallbacks: 0,
                now: Nanos::ZERO,
                telemetry: None,
                retry: self.retry.unwrap_or_else(RetryPolicy::none),
                degrade: DegradeController::default(),
                flight: self.flight,
                gave_up: None,
                config,
            }),
            tenants: None,
        };
        if let Some(registry) = &self.registry {
            backend.attach_telemetry(registry);
        }
        Ok(backend)
    }
}

impl XfmBackend {
    /// Starts a [`PlaneBuilder`] with the default configuration.
    pub fn builder() -> PlaneBuilder {
        PlaneBuilder::default()
    }

    /// Registers this backend's telemetry on `registry` (see
    /// [`PlaneBuilder::telemetry`]); [`crate::XfmSystem`] attaches the
    /// backend it owns through here.
    pub(crate) fn attach_telemetry(&mut self, registry: &Registry) {
        for (name, help) in [
            (
                "xfm_refresh_window_utilization",
                "Share of the rank's unstolen refresh windows' byte budget the NMA side channel used.",
            ),
            (
                "xfm_refresh_windows_processed",
                "Refresh windows the rank's scheduler has served, stolen ones included.",
            ),
            (
                "xfm_degraded_mode",
                "Offload mode: 0 nma, 1 mixed, 2 cpu_only, 3 recovering.",
            ),
        ] {
            registry.describe(name, help);
        }
        let rank_util = (0..self.config.n_dimms)
            .map(|i| registry.gauge(&format!("xfm_refresh_window_utilization{{rank=\"{i}\"}}")))
            .collect();
        let rank_windows = (0..self.config.n_dimms)
            .map(|i| registry.gauge(&format!("xfm_refresh_windows_processed{{rank=\"{i}\"}}")))
            .collect();
        let degraded_mode = registry.gauge("xfm_degraded_mode");
        let mut inner = self.inner.lock();
        degraded_mode.set(f64::from(inner.degrade.mode().level()));
        let mirror = registry.clock_mirror();
        mirror.publish(inner.now);
        let metrics = SwapMetrics::register(registry);
        inner.store.attach_telemetry(metrics.clone(), NO_SHARD);
        inner.telemetry = Some(XfmTelemetry {
            metrics,
            rank_util,
            rank_windows,
            degraded_mode,
            mirror,
        });
        self.tenants = Some(TenantMetrics::register(registry));
    }

    /// Current degraded-mode level.
    #[must_use]
    pub fn degraded_mode(&self) -> DegradedMode {
        self.inner.lock().degrade.mode()
    }

    /// Degraded-mode transitions so far.
    #[must_use]
    pub fn degrade_transitions(&self) -> u64 {
        self.inner.lock().degrade.transitions()
    }

    /// Advances simulated time: drains refresh windows on every DIMM and
    /// resolves late (structural-hazard) fallbacks.
    pub fn advance_to(&self, now: Nanos) {
        self.inner.lock().advance_clock(now);
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Nanos {
        self.inner.lock().now
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &XfmBackendConfig {
        &self.config
    }

    /// Offloads the scheduler spilled after acceptance.
    #[must_use]
    pub fn late_fallbacks(&self) -> u64 {
        self.inner.lock().late_fallbacks
    }

    /// Aggregated accelerator statistics across DIMMs.
    #[must_use]
    pub fn nma_stats(&self) -> NmaStats {
        let inner = self.inner.lock();
        let mut total = NmaStats::default();
        for d in &inner.drivers {
            total.merge(&d.stats());
        }
        total
    }

    /// Fraction of swap operations that had to run on the CPU, counting
    /// both up-front rejections and late structural hazards — Fig. 12's
    /// y-axis.
    #[must_use]
    pub fn cpu_fallback_fraction(&self) -> f64 {
        let inner = self.inner.lock();
        let stats = inner.store.stats();
        let cpu_ops = stats.cpu_executions + inner.late_fallbacks;
        let total = stats.nma_executions + cpu_ops;
        if total == 0 {
            0.0
        } else {
            cpu_ops as f64 / total as f64
        }
    }

    /// Number of pages currently held by the SFM entry table.
    #[must_use]
    pub fn table_len(&self) -> usize {
        self.inner.lock().store.len()
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> BackendStats {
        self.inner.lock().store.stats()
    }

    /// Zpool-level statistics.
    #[must_use]
    pub fn pool_stats(&self) -> ZpoolStats {
        self.inner.lock().store.pool_stats()
    }
}

impl SwapPlane for XfmBackend {
    /// The paper's `xfm_swap_out`: compresses `data` into the SFM under
    /// `page`, offloading to the NMA when eligible. The stored bytes are
    /// billed to `ctx.tenant`: the entry records the owner, per-tenant
    /// series are bumped, and the later swap-in is attributed back to
    /// the same account.
    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome> {
        let owner = Owner::new(ctx.tenant, self.tenants.as_ref());
        Ok(self.inner.lock().swap_out(owner, page, data, None)?)
    }

    /// The paper's `xfm_swap_in`: decompresses `page` back out of the
    /// SFM, removing its entry. `do_offload` asserts the prefetch path
    /// (paper §6): demand faults default to `CPU_Fallback`. On
    /// [`Error::ChecksumMismatch`] the entry and slot are left intact,
    /// so a retry re-reads the stored copy.
    fn swap_in_into_ctx(
        &self,
        _ctx: &OpContext,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        Ok(self.inner.lock().swap_in_into(page, do_offload, out)?)
    }

    /// Batched demotion pipeline (the paper §6 `Compress_Request_Queue`
    /// drained by a worker pool): packs every eligible batch page in
    /// parallel over `threads` workers, then performs offload attempts
    /// and store-backs sequentially **in submission order**, so driver
    /// state, pool packing, statistics, and telemetry evolve exactly as
    /// the equivalent sequence of single-page swap-outs.
    ///
    /// Per-page failures (duplicate entries, wrong-sized pages, a full
    /// region) come back as the corresponding slot's `Err` without
    /// disturbing the rest of the batch — a refused page was never
    /// offered to the NMA; zero `threads` is the one top-level
    /// [`Error::InvalidConfig`].
    fn swap_out_batch_ctx(
        &self,
        ctx: &OpContext,
        batch: &[(PageNumber, Bytes)],
        threads: usize,
    ) -> SwapResult<Vec<SwapResult<SwapOutcome>>> {
        let owner = Owner::new(ctx.tenant, self.tenants.as_ref());
        let results = self.inner.lock().swap_out_batch(&owner, batch, threads)?;
        Ok(results
            .into_iter()
            .map(|r| r.map_err(SwapError::from))
            .collect())
    }

    /// Derived from the live entry table (exact by construction: the
    /// sum over tenants equals the pool's stored bytes).
    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        self.inner.lock().store.tenant_bytes()
    }

    fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        self.inner.lock().store.tenant_of(page)
    }

    fn contains(&self, page: PageNumber) -> bool {
        self.inner.lock().store.contains(page)
    }

    /// The paper's `xfm_compact()`: shifts pages with memcpys. The DDR
    /// traffic is charged to the CPU path here (compaction runs on the
    /// host in the prototype).
    fn compact(&self) -> CompactReport {
        let mut inner = self.inner.lock();
        let report = inner.store.compact();
        inner.store.charge(Cycles::ZERO, report.moved_bytes * 2);
        report
    }

    fn stats(&self) -> BackendStats {
        XfmBackend::stats(self)
    }

    fn pool_stats(&self) -> ZpoolStats {
        XfmBackend::pool_stats(self)
    }
}

impl XfmInner {
    /// The paper's `xfm_swap_out` for one page. `packed` is the page's
    /// multi-channel container and how long packing took when a batch
    /// worker already produced it; `None` packs here. Either way driver
    /// state, pool packing, statistics and telemetry evolve identically.
    ///
    /// Store first, offload second: the NMA, the drivers' scratchpad
    /// estimates and the degrade controller only ever hear about a page
    /// the region accepted.
    fn swap_out(
        &mut self,
        owner: Owner,
        page: PageNumber,
        data: &[u8],
        packed: Option<(Vec<u8>, u64)>,
    ) -> Result<SwapOutcome> {
        if data.len() != PAGE_SIZE {
            return Err(Error::InvalidConfig(format!(
                "swap_out requires a 4 KiB page, got {} bytes",
                data.len()
            )));
        }
        if self.store.contains(page) {
            return Err(Error::EntryExists { page: page.index() });
        }
        let sw = self.begin_op();

        // zswap's same-filled check runs on the host before any offload:
        // there is nothing for the NMA to do for a one-byte page.
        // Anything else is compressed functionally (identical to what
        // the engines compute), into a container from the free list.
        let fill;
        let (mut container, packed_ns) = match packed {
            Some((container, compress_ns)) => (container, Some(compress_ns)),
            None => (self.containers.lock().pop().unwrap_or_default(), None),
        };
        let (encoded, kind, compress_ns): (&[u8], _, _) = match (same_filled(data), packed_ns) {
            (Some(byte), _) => {
                fill = [byte];
                (&fill, CodecKind::SameFilled, 0)
            }
            (None, Some(compress_ns)) => (&container, packed_codec_kind(), compress_ns),
            (None, None) => {
                let csw = sw.map(|_| Stopwatch::start());
                container.clear();
                let (codec, n_dimms) = (self.codec.as_ref(), self.config.n_dimms);
                pack_page_into(codec, data, n_dimms, &mut self.scratch, &mut container)?;
                let compress_ns = csw.map_or(0, |s| s.elapsed_ns());
                (&container, packed_codec_kind(), compress_ns)
            }
        };
        let (block, kind) = block_for(data, encoded, kind);
        let tenant = owner.tenant;
        let stored = self.store.store(owner, page, block, kind)?;

        // One share per DIMM, flexible: demotions are controller-scheduled
        // and can wait for their refresh windows. What is stored under
        // the packed kind is the container just built.
        let offloaded = self.config.offload_swap_out
            && kind == packed_codec_kind()
            && self.try_offload(tenant, page, OffloadKind::Compress, || {
                offload_shares(OffloadKind::Compress, data.len(), encoded)
                    .expect("pack_page_into's own container")
            });
        // A swap-out records no operation event to wait for: a give-up's
        // post-mortem holds what led up to it.
        self.report_give_up();
        let (outcome, cause) = if offloaded {
            let nma = SwapOutcome {
                executed_on: ExecutedOn::Nma,
                compressed_len: stored.len,
                cpu_cycles: Cycles::ZERO,
                // The side channel carries all the traffic but the
                // host's own compaction copies.
                ddr_bytes: stored.extra_ddr,
            };
            (nma, Cause::NmaOffload)
        } else {
            (stored.cpu_outcome(&self.cost), Cause::CpuFallback)
        };
        let total = sw.map_or(0, |s| s.elapsed_ns());
        self.store
            .record_swap_out(&stored, &outcome, cause, encoded, [compress_ns, total]);
        self.containers.lock().push(container);
        Ok(outcome)
    }

    fn swap_out_batch(
        &mut self,
        owner: &Owner,
        batch: &[(PageNumber, Bytes)],
        threads: usize,
    ) -> Result<Vec<Result<SwapOutcome>>> {
        if threads == 0 {
            return Err(Error::InvalidConfig(
                "swap_out_batch requires at least one thread".into(),
            ));
        }
        // Parallel phase: multi-channel packing of every page that will
        // reach the codec fans out across workers; no backend state is
        // touched, so results are order-independent.
        let needs_codec = |data: &Bytes| data.len() == PAGE_SIZE && same_filled(data).is_none();
        let to_pack: Vec<Bytes> = batch
            .iter()
            .filter(|(_, data)| needs_codec(data))
            .map(|(_, data)| data.clone())
            .collect();
        let codec = self.codec.as_ref();
        let n_dimms = self.config.n_dimms;
        let traced = self.telemetry.is_some();
        let (scratches, containers) = (&self.batch_scratch, &self.containers);
        let mut packed = xfm_compress::map_pages(&to_pack, threads, |_, page| {
            let mut scratch = scratches.lock().pop().unwrap_or_default();
            let csw = traced.then(Stopwatch::start);
            let mut container = containers.lock().pop().unwrap_or_default();
            container.clear();
            let packed = pack_page_into(codec, page, n_dimms, &mut scratch, &mut container);
            let compress_ns = csw.map_or(0, |s| s.elapsed_ns());
            scratches.lock().push(scratch);
            packed.map(|()| (container, compress_ns))
        })?
        .into_iter();

        // Sequential phase: the single-page path in submission order.
        Ok(batch
            .iter()
            .map(|(page, data)| {
                let packed = needs_codec(data).then(|| packed.next().expect("one pack per page"));
                self.swap_out(owner.clone(), *page, data, packed)
            })
            .collect())
    }

    /// The paper's `xfm_swap_in`: fetch verified, decode on the host
    /// (whoever is billed for the result, the host materializes it),
    /// consume the entry whatever the decode said, and only then
    /// offer a block that decoded to the NMA.
    fn swap_in_into(
        &mut self,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> Result<SwapOutcome> {
        let sw = self.begin_op();
        let fetched = self.store.fetch(page)?;
        let fetch_ns = fetched.load_ns;
        let codec = self.codec.as_ref();
        let mut decompress_ns = 0u64;
        // The per-DIMM share sizes of a prefetch, read while the block
        // is still borrowed from the pool's arena.
        let mut shares = None;
        let scratch = &mut self.scratch;
        let decoded = fetched.restore(page, out, |block, out| {
            let dsw = sw.map(|_| Stopwatch::start());
            unpack_page_into(codec, block, scratch, out)?;
            decompress_ns = dsw.map_or(0, |s| s.elapsed_ns());
            if do_offload {
                shares = Some(offload_shares(OffloadKind::Decompress, out.len(), block)?);
            }
            Ok(())
        });
        let gone = self.store.consume(page)?;
        decoded?;

        // Offload only when the caller asserted do_offload (prefetch);
        // demand faults default to CPU_Fallback (paper §6). Same-filled
        // and raw blocks have nothing to decompress.
        let offloaded = shares.is_some_and(|shares: Shares| {
            self.try_offload(gone.owner.tenant, page, OffloadKind::Decompress, || shares)
        });
        let (outcome, cause) = if offloaded {
            let nma = SwapOutcome {
                executed_on: ExecutedOn::Nma,
                compressed_len: gone.len,
                cpu_cycles: Cycles::ZERO,
                ddr_bytes: ByteSize::ZERO,
            };
            (nma, Cause::NmaOffload)
        } else {
            (gone.cpu_outcome(&self.cost), Cause::CpuFallback)
        };
        let total = sw.map_or(0, |s| s.elapsed_ns());
        let ns = [fetch_ns, decompress_ns, total];
        self.store.record_swap_in(&gone, &outcome, cause, ns);
        self.report_give_up();
        Ok(outcome)
    }
}
