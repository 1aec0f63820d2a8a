//! The `XFM_Backend`: a [`SwapPlane`] that offloads (de)compression to
//! the near-memory accelerators, with `CPU_Fallback` (paper §6).
//!
//! In the paper the `XFM_Backend` *is* the zswap backend with the codec
//! call replaced by `do_offload` / `CPU_Fallback`. So it is here: the
//! data plane is a one-shard [`ShardedSfm`], the CPU baseline's own
//! fault path, storing each page as the multi-channel [`Container`];
//! the device — drivers, virtual clock, degrade controller, retry
//! policy, flight recorder, late-fallback accounting, behind its own
//! lock — is that plane's [`OffloadHook`]. The plane calls it at the
//! start of every operation (the clock catches up), after a store and
//! after a swap-in's decode, and the device decides NMA or CPU. A page
//! is stored first and offered to the NMA second, so a swap-out the
//! store refuses leaves the accelerator, the drivers' scratchpad
//! estimates and the degrade controller exactly as they were.
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
//! Who computes what: the host runs the codec once per page, in the
//! plane, so data integrity holds whatever the devices do. An offload
//! hands every DIMM the sizes of its share of that work, the bytes read
//! and the bytes written back
//! ([`crate::multichannel::offload_shares`]); the device times those
//! sizes through its scratchpad, engine pipeline and write-back and
//! never sees the data. *Timing* flows through the
//! refresh-window scheduler and surfaces in [`XfmBackend::nma_stats`]
//! (completions, conditional/random mix, structural-hazard fallbacks —
//! the inputs to Fig. 12).

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
use xfm_compress::ratio::Container;
use xfm_compress::{Codec, CodecKind, CostModel, XDeflate};
use xfm_event::ClockMirror;
use xfm_faults::{DegradeController, DegradedMode, FaultInjector, RetryPolicy};
use xfm_sfm::backend::{BackendStats, SfmConfig, SwapOutcome, SwapPlane};
use xfm_sfm::store::PageStore;
use xfm_sfm::zpool::{CompactReport, ZpoolStats};
use xfm_sfm::{OffloadHook, ShardedSfm, ShardedSfmConfig};
use xfm_telemetry::lifecycle::NO_SHARD;
use xfm_telemetry::{Cause, FlightRecorder, Gauge, LifecycleStage, Registry, SwapMetrics};
use xfm_types::{Error, Nanos, OpContext, PageNumber, Result, SwapResult, TenantId, PAGE_SIZE};

use crate::driver::XfmDriver;
use crate::multichannel::offload_shares;
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
}

impl Default for XfmBackendConfig {
    fn default() -> Self {
        Self {
            sfm: SfmConfig::default(),
            nma: NmaConfig::default(),
            n_dimms: 1,
        }
    }
}

/// The XFM backend.
///
/// The whole data-path surface is `&self` (the [`SwapPlane`] contract):
/// the data plane locks its one shard, the device its own state, so the
/// backend can be shared across threads and boxed as a `dyn SwapPlane`
/// next to the CPU baseline. [`SwapPlane`] is the only way to move a
/// page through it.
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
#[derive(Debug)]
pub struct XfmBackend {
    config: XfmBackendConfig,
    /// The data plane, with the device as its hook.
    plane: ShardedSfm<Device>,
}

/// The device: the plane's [`OffloadHook`], which never reads a shard
/// with its own lock held (see [`Device::with`]).
struct Device {
    inner: Mutex<XfmInner>,
}

/// The device's single-owner state: drivers, virtual clock, degrade
/// controller, retry policy, flight recorder and late-fallback
/// accounting.
struct XfmInner {
    config: XfmBackendConfig,
    drivers: Vec<XfmDriver>,
    cost: CostModel,
    /// Host work outside a swap (late fallbacks, compactions' copies),
    /// which [`XfmBackend::stats`] adds to the plane's.
    charges: BackendStats,
    /// Late fallbacks (stage, page, spill time) awaiting their trail
    /// events: traced only, and empty outside [`Device::with`].
    late: Vec<(LifecycleStage, PageNumber, Nanos)>,
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
    /// `report_give_up` once the operation's events are on the trail.
    gave_up: Option<(OffloadKind, PageNumber, u32)>,
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
        let cost = CostModel::paper_average();
        let device = Device {
            inner: Mutex::new(XfmInner {
                config,
                drivers,
                cost,
                charges: BackendStats::default(),
                late: Vec::new(),
                now: Nanos::ZERO,
                telemetry: None,
                retry: self.retry.unwrap_or_else(RetryPolicy::none),
                degrade: DegradeController::default(),
                flight: self.flight,
                gave_up: None,
            }),
        };
        let codec = self.codec.unwrap_or_else(|| Arc::new(XDeflate::default()));
        let blocks = Arc::new(Container::new(codec, config.n_dimms));
        let one_shard = ShardedSfmConfig {
            sfm: config.sfm,
            shards: 1,
        };
        let mut plane = ShardedSfm::with_hook(one_shard, blocks, cost, device);
        if let Some(faults) = self.faults {
            plane.attach_faults(faults);
        }
        let mut backend = XfmBackend { config, plane };
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

    /// The device's state, locked.
    fn device(&self) -> MutexGuard<'_, XfmInner> {
        self.plane.hook().inner.lock()
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
        self.plane.attach_telemetry(registry);
        let mut inner = self.device();
        degraded_mode.set(f64::from(inner.degrade.mode().level()));
        let mirror = registry.clock_mirror();
        mirror.publish(inner.now);
        inner.telemetry = Some(XfmTelemetry {
            metrics: SwapMetrics::register(registry),
            rank_util,
            rank_windows,
            degraded_mode,
            mirror,
        });
    }

    /// Current degraded-mode level.
    #[must_use]
    pub fn degraded_mode(&self) -> DegradedMode {
        self.device().degrade.mode()
    }

    /// Degraded-mode transitions so far.
    #[must_use]
    pub fn degrade_transitions(&self) -> u64 {
        self.device().degrade.transitions()
    }

    /// Advances simulated time: drains refresh windows on every DIMM and
    /// resolves late (structural-hazard) fallbacks.
    pub fn advance_to(&self, now: Nanos) {
        let owner_of = |page| self.plane.tenant_of(page);
        self.plane.hook().with(owner_of, |d| d.advance_clock(now));
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Nanos {
        self.device().now
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &XfmBackendConfig {
        &self.config
    }

    /// Offloads the scheduler spilled after acceptance: the devices'
    /// fallbacks, each of which the clock walk booked.
    #[must_use]
    pub fn late_fallbacks(&self) -> u64 {
        self.nma_stats().fallbacks
    }

    /// Aggregated accelerator statistics across DIMMs.
    #[must_use]
    pub fn nma_stats(&self) -> NmaStats {
        let inner = self.device();
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
        let stats = self.plane.stats();
        let cpu_ops = stats.cpu_executions + self.late_fallbacks();
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
        self.plane.shard_entries().iter().sum::<u64>() as usize
    }

    /// Aggregate statistics: the plane's, plus the host work the device
    /// booked outside a swap.
    #[must_use]
    pub fn stats(&self) -> BackendStats {
        let mut stats = self.plane.stats();
        stats += self.device().charges;
        stats
    }

    /// Zpool-level statistics.
    #[must_use]
    pub fn pool_stats(&self) -> ZpoolStats {
        self.plane.pool_stats()
    }
}

/// Every data-path call is the plane's (`xfm_swap_out`, `xfm_swap_in`),
/// and the device hears of each through its hook.
impl SwapPlane for XfmBackend {
    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome> {
        self.plane.swap_out_ctx(ctx, page, data)
    }

    /// `do_offload` asserts the prefetch path (paper §6): demand faults
    /// default to `CPU_Fallback`.
    fn swap_in_into_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        self.plane.swap_in_into_ctx(ctx, page, do_offload, out)
    }

    fn load_into_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        out: &mut Vec<u8>,
    ) -> SwapResult<(SwapOutcome, bool)> {
        self.plane.load_into_ctx(ctx, page, out)
    }

    fn discard_ctx(&self, ctx: &OpContext, page: PageNumber) -> SwapResult<u32> {
        self.plane.discard_ctx(ctx, page)
    }

    /// Batched demotion (the paper §6 `Compress_Request_Queue`): offload
    /// attempts happen in submission order.
    fn swap_out_batch_ctx(
        &self,
        ctx: &OpContext,
        batch: &[(PageNumber, Bytes)],
        threads: usize,
    ) -> SwapResult<Vec<SwapResult<SwapOutcome>>> {
        self.plane.swap_out_batch_ctx(ctx, batch, threads)
    }

    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        self.plane.tenant_usage()
    }

    fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        self.plane.tenant_of(page)
    }

    fn contains(&self, page: PageNumber) -> bool {
        self.plane.contains(page)
    }

    /// The paper's `xfm_compact()`: shifts pages with memcpys. The DDR
    /// traffic is charged to the CPU path here (compaction runs on the
    /// host in the prototype).
    fn compact(&self) -> CompactReport {
        let report = self.plane.compact();
        self.device().charges.ddr_bytes += report.moved_bytes * 2;
        report
    }

    fn stats(&self) -> BackendStats {
        XfmBackend::stats(self)
    }

    fn pool_stats(&self) -> ZpoolStats {
        XfmBackend::pool_stats(self)
    }
}

impl Device {
    /// Runs `f` on the device state, then, unlocked, puts the late
    /// fallbacks its clock walks found on the trail, billed to the owner
    /// `owner_of` reads from a shard (the system tenant once gone).
    fn with<R>(
        &self,
        owner_of: impl Fn(PageNumber) -> Option<TenantId>,
        f: impl FnOnce(&mut XfmInner) -> R,
    ) -> R {
        let mut inner = self.inner.lock();
        let r = f(&mut inner);
        let Some(t) = inner.telemetry.as_ref().filter(|_| !inner.late.is_empty()) else {
            return r;
        };
        let metrics = t.metrics.clone();
        let mut late = std::mem::take(&mut inner.late);
        drop(inner);
        for &(stage, page, at) in &late {
            let owner = owner_of(page).unwrap_or(TenantId::SYSTEM);
            let (cause, page) = (Cause::RefreshWindowMiss, page.index());
            let trail = metrics.lifecycle();
            trail.record(stage, cause, owner, page, NO_SHARD, at.as_ns(), 0);
        }
        late.clear();
        // A walk's findings are taken in its own locked section, so the
        // list is empty again: give it its buffer back.
        self.inner.lock().late = late;
        r
    }

    /// Offers `tenant`'s `page`, stored as `block`, to the NMA for `op`
    /// and returns the cause the operation's codec events carry. Only a
    /// codec block is offered: zswap's same-filled and raw blocks give
    /// the NMA nothing to run.
    fn offload(
        &self,
        store: &PageStore,
        tenant: TenantId,
        page: PageNumber,
        op: OffloadKind,
        block: &[u8],
        kind: CodecKind,
    ) -> Cause {
        if matches!(kind, CodecKind::SameFilled | CodecKind::Raw) {
            return Cause::CpuFallback;
        }
        let shares = || offload_shares(op, PAGE_SIZE, block).expect("the plane's own container");
        let owner_of = |p| store.tenant_of(p);
        if self.with(owner_of, |d| d.try_offload(tenant, page, op, shares)) {
            Cause::NmaOffload
        } else {
            Cause::CpuFallback
        }
    }
}

impl OffloadHook for Device {
    /// The clock catches up with the devices' time.
    fn begin(&self, store: &PageStore) {
        self.with(|p| store.tenant_of(p), |d| d.advance_clock(d.now));
    }

    /// The paper's `do_offload` on a swap-out: one share per DIMM,
    /// flexible (demotions are controller-scheduled and can wait for
    /// their refresh windows). A swap-out records no operation event to
    /// wait for: a give-up's post-mortem holds what led up to it.
    fn stored(
        &self,
        store: &PageStore,
        tenant: TenantId,
        page: PageNumber,
        block: &[u8],
        kind: CodecKind,
    ) -> Cause {
        let cause = self.offload(store, tenant, page, OffloadKind::Compress, block, kind);
        self.end();
        cause
    }

    /// Offloads only when the caller asserted `do_offload` (prefetch);
    /// demand faults default to `CPU_Fallback` (paper §6).
    fn decoded(
        &self,
        store: &PageStore,
        tenant: TenantId,
        page: PageNumber,
        block: &[u8],
        kind: CodecKind,
        do_offload: bool,
    ) -> Cause {
        if !do_offload {
            return Cause::CpuFallback;
        }
        self.offload(store, tenant, page, OffloadKind::Decompress, block, kind)
    }

    /// Fires the post-mortem of an offload that gave up.
    fn end(&self) {
        self.inner.lock().report_give_up();
    }
}
