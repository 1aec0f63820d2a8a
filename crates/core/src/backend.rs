//! The `XFM_Backend`: a [`SwapPlane`] that offloads (de)compression to
//! the near-memory accelerators, with `CPU_Fallback` (paper §6).
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
//!   and stores the same-offset container (see [`crate::multichannel`]).
//!
//! On top of the paper's per-operation fallback, this backend layers the
//! operational failure model:
//!
//! - every stored block carries an XXH64 checksum, verified at swap-in
//!   *before* the entry is consumed — a corrupted fetch surfaces as a
//!   retryable [`Error::ChecksumMismatch`] with the stored copy intact;
//! - transient NMA rejects (queue full, SPM pressure) can be retried
//!   with exponential backoff ([`XfmBackend::set_retry_policy`]), each
//!   backoff advancing the clock so refresh windows drain the device;
//! - a sticky degraded-mode state machine
//!   ([`xfm_faults::DegradeController`]) stops submitting doomed
//!   offloads when the failure rate spikes and probes its way back.
//!
//! Functionally, results are materialized synchronously with the same
//! codec the engines run, so data integrity holds end to end; *timing*
//! flows through the refresh-window scheduler and surfaces in
//! [`XfmBackend::nma_stats`] (completions, conditional/random mix,
//! structural-hazard fallbacks — the inputs to Fig. 12).

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use xfm_compress::{Codec, CodecKind, CostModel, Scratch, XDeflate};
use xfm_event::ClockMirror;
use xfm_faults::{DegradeConfig, DegradeController, DegradedMode, FaultInjector, RetryPolicy};
use xfm_sfm::backend::{BackendStats, ExecutedOn, SfmConfig, SwapOutcome, SwapPlane};
use xfm_sfm::table::{SfmEntry, SfmTable};
use xfm_sfm::zpool::{CompactReport, Zpool, ZpoolStats};
use xfm_telemetry::lifecycle::NO_SHARD;
use xfm_telemetry::swap_metrics::Stopwatch;
use xfm_telemetry::{
    Cause, FlightRecorder, Gauge, LifecycleStage, Registry, SwapMetrics, TenantMetrics,
};
use xfm_types::{
    ByteSize, Cycles, Error, Nanos, OpContext, PageNumber, Result, RowId, SwapError, SwapResult,
    TenantId, PAGE_SIZE,
};

use crate::driver::XfmDriver;
use crate::multichannel::{container_shares, pack_page, unpack_page_into};
use crate::nma::{NearMemoryAccelerator, NmaConfig, NmaEvent, NmaStats};
use crate::regs::OffloadKind;

/// Telemetry handles held by an attached backend: the standard swap
/// metric bundle plus per-DIMM refresh-window gauges. Registered once
/// at attach time; every hot-path recording afterwards is a relaxed
/// atomic.
struct XfmTelemetry {
    metrics: SwapMetrics,
    /// Lazily-registered per-tenant series (`xfm_tenant_*_total{tenant="N"}`).
    tenants: TenantMetrics,
    /// `xfm_refresh_window_utilization{rank="i"}`, one per DIMM.
    rank_util: Vec<Arc<Gauge>>,
    /// `xfm_refresh_windows_processed{rank="i"}`, one per DIMM.
    rank_windows: Vec<Arc<Gauge>>,
    /// `xfm_degraded_mode`: the [`DegradedMode::level`] encoding.
    degraded_mode: Arc<Gauge>,
    /// The registry's shared clock mirror: every [`XfmInner::advance_clock`]
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
/// use xfm_core::backend::{XfmBackend, XfmBackendConfig};
/// use xfm_sfm::SwapPlane;
/// use xfm_types::{Nanos, PageNumber};
///
/// let b = XfmBackend::new(XfmBackendConfig::default());
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
}

/// Single-owner state behind the mutex; every data-path method lives
/// here so the public wrappers are one lock acquisition each.
struct XfmInner {
    config: XfmBackendConfig,
    drivers: Vec<XfmDriver>,
    codec: Arc<dyn Codec + Send + Sync>,
    cost: CostModel,
    pool: Zpool,
    table: SfmTable,
    stats: BackendStats,
    /// Offloads accepted but later spilled by the scheduler (the CPU had
    /// to redo them).
    late_fallbacks: u64,
    now: Nanos,
    /// Attached observability sink; `None` costs nothing on the hot path.
    telemetry: Option<XfmTelemetry>,
    /// Fault hooks for the host-side store and fetch paths
    /// (`zpool_store_failure`, `bit_corruption`); the device-side sites
    /// live in the drivers.
    faults: Option<Arc<FaultInjector>>,
    /// Bounded retry for transient NMA rejects. Defaults to
    /// [`RetryPolicy::none`] so an unconfigured backend keeps the
    /// paper's single-attempt try-then-fallback semantics.
    retry: RetryPolicy,
    /// Sticky degraded-mode state machine gating offload attempts.
    degrade: DegradeController,
    /// Post-mortem flight recorder; `None` until
    /// [`XfmBackend::attach_flight_recorder`]. Dumps fire on retry
    /// exhaustion and degraded-mode transitions.
    flight: Option<Arc<FlightRecorder>>,
    /// Codec state of the CPU decode on the swap-in path, sized by the
    /// first page and reused for every one after it.
    scratch: Scratch,
}

impl std::fmt::Debug for XfmBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("XfmBackend")
            .field("n_dimms", &self.config.n_dimms)
            .field("entries", &inner.table.len())
            .field("now", &inner.now)
            .field("mode", &inner.degrade.mode())
            .finish_non_exhaustive()
    }
}

/// Fluent constructor for [`XfmBackend`], unifying what used to take a
/// constructor call plus a chain of `attach_*`/`set_*` mutators.
///
/// Obtained from [`XfmBackend::builder`]; every knob is optional and the
/// defaults match a bare `XfmBackend::new(config)`. [`PlaneBuilder::build`]
/// validates the configuration once and hands back a fully wired backend.
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
    degrade: Option<DegradeConfig>,
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

    /// Wires the swap-path metric bundle, per-DIMM refresh-window
    /// gauges, and the shared clock mirror into `registry` (see
    /// [`XfmBackend::attach_telemetry`]).
    pub fn telemetry(mut self, registry: &Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Arms fault-injection hooks across every driver and the host-side
    /// store/fetch paths (see [`XfmBackend::attach_faults`]).
    pub fn faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the bounded retry policy for transient NMA rejects (see
    /// [`XfmBackend::set_retry_policy`]).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Configures the sticky degraded-mode state machine (see
    /// [`XfmBackend::set_degrade_config`]).
    pub fn degrade_config(mut self, config: DegradeConfig) -> Self {
        self.degrade = Some(config);
        self
    }

    /// Attaches a post-mortem flight recorder (see
    /// [`XfmBackend::attach_flight_recorder`]).
    pub fn flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.flight = Some(recorder);
        self
    }

    /// Validates the configuration and constructs the wired backend.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `n_dimms` is not 1, 2, or 4
    /// (the paper's configurations), or when `xfm_paramset` rejects the
    /// per-DIMM region slice (e.g. a zero-sized region).
    pub fn build(self) -> Result<XfmBackend> {
        let mut backend = XfmBackend::construct(self.config)?;
        if let Some(codec) = self.codec {
            backend.inner.lock().codec = codec;
        }
        if let Some(registry) = &self.registry {
            backend.attach_telemetry(registry);
        }
        if let Some(faults) = self.faults {
            backend.attach_faults(faults);
        }
        if let Some(policy) = self.retry {
            backend.set_retry_policy(policy);
        }
        if let Some(config) = self.degrade {
            backend.set_degrade_config(config);
        }
        if let Some(recorder) = self.flight {
            backend.attach_flight_recorder(recorder);
        }
        Ok(backend)
    }
}

impl XfmBackend {
    /// Starts a [`PlaneBuilder`] with the default configuration: the
    /// one-stop constructor for a fully wired backend (codec, telemetry,
    /// faults, retry, degrade, flight recorder).
    pub fn builder() -> PlaneBuilder {
        PlaneBuilder::default()
    }

    /// Shared constructor body behind [`XfmBackend::builder`] and
    /// [`XfmBackend::new`]: rejects any `n_dimms` other than 1, 2, or 4
    /// (the paper's configurations) and any region slice `xfm_paramset`
    /// refuses (e.g. zero-sized).
    fn construct(config: XfmBackendConfig) -> Result<Self> {
        if ![1, 2, 4].contains(&config.n_dimms) {
            return Err(Error::InvalidConfig(format!(
                "multi-channel mode supports 1, 2, or 4 DIMMs, got {}",
                config.n_dimms
            )));
        }
        let mut drivers = Vec::with_capacity(config.n_dimms);
        for i in 0..config.n_dimms {
            let mut d = XfmDriver::new(NearMemoryAccelerator::new(config.nma));
            d.xfm_paramset(
                xfm_types::PhysAddr::new(i as u64 * config.sfm.region_capacity.as_bytes()),
                config.sfm.region_capacity / config.n_dimms as u64,
            )?;
            drivers.push(d);
        }
        Ok(Self {
            config,
            inner: Mutex::new(XfmInner {
                drivers,
                codec: Arc::new(XDeflate::default()),
                cost: CostModel::paper_average(),
                pool: Zpool::new(config.sfm.region_capacity),
                table: SfmTable::new(),
                stats: BackendStats::default(),
                late_fallbacks: 0,
                now: Nanos::ZERO,
                telemetry: None,
                faults: None,
                retry: RetryPolicy::none(),
                degrade: DegradeController::new(DegradeConfig::default()),
                flight: None,
                scratch: Scratch::new(),
                config,
            }),
        })
    }

    /// Creates a backend with `n_dimms` accelerators: the panicking
    /// convenience over [`XfmBackend::builder`].
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`PlaneBuilder::build`] rejects.
    #[must_use]
    pub fn new(config: XfmBackendConfig) -> Self {
        Self::construct(config).expect("valid XFM backend configuration")
    }

    /// Attaches a telemetry registry: swap-path counters, latency
    /// histograms, span tracing, per-DIMM refresh-window utilization
    /// gauges (`xfm_refresh_window_utilization{rank="i"}`), and the
    /// `xfm_degraded_mode` gauge. Window gauges are refreshed on every
    /// [`XfmBackend::advance_to`]; the mode gauge on every transition.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
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
        inner.telemetry = Some(XfmTelemetry {
            metrics: SwapMetrics::register(registry),
            tenants: TenantMetrics::register(registry),
            rank_util,
            rank_windows,
            degraded_mode,
            mirror,
        });
    }

    /// Attaches a post-mortem flight recorder. From then on, a retry
    /// exhaustion or a degraded-mode transition triggers an automatic
    /// dump of the trailing lifecycle events (see
    /// [`xfm_telemetry::FlightRecorder`]); the recorder should wrap the
    /// same registry passed to [`XfmBackend::attach_telemetry`] so the
    /// dumped trail is the one this backend writes.
    pub fn attach_flight_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.inner.lock().flight = Some(recorder);
    }

    /// Arms fault-injection hooks across the whole stack: every driver's
    /// device (admission, engine, and window-scheduler sites) plus the
    /// host-side store and fetch paths (`zpool_store_failure`,
    /// `bit_corruption`).
    pub fn attach_faults(&mut self, faults: Arc<FaultInjector>) {
        let mut inner = self.inner.lock();
        for d in &mut inner.drivers {
            d.attach_faults(Arc::clone(&faults));
        }
        inner.faults = Some(faults);
    }

    /// Sets the bounded retry policy for transient NMA rejects (queue
    /// full, SPM pressure). The default is [`RetryPolicy::none`]: a
    /// single attempt, matching the paper's try-then-fallback semantics.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.inner.lock().retry = policy;
    }

    /// Replaces the degraded-mode state machine with a fresh controller
    /// using `config` (resetting to the healthy state).
    pub fn set_degrade_config(&mut self, config: DegradeConfig) {
        self.inner.lock().degrade = DegradeController::new(config);
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
            let s = d.stats();
            total.submitted += s.submitted;
            total.completed += s.completed;
            total.fallbacks += s.fallbacks;
            total.rejected += s.rejected;
            total.total_latency += s.total_latency;
            total.spm_high_water = total.spm_high_water.max(s.spm_high_water);
            total.sched.conditional += s.sched.conditional;
            total.sched.random += s.sched.random;
            total.sched.spilled += s.sched.spilled;
            total.sched.windows = total.sched.windows.max(s.sched.windows);
            total.sched.side_channel_bytes += s.sched.side_channel_bytes;
            total.sched.wait_windows += s.sched.wait_windows;
            total.sched.subarray_conflicts += s.sched.subarray_conflicts;
        }
        total
    }

    /// Fraction of swap operations that had to run on the CPU, counting
    /// both up-front rejections and late structural hazards — Fig. 12's
    /// y-axis.
    #[must_use]
    pub fn cpu_fallback_fraction(&self) -> f64 {
        let inner = self.inner.lock();
        let cpu_ops = inner.stats.cpu_executions + inner.late_fallbacks;
        let total = inner.stats.nma_executions + cpu_ops;
        if total == 0 {
            0.0
        } else {
            cpu_ops as f64 / total as f64
        }
    }

    /// Number of pages currently held by the SFM entry table.
    #[must_use]
    pub fn table_len(&self) -> usize {
        self.inner.lock().table.len()
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> BackendStats {
        self.inner.lock().stats
    }

    /// Zpool-level statistics.
    #[must_use]
    pub fn pool_stats(&self) -> ZpoolStats {
        self.inner.lock().pool.stats()
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
        Ok(self.inner.lock().swap_out(ctx.tenant, page, data)?)
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
    /// disturbing the rest of the batch; zero `threads` is the one
    /// top-level [`Error::InvalidConfig`].
    fn swap_out_batch_ctx(
        &self,
        ctx: &OpContext,
        batch: &[(PageNumber, Bytes)],
        threads: usize,
    ) -> SwapResult<Vec<SwapResult<SwapOutcome>>> {
        let results = self
            .inner
            .lock()
            .swap_out_batch(ctx.tenant, batch, threads)?;
        Ok(results
            .into_iter()
            .map(|r| r.map_err(SwapError::from))
            .collect())
    }

    /// Derived from the live entry table (exact by construction: the
    /// sum over tenants equals the pool's stored bytes).
    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        self.inner.lock().table.tenant_bytes()
    }

    fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        self.inner.lock().table.get(page).map(|e| e.tenant)
    }

    fn contains(&self, page: PageNumber) -> bool {
        self.inner.lock().table.contains(page)
    }

    /// The paper's `xfm_compact()`: shifts pages with memcpys. The DDR
    /// traffic is charged to the CPU path here (compaction runs on the
    /// host in the prototype).
    fn compact(&self) -> CompactReport {
        let mut inner = self.inner.lock();
        let report = inner.pool.compact();
        inner.stats.ddr_bytes += report.moved_bytes * 2;
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
    /// Records a lifecycle event on the attached trail (no-op when
    /// untraced). The core plane is unsharded, so events carry
    /// [`NO_SHARD`].
    fn lifecycle(&self, stage: LifecycleStage, cause: Cause, page: u64, aux: u64, dur_ns: u64) {
        if let Some(t) = &self.telemetry {
            t.metrics
                .lifecycle_event(stage, cause, page, NO_SHARD, aux, dur_ns);
        }
    }

    /// Fires a flight-recorder incident (no-op when unattached). The
    /// detail string is built lazily so an unattached recorder costs
    /// nothing — not even the formatting allocation.
    fn incident(&self, reason: &str, detail: impl FnOnce() -> String) {
        if let Some(f) = &self.flight {
            f.incident(reason, &detail());
        }
    }

    fn advance_clock(&mut self, now: Nanos) {
        self.now = self.now.max(now);
        if let Some(t) = &self.telemetry {
            t.mirror.publish(self.now);
        }
        for d in &mut self.drivers {
            for event in d.poll(now) {
                if let NmaEvent::Fallback {
                    kind,
                    data,
                    page,
                    at,
                } = event
                {
                    // The CPU redoes the spilled work.
                    self.late_fallbacks += 1;
                    let (cycles, ddr) = match kind {
                        OffloadKind::Compress => (
                            self.cost.compress_cycles(data.len() as u64),
                            ByteSize::from_bytes(data.len() as u64 * 2),
                        ),
                        OffloadKind::Decompress => (
                            self.cost.decompress_cycles(PAGE_SIZE as u64),
                            ByteSize::from_bytes(data.len() as u64 + PAGE_SIZE as u64),
                        ),
                    };
                    self.stats.cpu_cycles += cycles;
                    self.stats.ddr_bytes += ddr;
                    if let Some(t) = &self.telemetry {
                        t.metrics.refresh_window_misses.inc();
                        let stage = match kind {
                            OffloadKind::Compress => LifecycleStage::Compress,
                            OffloadKind::Decompress => LifecycleStage::Decompress,
                        };
                        t.metrics.lifecycle_event(
                            stage,
                            Cause::RefreshWindowMiss,
                            page.index(),
                            NO_SHARD,
                            at.as_ns(),
                            0,
                        );
                    }
                }
            }
        }
        if let Some(t) = &self.telemetry {
            for (i, d) in self.drivers.iter().enumerate() {
                let u = d.device().window_utilization();
                t.rank_util[i].set(u.fraction(0));
                t.rank_windows[i].set(u.windows(0) as f64);
            }
        }
    }

    fn row_of(&self, page: PageNumber) -> RowId {
        RowId::new((page.index() % u64::from(self.config.nma.geometry.rows_per_bank)) as u32)
    }

    /// Records a degraded-mode transition: gauge + lifecycle event, then
    /// fires a flight-recorder incident so the events leading up to the
    /// transition are preserved post-mortem.
    fn note_mode_change(&mut self, page: PageNumber, mode: DegradedMode) {
        if let Some(t) = &self.telemetry {
            t.degraded_mode.set(f64::from(mode.level()));
        }
        self.lifecycle(
            LifecycleStage::ModeChange,
            Cause::Degraded,
            page.index(),
            u64::from(mode.level()),
            0,
        );
        self.incident("degraded-mode-transition", || {
            format!("mode changed to {mode:?} (level {})", mode.level())
        });
    }

    /// Attempts the compress offload (one share per DIMM), retrying
    /// transient rejects per the retry policy. Each backoff advances the
    /// clock, letting refresh windows drain the queue and free SPM slots
    /// before the re-submission. Returns whether every share was
    /// accepted.
    fn attempt_offload_compress(&mut self, page: PageNumber, data: &[u8]) -> bool {
        let row = self.row_of(page);
        let mut attempt = 0u32;
        loop {
            let shares = xfm_compress::ratio::split_interleaved(data, self.config.n_dimms);
            let now = self.now;
            let mut reject = None;
            for (d, share) in self.drivers.iter_mut().zip(shares) {
                if let Err(e) = d.xfm_compress(page, share, row, now, true) {
                    reject = Some(e);
                    break;
                }
            }
            let Some(e) = reject else { return true };
            if !SwapError::from(e).retryable || attempt >= self.retry.max_retries {
                if attempt > 0 {
                    self.lifecycle(
                        LifecycleStage::Retry,
                        Cause::RetryExhausted,
                        page.index(),
                        u64::from(attempt),
                        0,
                    );
                    self.incident("retry-exhausted-compress", || {
                        format!("page {page} gave up after {attempt} retries")
                    });
                }
                return false;
            }
            attempt += 1;
            self.lifecycle(
                LifecycleStage::Retry,
                Cause::Retry,
                page.index(),
                u64::from(attempt),
                0,
            );
            let backoff = self.retry.backoff_for(attempt);
            self.lifecycle(
                LifecycleStage::Backoff,
                Cause::Retry,
                page.index(),
                u64::from(attempt),
                backoff.as_ns(),
            );
            let resume = self.now + backoff;
            self.advance_clock(resume);
        }
    }

    /// Decompress-side twin of [`XfmInner::attempt_offload_compress`],
    /// re-deriving the container shares for each attempt.
    ///
    /// # Errors
    ///
    /// Propagates malformed-container errors (a device reject is not an
    /// error here — it reports `Ok(false)` and the CPU path takes over).
    fn attempt_offload_decompress(&mut self, page: PageNumber, stored: &[u8]) -> Result<bool> {
        let row = self.row_of(page);
        let mut attempt = 0u32;
        loop {
            let shares = container_shares(stored)?;
            let now = self.now;
            let mut reject = None;
            for (d, share) in self.drivers.iter_mut().zip(shares) {
                if let Err(e) = d.xfm_decompress(page, share, row, now, true) {
                    reject = Some(e);
                    break;
                }
            }
            let Some(e) = reject else { return Ok(true) };
            if !SwapError::from(e).retryable || attempt >= self.retry.max_retries {
                if attempt > 0 {
                    self.lifecycle(
                        LifecycleStage::Retry,
                        Cause::RetryExhausted,
                        page.index(),
                        u64::from(attempt),
                        0,
                    );
                    self.incident("retry-exhausted-decompress", || {
                        format!("page {page} gave up after {attempt} retries")
                    });
                }
                return Ok(false);
            }
            attempt += 1;
            self.lifecycle(
                LifecycleStage::Retry,
                Cause::Retry,
                page.index(),
                u64::from(attempt),
                0,
            );
            let backoff = self.retry.backoff_for(attempt);
            self.lifecycle(
                LifecycleStage::Backoff,
                Cause::Retry,
                page.index(),
                u64::from(attempt),
                backoff.as_ns(),
            );
            let resume = self.now + backoff;
            self.advance_clock(resume);
        }
    }

    /// Swap-in telemetry: fault + fetch + decompress events, latency
    /// histograms, and execution counters. No-op when unattached.
    fn record_swap_in(
        &self,
        tenant: TenantId,
        page: PageNumber,
        sw: &Option<Stopwatch>,
        fetch_ns: u64,
        decompress_ns: u64,
        cause: Cause,
    ) {
        let Some(t) = &self.telemetry else { return };
        let total = sw.as_ref().map_or(0, Stopwatch::elapsed_ns);
        t.metrics.swap_ins.inc();
        let ts = t.tenants.series(tenant);
        ts.swap_ins.inc();
        ts.fault_ns.record(total);
        match cause {
            Cause::NmaOffload => t.metrics.nma_executions.inc(),
            _ => t.metrics.cpu_executions.inc(),
        }
        t.metrics.zpool_load_ns.record(fetch_ns);
        t.metrics.swap_in_ns.record(total);
        if decompress_ns > 0 || !matches!(cause, Cause::SameFilled | Cause::StoredRaw) {
            t.metrics.decompress_ns.record(decompress_ns);
            t.metrics.lifecycle_event_for(
                LifecycleStage::Decompress,
                cause,
                tenant,
                page.index(),
                NO_SHARD,
                0,
                decompress_ns,
            );
        }
        t.metrics.lifecycle_event_for(
            LifecycleStage::Fault,
            cause,
            tenant,
            page.index(),
            NO_SHARD,
            0,
            total,
        );
        t.metrics.lifecycle_event_for(
            LifecycleStage::Fetch,
            Cause::Ok,
            tenant,
            page.index(),
            NO_SHARD,
            0,
            fetch_ns,
        );
    }

    fn cpu_swap_out_outcome(&self, stored_len: usize) -> SwapOutcome {
        SwapOutcome {
            executed_on: ExecutedOn::Cpu,
            compressed_len: stored_len as u32,
            cpu_cycles: self.cost.compress_cycles(PAGE_SIZE as u64),
            ddr_bytes: ByteSize::from_bytes(PAGE_SIZE as u64 + stored_len as u64),
        }
    }

    /// The zswap same-filled fast path: stores the one-byte fill value
    /// with no offload (there is nothing for the NMA to do).
    fn store_same_filled(
        &mut self,
        tenant: TenantId,
        page: PageNumber,
        fill: u8,
        sw: Option<Stopwatch>,
    ) -> Result<SwapOutcome> {
        let stored_len = self.store(tenant, page, vec![fill], CodecKind::SameFilled)?;
        let outcome = SwapOutcome {
            executed_on: ExecutedOn::Cpu,
            compressed_len: stored_len,
            cpu_cycles: Cycles::new(PAGE_SIZE as u64),
            ddr_bytes: ByteSize::from_bytes(PAGE_SIZE as u64 + 1),
        };
        self.stats.record(&outcome, true);
        if let Some(t) = &self.telemetry {
            let dur = sw.as_ref().map_or(0, Stopwatch::elapsed_ns);
            t.metrics.swap_outs.inc();
            t.metrics.same_filled.inc();
            t.metrics.cpu_executions.inc();
            t.metrics.swap_out_ns.record(dur);
            t.metrics.lifecycle_event_for(
                LifecycleStage::Compress,
                Cause::SameFilled,
                tenant,
                page.index(),
                NO_SHARD,
                u64::from(fill),
                dur,
            );
            let ts = t.tenants.series(tenant);
            ts.swap_outs.inc();
            ts.bytes_stored.add(u64::from(stored_len));
        }
        Ok(outcome)
    }

    /// Everything a swap-out does after the page has been compressed:
    /// raw-store decision, degrade-gated offload attempt (with retry),
    /// store-back, accounting, and telemetry. `packed` is the
    /// multi-channel container `data` packed to; `compress_ns` is how
    /// long packing took (0 when untraced). Shared between the
    /// synchronous [`XfmBackend::swap_out`] and the batched pipeline, so
    /// both evolve driver state, pool packing, and statistics
    /// identically.
    fn finish_swap_out(
        &mut self,
        tenant: TenantId,
        page: PageNumber,
        data: &[u8],
        packed: Vec<u8>,
        compress_ns: u64,
        sw: Option<Stopwatch>,
    ) -> Result<SwapOutcome> {
        let (bytes, codec_kind) = if packed.len() > self.config.sfm.max_compressed_len() {
            (data.to_vec(), CodecKind::Raw)
        } else {
            (packed, crate::multichannel::packed_codec_kind())
        };

        // Offload attempt: one share per DIMM, flexible (demotions are
        // controller-scheduled and can wait for their refresh windows),
        // gated by the degraded-mode controller.
        let mut offloaded = false;
        if self.config.offload_swap_out && codec_kind != CodecKind::Raw {
            if self.degrade.decide_offload() {
                offloaded = self.attempt_offload_compress(page, data);
                if let Some(mode) = self.degrade.record_offload(offloaded) {
                    self.note_mode_change(page, mode);
                }
            } else if let Some(mode) = self.degrade.record_cpu_op() {
                self.note_mode_change(page, mode);
            }
        }

        let ssw = self.telemetry.as_ref().map(|_| Stopwatch::start());
        let stored_len = self.store(tenant, page, bytes, codec_kind)?;
        let store_ns = ssw.as_ref().map_or(0, Stopwatch::elapsed_ns);
        let outcome = if offloaded {
            SwapOutcome {
                executed_on: ExecutedOn::Nma,
                compressed_len: stored_len,
                cpu_cycles: Cycles::ZERO,
                // The side channel carries all the traffic.
                ddr_bytes: ByteSize::ZERO,
            }
        } else {
            self.cpu_swap_out_outcome(stored_len as usize)
        };
        self.stats.record(&outcome, true);
        if codec_kind == CodecKind::Raw {
            self.stats.stored_raw += 1;
        }
        if let Some(t) = &self.telemetry {
            t.metrics.swap_outs.inc();
            t.metrics.compress_ns.record(compress_ns);
            t.metrics.zpool_store_ns.record(store_ns);
            let cause = if offloaded {
                t.metrics.nma_executions.inc();
                Cause::NmaOffload
            } else if codec_kind == CodecKind::Raw {
                t.metrics.cpu_executions.inc();
                t.metrics.stored_raw.inc();
                Cause::StoredRaw
            } else {
                t.metrics.cpu_executions.inc();
                Cause::CpuFallback
            };
            t.metrics
                .swap_out_ns
                .record(sw.as_ref().map_or(0, Stopwatch::elapsed_ns));
            t.metrics.lifecycle_event_for(
                LifecycleStage::Compress,
                cause,
                tenant,
                page.index(),
                NO_SHARD,
                u64::from(stored_len),
                compress_ns,
            );
            t.metrics.lifecycle_event_for(
                LifecycleStage::ZpoolStore,
                cause,
                tenant,
                page.index(),
                NO_SHARD,
                u64::from(stored_len),
                store_ns,
            );
            let ts = t.tenants.series(tenant);
            ts.swap_outs.inc();
            ts.bytes_stored.add(u64::from(stored_len));
        }
        Ok(outcome)
    }

    fn swap_out(&mut self, tenant: TenantId, page: PageNumber, data: &[u8]) -> Result<SwapOutcome> {
        if data.len() != PAGE_SIZE {
            return Err(Error::InvalidConfig(format!(
                "swap_out requires a 4 KiB page, got {} bytes",
                data.len()
            )));
        }
        if self.table.contains(page) {
            return Err(Error::EntryExists { page: page.index() });
        }
        let now = self.now;
        self.advance_clock(now);
        let sw = self.telemetry.as_ref().map(|_| Stopwatch::start());

        // zswap's same-filled check runs on the host before any offload:
        // there is nothing for the NMA to do for a one-byte page.
        if let Some(fill) = xfm_sfm::backend::same_filled(data) {
            return self.store_same_filled(tenant, page, fill, sw);
        }

        // Functional compression (identical to what the engines compute).
        let csw = self.telemetry.as_ref().map(|_| Stopwatch::start());
        let packed = pack_page(self.codec.as_ref(), data, self.config.n_dimms)?;
        let compress_ns = csw.as_ref().map_or(0, Stopwatch::elapsed_ns);
        self.finish_swap_out(tenant, page, data, packed.bytes, compress_ns, sw)
    }

    fn swap_out_batch(
        &mut self,
        tenant: TenantId,
        batch: &[(PageNumber, Bytes)],
        threads: usize,
    ) -> Result<Vec<Result<SwapOutcome>>> {
        if threads == 0 {
            return Err(Error::InvalidConfig(
                "swap_out_batch requires at least one thread".into(),
            ));
        }
        /// How the pre-pass resolved one batch slot.
        enum Prep {
            WrongSize(usize),
            SameFilled(u8),
            /// Index into the parallel pack results.
            Packed(usize),
        }
        let mut prep = Vec::with_capacity(batch.len());
        let mut to_pack: Vec<Bytes> = Vec::new();
        for (_, data) in batch {
            prep.push(if data.len() != PAGE_SIZE {
                Prep::WrongSize(data.len())
            } else if let Some(fill) = xfm_sfm::backend::same_filled(data) {
                Prep::SameFilled(fill)
            } else {
                to_pack.push(data.clone());
                Prep::Packed(to_pack.len() - 1)
            });
        }

        // Parallel phase: multi-channel packing fans out across workers;
        // no backend state is touched, so results are order-independent.
        let codec = self.codec.as_ref();
        let n_dimms = self.config.n_dimms;
        let traced = self.telemetry.is_some();
        let mut packed: Vec<Option<(Vec<u8>, u64)>> =
            xfm_compress::map_pages(&to_pack, threads, |_, page| {
                let csw = traced.then(Stopwatch::start);
                let p = pack_page(codec, page, n_dimms)?;
                Ok((p.bytes, csw.as_ref().map_or(0, Stopwatch::elapsed_ns)))
            })?
            .into_iter()
            .map(Some)
            .collect();

        // Sequential phase: store-backs in submission order.
        let mut results = Vec::with_capacity(batch.len());
        for ((page, data), prep) in batch.iter().zip(prep) {
            let r = match prep {
                Prep::WrongSize(len) => Err(Error::InvalidConfig(format!(
                    "swap_out requires a 4 KiB page, got {len} bytes"
                ))),
                _ if self.table.contains(*page) => Err(Error::EntryExists { page: page.index() }),
                Prep::SameFilled(fill) => {
                    let now = self.now;
                    self.advance_clock(now);
                    let sw = self.telemetry.as_ref().map(|_| Stopwatch::start());
                    self.store_same_filled(tenant, *page, fill, sw)
                }
                Prep::Packed(i) => {
                    let now = self.now;
                    self.advance_clock(now);
                    let sw = self.telemetry.as_ref().map(|_| Stopwatch::start());
                    let (bytes, compress_ns) = packed[i].take().expect("each pack consumed once");
                    self.finish_swap_out(tenant, *page, data, bytes, compress_ns, sw)
                }
            };
            results.push(r);
        }
        Ok(results)
    }

    fn swap_in_into(
        &mut self,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> Result<SwapOutcome> {
        let now = self.now;
        self.advance_clock(now);
        let sw = self.telemetry.as_ref().map(|_| Stopwatch::start());
        let entry = *self
            .table
            .get(page)
            .ok_or(Error::EntryNotFound { page: page.index() })?;
        let mut stored = self.pool.get(entry.handle)?.to_vec();
        let fetch_ns = sw.as_ref().map_or(0, Stopwatch::elapsed_ns);

        // Verify before consuming the entry. An armed bit-corruption
        // site flips a bit in the fetched copy (modeling in-transit
        // corruption), so on mismatch the stored copy is still pristine
        // and the error is retryable: entry and slot stay untouched.
        if let Some(v) = self
            .faults
            .as_deref()
            .and_then(|f| f.fire_value(xfm_faults::FaultSite::BitCorruption))
        {
            let bit = (v % (stored.len() as u64 * 8)) as usize;
            stored[bit / 8] ^= 1 << (bit % 8);
        }
        let got = xfm_faults::checksum(&stored);
        if got != entry.checksum {
            self.lifecycle(
                LifecycleStage::Fault,
                Cause::ChecksumMismatch,
                page.index(),
                u64::from(entry.compressed_len),
                fetch_ns,
            );
            return Err(Error::ChecksumMismatch {
                page: page.index(),
                expected: entry.checksum,
                got,
            });
        }
        self.table.remove(page)?;
        self.pool.free(entry.handle)?;
        // The entry is consumed from here on: credit the owner's account
        // now so a Corrupt fall-through below cannot leak reserved bytes.
        if let Some(t) = &self.telemetry {
            t.tenants
                .series(entry.tenant)
                .bytes_freed
                .add(u64::from(entry.compressed_len));
        }

        out.clear();
        if entry.codec == CodecKind::SameFilled {
            out.resize(PAGE_SIZE, stored[0]);
            let outcome = SwapOutcome {
                executed_on: ExecutedOn::Cpu,
                compressed_len: entry.compressed_len,
                cpu_cycles: Cycles::new(PAGE_SIZE as u64),
                ddr_bytes: ByteSize::from_bytes(1 + PAGE_SIZE as u64),
            };
            self.stats.record(&outcome, false);
            self.record_swap_in(entry.tenant, page, &sw, fetch_ns, 0, Cause::SameFilled);
            return Ok(outcome);
        }
        if entry.codec == CodecKind::Raw {
            out.extend_from_slice(&stored);
            let outcome = SwapOutcome {
                executed_on: ExecutedOn::Cpu,
                compressed_len: entry.compressed_len,
                cpu_cycles: Cycles::ZERO,
                ddr_bytes: ByteSize::from_bytes(2 * PAGE_SIZE as u64),
            };
            self.stats.record(&outcome, false);
            self.record_swap_in(entry.tenant, page, &sw, fetch_ns, 0, Cause::StoredRaw);
            return Ok(outcome);
        }

        // Offload only when the caller asserted do_offload (prefetch);
        // demand faults default to CPU_Fallback (paper §6). The degrade
        // controller gates eligible attempts the same way as swap-out.
        let mut offloaded = false;
        if do_offload {
            if self.degrade.decide_offload() {
                offloaded = self.attempt_offload_decompress(page, &stored)?;
                if let Some(mode) = self.degrade.record_offload(offloaded) {
                    self.note_mode_change(page, mode);
                }
            } else if let Some(mode) = self.degrade.record_cpu_op() {
                self.note_mode_change(page, mode);
            }
        }

        let dsw = self.telemetry.as_ref().map(|_| Stopwatch::start());
        let start = out.len();
        unpack_page_into(self.codec.as_ref(), &stored, &mut self.scratch, out)?;
        let decompress_ns = dsw.as_ref().map_or(0, Stopwatch::elapsed_ns);
        let unpacked = out.len() - start;
        if unpacked != PAGE_SIZE {
            out.truncate(start);
            return Err(Error::Corrupt(format!(
                "page {page} unpacked to {unpacked} bytes"
            )));
        }
        let outcome = if offloaded {
            SwapOutcome {
                executed_on: ExecutedOn::Nma,
                compressed_len: entry.compressed_len,
                cpu_cycles: Cycles::ZERO,
                ddr_bytes: ByteSize::ZERO,
            }
        } else {
            SwapOutcome {
                executed_on: ExecutedOn::Cpu,
                compressed_len: entry.compressed_len,
                cpu_cycles: self.cost.decompress_cycles(PAGE_SIZE as u64),
                ddr_bytes: ByteSize::from_bytes(u64::from(entry.compressed_len) + PAGE_SIZE as u64),
            }
        };
        self.stats.record(&outcome, false);
        let cause = if offloaded {
            Cause::NmaOffload
        } else {
            Cause::CpuFallback
        };
        self.record_swap_in(entry.tenant, page, &sw, fetch_ns, decompress_ns, cause);
        Ok(outcome)
    }

    fn store(
        &mut self,
        tenant: TenantId,
        page: PageNumber,
        bytes: Vec<u8>,
        codec: CodecKind,
    ) -> Result<u32> {
        let len = bytes.len() as u32;
        let handle = match self.pool.alloc_faulted(&bytes, self.faults.as_deref()) {
            Ok(h) => h,
            Err(Error::SfmRegionFull) => {
                self.pool.compact();
                self.pool.alloc_faulted(&bytes, self.faults.as_deref())?
            }
            Err(e) => return Err(e),
        };
        self.table.insert(
            page,
            SfmEntry {
                handle,
                compressed_len: len,
                codec,
                checksum: xfm_faults::checksum(&bytes),
                tenant,
            },
        )?;
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfm_compress::Corpus;
    use xfm_faults::{FaultPlan, FaultSite, SiteSpec};

    fn backend(n_dimms: usize) -> XfmBackend {
        XfmBackend::new(XfmBackendConfig {
            sfm: SfmConfig {
                region_capacity: ByteSize::from_mib(8),
                ..SfmConfig::default()
            },
            n_dimms,
            ..XfmBackendConfig::default()
        })
    }

    #[test]
    fn round_trip_preserves_data_across_dimm_counts() {
        for n in [1usize, 2, 4] {
            let b = backend(n);
            b.advance_to(Nanos::from_ms(1));
            for (i, corpus) in Corpus::all().iter().enumerate() {
                let page = corpus.generate(i as u64, PAGE_SIZE);
                let pn = PageNumber::new(i as u64);
                b.swap_out(pn, &page).unwrap();
                let (restored, _) = b.swap_in(pn, i % 2 == 0).unwrap();
                assert_eq!(restored, page, "{} n={n}", corpus.name());
            }
        }
    }

    #[test]
    fn builder_codec_round_trips_through_multichannel_containers() {
        use xfm_compress::lz77::MatchFinder;

        for n in [1usize, 2, 4] {
            let b = XfmBackend::builder()
                .config(XfmBackendConfig {
                    sfm: SfmConfig {
                        region_capacity: ByteSize::from_mib(8),
                        ..SfmConfig::default()
                    },
                    n_dimms: n,
                    ..XfmBackendConfig::default()
                })
                .codec(Arc::new(XDeflate::with_finder(MatchFinder::fast())))
                .build()
                .unwrap();
            b.advance_to(Nanos::from_ms(1));
            // Batched out, one by one back in, over every corpus.
            let batch: Vec<(PageNumber, Bytes)> = Corpus::all()
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    (
                        PageNumber::new(i as u64),
                        Bytes::from(c.generate(i as u64, PAGE_SIZE)),
                    )
                })
                .collect();
            let results = b.swap_out_batch(&batch, 3).unwrap();
            assert!(results.iter().all(SwapResult::is_ok), "n={n}");
            // The builder's codec is the one that ran: short chains
            // find fewer matches than the default profile and store more.
            let stored = |results: &[SwapResult<SwapOutcome>]| -> u64 {
                results
                    .iter()
                    .map(|r| u64::from(r.as_ref().unwrap().compressed_len))
                    .sum()
            };
            let default_stored = stored(&backend(n).swap_out_batch(&batch, 3).unwrap());
            assert!(stored(&results) > default_stored, "n={n}");
            for (page, data) in &batch {
                let (restored, _) = b.swap_in(*page, false).unwrap();
                assert_eq!(&restored[..], &data[..], "page {page} n={n}");
            }
        }
    }

    #[test]
    fn offloaded_swap_out_produces_zero_ddr_traffic() {
        let b = backend(1);
        b.advance_to(Nanos::from_ms(1));
        let page = Corpus::Json.generate(1, PAGE_SIZE);
        let out = b.swap_out(PageNumber::new(1), &page).unwrap();
        assert_eq!(out.executed_on, ExecutedOn::Nma);
        assert_eq!(out.ddr_bytes, ByteSize::ZERO);
        assert_eq!(out.cpu_cycles, Cycles::ZERO);
    }

    #[test]
    fn demand_swap_in_defaults_to_cpu() {
        let b = backend(1);
        b.advance_to(Nanos::from_ms(1));
        let page = Corpus::Html.generate(2, PAGE_SIZE);
        b.swap_out(PageNumber::new(2), &page).unwrap();
        let (_, outcome) = b.swap_in(PageNumber::new(2), false).unwrap();
        assert_eq!(outcome.executed_on, ExecutedOn::Cpu);
        assert!(outcome.ddr_bytes.as_bytes() > 0);
    }

    #[test]
    fn prefetch_swap_in_offloads() {
        let b = backend(2);
        b.advance_to(Nanos::from_ms(1));
        let page = Corpus::Csv.generate(3, PAGE_SIZE);
        b.swap_out(PageNumber::new(3), &page).unwrap();
        let (_, outcome) = b.swap_in(PageNumber::new(3), true).unwrap();
        assert_eq!(outcome.executed_on, ExecutedOn::Nma);
        assert_eq!(outcome.ddr_bytes, ByteSize::ZERO);
    }

    #[test]
    fn same_filled_page_short_circuits_offload() {
        let b = backend(2);
        b.advance_to(Nanos::from_ms(1));
        let page = vec![0u8; PAGE_SIZE];
        let out = b.swap_out(PageNumber::new(5), &page).unwrap();
        assert_eq!(out.compressed_len, 1);
        assert_eq!(out.executed_on, ExecutedOn::Cpu);
        assert_eq!(b.nma_stats().submitted, 0, "nothing to offload");
        let (restored, _) = b.swap_in(PageNumber::new(5), true).unwrap();
        assert_eq!(restored, page);
    }

    #[test]
    fn incompressible_page_stored_raw_on_cpu_path() {
        let b = backend(1);
        b.advance_to(Nanos::from_ms(1));
        let page = Corpus::RandomBytes.generate(4, PAGE_SIZE);
        let out = b.swap_out(PageNumber::new(4), &page).unwrap();
        assert_eq!(out.executed_on, ExecutedOn::Cpu);
        assert_eq!(b.stats().stored_raw, 1);
        let (restored, _) = b.swap_in(PageNumber::new(4), true).unwrap();
        assert_eq!(restored, page);
    }

    #[test]
    fn nma_resource_exhaustion_falls_back_to_cpu() {
        let b = XfmBackend::new(XfmBackendConfig {
            sfm: SfmConfig {
                region_capacity: ByteSize::from_mib(32),
                ..SfmConfig::default()
            },
            nma: NmaConfig {
                spm_capacity: ByteSize::from_bytes(2 * 4160),
                ..NmaConfig::default()
            },
            n_dimms: 1,
            offload_swap_out: true,
        });
        b.advance_to(Nanos::from_ms(1));
        let mut cpu = 0;
        let mut nma = 0;
        for i in 0..8u64 {
            let page = Corpus::KeyValue.generate(i, PAGE_SIZE);
            match b.swap_out(PageNumber::new(i), &page).unwrap().executed_on {
                ExecutedOn::Cpu => cpu += 1,
                ExecutedOn::Nma => nma += 1,
            }
        }
        assert_eq!(nma, 2, "only two reservations fit the tiny SPM");
        assert_eq!(cpu, 6);
        assert!(b.cpu_fallback_fraction() > 0.5);
    }

    #[test]
    fn time_advancement_drains_nma_and_restores_capacity() {
        let b = XfmBackend::new(XfmBackendConfig {
            sfm: SfmConfig {
                region_capacity: ByteSize::from_mib(32),
                ..SfmConfig::default()
            },
            nma: NmaConfig {
                spm_capacity: ByteSize::from_bytes(2 * 4160),
                ..NmaConfig::default()
            },
            n_dimms: 1,
            offload_swap_out: true,
        });
        b.advance_to(Nanos::from_ms(1));
        for i in 0..4u64 {
            let page = Corpus::LogLines.generate(i, PAGE_SIZE);
            b.swap_out(PageNumber::new(i), &page).unwrap();
        }
        // Drain two full retention intervals: all offloads complete.
        b.advance_to(Nanos::from_ms(65));
        let page = Corpus::LogLines.generate(9, PAGE_SIZE);
        let out = b.swap_out(PageNumber::new(9), &page).unwrap();
        assert_eq!(out.executed_on, ExecutedOn::Nma);
        assert!(b.nma_stats().completed >= 2);
    }

    #[test]
    fn double_swap_out_rejected() {
        let b = backend(1);
        let page = Corpus::Dna.generate(0, PAGE_SIZE);
        b.swap_out(PageNumber::new(1), &page).unwrap();
        let err = b.swap_out(PageNumber::new(1), &page).unwrap_err();
        assert!(matches!(err.cause(), Error::EntryExists { .. }));
    }

    #[test]
    fn missing_page_swap_in_rejected() {
        let b = backend(1);
        let err = b.swap_in(PageNumber::new(77), false).unwrap_err();
        assert!(matches!(err.cause(), Error::EntryNotFound { .. }));
    }

    #[test]
    fn builder_rejects_bad_configs_without_panicking() {
        assert!(matches!(
            XfmBackend::builder()
                .config(XfmBackendConfig {
                    n_dimms: 3,
                    ..XfmBackendConfig::default()
                })
                .build(),
            Err(Error::InvalidConfig(_))
        ));
        assert!(matches!(
            XfmBackend::builder()
                .config(XfmBackendConfig {
                    sfm: SfmConfig {
                        region_capacity: ByteSize::ZERO,
                        ..SfmConfig::default()
                    },
                    ..XfmBackendConfig::default()
                })
                .build(),
            Err(Error::InvalidConfig(_))
        ));
        assert!(XfmBackend::builder().build().is_ok());
    }

    #[test]
    fn builder_wires_every_knob() {
        let registry = Registry::new();
        let recorder = Arc::new(FlightRecorder::new(
            &registry,
            xfm_telemetry::flight::FlightRecorderConfig::new(std::env::temp_dir().join("xfm-pb")),
        ));
        let plan = xfm_faults::FaultPlan::new(7);
        let backend = XfmBackend::builder()
            .config(XfmBackendConfig::default())
            .codec(Arc::new(XDeflate::default()))
            .telemetry(&registry)
            .faults(Arc::new(FaultInjector::new(&plan)))
            .retry_policy(RetryPolicy::default())
            .degrade_config(DegradeConfig::default())
            .flight_recorder(recorder)
            .build()
            .unwrap();
        backend.advance_to(Nanos::from_ms(1));
        let page = b"builder-wired page payload. ".repeat(160)[..PAGE_SIZE].to_vec();
        backend.swap_out(PageNumber::new(9), &page).unwrap();
        let (restored, _) = backend.swap_in(PageNumber::new(9), false).unwrap();
        assert_eq!(restored, page);
        // Telemetry actually attached: the swap-path counters moved.
        let snap = registry.snapshot();
        assert!(snap.counters.values().any(|&v| v > 0));
    }

    #[test]
    fn swap_plane_errors_carry_site_and_retryability() {
        let b = backend(1);
        let plane: &dyn SwapPlane = &b;
        let err = plane
            .swap_in_into(PageNumber::new(404), false, &mut Vec::new())
            .unwrap_err();
        assert_eq!(err.site, xfm_types::SwapSite::EntryTable);
        assert!(!err.retryable);
    }

    #[test]
    fn injected_corruption_is_detected_and_retryable() {
        let mut b = backend(1);
        let plan = FaultPlan::new(7).with_site(
            FaultSite::BitCorruption,
            SiteSpec::with_probability(1.0).max_fires(1),
        );
        b.attach_faults(Arc::new(FaultInjector::new(&plan)));
        b.advance_to(Nanos::from_ms(1));
        let page = Corpus::Json.generate(11, PAGE_SIZE);
        b.swap_out(PageNumber::new(11), &page).unwrap();
        // First fetch sees the flipped bit: checksum catches it and the
        // entry stays intact.
        let err = b.swap_in(PageNumber::new(11), false).unwrap_err();
        assert!(matches!(err.cause(), Error::ChecksumMismatch { .. }));
        assert!(err.is_retryable());
        assert!(b.contains(PageNumber::new(11)), "entry must survive");
        // The stored copy was pristine: the retry round-trips.
        let (restored, _) = b.swap_in(PageNumber::new(11), false).unwrap();
        assert_eq!(restored, page);
    }

    #[test]
    fn retry_policy_rides_out_transient_rejects() {
        let mut b = backend(1);
        let plan = FaultPlan::new(3).with_site(
            FaultSite::QueueFull,
            SiteSpec::with_probability(1.0).max_fires(2),
        );
        b.attach_faults(Arc::new(FaultInjector::new(&plan)));
        b.set_retry_policy(RetryPolicy::default());
        b.advance_to(Nanos::from_ms(1));
        let page = Corpus::Json.generate(21, PAGE_SIZE);
        // Two injected rejects, then the third attempt lands on the NMA.
        let out = b.swap_out(PageNumber::new(21), &page).unwrap();
        assert_eq!(out.executed_on, ExecutedOn::Nma);
        assert_eq!(b.nma_stats().rejected, 2);
        let (restored, _) = b.swap_in(PageNumber::new(21), false).unwrap();
        assert_eq!(restored, page);
    }

    #[test]
    fn sustained_faults_degrade_to_cpu_only_and_stop_submitting() {
        let mut b = backend(1);
        let plan =
            FaultPlan::new(1).with_site(FaultSite::SpmExhaustion, SiteSpec::with_probability(1.0));
        b.attach_faults(Arc::new(FaultInjector::new(&plan)));
        b.advance_to(Nanos::from_ms(1));
        for i in 0..16u64 {
            let page = Corpus::Json.generate(i, PAGE_SIZE);
            let out = b.swap_out(PageNumber::new(i), &page).unwrap();
            assert_eq!(out.executed_on, ExecutedOn::Cpu, "every offload rejected");
        }
        assert_eq!(b.degraded_mode(), DegradedMode::CpuOnly);
        assert!(b.degrade_transitions() >= 1);
        let rejected_at_trip = b.nma_stats().rejected;
        // CpuOnly is sticky: further swap-outs skip the doomed MMIO
        // submissions entirely.
        for i in 16..24u64 {
            let page = Corpus::Json.generate(i, PAGE_SIZE);
            b.swap_out(PageNumber::new(i), &page).unwrap();
        }
        assert_eq!(b.nma_stats().rejected, rejected_at_trip);
        // Data stayed intact throughout.
        for i in 0..24u64 {
            let (restored, _) = b.swap_in(PageNumber::new(i), false).unwrap();
            assert_eq!(restored, Corpus::Json.generate(i, PAGE_SIZE));
        }
    }

    #[test]
    fn telemetry_captures_swap_path_metrics_and_rank_gauges() {
        let registry = Registry::new();
        let mut b = backend(2);
        b.attach_telemetry(&registry);
        b.advance_to(Nanos::from_ms(1));
        for i in 0..6u64 {
            let page = Corpus::Json.generate(i, PAGE_SIZE);
            b.swap_out(PageNumber::new(i), &page).unwrap();
        }
        for i in 0..6u64 {
            b.swap_in(PageNumber::new(i), i % 2 == 0).unwrap();
        }
        b.advance_to(Nanos::from_ms(2));
        let snap = registry.snapshot();
        assert_eq!(snap.counters["xfm_swap_outs_total"], 6);
        assert_eq!(snap.counters["xfm_swap_ins_total"], 6);
        assert_eq!(snap.histograms["xfm_swap_out_latency_ns"].count, 6);
        assert_eq!(snap.histograms["xfm_swap_in_latency_ns"].count, 6);
        assert!(snap.histograms["xfm_swap_out_latency_ns"].p99 > 0);
        // Every swap left its store / fault event on the trail.
        for stage in [LifecycleStage::ZpoolStore, LifecycleStage::Fault] {
            assert_eq!(snap.events.iter().filter(|e| e.stage == stage).count(), 6);
        }
        assert_eq!(snap.gauges["xfm_degraded_mode"], 0.0, "healthy stack");
        // Both DIMMs expose utilization gauges; windows have been
        // processed, so the gauge is a real (possibly small) fraction.
        for rank in 0..2 {
            let util = snap.gauges[&format!("xfm_refresh_window_utilization{{rank=\"{rank}\"}}")];
            assert!((0.0..=1.0).contains(&util));
            let windows = snap.gauges[&format!("xfm_refresh_windows_processed{{rank=\"{rank}\"}}")];
            assert!(windows > 0.0, "windows {windows}");
        }
    }

    #[test]
    fn unattached_backend_behaves_identically() {
        let plain = backend(1);
        let mut wired = backend(1);
        wired.attach_telemetry(&Registry::new());
        plain.advance_to(Nanos::from_ms(1));
        wired.advance_to(Nanos::from_ms(1));
        for i in 0..4u64 {
            let page = Corpus::Html.generate(i, PAGE_SIZE);
            let a = plain.swap_out(PageNumber::new(i), &page).unwrap();
            let b = wired.swap_out(PageNumber::new(i), &page).unwrap();
            assert_eq!(a, b);
        }
        for i in 0..4u64 {
            let (da, oa) = plain.swap_in(PageNumber::new(i), true).unwrap();
            let (db, ob) = wired.swap_in(PageNumber::new(i), true).unwrap();
            assert_eq!(da, db);
            assert_eq!(oa, ob);
        }
    }

    #[test]
    fn batched_swap_out_matches_sequential_calls() {
        for n_dimms in [1usize, 2] {
            let batched = backend(n_dimms);
            let serial = backend(n_dimms);
            batched.advance_to(Nanos::from_ms(1));
            serial.advance_to(Nanos::from_ms(1));
            // Mixed batch: compressible, same-filled, incompressible
            // (stored raw), a duplicate, and a wrong-sized page.
            let mut batch: Vec<(PageNumber, Bytes)> = (0..12u64)
                .map(|i| {
                    let data = match i % 3 {
                        0 => Corpus::Json.generate(i, PAGE_SIZE),
                        1 => vec![i as u8; PAGE_SIZE],
                        _ => Corpus::RandomBytes.generate(i, PAGE_SIZE),
                    };
                    (PageNumber::new(i), Bytes::from(data))
                })
                .collect();
            batch.push(batch[0].clone()); // duplicate -> EntryExists
            batch.push((PageNumber::new(99), Bytes::from(vec![0u8; 100]))); // wrong size
            let got = batched.swap_out_batch(&batch, 3).unwrap();
            assert_eq!(got.len(), batch.len());
            for ((page, data), g) in batch.iter().zip(&got) {
                let want = serial.swap_out(*page, data);
                match (g, &want) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "page {page} n={n_dimms}"),
                    (Err(a), Err(b)) => {
                        assert_eq!(format!("{a:?}"), format!("{b:?}"), "page {page}");
                    }
                    _ => panic!("page {page} diverged: {g:?} vs {want:?}"),
                }
            }
            assert_eq!(batched.stats(), serial.stats());
            assert_eq!(batched.pool_stats(), serial.pool_stats());
            assert_eq!(batched.nma_stats().submitted, serial.nma_stats().submitted);
            // Round-trip the stored pages to prove data integrity.
            for (page, data) in batch.iter().take(12) {
                let (restored, _) = batched.swap_in(*page, false).unwrap();
                assert_eq!(&restored[..], &data[..], "page {page}");
            }
        }
    }

    #[test]
    fn batched_swap_out_rejects_zero_threads() {
        let b = backend(1);
        let err = b.swap_out_batch(&[], 0).unwrap_err();
        assert!(matches!(err.cause(), Error::InvalidConfig(_)));
    }

    #[test]
    fn batched_swap_out_with_telemetry_counts_every_page() {
        let registry = Registry::new();
        let mut b = backend(1);
        b.attach_telemetry(&registry);
        b.advance_to(Nanos::from_ms(1));
        let batch: Vec<(PageNumber, Bytes)> = (0..8u64)
            .map(|i| {
                (
                    PageNumber::new(i),
                    Bytes::from(Corpus::Html.generate(i, PAGE_SIZE)),
                )
            })
            .collect();
        let results = b.swap_out_batch(&batch, 4).unwrap();
        assert!(results.iter().all(SwapResult::is_ok));
        let s = registry.snapshot();
        assert_eq!(s.counters["xfm_swap_outs_total"], 8);
        assert_eq!(s.histograms["xfm_swap_out_latency_ns"].count, 8);
        // Each page's worker-measured compression latency landed in the
        // same series the synchronous path records.
        assert_eq!(s.histograms["xfm_compress_latency_ns"].count, 8);
    }

    #[test]
    fn compact_charges_memcpy_traffic() {
        let b = backend(1);
        b.advance_to(Nanos::from_ms(1));
        for i in 0..64u64 {
            let page = Corpus::TimeSeries.generate(i, PAGE_SIZE);
            b.swap_out(PageNumber::new(i), &page).unwrap();
        }
        // Free every other page to fragment the pool.
        for i in (0..64u64).step_by(2) {
            b.swap_in(PageNumber::new(i), false).unwrap();
        }
        let ddr_before = b.stats().ddr_bytes;
        let report = b.compact();
        if report.moved_bytes.as_bytes() > 0 {
            assert_eq!(b.stats().ddr_bytes - ddr_before, report.moved_bytes * 2);
        }
    }
}
