//! The page-lifecycle audit trail: the stack's one event ring.
//!
//! Every instrumented step of the swap path records exactly one
//! [`LifecycleEvent`] here — cold-scan select → shard route → compress
//! → zpool-store → fault → retry/backoff → fetch → decompress,
//! plus tier moves, prefetches and degraded-mode transitions — tagged
//! with a [`Cause`] so fallbacks, refresh-window misses and capacity
//! rejections are attributable after the fact without log scraping.
//! Events carry both virtual (simulated) and wall timestamps, and
//! recording takes no lock: it is a cursor `fetch_add` plus a handful of
//! atomic stores into a pre-sized slot, so the instrumented swap hot
//! path stays allocation-free and wait-free in the common case, and a
//! plane that records while holding its own shard lock never nests a
//! second lock under it.
//!
//! Each slot is a miniature seqlock built entirely from `AtomicU64`
//! (the crate keeps `unsafe` out): a writer claims a global cursor
//! ticket, derives its slot and wrap generation, bumps the slot version
//! to odd, stores the payload words, and bumps the version to even.
//! Readers ([`LifecycleTrace::snapshot`], [`LifecycleTrace::page_history`])
//! skip odd versions and re-validate the version after reading, so a
//! torn slot is dropped rather than surfaced.
//!
//! The trail is what [`crate::Snapshot`] exports as `events`, and the
//! substrate for the Chrome `trace_event` export ([`crate::chrome`]) and
//! the degradation flight recorder ([`crate::flight`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use xfm_event::ClockMirror;
use xfm_types::TenantId;

/// A stage in a page's lifecycle through the SFM: the swap path proper
/// plus routing decisions, retry/backoff loops, scratch warm-up, tier
/// moves and degraded-mode transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifecycleStage {
    /// Cold-page scan selected this page for demotion (aux = idle ns),
    /// or — with `page` 0 — one control-plane scan pass finished
    /// (aux = cold pages found).
    ColdScanSelect,
    /// The page was routed to a shard (aux = shard id).
    ShardRoute,
    /// Page compression (CPU codec or NMA engine).
    Compress,
    /// Compressed bytes stored into the zpool.
    ZpoolStore,
    /// Demand fault on a far-memory page.
    Fault,
    /// A transient failure triggered a retry (aux = attempt number).
    Retry,
    /// A retry backoff wait (dur = simulated backoff).
    Backoff,
    /// Compressed bytes fetched from the zpool.
    Fetch,
    /// Page decompression back to 4 KiB.
    Decompress,
    /// Codec scratch pre-warm at backend construction.
    Warmup,
    /// The degraded-mode state machine changed level (aux = new level).
    ModeChange,
    /// A speculative swap-in was issued for this page (aux = batch size).
    PrefetchIssue,
    /// A demand fault was served from the prefetch staging cache
    /// (aux = staged-page age in pump rounds).
    PrefetchHit,
    /// A page moved down a tier — stale prefetch write-back or
    /// capacity-driven eviction to a colder plane
    /// (aux = `plane_id << 8 | placement_class_code` for tier moves,
    /// staged-page age for prefetch write-backs).
    Demote,
    /// A demand fault pulled a page up from a colder tier
    /// (aux = `plane_id << 8 | placement_class_code` of the source).
    PromoteTier,
}

impl LifecycleStage {
    /// Stable lowercase name (used in exposition and Chrome export).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            LifecycleStage::ColdScanSelect => "cold_scan_select",
            LifecycleStage::ShardRoute => "shard_route",
            LifecycleStage::Compress => "compress",
            LifecycleStage::ZpoolStore => "zpool_store",
            LifecycleStage::Fault => "fault",
            LifecycleStage::Retry => "retry",
            LifecycleStage::Backoff => "backoff",
            LifecycleStage::Fetch => "fetch",
            LifecycleStage::Decompress => "decompress",
            LifecycleStage::Warmup => "warmup",
            LifecycleStage::ModeChange => "mode_change",
            LifecycleStage::PrefetchIssue => "prefetch_issue",
            LifecycleStage::PrefetchHit => "prefetch_hit",
            LifecycleStage::Demote => "demote",
            LifecycleStage::PromoteTier => "promote_tier",
        }
    }

    /// Stable wire code (packed into the slot's meta word).
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            LifecycleStage::ColdScanSelect => 0,
            LifecycleStage::ShardRoute => 1,
            LifecycleStage::Compress => 2,
            LifecycleStage::ZpoolStore => 3,
            LifecycleStage::Fault => 4,
            LifecycleStage::Retry => 5,
            LifecycleStage::Backoff => 6,
            LifecycleStage::Fetch => 7,
            LifecycleStage::Decompress => 8,
            LifecycleStage::Warmup => 9,
            LifecycleStage::ModeChange => 10,
            LifecycleStage::PrefetchIssue => 11,
            LifecycleStage::PrefetchHit => 12,
            LifecycleStage::Demote => 13,
            LifecycleStage::PromoteTier => 14,
        }
    }

    /// Inverse of [`LifecycleStage::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => LifecycleStage::ColdScanSelect,
            1 => LifecycleStage::ShardRoute,
            2 => LifecycleStage::Compress,
            3 => LifecycleStage::ZpoolStore,
            4 => LifecycleStage::Fault,
            5 => LifecycleStage::Retry,
            6 => LifecycleStage::Backoff,
            7 => LifecycleStage::Fetch,
            8 => LifecycleStage::Decompress,
            9 => LifecycleStage::Warmup,
            10 => LifecycleStage::ModeChange,
            11 => LifecycleStage::PrefetchIssue,
            12 => LifecycleStage::PrefetchHit,
            13 => LifecycleStage::Demote,
            14 => LifecycleStage::PromoteTier,
            _ => return None,
        })
    }
}

/// Why a lifecycle event ended the way it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Cause {
    /// Completed on the intended path.
    #[default]
    Ok,
    /// Executed on the NMA over the refresh side channel.
    NmaOffload,
    /// Fell back to the CPU (device rejected the offload).
    CpuFallback,
    /// A scheduled offload missed its refresh window (structural
    /// hazard) and was redone by the CPU.
    RefreshWindowMiss,
    /// The scratchpad memory could not hold the reservation.
    SpmExhausted,
    /// The request queue was full.
    QueueFull,
    /// The SFM region was full.
    RegionFull,
    /// Stored raw: the page did not compress under the threshold.
    StoredRaw,
    /// Same-filled page short-circuited the codec.
    SameFilled,
    /// An urgent op waited past its deadline and spilled.
    DeadlineSpill,
    /// A random access deferred by a subarray conflict.
    SubarrayConflict,
    /// A fault-injection hook fired at this point.
    FaultInjected,
    /// A stored block failed checksum verification at load.
    ChecksumMismatch,
    /// A transient failure was retried after backoff.
    Retry,
    /// Bounded retries were exhausted; the failure was surfaced.
    RetryExhausted,
    /// The degraded-mode state machine changed level here.
    Degraded,
}

impl Cause {
    /// Stable lowercase name (used in exposition).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Cause::Ok => "ok",
            Cause::NmaOffload => "nma_offload",
            Cause::CpuFallback => "cpu_fallback",
            Cause::RefreshWindowMiss => "refresh_window_miss",
            Cause::SpmExhausted => "spm_exhausted",
            Cause::QueueFull => "queue_full",
            Cause::RegionFull => "region_full",
            Cause::StoredRaw => "stored_raw",
            Cause::SameFilled => "same_filled",
            Cause::DeadlineSpill => "deadline_spill",
            Cause::SubarrayConflict => "subarray_conflict",
            Cause::FaultInjected => "fault_injected",
            Cause::ChecksumMismatch => "checksum_mismatch",
            Cause::Retry => "retry",
            Cause::RetryExhausted => "retry_exhausted",
            Cause::Degraded => "degraded",
        }
    }

    /// Stable wire code (packed into the slot's meta word).
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            Cause::Ok => 0,
            Cause::NmaOffload => 1,
            Cause::CpuFallback => 2,
            Cause::RefreshWindowMiss => 3,
            Cause::SpmExhausted => 4,
            Cause::QueueFull => 5,
            Cause::RegionFull => 6,
            Cause::StoredRaw => 7,
            Cause::SameFilled => 8,
            Cause::DeadlineSpill => 9,
            Cause::SubarrayConflict => 10,
            Cause::FaultInjected => 11,
            Cause::ChecksumMismatch => 12,
            Cause::Retry => 13,
            Cause::RetryExhausted => 14,
            Cause::Degraded => 15,
        }
    }

    /// Inverse of [`Cause::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Cause::Ok,
            1 => Cause::NmaOffload,
            2 => Cause::CpuFallback,
            3 => Cause::RefreshWindowMiss,
            4 => Cause::SpmExhausted,
            5 => Cause::QueueFull,
            6 => Cause::RegionFull,
            7 => Cause::StoredRaw,
            8 => Cause::SameFilled,
            9 => Cause::DeadlineSpill,
            10 => Cause::SubarrayConflict,
            11 => Cause::FaultInjected,
            12 => Cause::ChecksumMismatch,
            13 => Cause::Retry,
            14 => Cause::RetryExhausted,
            15 => Cause::Degraded,
            _ => return None,
        })
    }
}

/// One decoded lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleEvent {
    /// Global record sequence number (survives ring wrap).
    pub seq: u64,
    /// Page number the event concerns (0 when not page-scoped).
    pub page: u64,
    /// Which lifecycle stage.
    pub stage: LifecycleStage,
    /// Outcome / cause tag.
    pub cause: Cause,
    /// Shard that handled the page (`u32::MAX` when not sharded).
    pub shard: u32,
    /// Tenant the operation was billed to ([`TenantId::SYSTEM`] for
    /// internal and legacy context-free traffic). Decoded from the
    /// 8-bit wire code, so tenant ids above 255 alias to 255 here.
    pub tenant: TenantId,
    /// Stage-specific auxiliary datum (shard id, attempt number,
    /// degraded level — see [`LifecycleStage`] docs).
    pub aux: u64,
    /// Virtual (simulated) time at record, ns (0 when no clock is
    /// published).
    pub virt_ns: u64,
    /// Wall time at record, ns since the trail's construction.
    pub wall_ns: u64,
    /// Stage duration, wall ns (0 for instantaneous marks).
    pub dur_ns: u64,
}

/// Shard value for events that are not shard-scoped.
pub const NO_SHARD: u32 = u32::MAX;

/// Default lifecycle-trail capacity (events; rounded to a power of two).
pub const DEFAULT_LIFECYCLE_CAPACITY: usize = 4096;

#[derive(Debug)]
struct Slot {
    /// Seqlock version: `2 * generation` = stable, odd = write in
    /// progress. Writers for wrap generation `g` wait for `2 * g`.
    version: AtomicU64,
    seq: AtomicU64,
    page: AtomicU64,
    /// `stage << 48 | cause << 40 | tenant << 32 | shard` (shard in
    /// the low 32 bits, 8-bit tenant wire code above it).
    meta: AtomicU64,
    aux: AtomicU64,
    virt_ns: AtomicU64,
    wall_ns: AtomicU64,
    dur_ns: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Self {
            version: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            page: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            aux: AtomicU64::new(0),
            virt_ns: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
        }
    }
}

fn pack_meta(stage: LifecycleStage, cause: Cause, tenant: TenantId, shard: u32) -> u64 {
    (u64::from(stage.code()) << 48)
        | (u64::from(cause.code()) << 40)
        | (u64::from(tenant.code()) << 32)
        | u64::from(shard)
}

fn unpack_meta(meta: u64) -> Option<(LifecycleStage, Cause, TenantId, u32)> {
    let stage = LifecycleStage::from_code(((meta >> 48) & 0xff) as u8)?;
    let cause = Cause::from_code(((meta >> 40) & 0xff) as u8)?;
    let tenant = TenantId::from_code(((meta >> 32) & 0xff) as u8);
    #[allow(clippy::cast_possible_truncation)]
    let shard = meta as u32;
    Some((stage, cause, tenant, shard))
}

/// The lock-free, fixed-capacity page-lifecycle audit trail.
///
/// # Examples
///
/// ```
/// use xfm_telemetry::lifecycle::{LifecycleStage, LifecycleTrace, NO_SHARD};
/// use xfm_telemetry::Cause;
///
/// let trail = LifecycleTrace::with_capacity(64);
/// trail.record(LifecycleStage::Compress, Cause::Ok, 7, 0, 0, 1_800);
/// trail.record(LifecycleStage::ZpoolStore, Cause::Ok, 7, 0, 0, 300);
/// trail.record(LifecycleStage::Fault, Cause::Ok, 9, NO_SHARD, 0, 0);
/// let history = trail.page_history(7);
/// assert_eq!(history.len(), 2);
/// assert_eq!(history[0].stage, LifecycleStage::Compress);
/// assert_eq!(trail.recorded(), 3);
/// ```
#[derive(Debug)]
pub struct LifecycleTrace {
    slots: Vec<Slot>,
    /// `capacity - 1`; capacity is a power of two.
    mask: u64,
    /// `log2(capacity)` — shifts a cursor ticket to its wrap generation.
    shift: u32,
    cursor: AtomicU64,
    enabled: AtomicBool,
    clock: ClockMirror,
    epoch: Instant,
}

impl LifecycleTrace {
    /// A trail with the default capacity and a private clock mirror.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_LIFECYCLE_CAPACITY)
    }

    /// A trail retaining the most recent `capacity` events (rounded up
    /// to a power of two, minimum 2) with a private clock mirror.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_clock(capacity, ClockMirror::new())
    }

    /// A trail whose virtual timestamps read from `clock`.
    #[must_use]
    pub fn with_clock(capacity: usize, clock: ClockMirror) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(Slot::empty());
        }
        Self {
            slots,
            mask: capacity as u64 - 1,
            shift: capacity.trailing_zeros(),
            cursor: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            clock,
            epoch: Instant::now(),
        }
    }

    /// Retained-event capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The clock mirror virtual timestamps are read from. Simulation
    /// drivers publish to this after advancing their [`xfm_event::VirtualClock`].
    #[must_use]
    pub fn clock(&self) -> &ClockMirror {
        &self.clock
    }

    /// Enables or disables recording (reads stay available).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Events recorded so far (including evicted ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Events evicted by ring wrap-around.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Records one lifecycle event attributed to the system tenant.
    /// Lock-free and allocation-free: a cursor `fetch_add` plus eight
    /// atomic stores. The virtual timestamp reads the attached
    /// [`ClockMirror`]; the wall timestamp is nanoseconds since the
    /// trail's construction.
    pub fn record(
        &self,
        stage: LifecycleStage,
        cause: Cause,
        page: u64,
        shard: u32,
        aux: u64,
        dur_ns: u64,
    ) {
        self.record_for(stage, cause, TenantId::SYSTEM, page, shard, aux, dur_ns);
    }

    /// Records one lifecycle event billed to `tenant`. Same cost as
    /// [`LifecycleTrace::record`]: the tenant's 8-bit wire code packs
    /// into the slot's meta word, so attribution adds zero stores.
    #[allow(clippy::too_many_arguments)]
    pub fn record_for(
        &self,
        stage: LifecycleStage,
        cause: Cause,
        tenant: TenantId,
        page: u64,
        shard: u32,
        aux: u64,
        dur_ns: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        #[allow(clippy::cast_possible_truncation)]
        let idx = (ticket & self.mask) as usize;
        let generation = ticket >> self.shift;
        let slot = &self.slots[idx];
        let stable = generation.wrapping_mul(2);
        // Wait for the previous wrap generation's writer to finish. In
        // practice this never spins: a collision needs `capacity` other
        // records to land inside one ~30 ns slot write.
        while slot.version.load(Ordering::Acquire) != stable {
            std::hint::spin_loop();
        }
        slot.version.store(stable + 1, Ordering::SeqCst);
        std::sync::atomic::fence(Ordering::SeqCst);
        slot.seq.store(ticket, Ordering::Relaxed);
        slot.page.store(page, Ordering::Relaxed);
        slot.meta
            .store(pack_meta(stage, cause, tenant, shard), Ordering::Relaxed);
        slot.aux.store(aux, Ordering::Relaxed);
        slot.virt_ns.store(self.clock.now_ns(), Ordering::Relaxed);
        slot.wall_ns.store(
            u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::SeqCst);
        slot.version.store(stable + 2, Ordering::SeqCst);
    }

    /// Seqlock read of one slot; `None` when empty or torn.
    fn read_slot(&self, idx: usize) -> Option<LifecycleEvent> {
        let slot = &self.slots[idx];
        for _ in 0..4 {
            let v1 = slot.version.load(Ordering::SeqCst);
            if v1 == 0 || v1 % 2 == 1 {
                if v1 == 0 {
                    return None; // never written
                }
                std::hint::spin_loop();
                continue; // write in progress; retry
            }
            std::sync::atomic::fence(Ordering::SeqCst);
            let seq = slot.seq.load(Ordering::Relaxed);
            let page = slot.page.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let aux = slot.aux.load(Ordering::Relaxed);
            let virt_ns = slot.virt_ns.load(Ordering::Relaxed);
            let wall_ns = slot.wall_ns.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            std::sync::atomic::fence(Ordering::SeqCst);
            let v2 = slot.version.load(Ordering::SeqCst);
            if v1 != v2 {
                continue; // torn: overwritten while reading
            }
            let (stage, cause, tenant, shard) = unpack_meta(meta)?;
            return Some(LifecycleEvent {
                seq,
                page,
                stage,
                cause,
                shard,
                tenant,
                aux,
                virt_ns,
                wall_ns,
                dur_ns,
            });
        }
        None
    }

    /// Copies out the retained events, oldest first (by sequence
    /// number). Slots mid-write are skipped, so a snapshot taken under
    /// concurrent recording is consistent but possibly one event short
    /// per active writer.
    #[must_use]
    pub fn snapshot(&self) -> Vec<LifecycleEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for idx in 0..self.slots.len() {
            if let Some(ev) = self.read_slot(idx) {
                out.push(ev);
            }
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }

    /// The retained causal chain for one page, oldest first.
    #[must_use]
    pub fn page_history(&self, page: u64) -> Vec<LifecycleEvent> {
        self.snapshot()
            .into_iter()
            .filter(|e| e.page == page)
            .collect()
    }

    /// The most recent `n` retained events, oldest first.
    #[must_use]
    pub fn tail(&self, n: usize) -> Vec<LifecycleEvent> {
        let mut all = self.snapshot();
        let skip = all.len().saturating_sub(n);
        all.drain(..skip);
        all
    }
}

impl Default for LifecycleTrace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_and_reads_back_in_order() {
        let t = LifecycleTrace::with_capacity(16);
        t.record(LifecycleStage::ColdScanSelect, Cause::Ok, 1, 0, 0, 0);
        t.record(LifecycleStage::Compress, Cause::Ok, 1, 0, 0, 900);
        t.record(LifecycleStage::ZpoolStore, Cause::StoredRaw, 1, 0, 0, 120);
        let evs = t.snapshot();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].stage, LifecycleStage::ColdScanSelect);
        assert_eq!(evs[2].cause, Cause::StoredRaw);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(evs.windows(2).all(|w| w[0].wall_ns <= w[1].wall_ns));
    }

    #[test]
    fn wraps_and_keeps_newest() {
        let t = LifecycleTrace::with_capacity(4);
        for i in 0..11u64 {
            t.record(LifecycleStage::Fetch, Cause::Ok, i, 0, 0, 0);
        }
        let evs = t.snapshot();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            evs.iter().map(|e| e.page).collect::<Vec<_>>(),
            [7, 8, 9, 10]
        );
        assert_eq!(t.recorded(), 11);
        assert_eq!(t.dropped(), 7);
    }

    #[test]
    fn page_history_filters_and_orders() {
        let t = LifecycleTrace::with_capacity(32);
        for i in 0..4u64 {
            t.record(LifecycleStage::Compress, Cause::Ok, i % 2, 0, 0, 0);
            t.record(LifecycleStage::ZpoolStore, Cause::Ok, i % 2, 0, 0, 0);
        }
        let h = t.page_history(1);
        assert_eq!(h.len(), 4);
        assert!(h.iter().all(|e| e.page == 1));
        assert!(h.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn virtual_timestamps_follow_the_clock_mirror() {
        use xfm_types::Nanos;
        let t = LifecycleTrace::with_capacity(8);
        t.record(LifecycleStage::Fault, Cause::Ok, 5, 0, 0, 0);
        t.clock().publish(Nanos::from_us(7));
        t.record(LifecycleStage::Fetch, Cause::Ok, 5, 0, 0, 0);
        let h = t.page_history(5);
        assert_eq!(h[0].virt_ns, 0);
        assert_eq!(h[1].virt_ns, 7_000);
    }

    #[test]
    fn disabled_trail_records_nothing() {
        let t = LifecycleTrace::with_capacity(8);
        t.set_enabled(false);
        t.record(LifecycleStage::Fault, Cause::Ok, 1, 0, 0, 0);
        assert_eq!(t.recorded(), 0);
        assert!(t.snapshot().is_empty());
        t.set_enabled(true);
        t.record(LifecycleStage::Fault, Cause::Ok, 1, 0, 0, 0);
        assert_eq!(t.snapshot().len(), 1);
    }

    #[test]
    fn tail_returns_most_recent() {
        let t = LifecycleTrace::with_capacity(16);
        for i in 0..10u64 {
            t.record(LifecycleStage::Compress, Cause::Ok, i, 0, 0, 0);
        }
        let tail = t.tail(3);
        assert_eq!(tail.iter().map(|e| e.page).collect::<Vec<_>>(), [7, 8, 9]);
    }

    #[test]
    fn meta_packing_round_trips() {
        for stage_code in 0..15u8 {
            let stage = LifecycleStage::from_code(stage_code).unwrap();
            assert_eq!(stage.code(), stage_code);
            for cause_code in 0..16u8 {
                let cause = Cause::from_code(cause_code).unwrap();
                for tenant in [TenantId::SYSTEM, TenantId::new(3), TenantId::new(255)] {
                    let meta = pack_meta(stage, cause, tenant, 0xdead_beef);
                    assert_eq!(unpack_meta(meta), Some((stage, cause, tenant, 0xdead_beef)));
                }
            }
        }
        assert_eq!(LifecycleStage::from_code(15), None);
    }

    #[test]
    fn cause_names_and_codes_are_stable() {
        assert_eq!(LifecycleStage::ZpoolStore.name(), "zpool_store");
        assert_eq!(Cause::RefreshWindowMiss.name(), "refresh_window_miss");
        for code in 0..16u8 {
            let cause = Cause::from_code(code).unwrap();
            assert_eq!(cause.code(), code);
        }
        assert_eq!(Cause::from_code(16), None);
    }

    #[test]
    fn events_carry_their_tenant() {
        let t = LifecycleTrace::with_capacity(8);
        t.record(LifecycleStage::Compress, Cause::Ok, 1, 0, 0, 0);
        t.record_for(
            LifecycleStage::Fault,
            Cause::Ok,
            TenantId::new(9),
            1,
            0,
            0,
            0,
        );
        let h = t.page_history(1);
        assert_eq!(h[0].tenant, TenantId::SYSTEM);
        assert_eq!(h[1].tenant, TenantId::new(9));
    }

    #[test]
    fn concurrent_writers_wrap_without_corruption() {
        // The seqlock ring under 8 concurrent writers: every decoded
        // event must be internally consistent (valid stage/cause, page
        // matching its writer-encoded seq), and accounting must hold.
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 4_000;
        let t = Arc::new(LifecycleTrace::with_capacity(64));
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        let page = w * PER_WRITER + i;
                        // aux mirrors page so torn payloads are detectable.
                        t.record(LifecycleStage::Compress, Cause::Ok, page, 0, page, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.recorded(), WRITERS * PER_WRITER);
        let evs = t.snapshot();
        assert_eq!(evs.len(), t.capacity());
        let mut seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), evs.len(), "duplicate seq => torn slot");
        for e in &evs {
            assert_eq!(e.aux, e.page, "payload words from different writers");
            assert!(e.seq < WRITERS * PER_WRITER);
        }
    }
}
