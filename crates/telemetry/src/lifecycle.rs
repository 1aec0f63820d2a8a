//! The page-lifecycle audit trail: the stack's one event ring.
//!
//! Every instrumented step of the swap path records exactly one
//! [`LifecycleEvent`] here — cold-scan select → shard route → compress
//! → zpool-store → fault → retry/backoff → fetch → decompress,
//! plus tier moves, prefetches and degraded-mode transitions — tagged
//! with a [`Cause`] so fallbacks, refresh-window misses and capacity
//! rejections are attributable after the fact without log scraping.
//! There is one recording call, [`LifecycleTrace::record`], and it takes
//! the tenant the operation is billed to: a plane names the owner of
//! the page it is moving, internal traffic names [`TenantId::SYSTEM`].
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
//! Each stage and cause is declared once, next to its name, and its wire
//! code is its declaration index ([`xfm_types::wire_enum!`]). An event
//! has one JSON shape — `seq`, `stage`, `cause`, `tenant`, `page`,
//! `shard`, `aux`, `virt_ns`, `dur_ns` — written and checked in one
//! place ([`crate::export`]) and shared by the [`crate::Snapshot`]
//! `events`, the flight recorder's post-mortem ([`crate::flight`], which
//! adds `wall_ns`) and the Chrome `trace_event` export's `args`
//! ([`crate::chrome`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use xfm_event::ClockMirror;
use xfm_types::TenantId;

xfm_types::wire_enum! {
    /// A stage in a page's lifecycle through the SFM: the swap path proper
    /// plus routing decisions, retry/backoff loops, scratch warm-up, tier
    /// moves and degraded-mode transitions. Its code is the stage byte of
    /// a slot's meta word.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum LifecycleStage (code, from_code) {
        /// Cold-page scan selected this page for demotion (aux = idle ns),
        /// or — with `page` 0 — one control-plane scan pass finished
        /// (aux = cold pages found).
        ColdScanSelect = "cold_scan_select",
        /// The page was routed to a shard (aux = shard id).
        ShardRoute = "shard_route",
        /// Page compression (CPU codec or NMA engine).
        Compress = "compress",
        /// Compressed bytes stored into the zpool.
        ZpoolStore = "zpool_store",
        /// Demand fault on a far-memory page.
        Fault = "fault",
        /// A transient failure triggered a retry (aux = attempt number).
        Retry = "retry",
        /// A retry backoff wait (dur = simulated backoff).
        Backoff = "backoff",
        /// Compressed bytes fetched from the zpool.
        Fetch = "fetch",
        /// Page decompression back to 4 KiB.
        Decompress = "decompress",
        /// Codec scratch pre-warm at backend construction.
        Warmup = "warmup",
        /// The degraded-mode state machine changed level (aux = new level).
        ModeChange = "mode_change",
        /// A speculative swap-in was issued for this page (aux = batch size).
        PrefetchIssue = "prefetch_issue",
        /// A demand fault was served from the prefetch staging cache
        /// (aux = staged-page age in pump rounds).
        PrefetchHit = "prefetch_hit",
        /// A page moved down a tier — stale prefetch write-back or
        /// capacity-driven eviction to a colder plane
        /// (aux = `plane_id << 8 | placement_class_code` for tier moves,
        /// staged-page age for prefetch write-backs).
        Demote = "demote",
        /// A demand fault pulled a page up from a colder tier
        /// (aux = `plane_id << 8 | placement_class_code` of the source).
        PromoteTier = "promote_tier",
        /// A demand fault decoded a block and kept its entry stored and
        /// billed — zswap's non-exclusive load (aux = stored length).
        Load = "load",
        /// An entry was invalidated with no decode: checksum verified,
        /// bytes credited back (aux = stored length).
        Discard = "discard",
        /// A serve-layer get that took its tenant's lock finished
        /// (aux = 1 when it faulted, dur = its latency). Hits record
        /// nothing.
        Get = "get",
        /// A serve-layer put finished (aux = pages it demoted, dur = its
        /// latency).
        Put = "put",
        /// One layer of the operation on this page (aux = the
        /// [`crate::path::Layer`] code, dur = the time in it).
        Span = "span",
        /// The operation on this page demoted a victim through its plane
        /// (aux = the victim's page, dur = the plane call).
        Evict = "evict",
    }
}

xfm_types::wire_enum! {
    /// Why a lifecycle event ended the way it did. Its code is the cause
    /// byte of a slot's meta word.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum Cause (code, from_code) {
        /// Completed on the intended path.
        #[default]
        Ok = "ok",
        /// Executed on the NMA over the refresh side channel.
        NmaOffload = "nma_offload",
        /// Fell back to the CPU (device rejected the offload).
        CpuFallback = "cpu_fallback",
        /// A scheduled offload missed its refresh window (structural
        /// hazard) and was redone by the CPU.
        RefreshWindowMiss = "refresh_window_miss",
        /// The scratchpad memory could not hold the reservation.
        SpmExhausted = "spm_exhausted",
        /// The request queue was full.
        QueueFull = "queue_full",
        /// The SFM region was full.
        RegionFull = "region_full",
        /// Stored raw: the page did not compress under the threshold.
        StoredRaw = "stored_raw",
        /// Same-filled page short-circuited the codec.
        SameFilled = "same_filled",
        /// An urgent op waited past its deadline and spilled.
        DeadlineSpill = "deadline_spill",
        /// A random access deferred by a subarray conflict.
        SubarrayConflict = "subarray_conflict",
        /// A fault-injection hook fired at this point.
        FaultInjected = "fault_injected",
        /// A stored block failed checksum verification at load.
        ChecksumMismatch = "checksum_mismatch",
        /// A transient failure was retried after backoff.
        Retry = "retry",
        /// Bounded retries were exhausted; the failure was surfaced.
        RetryExhausted = "retry_exhausted",
        /// The degraded-mode state machine changed level here.
        Degraded = "degraded",
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
/// use xfm_types::TenantId;
///
/// let (trail, tenant) = (LifecycleTrace::with_capacity(64), TenantId::new(3));
/// trail.record(LifecycleStage::Compress, Cause::Ok, tenant, 7, 0, 0, 1_800);
/// trail.record(LifecycleStage::ZpoolStore, Cause::Ok, tenant, 7, 0, 0, 300);
/// trail.record(LifecycleStage::Fault, Cause::Ok, TenantId::SYSTEM, 9, NO_SHARD, 0, 0);
/// let history = trail.page_history(7);
/// assert_eq!(history.len(), 2);
/// assert_eq!((history[0].stage, history[0].tenant), (LifecycleStage::Compress, tenant));
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
    clock: ClockMirror,
    epoch: Instant,
}

impl LifecycleTrace {
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
            clock,
            epoch: Instant::now(),
        }
    }

    /// The clock mirror virtual timestamps are read from. Simulation
    /// drivers publish their virtual time to it as they advance.
    #[must_use]
    pub fn clock(&self) -> &ClockMirror {
        &self.clock
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

    /// Records one lifecycle event billed to `tenant` — the one
    /// recording call; internal traffic names [`TenantId::SYSTEM`].
    /// Lock-free and allocation-free: a cursor `fetch_add` plus eight
    /// atomic stores (the tenant's 8-bit wire code packs into the meta
    /// word). The virtual timestamp reads the attached [`ClockMirror`];
    /// the wall timestamp is nanoseconds since the trail's construction.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        stage: LifecycleStage,
        cause: Cause,
        tenant: TenantId,
        page: u64,
        shard: u32,
        aux: u64,
        dur_ns: u64,
    ) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use LifecycleStage::{ColdScanSelect, Compress, Fault, Fetch, ZpoolStore};

    const SYS: TenantId = TenantId::SYSTEM;

    #[test]
    fn records_and_reads_back_in_order() {
        let t = LifecycleTrace::with_capacity(16);
        t.record(ColdScanSelect, Cause::Ok, SYS, 1, 0, 0, 0);
        t.record(Compress, Cause::Ok, SYS, 1, 0, 0, 900);
        t.record(ZpoolStore, Cause::StoredRaw, SYS, 1, 0, 0, 120);
        let evs = t.snapshot();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].stage, ColdScanSelect);
        assert_eq!(evs[2].cause, Cause::StoredRaw);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(evs.windows(2).all(|w| w[0].wall_ns <= w[1].wall_ns));
    }

    #[test]
    fn wraps_and_keeps_newest() {
        let t = LifecycleTrace::with_capacity(4);
        for i in 0..11u64 {
            t.record(Fetch, Cause::Ok, SYS, i, 0, 0, 0);
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
            t.record(Compress, Cause::Ok, SYS, i % 2, 0, 0, 0);
            t.record(ZpoolStore, Cause::Ok, SYS, i % 2, 0, 0, 0);
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
        t.record(Fault, Cause::Ok, SYS, 5, 0, 0, 0);
        t.clock().publish(Nanos::from_us(7));
        t.record(Fetch, Cause::Ok, SYS, 5, 0, 0, 0);
        let h = t.page_history(5);
        assert_eq!(h[0].virt_ns, 0);
        assert_eq!(h[1].virt_ns, 7_000);
    }

    #[test]
    fn tail_returns_most_recent() {
        let t = LifecycleTrace::with_capacity(16);
        for i in 0..10u64 {
            t.record(Compress, Cause::Ok, SYS, i, 0, 0, 0);
        }
        let tail = t.tail(3);
        assert_eq!(tail.iter().map(|e| e.page).collect::<Vec<_>>(), [7, 8, 9]);
    }

    #[test]
    fn meta_packing_round_trips() {
        for stage_code in 0..21u8 {
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
        assert_eq!(LifecycleStage::from_code(21), None);
    }

    /// The ring's stage bytes and every export's stage names: a table
    /// reorder that renumbers them fails here, not in a reader.
    #[test]
    fn stage_names_and_codes_are_stable() {
        use LifecycleStage::*;
        let pinned = [
            (ColdScanSelect, 0, "cold_scan_select"),
            (ShardRoute, 1, "shard_route"),
            (Compress, 2, "compress"),
            (ZpoolStore, 3, "zpool_store"),
            (Fault, 4, "fault"),
            (Retry, 5, "retry"),
            (Backoff, 6, "backoff"),
            (Fetch, 7, "fetch"),
            (Decompress, 8, "decompress"),
            (Warmup, 9, "warmup"),
            (ModeChange, 10, "mode_change"),
            (PrefetchIssue, 11, "prefetch_issue"),
            (PrefetchHit, 12, "prefetch_hit"),
            (Demote, 13, "demote"),
            (PromoteTier, 14, "promote_tier"),
            (Load, 15, "load"),
            (Discard, 16, "discard"),
            (Get, 17, "get"),
            (Put, 18, "put"),
            (Span, 19, "span"),
            (Evict, 20, "evict"),
        ];
        for (stage, code, name) in pinned {
            assert_eq!((stage.code(), stage.name()), (code, name));
            assert_eq!(LifecycleStage::from_code(code), Some(stage));
        }
        assert_eq!(LifecycleStage::from_code(21), None);
    }

    /// The ring's cause bytes and every export's cause names.
    #[test]
    fn cause_names_and_codes_are_stable() {
        use Cause::*;
        let pinned = [
            (Ok, 0, "ok"),
            (NmaOffload, 1, "nma_offload"),
            (CpuFallback, 2, "cpu_fallback"),
            (RefreshWindowMiss, 3, "refresh_window_miss"),
            (SpmExhausted, 4, "spm_exhausted"),
            (QueueFull, 5, "queue_full"),
            (RegionFull, 6, "region_full"),
            (StoredRaw, 7, "stored_raw"),
            (SameFilled, 8, "same_filled"),
            (DeadlineSpill, 9, "deadline_spill"),
            (SubarrayConflict, 10, "subarray_conflict"),
            (FaultInjected, 11, "fault_injected"),
            (ChecksumMismatch, 12, "checksum_mismatch"),
            (Retry, 13, "retry"),
            (RetryExhausted, 14, "retry_exhausted"),
            (Degraded, 15, "degraded"),
        ];
        for (cause, code, name) in pinned {
            assert_eq!((cause.code(), cause.name()), (code, name));
            assert_eq!(Cause::from_code(code), Some(cause));
        }
        assert_eq!(Cause::from_code(16), None);
    }

    #[test]
    fn events_carry_their_tenant() {
        let t = LifecycleTrace::with_capacity(8);
        t.record(Compress, Cause::Ok, SYS, 1, 0, 0, 0);
        t.record(Fault, Cause::Ok, TenantId::new(9), 1, 0, 0, 0);
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
        const CAPACITY: usize = 64;
        let t = Arc::new(LifecycleTrace::with_capacity(CAPACITY));
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        let page = w * PER_WRITER + i;
                        // aux mirrors page so torn payloads are detectable.
                        t.record(Compress, Cause::Ok, SYS, page, 0, page, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.recorded(), WRITERS * PER_WRITER);
        let evs = t.snapshot();
        assert_eq!(evs.len(), CAPACITY);
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
