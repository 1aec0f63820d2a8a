//! The one local compressed store.
//!
//! A [`PageStore`] is a zpool and the entry table over it — zswap's
//! `zpool` plus the entry tree (`crate::table`, private to this crate) —
//! with the three steps every invariant of the local plane hangs on:
//!
//! - [`store`](PageStore::store) a block: budget check, compact once
//!   when the region is full, allocate, checksum, insert. A refusal is
//!   counted in `rejected_full` and explained on the trail;
//! - [`fetch`](PageStore::fetch) it verified: table, arena slice,
//!   checksum of the bytes as fetched. A mismatch leaves entry and slot
//!   untouched, so the error is retryable. [`fetch_into`](PageStore::fetch_into)
//!   is the same check on a copy of the block in the caller's buffer,
//!   for a plane that decodes with the store's lock released;
//! - [`consume`](PageStore::consume) it: remove, free, and credit the
//!   owner recorded at store time exactly once, whatever the decode
//!   verdict was.
//!
//! A fetch that is not followed by a consume is a *kept load*
//! ([`finish_load`](PageStore::finish_load)): the entry stays stored and
//! billed. A verify followed by a consume with no decode in between is a
//! [`discard`](PageStore::discard), zswap's invalidate.
//!
//! It is the only place that pairs a [`Zpool`] with an entry table, and
//! the one place a finished swap is booked
//! ([`record_swap_out`](PageStore::record_swap_out),
//! [`record_swap_in`](PageStore::record_swap_in),
//! [`finish_load`](PageStore::finish_load), `discard`: tallies,
//! swap-path series, trail events). The store holds bytes and a
//! [`CodecKind`] and runs no codec, nor holds codec state: what
//! compresses a page, with which scratch, whether an
//! accelerator is told about it and what cause its events carry is the
//! policy of the plane in front — [`crate::ShardedSfm`] is N stores
//! behind N mutexes sharing one [`RegionBudget`], `xfm-core`'s
//! `XfmBackend` is one store behind its mutex.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xfm_compress::{CodecKind, CostModel};
use xfm_faults::{FaultInjector, FaultSite};
use xfm_telemetry::swap_metrics::Stopwatch;
use xfm_telemetry::tenant_metrics::TenantSeries;
use xfm_telemetry::{Cause, LifecycleStage, SwapMetrics, TenantMetrics};
use xfm_types::{ByteSize, Cycles, Error, PageNumber, Result, TenantId, PAGE_SIZE};

use crate::backend::{BackendStats, ExecutedOn, SwapOutcome};
use crate::table::{SfmEntry, SfmTable};
use crate::zpool::{CompactReport, Zpool, ZpoolStats};

/// The capacity of one compressed region, shared by every store carved
/// out of it: growth of any store's pool is checked against the host
/// pages all of them hold, so fragmentation in one cannot strand budget
/// another needs. Stores on different threads may overshoot by one host
/// page each (the check and the growth are not one atomic step);
/// single-threaded use is exact.
#[derive(Debug)]
pub struct RegionBudget {
    capacity: ByteSize,
    host_pages: AtomicU64,
}

impl RegionBudget {
    /// A budget of `capacity` bytes of host pages.
    #[must_use]
    pub fn new(capacity: ByteSize) -> Arc<Self> {
        Arc::new(Self {
            capacity,
            host_pages: AtomicU64::new(0),
        })
    }
}

/// Whom a block is billed to: the tenant and, on a plane with telemetry
/// attached, the handle of its ledger series. Looking that handle up
/// ([`TenantMetrics::series`]) is a mutex and a map lookup, so the plane
/// builds the `Owner` *before* it takes the store's lock, and the entry
/// carries it from [`PageStore::store`] to [`PageStore::consume`].
#[derive(Debug, Clone)]
pub struct Owner {
    /// The tenant billed.
    pub tenant: TenantId,
    ledger: Option<Arc<TenantSeries>>,
}

impl Owner {
    /// `tenant`, with its series in `tenants` when the plane has any.
    #[must_use]
    pub fn new(tenant: TenantId, tenants: Option<&TenantMetrics>) -> Self {
        Self {
            tenant,
            ledger: tenants.map(|t| t.series(tenant)),
        }
    }
}

/// Where the store explains itself: the registry's lifecycle trail,
/// with the shard label its events carry.
struct Trail {
    swap: SwapMetrics,
    shard: u32,
}

impl Trail {
    /// The execution counter `outcome` belongs to.
    fn executions(&self, outcome: &SwapOutcome) -> &xfm_telemetry::Counter {
        match outcome.executed_on {
            ExecutedOn::Cpu => &self.swap.cpu_executions,
            ExecutedOn::Nma => &self.swap.nma_executions,
        }
    }

    /// The series and events of a restored block, swap-in or kept load:
    /// `stage` (`Fault` or `Load`) with the whole time, `Fetch`, and a
    /// `Decompress` unless the block needed no codec.
    #[allow(clippy::too_many_arguments)]
    fn restored(
        &self,
        stage: LifecycleStage,
        cause: Cause,
        tenant: TenantId,
        page: PageNumber,
        codec: CodecKind,
        len: u32,
        [fetch_ns, decompress_ns, total_ns]: [u64; 3],
    ) {
        let cause = match codec {
            CodecKind::SameFilled => Cause::SameFilled,
            CodecKind::Raw => Cause::StoredRaw,
            _ => cause,
        };
        let event = |stage, cause, dur_ns| {
            let (trail, page, len) = (self.swap.lifecycle(), page.index(), u64::from(len));
            trail.record(stage, cause, tenant, page, self.shard, len, dur_ns);
        };
        self.swap.zpool_load_ns.record(fetch_ns);
        self.swap.swap_in_ns.record(total_ns);
        event(stage, cause, total_ns);
        event(LifecycleStage::Fetch, Cause::Ok, fetch_ns);
        if !matches!(codec, CodecKind::SameFilled | CodecKind::Raw) {
            self.swap.decompress_ns.record(decompress_ns);
            event(LifecycleStage::Decompress, cause, decompress_ns);
        }
    }
}

/// A zpool and the entry table over it. See the [module docs](self).
pub struct PageStore {
    pool: Zpool,
    table: SfmTable,
    /// Outcome tallies, booked by [`record_swap_out`](Self::record_swap_out)
    /// and [`record_swap_in`](Self::record_swap_in); `rejected_full` and
    /// `stored_raw` are the store's own.
    stats: BackendStats,
    budget: Arc<RegionBudget>,
    /// Sequence number of the next stored block: an entry keeps its own,
    /// so a load finished after the lock was released can tell its block
    /// from a replacement stored under the same page in the meantime.
    next_seq: u64,
    /// Host pages this store's pool holds, mirrored into the budget on
    /// every pool mutation.
    host_pages: u64,
    faults: Option<Arc<FaultInjector>>,
    trail: Option<Trail>,
}

/// Receipt of a [`PageStore::store`].
pub struct Stored {
    page: PageNumber,
    /// The owner, its ledger already debited `len` bytes.
    owner: Owner,
    kind: CodecKind,
    /// Stored length in bytes.
    pub len: u32,
    /// DDR traffic of the compaction copies this store caused (read +
    /// write of every moved byte); zero when the region had room.
    pub extra_ddr: ByteSize,
    /// Wall time of the store; zero when no telemetry is attached.
    store_ns: u64,
}

impl Stored {
    /// The outcome when the host encoded the block: one scan of the
    /// page for a same-filled block, `cost`'s compression otherwise
    /// (spent even when the page was then stored raw); cold page read +
    /// block write, plus any compaction copies, on the DDR channel.
    #[must_use]
    pub fn cpu_outcome(&self, cost: &CostModel) -> SwapOutcome {
        SwapOutcome {
            executed_on: ExecutedOn::Cpu,
            compressed_len: self.len,
            cpu_cycles: match self.kind {
                CodecKind::SameFilled => Cycles::new(PAGE_SIZE as u64),
                _ => cost.compress_cycles(PAGE_SIZE as u64),
            },
            ddr_bytes: ByteSize::from_bytes(PAGE_SIZE as u64 + u64::from(self.len))
                + self.extra_ddr,
        }
    }
}

/// Receipt of a [`PageStore::consume`].
pub struct Consumed {
    page: PageNumber,
    /// The owner, its ledger already credited `len` bytes.
    pub owner: Owner,
    codec: CodecKind,
    /// Length of the consumed block.
    pub len: u32,
}

impl Consumed {
    /// The outcome when the host restored the page: one pass for a
    /// same-filled block, nothing for a raw copy, `cost`'s decompression
    /// otherwise; compressed read + restored page write on the channel.
    #[must_use]
    pub fn cpu_outcome(&self, cost: &CostModel) -> SwapOutcome {
        restore_outcome(self.codec, self.len, cost)
    }
}

/// [`Consumed::cpu_outcome`] of a `len`-byte `codec` block, consumed or
/// not: a kept load costs what a swap-in does.
fn restore_outcome(codec: CodecKind, len: u32, cost: &CostModel) -> SwapOutcome {
    SwapOutcome {
        executed_on: ExecutedOn::Cpu,
        compressed_len: len,
        cpu_cycles: match codec {
            CodecKind::SameFilled => Cycles::new(PAGE_SIZE as u64),
            CodecKind::Raw => Cycles::ZERO,
            _ => cost.decompress_cycles(PAGE_SIZE as u64),
        },
        ddr_bytes: ByteSize::from_bytes(u64::from(len) + PAGE_SIZE as u64),
    }
}

/// A block that passed its checksum: borrowed straight out of the
/// pool's arena by [`PageStore::fetch`], or the caller's copy inside a
/// [`Copied`].
pub struct Fetched<'a> {
    codec: CodecKind,
    /// The stored bytes.
    pub bytes: &'a [u8],
    /// Wall time of the table lookup and arena load (and copy); zero
    /// when no telemetry is attached.
    pub load_ns: u64,
}

impl Fetched<'_> {
    /// Restores the page into `out` (cleared first). Same-filled and
    /// raw blocks need no codec; any other block goes to `decode`,
    /// which appends to `out`. A decode that fails or yields anything
    /// but one page is [`Error::Corrupt`].
    ///
    /// # Errors
    ///
    /// `decode`'s own error, or [`Error::Corrupt`] on a wrong length.
    pub fn restore(
        &self,
        page: PageNumber,
        out: &mut Vec<u8>,
        decode: impl FnOnce(&[u8], &mut Vec<u8>) -> Result<()>,
    ) -> Result<()> {
        out.clear();
        match self.codec {
            CodecKind::SameFilled => out.resize(PAGE_SIZE, self.bytes[0]),
            CodecKind::Raw => out.extend_from_slice(self.bytes),
            _ => decode(self.bytes, out)?,
        }
        if out.len() != PAGE_SIZE {
            return Err(Error::Corrupt(format!(
                "page {page} restored to {} bytes",
                out.len()
            )));
        }
        Ok(())
    }
}

/// A block that passed its checksum, copied out of the pool by
/// [`PageStore::fetch_into`] so that it can be decoded with no lock
/// held. It remembers which entry it came from:
/// [`PageStore::finish_load`] books a kept load against that entry only.
pub struct Copied<'a> {
    /// The copy, in the caller's buffer.
    pub block: Fetched<'a>,
    page: PageNumber,
    owner: Owner,
    len: u32,
    /// The entry's store sequence number.
    seq: u64,
}

impl PageStore {
    /// An empty store drawing on `budget`.
    #[must_use]
    pub fn new(budget: Arc<RegionBudget>) -> Self {
        Self {
            // The pool's own limit is the whole region; the shared
            // budget is what actually bounds growth.
            pool: Zpool::new(budget.capacity),
            table: SfmTable::new(),
            stats: BackendStats::default(),
            budget,
            next_seq: 0,
            host_pages: 0,
            faults: None,
            trail: None,
        }
    }

    /// Explains refusals and checksum mismatches on `swap`'s trail
    /// (events carry `shard`). The byte ledger is each block's
    /// [`Owner`]'s.
    pub fn attach_telemetry(&mut self, swap: SwapMetrics, shard: u32) {
        self.trail = Some(Trail { swap, shard });
    }

    /// Arms the `zpool_store_failure` and `bit_corruption` sites.
    pub fn attach_faults(&mut self, faults: Arc<FaultInjector>) {
        self.faults = Some(faults);
    }

    /// Whether `page` is resident.
    #[must_use]
    pub fn contains(&self, page: PageNumber) -> bool {
        self.table.contains(page)
    }

    /// Resident pages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no page is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The tenant billed for `page`'s resident block.
    #[must_use]
    pub fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        self.table.get(page).map(|e| e.owner.tenant)
    }

    /// Stored bytes per owning tenant, sorted by tenant id. Derived from
    /// the resident entries, so the sum equals `pool_stats().stored_bytes`.
    #[must_use]
    pub fn tenant_bytes(&self) -> Vec<(TenantId, u64)> {
        self.table.tenant_bytes()
    }

    /// Zpool-level statistics.
    #[must_use]
    pub fn pool_stats(&self) -> ZpoolStats {
        self.pool.stats()
    }

    /// Compacts the pool, returning host pages to the budget.
    pub fn compact(&mut self) -> CompactReport {
        let report = self.pool.compact();
        self.sync_budget();
        report
    }

    /// Whether storing `len` bytes would grow the pool past the budget.
    fn would_overflow(&self, len: usize) -> bool {
        self.pool.would_grow(len)
            && (self.budget.host_pages.load(Ordering::Relaxed) + 1) * PAGE_SIZE as u64
                > self.budget.capacity.as_bytes()
    }

    /// Mirrors the pool's host-page count into the budget.
    fn sync_budget(&mut self) {
        let now = self.pool.stats().host_pages;
        let prev = std::mem::replace(&mut self.host_pages, now);
        if now >= prev {
            self.budget
                .host_pages
                .fetch_add(now - prev, Ordering::Relaxed);
        } else {
            self.budget
                .host_pages
                .fetch_sub(prev - now, Ordering::Relaxed);
        }
    }

    /// Stores `bytes` (a compressed block, a raw page, or a same-filled
    /// page's one byte — `codec` says which) under `page`, billed to
    /// `owner` until the entry is consumed. When the budget is hit the
    /// pool is compacted once and the store retried (the paper's
    /// swapOut() "initiates an internal compaction operation if the SFM
    /// capacity limit is hit").
    ///
    /// # Errors
    ///
    /// - [`Error::EntryExists`] if `page` is already resident;
    /// - [`Error::SfmRegionFull`] if the region cannot hold the block
    ///   even after compaction, or the injected store failure fired:
    ///   counted in `stats.rejected_full`, left on the trail as a
    ///   `ZpoolStore`/`RegionFull` event, and nothing was stored.
    pub fn store(
        &mut self,
        owner: Owner,
        page: PageNumber,
        bytes: &[u8],
        codec: CodecKind,
    ) -> Result<Stored> {
        if self.contains(page) {
            return Err(Error::EntryExists { page: page.index() });
        }
        let sw = self.trail.as_ref().map(|_| Stopwatch::start());
        let mut extra_ddr = ByteSize::ZERO;
        let mut full = self.would_overflow(bytes.len());
        if full {
            extra_ddr += self.compact().moved_bytes * 2; // memcpy: read + write
            full = self.would_overflow(bytes.len());
        }
        let placed = if full {
            Err(Error::SfmRegionFull)
        } else {
            self.pool.alloc_faulted(bytes, self.faults.as_deref())
        };
        let handle = match placed {
            Ok(handle) => handle,
            Err(e) => {
                if matches!(e, Error::SfmRegionFull) {
                    self.stats.rejected_full += 1;
                    if let Some(t) = &self.trail {
                        t.swap.lifecycle().record(
                            LifecycleStage::ZpoolStore,
                            Cause::RegionFull,
                            owner.tenant,
                            page.index(),
                            t.shard,
                            bytes.len() as u64,
                            sw.map_or(0, |s| s.elapsed_ns()),
                        );
                    }
                }
                return Err(e);
            }
        };
        self.sync_budget();
        let len = bytes.len() as u32;
        self.table.insert(
            page,
            SfmEntry {
                handle,
                compressed_len: len,
                codec,
                checksum: xfm_faults::checksum(bytes),
                owner: owner.clone(),
                seq: self.next_seq,
            },
        )?;
        self.next_seq += 1;
        if codec == CodecKind::Raw {
            self.stats.stored_raw += 1;
        }
        if let Some(ts) = &owner.ledger {
            ts.bytes_stored.add(u64::from(len));
        }
        Ok(Stored {
            page,
            owner,
            kind: codec,
            len,
            extra_ddr,
            store_ns: sw.map_or(0, |s| s.elapsed_ns()),
        })
    }

    /// Fetches `page`'s block and verifies it. The checksum covers the
    /// bytes as fetched — an injected flip models in-transit corruption
    /// — so on a mismatch the stored copy is still pristine: entry and
    /// slot stay untouched and a retry re-reads them.
    ///
    /// # Errors
    ///
    /// - [`Error::EntryNotFound`] if `page` is not resident;
    /// - [`Error::ChecksumMismatch`] (retryable), left on the trail as
    ///   a `Fault`/`ChecksumMismatch` event billed to the entry's owner.
    pub fn fetch(&mut self, page: PageNumber) -> Result<Fetched<'_>> {
        let sw = self.trail.as_ref().map(|_| Stopwatch::start());
        let entry = self
            .table
            .get(page)
            .ok_or(Error::EntryNotFound { page: page.index() })?;
        let bytes = self.pool.get(entry.handle)?;
        let load_ns = sw.map_or(0, |s| s.elapsed_ns());
        self.verify(page, entry, bytes, load_ns)?;
        Ok(Fetched {
            codec: entry.codec,
            bytes,
            load_ns,
        })
    }

    /// [`fetch`](Self::fetch) into `buf`: the block is copied out of the
    /// arena (`buf` is cleared first; a block is at most a page, so a
    /// buffer with a page's capacity never grows) and the copy verified,
    /// so the caller can release the store's lock before it decodes.
    /// Nothing is consumed.
    ///
    /// # Errors
    ///
    /// Those of [`fetch`](Self::fetch), with the same guarantees.
    pub fn fetch_into<'b>(&mut self, page: PageNumber, buf: &'b mut Vec<u8>) -> Result<Copied<'b>> {
        let sw = self.trail.as_ref().map(|_| Stopwatch::start());
        let entry = self
            .table
            .get(page)
            .ok_or(Error::EntryNotFound { page: page.index() })?;
        buf.clear();
        buf.extend_from_slice(self.pool.get(entry.handle)?);
        let load_ns = sw.map_or(0, |s| s.elapsed_ns());
        self.verify(page, entry, buf, load_ns)?;
        Ok(Copied {
            block: Fetched {
                codec: entry.codec,
                bytes: buf,
                load_ns,
            },
            page,
            owner: entry.owner.clone(),
            len: entry.compressed_len,
            seq: entry.seq,
        })
    }

    /// Checks `bytes`, `entry`'s block as fetched, against the checksum
    /// recorded at store time, after the armed `bit_corruption` site
    /// flipped a bit of them in transit.
    fn verify(&self, page: PageNumber, entry: &SfmEntry, bytes: &[u8], load_ns: u64) -> Result<()> {
        let got = match self
            .faults
            .as_deref()
            .and_then(|f| f.fire_value(FaultSite::BitCorruption))
        {
            Some(v) => {
                let mut fetched = bytes.to_vec();
                let bit = (v % (fetched.len() as u64 * 8)) as usize;
                fetched[bit / 8] ^= 1 << (bit % 8);
                xfm_faults::checksum(&fetched)
            }
            None => xfm_faults::checksum(bytes),
        };
        if got == entry.checksum {
            return Ok(());
        }
        if let Some(t) = &self.trail {
            t.swap.lifecycle().record(
                LifecycleStage::Fault,
                Cause::ChecksumMismatch,
                entry.owner.tenant,
                page.index(),
                t.shard,
                u64::from(entry.compressed_len),
                load_ns,
            );
        }
        Err(Error::ChecksumMismatch {
            page: page.index(),
            expected: entry.checksum,
            got,
        })
    }

    /// Consumes `page`'s entry: table remove, slot free, stored bytes
    /// credited back to the owner. Called once a fetched block has been
    /// through its decode, whether or not it decoded, so a corrupt block
    /// leaks no accounting.
    ///
    /// # Errors
    ///
    /// [`Error::EntryNotFound`] if `page` is not resident.
    pub fn consume(&mut self, page: PageNumber) -> Result<Consumed> {
        let entry = self.table.remove(page)?;
        self.pool.free(entry.handle)?;
        self.sync_budget();
        if let Some(ts) = &entry.owner.ledger {
            ts.bytes_freed.add(u64::from(entry.compressed_len));
        }
        Ok(Consumed {
            page,
            owner: entry.owner,
            codec: entry.codec,
            len: entry.compressed_len,
        })
    }

    /// zswap's invalidate: verifies `page`'s stored bytes as
    /// [`fetch`](Self::fetch) does, then [`consume`](Self::consume)s the
    /// entry with no decode, and returns the bytes credited back. Booked
    /// in `stats.discards` and, with telemetry attached, as a `Discard`
    /// event.
    ///
    /// # Errors
    ///
    /// Those of [`fetch`](Self::fetch): after a checksum mismatch the
    /// entry is intact and a retry re-reads it.
    pub fn discard(&mut self, page: PageNumber) -> Result<u32> {
        let sw = self.trail.as_ref().map(|_| Stopwatch::start());
        self.fetch(page)?;
        let gone = self.consume(page)?;
        self.stats.discards += 1;
        if let Some(t) = &self.trail {
            t.swap.lifecycle().record(
                LifecycleStage::Discard,
                Cause::Ok,
                gone.owner.tenant,
                page.index(),
                t.shard,
                u64::from(gone.len),
                sw.map_or(0, |s| s.elapsed_ns()),
            );
        }
        Ok(gone.len)
    }

    /// Outcome tallies so far.
    #[must_use]
    pub fn stats(&self) -> BackendStats {
        self.stats
    }

    /// Books host work done outside a swap (a compaction's copies, a
    /// spilled offload the CPU redid).
    pub fn charge(&mut self, cycles: Cycles, ddr: ByteSize) {
        self.stats.cpu_cycles += cycles;
        self.stats.ddr_bytes += ddr;
    }

    /// Books a swap-out the store accepted: the tallies and, with
    /// telemetry attached, the swap-path series and trail events.
    /// `encoded` is what the encoder produced (a same-filled page's one
    /// byte included), `cause` what a codec block's events carry —
    /// same-filled and raw blocks name themselves — and `ns` the
    /// encode and whole-operation wall times.
    pub fn record_swap_out(
        &mut self,
        stored: &Stored,
        outcome: &SwapOutcome,
        cause: Cause,
        encoded: &[u8],
        [compress_ns, total_ns]: [u64; 2],
    ) {
        self.stats.record(outcome, true);
        let (Some(t), Some(ts)) = (&self.trail, &stored.owner.ledger) else {
            return;
        };
        let event = |stage, cause, aux, dur_ns| {
            let page = stored.page.index();
            t.swap.lifecycle().record(
                stage,
                cause,
                stored.owner.tenant,
                page,
                t.shard,
                aux,
                dur_ns,
            );
        };
        t.swap.swap_outs.inc();
        t.executions(outcome).inc();
        t.swap.swap_out_ns.record(total_ns);
        if stored.kind == CodecKind::SameFilled {
            // Never reached the codec or a timed slot search: one
            // event, carrying the fill byte.
            t.swap.same_filled.inc();
            let fill = u64::from(encoded[0]);
            event(LifecycleStage::Compress, Cause::SameFilled, fill, total_ns);
        } else {
            let cause = if stored.kind == CodecKind::Raw {
                t.swap.stored_raw.inc();
                Cause::StoredRaw
            } else {
                cause
            };
            t.swap.compress_ns.record(compress_ns);
            t.swap.zpool_store_ns.record(stored.store_ns);
            let encoded_len = encoded.len() as u64;
            event(LifecycleStage::Compress, cause, encoded_len, compress_ns);
            let len = u64::from(stored.len);
            event(LifecycleStage::ZpoolStore, cause, len, stored.store_ns);
        }
        ts.swap_outs.inc();
    }

    /// Books a swap-in whose block decoded, like
    /// [`record_swap_out`](Self::record_swap_out); `ns` is the arena
    /// load, decode and whole-fault wall times.
    pub fn record_swap_in(
        &mut self,
        gone: &Consumed,
        outcome: &SwapOutcome,
        cause: Cause,
        ns: [u64; 3],
    ) {
        self.stats.record(outcome, false);
        let (Some(t), Some(ts)) = (&self.trail, &gone.owner.ledger) else {
            return;
        };
        t.swap.swap_ins.inc();
        t.executions(outcome).inc();
        let (tenant, page, codec, len) = (gone.owner.tenant, gone.page, gone.codec, gone.len);
        t.restored(LifecycleStage::Fault, cause, tenant, page, codec, len, ns);
        ts.swap_ins.inc();
        ts.fault_ns.record(ns[2]);
    }

    /// Finishes a kept load of `copied`, whose block the caller decoded
    /// with the store's lock released; `decoded` is the verdict.
    ///
    /// A block that decoded is booked as a load (what a swap-in of it
    /// costs, by `cost`): counted in `stats.loads` — not in `swap_ins` or
    /// the execution counters, which count consuming swaps — and, with
    /// telemetry attached, timed like a swap-in under a `Load` event; `ns`
    /// as for [`record_swap_in`](Self::record_swap_in). The flag returned
    /// says whether the entry copied is still stored and billed: `false`
    /// when it was discarded, consumed or replaced in the meantime.
    ///
    /// # Errors
    ///
    /// A block that failed to decode: `decoded`'s error, after the entry
    /// is consumed — only if it is still the one copied, so a
    /// replacement stored in the meantime is left alone.
    pub fn finish_load(
        &mut self,
        copied: &Copied<'_>,
        decoded: Result<()>,
        cost: &CostModel,
        ns: [u64; 3],
    ) -> Result<(SwapOutcome, bool)> {
        let current = self
            .table
            .get(copied.page)
            .is_some_and(|e| e.seq == copied.seq);
        if let Err(e) = decoded {
            if current {
                self.consume(copied.page)?;
            }
            return Err(e);
        }
        let codec = copied.block.codec;
        let outcome = restore_outcome(codec, copied.len, cost);
        self.stats.loads += 1;
        self.stats.cpu_cycles += outcome.cpu_cycles;
        self.stats.ddr_bytes += outcome.ddr_bytes;
        if let (Some(t), Some(ts)) = (&self.trail, &copied.owner.ledger) {
            let (tenant, page, len) = (copied.owner.tenant, copied.page, copied.len);
            t.restored(
                LifecycleStage::Load,
                Cause::Ok,
                tenant,
                page,
                codec,
                len,
                ns,
            );
            ts.fault_ns.record(ns[2]);
        }
        Ok((outcome, current))
    }
}
