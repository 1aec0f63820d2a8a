//! The [`SwapPlane`] trait and shared accounting types.
//!
//! A plane owns a region of far memory and executes swap-outs (store a
//! 4 KiB page) and swap-ins (restore it). The paper's SFM backend
//! interface (§6) is three calls — swap-out, swap-in (`do_offload`),
//! compact — and [`SwapPlane`] is that interface with the caller's
//! [`OpContext`] attached. Compressed pages are held locally by one
//! store, [`crate::store::PageStore`], behind one fault path, the
//! sharded plane ([`crate::sharded::ShardedSfm`]: N stores behind N
//! locks, codec on the host; with one shard it is the paper's
//! Baseline-CPU backend, and with the near-memory device as its hook
//! the XFM backend in `xfm-core`). The modeled,
//! replicated, tiered and prefetching planes compose over them. All
//! sit behind [`SwapPlane`]: `&self` methods (interior mutability),
//! [`SwapResult`] errors that carry the failing
//! [`SwapSite`](xfm_types::SwapSite) and a retryability verdict.

use std::collections::BTreeMap;

use bytes::Bytes;
use xfm_compress::CodecKind;
use xfm_types::{ByteSize, Cycles, OpContext, PageNumber, SwapResult, TenantId, PAGE_SIZE};

/// Where a swap operation actually executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutedOn {
    /// The host CPU ran the codec (baseline, or XFM's `CPU_Fallback`).
    Cpu,
    /// The near-memory accelerator ran the codec during refresh windows.
    Nma,
}

/// Accounting record returned by every swap operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapOutcome {
    /// Who performed the (de)compression.
    pub executed_on: ExecutedOn,
    /// Compressed size of the page involved.
    pub compressed_len: u32,
    /// Host CPU cycles consumed (zero for NMA executions).
    pub cpu_cycles: Cycles,
    /// Bytes moved over the DDR channel for this operation. For a CPU
    /// swap-out this is read(4 KiB) + write(compressed); for NMA
    /// executions it is zero — the traffic rides the refresh side channel.
    pub ddr_bytes: ByteSize,
}

impl SwapOutcome {
    /// The outcome of moving one raw 4 KiB page (a modeled medium, a
    /// replica pair, a page parked in DRAM): no codec ran, the page
    /// crossed the channel once.
    #[must_use]
    pub fn raw_page() -> Self {
        Self {
            executed_on: ExecutedOn::Cpu,
            compressed_len: PAGE_SIZE as u32,
            cpu_cycles: Cycles::ZERO,
            ddr_bytes: ByteSize::from_bytes(PAGE_SIZE as u64),
        }
    }
}

/// Aggregate statistics for a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendStats {
    /// Completed swap-outs.
    pub swap_outs: u64,
    /// Completed swap-ins.
    pub swap_ins: u64,
    /// Swap operations that executed on the NMA.
    pub nma_executions: u64,
    /// Swap operations that fell back to (or ran on) the CPU.
    pub cpu_executions: u64,
    /// Total host CPU cycles spent in codecs.
    pub cpu_cycles: Cycles,
    /// Total DDR-channel traffic caused by swap operations.
    pub ddr_bytes: ByteSize,
    /// Pages rejected because the region was full.
    pub rejected_full: u64,
    /// Pages stored raw because they did not compress.
    pub stored_raw: u64,
    /// Kept loads: faults that decoded a block and left its entry
    /// stored and billed ([`SwapPlane::load_into_ctx`] returning `true`).
    pub loads: u64,
    /// Entries invalidated with no decode ([`SwapPlane::discard_ctx`]
    /// on a plane that implements it natively).
    pub discards: u64,
}

impl BackendStats {
    /// Records one outcome.
    pub fn record(&mut self, outcome: &SwapOutcome, is_out: bool) {
        if is_out {
            self.swap_outs += 1;
        } else {
            self.swap_ins += 1;
        }
        match outcome.executed_on {
            ExecutedOn::Cpu => self.cpu_executions += 1,
            ExecutedOn::Nma => self.nma_executions += 1,
        }
        self.cpu_cycles += outcome.cpu_cycles;
        self.ddr_bytes += outcome.ddr_bytes;
    }
}

/// Sums planes (shards, tiers). The struct literal names every field,
/// so a new counter does not compile until it is summed here.
impl std::ops::AddAssign for BackendStats {
    fn add_assign(&mut self, o: Self) {
        *self = Self {
            swap_outs: self.swap_outs + o.swap_outs,
            swap_ins: self.swap_ins + o.swap_ins,
            nma_executions: self.nma_executions + o.nma_executions,
            cpu_executions: self.cpu_executions + o.cpu_executions,
            cpu_cycles: self.cpu_cycles + o.cpu_cycles,
            ddr_bytes: self.ddr_bytes + o.ddr_bytes,
            rejected_full: self.rejected_full + o.rejected_full,
            stored_raw: self.stored_raw + o.stored_raw,
            loads: self.loads + o.loads,
            discards: self.discards + o.discards,
        };
    }
}

/// The `+=` total of `parts`: the shards of a plane, the tiers of a
/// composition.
pub fn total<T: Default + std::ops::AddAssign>(parts: impl IntoIterator<Item = T>) -> T {
    let mut total = T::default();
    for part in parts {
        total += part;
    }
    total
}

/// Configuration shared by SFM backends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SfmConfig {
    /// Capacity of the compressed region (zpool limit).
    pub region_capacity: ByteSize,
}

impl Default for SfmConfig {
    /// A 1 GiB region.
    fn default() -> Self {
        Self {
            region_capacity: ByteSize::from_gib(1),
        }
    }
}

/// Largest compressed size a page is stored as: 95 % of 4 KiB, zswap's
/// reject threshold. A page that encodes longer is stored raw.
pub const MAX_COMPRESSED_LEN: usize = PAGE_SIZE * 95 / 100;

/// The block a page is stored as: its `encoded` form tagged `kind`, or —
/// the zswap-style reject — the page itself, raw, when the encoding is
/// over [`MAX_COMPRESSED_LEN`].
#[must_use]
pub fn block_for<'a>(data: &'a [u8], encoded: &'a [u8], kind: CodecKind) -> (&'a [u8], CodecKind) {
    if encoded.len() > MAX_COMPRESSED_LEN {
        (data, CodecKind::Raw)
    } else {
        (encoded, kind)
    }
}

/// Returns the fill byte when every byte of `data` is identical
/// (zswap's same-filled-page check: such a page stores one byte).
#[must_use]
pub fn same_filled(data: &[u8]) -> Option<u8> {
    let (&first, rest) = data.split_first()?;
    rest.iter().all(|&b| b == first).then_some(first)
}

/// Per-tenant byte usage summed over `parts` (shards, tiers, resident
/// records), sorted by tenant id: the one merge behind every
/// [`SwapPlane::tenant_usage`].
pub fn merge_usage(parts: impl IntoIterator<Item = (TenantId, u64)>) -> Vec<(TenantId, u64)> {
    let mut per: BTreeMap<TenantId, u64> = BTreeMap::new();
    for (tenant, bytes) in parts {
        *per.entry(tenant).or_insert(0) += bytes;
    }
    per.into_iter().collect()
}

/// The unified swap data plane.
///
/// Implementors hold the compressed region; callers are the SFM
/// controller (policy) and applications (page faults). Every method
/// takes `&self` — implementations use interior mutability (a mutex, or
/// per-shard mutexes) — so one plane can be shared across threads and
/// behind `Arc` without wrapper locks at every call site. Failures come
/// back as [`SwapError`](xfm_types::SwapError), which names the failing
/// site and whether re-submitting the operation may succeed.
///
/// A plane implements six methods: the two context-carrying data-path
/// operations ([`swap_out_ctx`](SwapPlane::swap_out_ctx),
/// [`swap_in_into_ctx`](SwapPlane::swap_in_into_ctx)) and four views
/// (`contains`, `compact`, `stats`, `pool_stats`). Every other method
/// is provided and routes *towards* the context forms — the
/// context-free ones pass [`OpContext::SYSTEM`], the batch ones loop
/// over the single-page form with the caller's context — so a plane
/// cannot drop a context by forgetting an override. A plane overrides
/// a provided method only to do the same work faster (a batched codec
/// pipeline, a read that skips a re-compress, a discard that skips a
/// decode), never to change whom it bills.
///
/// # Exclusive and kept loads
///
/// A swap-in is *exclusive*: the entry is consumed and its bytes are
/// credited back. [`load_into_ctx`](SwapPlane::load_into_ctx) is zswap's
/// non-exclusive load: a plane that implements it natively restores the
/// page and *keeps* the entry, still billed to its owner, so a caller
/// that only read the page can later drop its copy with no swap-out —
/// the plane already holds those bytes — and must
/// [`discard_ctx`](SwapPlane::discard_ctx) the entry before it stores a
/// changed page under the same number. The defaults are the exclusive
/// swap-in (reporting "not kept") and a swap-in into a throw-away
/// buffer, so a plane without native forms behaves exactly as before.
pub trait SwapPlane: Send + Sync {
    /// Compresses `data` (one 4 KiB page) into the SFM under `page`.
    /// The stored bytes are billed to `ctx.tenant` until a swap-in
    /// consumes the entry.
    ///
    /// # Errors
    ///
    /// - [`xfm_types::Error::EntryExists`] if the page is already out;
    /// - [`xfm_types::Error::SfmRegionFull`] if the region cannot hold it
    ///   even after compaction;
    /// - [`xfm_types::Error::InvalidConfig`] if `data` is not 4 KiB.
    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome>;

    /// Decompresses `page` into the caller's reusable buffer (`out` is
    /// cleared first), removing the entry. With a warm buffer the
    /// steady-state fault performs zero heap allocations. The freed
    /// compressed bytes are credited back to the *entry's* owner, which
    /// the plane recorded at swap-out — `ctx.tenant` identifies the
    /// caller, and wrapping planes hand `ctx` on to the plane they wrap.
    ///
    /// `do_offload` mirrors the paper's parameter: when `false` (a
    /// demand fault) the CPU path is preferred because the application
    /// is stalled; when `true` (a prefetch) the NMA path may be used.
    ///
    /// # Errors
    ///
    /// - [`xfm_types::Error::EntryNotFound`] if the page is not in the
    ///   SFM;
    /// - [`xfm_types::Error::ChecksumMismatch`] if the fetched block
    ///   fails verification — retryable, the entry stays intact;
    /// - [`xfm_types::Error::Corrupt`] if stored data fails to
    ///   decompress (the entry is consumed).
    fn swap_in_into_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome>;

    /// Whether `page` currently lives in the SFM.
    fn contains(&self, page: PageNumber) -> bool;

    /// Runs a compaction pass over the region (the paper's
    /// `xfm_compact()`), returning the `memcpy` report.
    fn compact(&self) -> crate::zpool::CompactReport;

    /// Aggregate statistics.
    fn stats(&self) -> BackendStats;

    /// Zpool-level statistics (occupancy, fragmentation).
    fn pool_stats(&self) -> crate::zpool::ZpoolStats;

    /// Compresses `data` (one 4 KiB page) into the SFM under `page`,
    /// billed to the system tenant:
    /// [`swap_out_ctx`](SwapPlane::swap_out_ctx) with
    /// [`OpContext::SYSTEM`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SwapPlane::swap_out_ctx`].
    fn swap_out(&self, page: PageNumber, data: &[u8]) -> SwapResult<SwapOutcome> {
        self.swap_out_ctx(&OpContext::SYSTEM, page, data)
    }

    /// Context-free form of [`SwapPlane::swap_in_into_ctx`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SwapPlane::swap_in_into_ctx`].
    fn swap_in_into(
        &self,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        self.swap_in_into_ctx(&OpContext::SYSTEM, page, do_offload, out)
    }

    /// Allocating convenience form of [`SwapPlane::swap_in_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SwapPlane::swap_in_into_ctx`].
    fn swap_in(&self, page: PageNumber, do_offload: bool) -> SwapResult<(Vec<u8>, SwapOutcome)> {
        let mut out = Vec::with_capacity(PAGE_SIZE);
        let outcome = self.swap_in_into(page, do_offload, &mut out)?;
        Ok((out, outcome))
    }

    /// Swaps out a batch of pages, every one billed to `ctx.tenant`,
    /// returning per-page results in submission order. The default runs
    /// pages sequentially through [`SwapPlane::swap_out_ctx`];
    /// concurrent planes override this to fan the codec work across
    /// worker threads (`threads` is a hint).
    ///
    /// # Errors
    ///
    /// A top-level error means the batch machinery itself failed;
    /// per-page conditions are reported in the inner results.
    fn swap_out_batch_ctx(
        &self,
        ctx: &OpContext,
        batch: &[(PageNumber, Bytes)],
        _threads: usize,
    ) -> SwapResult<Vec<SwapResult<SwapOutcome>>> {
        Ok(batch
            .iter()
            .map(|(page, data)| self.swap_out_ctx(ctx, *page, data))
            .collect())
    }

    /// Context-free form of [`SwapPlane::swap_out_batch_ctx`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SwapPlane::swap_out_batch_ctx`].
    fn swap_out_batch(
        &self,
        batch: &[(PageNumber, Bytes)],
        threads: usize,
    ) -> SwapResult<Vec<SwapResult<SwapOutcome>>> {
        self.swap_out_batch_ctx(&OpContext::SYSTEM, batch, threads)
    }

    /// Swaps in a batch of pages into the caller's reusable buffers,
    /// returning per-page results in submission order (`pages[i]` lands
    /// in `outs[i]`). The speculative prefetch engine issues its
    /// claim batches through this entry point. It runs the pages
    /// sequentially through [`SwapPlane::swap_in_into`] with
    /// `do_offload = true` (a batch is speculation, not a stalled
    /// demand fault), and no plane overrides it: a batch is a loop
    /// over the single-page fault, so every check lives there once.
    fn swap_in_batch_into(
        &self,
        pages: &[PageNumber],
        outs: &mut [Vec<u8>],
    ) -> Vec<SwapResult<SwapOutcome>> {
        pages
            .iter()
            .zip(outs.iter_mut())
            .map(|(page, out)| self.swap_in_into(*page, true, out))
            .collect()
    }

    /// A demand fault that may keep the entry: restores `page` into
    /// `out` (cleared first), verified like
    /// [`swap_in_into_ctx`](SwapPlane::swap_in_into_ctx), and returns
    /// whether the entry was *kept* — still stored and billed to its
    /// owner, so the outcome's `compressed_len` was not credited back.
    /// The default is the exclusive swap-in with `do_offload = false`,
    /// which never keeps.
    ///
    /// # Errors
    ///
    /// Those of [`swap_in_into_ctx`](SwapPlane::swap_in_into_ctx): a
    /// checksum mismatch is retryable with the entry intact, and a
    /// block that fails to decode is consumed.
    fn load_into_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        out: &mut Vec<u8>,
    ) -> SwapResult<(SwapOutcome, bool)> {
        self.swap_in_into_ctx(ctx, page, false, out)
            .map(|outcome| (outcome, false))
    }

    /// zswap's invalidate: removes `page`'s entry and returns the
    /// compressed bytes credited back to its owner. A native discard
    /// verifies the stored bytes' checksum and consumes the entry with
    /// no decode; the default swaps the page in (`do_offload = true`)
    /// and drops it.
    ///
    /// # Errors
    ///
    /// - [`xfm_types::Error::EntryNotFound`] if the page is not in the
    ///   plane;
    /// - [`xfm_types::Error::ChecksumMismatch`] — retryable, the entry
    ///   stays intact;
    /// - on the default, any other error of
    ///   [`swap_in_into_ctx`](SwapPlane::swap_in_into_ctx).
    fn discard_ctx(&self, ctx: &OpContext, page: PageNumber) -> SwapResult<u32> {
        let mut dropped = Vec::with_capacity(PAGE_SIZE);
        self.swap_in_into_ctx(ctx, page, true, &mut dropped)
            .map(|outcome| outcome.compressed_len)
    }

    /// Per-tenant compressed-byte usage, one entry per tenant that has
    /// ever stored a page (including [`TenantId::SYSTEM`]), sorted by
    /// tenant id. Planes without tenant accounting return an empty
    /// vector. On accounting-exact planes the byte sum equals the
    /// pool's stored bytes.
    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        Vec::new()
    }

    /// The tenant whose account owns `page`'s resident entry, if this
    /// plane tracks ownership. Speculative machinery (the prefetch
    /// engine) uses this to attribute work it issues on a tenant's
    /// behalf.
    fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        let _ = page;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_record_and_fraction() {
        let mut s = BackendStats::default();
        s.record(
            &SwapOutcome {
                executed_on: ExecutedOn::Cpu,
                compressed_len: 100,
                cpu_cycles: Cycles::new(1000),
                ddr_bytes: ByteSize::from_bytes(4196),
            },
            true,
        );
        s.record(
            &SwapOutcome {
                executed_on: ExecutedOn::Nma,
                compressed_len: 100,
                cpu_cycles: Cycles::ZERO,
                ddr_bytes: ByteSize::ZERO,
            },
            false,
        );
        assert_eq!(s.swap_outs, 1);
        assert_eq!(s.swap_ins, 1);
        assert_eq!((s.cpu_executions, s.nma_executions), (1, 1));
        assert_eq!(s.cpu_cycles.count(), 1000);
        assert_eq!(s.ddr_bytes.as_bytes(), 4196);
    }

    #[test]
    fn config_reject_threshold() {
        assert_eq!(MAX_COMPRESSED_LEN, 3891);
        let (page, fits, over) = ([7u8; PAGE_SIZE], [1u8; 3891], [1u8; 3892]);
        let kind = CodecKind::XDeflate;
        assert_eq!(block_for(&page, &fits, kind), (&fits[..], kind));
        assert_eq!(block_for(&page, &over, kind), (&page[..], CodecKind::Raw));
    }

    #[test]
    fn same_filled_detector() {
        assert_eq!(same_filled(&[3, 3, 3]), Some(3));
        assert_eq!(same_filled(&[3, 3, 4]), None);
        assert_eq!(same_filled(&[9]), Some(9));
        assert_eq!(same_filled(&[]), None);
    }

    #[test]
    fn swap_plane_trait_is_object_safe() {
        fn _takes_dyn(_b: &dyn SwapPlane) {}
    }
}
