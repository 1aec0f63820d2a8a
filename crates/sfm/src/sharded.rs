//! The sharded concurrent swap data plane.
//!
//! [`ShardedSfm`] is the one local compressed plane: it runs the codec
//! synchronously on the host, exactly like zswap. A swap-out reads the
//! cold 4 KiB page from DRAM, compresses it, and writes the compressed
//! bytes into the zpool; a swap-in reads the compressed bytes and writes
//! the restored page. Page and pool are cold by definition, so every one
//! of those four transfers hits DRAM — the `4 x GBSwapped` channel
//! traffic of the paper's §1/§3 (overhead O3) — and the codec burns host
//! cycles (overhead O2). With `shards: 1` this is the paper's
//! Baseline-CPU backend.
//!
//! One shard caps aggregate swap throughput at one core, while the paper
//! sizes XFM for fleet-scale SFM traffic (≈426 MB/s of cold-page churn
//! for a 512 GB SFM at 100% promotion rate, §3). So the plane is N
//! [`PageStore`]s — N independent *shards* of
//! one region budget, the same shard-for-parallelism move
//! refresh-access-parallelism work makes at the DRAM level — and
//! unrelated faults never contend. What a stored block is (checksummed,
//! billed to its owner, refused when the region is full) is the
//! store's; this module is hashing, locking and the codec:
//!
//! - **Routing**: a page's shard is a Fibonacci hash of its page number
//!   masked to a power-of-two shard count, so sequential page ranges
//!   spread evenly across shards.
//! - **Lock discipline**: one `Mutex` per shard, never more than one
//!   held at a time, and never across a codec call. Codec state
//!   (scratch, block buffer) sits in one slot per shard, on cache lines
//!   of its own, which a swap of a page of that shard takes with a
//!   `try_lock` and holds for the codec call; a caller that finds it
//!   taken (two callers on one shard, batch workers) draws on a spill
//!   list instead, locked only for a pop and a push. The only other
//!   cross-shard state is the capacity budget, one atomic written only
//!   when a store's host-page count changes. So two faults on different
//!   shards write no line in common. A data-path acquisition that has to
//!   wait is timed into `xfm_shard_lock_wait_ns{shard=".."}` or
//!   `xfm_codec_state_lock_wait_ns` (only after `try_lock` failed).
//! - **No lock across a compress**: a swap-out checks the entry table
//!   under the shard lock, releases it, compresses with the shard's codec
//!   state, then re-locks the shard to store — where the entry table is
//!   checked again, since a racing swap-out of the same page may have
//!   landed in between.
//! - **One batch body**: a batched swap-out compresses its pages on
//!   [`map_pages`] workers, then stores them on the caller's thread in
//!   submission order, each through the single-page store step — so
//!   stores, hook calls and booking happen in exactly the order of the
//!   equivalent single-page swap-outs, same-filled pages (which go to
//!   the zpool too) included.
//! - **No lock across a decompress**, zswap's way: a fault verifies the
//!   block and copies it into its codec state's block buffer under the shard
//!   lock (and, unless it keeps the entry, consumes it there), decodes
//!   with the lock released, and re-locks only to book the result. A
//!   kept load finished that way books against the entry it copied,
//!   never against a replacement stored in the meantime.
//! - **One swap-in body**: a batched swap-in is [`SwapPlane`]'s
//!   provided loop over the single-page fault, and a kept load
//!   ([`SwapPlane::load_into_ctx`]) is that fault without the consume.
//!   A discard ([`SwapPlane::discard_ctx`]) verifies and consumes with
//!   no decode.
//! - **One offload hook** ([`OffloadHook`]), the paper's `XFM_Backend`
//!   seam: at the start of each operation, after a store ("store first,
//!   offload second") and after a swap-in's decode, the hook decides
//!   whether a near-memory device ran the codec and names the cause the
//!   events carry. The CPU plane's, [`NoHook`], does nothing.
//! - **Lock order**: a shard lock may be held when a hook takes its
//!   device's lock, never the reverse. A hook reads only the shard it is
//!   handed, and never under its own lock.
//!
//! The plane is a data plane and nothing else — cold-page selection
//! lives in [`crate::SfmController`] — and its
//! data path is the [`SwapPlane`] impl: bring the trait into scope to
//! move a page. Observable behavior does not depend on the shard count
//! (pinned against an in-test model by the `sharded_diff` proptest);
//! the capacity budget is global across shards, enforced before any
//! shard's pool grows.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
use xfm_compress::{map_pages, Codec, CodecKind, CostModel, Scratch, XDeflate};
use xfm_faults::FaultInjector;
use xfm_telemetry::swap_metrics::Stopwatch;
use xfm_telemetry::{
    Cause, Histogram, Layer, LifecycleStage, Registry, ShardMetrics, SwapMetrics, TenantMetrics,
};
use xfm_types::{
    ByteSize, Cycles, Error, OpContext, PageNumber, Result, SwapError, SwapResult, TenantId,
    PAGE_SIZE,
};

use crate::backend::{
    block_for, merge_usage, same_filled, total, BackendStats, ExecutedOn, SfmConfig, SwapOutcome,
    SwapPlane,
};
use crate::store::{Owner, PageStore, RegionBudget};
use crate::zpool::{CompactReport, ZpoolStats};

/// Configuration for [`ShardedSfm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedSfmConfig {
    /// Backend configuration. `region_capacity` is the **global** budget
    /// shared by every shard's pool, not a per-shard limit.
    pub sfm: SfmConfig,
    /// Number of shards; must be a nonzero power of two.
    pub shards: usize,
}

impl Default for ShardedSfmConfig {
    fn default() -> Self {
        Self {
            sfm: SfmConfig::default(),
            shards: 4,
        }
    }
}

/// What a device in front of the plane hears (see the [module
/// docs](self)): every call but `end` with the page's shard locked, as
/// `store`. [`Cause::NmaOffload`] says the device ran the codec; any
/// other cause, the host did.
pub trait OffloadHook: Send + Sync {
    /// An operation on `store`'s shard starts.
    fn begin(&self, _store: &PageStore) {}

    /// `tenant`'s `page` was just stored as `block`, a `kind` block.
    fn stored(
        &self,
        _store: &PageStore,
        _tenant: TenantId,
        _page: PageNumber,
        _block: &[u8],
        _kind: CodecKind,
    ) -> Cause {
        Cause::Ok
    }

    /// A swap-in of `tenant`'s `page` just restored `block`, a `kind`
    /// block; `do_offload` is the caller's.
    fn decoded(
        &self,
        _store: &PageStore,
        _tenant: TenantId,
        _page: PageNumber,
        _block: &[u8],
        _kind: CodecKind,
        _do_offload: bool,
    ) -> Cause {
        Cause::Ok
    }

    /// A swap-in finished: its events are on the trail, no lock is held.
    fn end(&self) {}
}

/// The CPU plane's hook: the host runs every codec call.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHook;

impl OffloadHook for NoHook {}

/// The outcome of a codec call the device ran: no host cycles, and no
/// channel traffic but the host's own copies.
fn offloaded(compressed_len: u32, ddr_bytes: ByteSize) -> SwapOutcome {
    SwapOutcome {
        executed_on: ExecutedOn::Nma,
        compressed_len,
        cpu_cycles: Cycles::ZERO,
        ddr_bytes,
    }
}

/// The local compressed plane: every operation takes `&self` and only
/// the owning shard's lock, so faults and demotions on different shards
/// run concurrently.
///
/// # Examples
///
/// ```
/// use xfm_sfm::{ShardedSfm, ShardedSfmConfig, SwapPlane};
/// use xfm_types::PageNumber;
///
/// let sfm = ShardedSfm::new(ShardedSfmConfig::default());
/// let page = b"16-byte pattern!".repeat(256); // 4096 bytes
/// let out = sfm.swap_out(PageNumber::new(7), &page)?;
/// assert!(out.compressed_len < 4096);
/// // DDR traffic: 4 KiB page read + compressed write.
/// assert_eq!(out.ddr_bytes.as_bytes(), 4096 + u64::from(out.compressed_len));
/// let (restored, _) = sfm.swap_in(PageNumber::new(7), false)?;
/// assert_eq!(restored, page);
/// # Ok::<(), xfm_types::Error>(())
/// ```
pub struct ShardedSfm<H = NoHook> {
    /// One [`PageStore`] per stripe, all drawing on one
    /// [`RegionBudget`]: each holds its pool, entry table and
    /// statistics, and is locked only for table work — a codec call
    /// never runs under it.
    shards: Vec<Mutex<PageStore>>,
    /// `shards - 1`; page-number hash is masked with this.
    mask: u64,
    codec: Arc<dyn Codec + Send + Sync>,
    cost: CostModel,
    /// Codec state for both directions, which run the codec with no
    /// shard lock held: a swap-out compresses into the buffer, a fault
    /// copies its block into it and decodes from there. One warmed slot
    /// per shard, taken by a swap of a page of that shard.
    codec_slots: Box<[CodecSlot]>,
    /// Codec state for a caller that finds its shard's slot taken:
    /// grows to one entry per such concurrent caller or batch worker;
    /// after that the data path allocates nothing.
    codec_spill: Mutex<Vec<CodecState>>,
    /// Told of every operation (see [`OffloadHook`]).
    hook: H,
    /// Per-shard series; `Some` once telemetry is attached (the swap-path
    /// series and the trail are the stores').
    telemetry: Option<ShardMetrics>,
    /// The per-tenant ledger series, looked up with no shard lock held
    /// (see [`Owner`]).
    tenants: Option<TenantMetrics>,
    /// The registry whose trail a fault's shard-lock waits and booking
    /// are recorded on, outside the shard lock.
    registry: Option<Registry>,
    /// Wall time spent pre-warming the codec state at construction.
    warm_ns: u64,
    /// Synthetic pages round-tripped while pre-warming (3 per shard when
    /// warming succeeds).
    warm_pages: u64,
}

/// What the codec runs with: a scratch and a block buffer.
type CodecState = (Scratch, Vec<u8>);

/// One shard's codec state, aligned so that no other slot (and nothing
/// else the plane writes) shares its cache lines.
#[repr(align(128))]
struct CodecSlot(Mutex<CodecState>);

impl<H> std::fmt::Debug for ShardedSfm<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSfm")
            .field("shards", &self.shards.len())
            .field("codec", &self.codec.name())
            .finish_non_exhaustive()
    }
}

impl ShardedSfm {
    /// Creates a plane with the default codec (xdeflate, matching the
    /// Deflate class the paper's hardware implements) and the paper's
    /// average cost model.
    ///
    /// # Panics
    ///
    /// Panics when `config.shards` is zero or not a power of two.
    #[must_use]
    pub fn new(config: ShardedSfmConfig) -> Self {
        Self::with_codec(
            config,
            Arc::new(XDeflate::default()),
            CostModel::paper_average(),
        )
    }

    /// Creates a sharded plane with an explicit codec and cost model.
    ///
    /// # Panics
    ///
    /// Panics when `config.shards` is zero or not a power of two.
    #[must_use]
    pub fn with_codec(
        config: ShardedSfmConfig,
        codec: Arc<dyn Codec + Send + Sync>,
        cost: CostModel,
    ) -> Self {
        ShardedSfm::with_hook(config, codec, cost, NoHook)
    }
}

impl<H: OffloadHook> ShardedSfm<H> {
    /// [`with_codec`](ShardedSfm::with_codec), every operation heard by
    /// `hook`: the data plane of a device that offloads the codec.
    #[must_use]
    pub fn with_hook(
        config: ShardedSfmConfig,
        codec: Arc<dyn Codec + Send + Sync>,
        cost: CostModel,
        hook: H,
    ) -> Self {
        assert!(
            config.shards > 0 && config.shards.is_power_of_two(),
            "shard count {} must be a nonzero power of two",
            config.shards
        );
        // Pre-warm one codec state per shard so the first real pages
        // already run at steady-state speed (lazy buffer sizing otherwise
        // costs the documented fresh-vs-warm gap).
        let warm_sw = Stopwatch::start();
        let mut warm_pages = 0u64;
        let codec_slots = (0..config.shards)
            .map(|_| {
                let mut scratch = Scratch::new();
                warm_pages += scratch.warm(&*codec) as u64;
                CodecSlot(Mutex::new((scratch, Vec::with_capacity(PAGE_SIZE))))
            })
            .collect();
        let warm_ns = warm_sw.elapsed_ns();
        let budget = RegionBudget::new(config.sfm.region_capacity);
        let shards = (0..config.shards)
            .map(|_| Mutex::new(PageStore::new(Arc::clone(&budget))))
            .collect();
        Self {
            shards,
            mask: (config.shards - 1) as u64,
            codec,
            cost,
            codec_slots,
            codec_spill: Mutex::new(Vec::new()),
            hook,
            telemetry: None,
            tenants: None,
            registry: None,
            warm_ns,
            warm_pages,
        }
    }

    /// The hook the plane calls.
    #[must_use]
    pub fn hook(&self) -> &H {
        &self.hook
    }

    /// Attaches the standard swap metrics plus per-shard series
    /// (`xfm_shard_*{shard="i"}`) and the codec-state spill list's wait
    /// histogram. `xfm_shard_busy_ns_total{shard}` counts each swap
    /// operation whole, its codec call included — not the time the
    /// shard's lock was held, which no codec call is inside.
    ///
    /// The construction-time codec-state warm-up is recorded retroactively
    /// on the lifecycle trail (telemetry attaches after construction),
    /// with the warmed-page count as the aux datum.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        registry.lifecycle().record(
            LifecycleStage::Warmup,
            Cause::Ok,
            TenantId::SYSTEM,
            0,
            xfm_telemetry::lifecycle::NO_SHARD,
            self.warm_pages,
            self.warm_ns,
        );
        let swap = SwapMetrics::register(registry);
        for (si, shard) in self.shards.iter().enumerate() {
            shard.lock().attach_telemetry(swap.clone(), si as u32);
        }
        self.telemetry = Some(ShardMetrics::register(registry, self.shards.len()));
        self.tenants = Some(TenantMetrics::register(registry));
        self.registry = Some(registry.clone());
    }

    /// Attaches a fault injector; its zpool-store and bit-corruption
    /// sites then apply to every shard's swap path.
    pub fn attach_faults(&mut self, faults: Arc<FaultInjector>) {
        for shard in &self.shards {
            shard.lock().attach_faults(Arc::clone(&faults));
        }
    }

    /// The shard that owns `page`: high bits of a Fibonacci hash of the
    /// page number, masked to the power-of-two shard count. Sequential
    /// page ranges (the common hot-set layout) spread evenly.
    #[must_use]
    pub fn shard_of(&self, page: PageNumber) -> usize {
        ((page.index().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & self.mask) as usize
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Compresses `data` (one 4 KiB page) into the owning shard:
    /// same-filled short-circuit, zswap-style raw-store reject, and the
    /// store's compact-once retry when the global budget is hit. The
    /// stored bytes are billed to `tenant` until the entry is consumed
    /// by a swap-in, and telemetry carries the tenant on its lifecycle
    /// events and per-tenant counters.
    fn swap_out_page(
        &self,
        tenant: TenantId,
        page: PageNumber,
        data: &[u8],
    ) -> Result<SwapOutcome> {
        if data.len() != PAGE_SIZE {
            return Err(Error::InvalidConfig(format!(
                "swap_out requires a 4 KiB page, got {} bytes",
                data.len()
            )));
        }
        let sw = self.telemetry.as_ref().map(|_| Stopwatch::start());
        // zswap's same-filled-page check runs before compression: a page
        // of one repeated byte stores just that byte.
        if let Some(fill) = same_filled(data) {
            return self.store_block(tenant, page, data, &[fill], CodecKind::SameFilled, sw, 0);
        }
        if self.contains(page) {
            return Err(Error::EntryExists { page: page.index() });
        }
        // Compressed with no lock held; the store re-checks the table.
        self.with_codec_state(self.shard_of(page), |scratch, compressed| {
            compressed.clear();
            let csw = self.telemetry.as_ref().map(|_| Stopwatch::start());
            self.codec.compress_into(data, compressed, scratch)?;
            let compress_ns = csw.map_or(0, |s| s.elapsed_ns());
            let kind = self.codec.kind();
            self.store_block(tenant, page, data, compressed, kind, sw, compress_ns)
        })
    }

    /// Runs `f` with shard `si`'s codec state, or, when another caller
    /// holds that, with state popped from the spill list (fresh when the
    /// list is empty) and pushed back after. A shard's slot is never
    /// waited for: its holder is inside a codec call.
    fn with_codec_state<R>(&self, si: usize, f: impl FnOnce(&mut Scratch, &mut Vec<u8>) -> R) -> R {
        if let Some(mut slot) = self.codec_slots[si].0.try_lock() {
            let (scratch, buf) = &mut *slot;
            return f(scratch, buf);
        }
        let wait = self
            .telemetry
            .as_ref()
            .map(|t| &*t.codec_state_lock_wait_ns);
        let (mut scratch, mut buf) = timed_lock(&self.codec_spill, wait)
            .0
            .pop()
            .unwrap_or_else(|| (Scratch::new(), Vec::with_capacity(PAGE_SIZE)));
        let r = f(&mut scratch, &mut buf);
        timed_lock(&self.codec_spill, wait).0.push((scratch, buf));
        r
    }

    /// Allocation-free fault path: restores `page` into the caller's
    /// reusable buffer (`out` is cleared first) and says whether its
    /// entry was kept. With a warm buffer the steady-state fault
    /// performs zero heap allocations.
    ///
    /// The shard lock is held twice, for table work only. First to
    /// verify the block and copy it into the codec state's block buffer — and,
    /// on a swap-in (`keep == false`), to consume the entry, so a
    /// corrupt block leaks no accounting and a same-page swap-out may
    /// land while the old bytes decode. The decode runs unlocked. Then
    /// to book the page: a swap-in's outcome, stats and telemetry, or a
    /// kept load's ([`PageStore::finish_load`]: a block that decoded
    /// stays stored and billed, one that did not is consumed, and an
    /// entry discarded or replaced during the decode reads back as not
    /// kept and is left alone). A kept load is a demand fault: only a
    /// swap-in's decode goes to the hook.
    fn swap_in_page(
        &self,
        page: PageNumber,
        out: &mut Vec<u8>,
        keep: bool,
        do_offload: bool,
    ) -> Result<(SwapOutcome, bool)> {
        let si = self.shard_of(page);
        let booked = self.with_codec_state(si, |scratch, block| {
            let (mut s, waited) = self.lock_shard_waited(si);
            self.hook.begin(&s);
            let sw = self.telemetry.as_ref().map(|_| Stopwatch::start());
            let copied = s.fetch_into(page, block)?;
            let gone = if keep {
                None
            } else {
                let gone = s.consume(page)?;
                if let Some(t) = &self.telemetry {
                    t.entries[si].set(s.len() as f64);
                }
                Some(gone)
            };
            drop(s);
            let mut decomp_ns = 0u64;
            let decoded = copied.restore(page, out, |block, out| {
                let dsw = sw.map(|_| Stopwatch::start());
                self.codec.decompress_into(block, out, scratch)?;
                decomp_ns = dsw.map_or(0, |s| s.elapsed_ns());
                Ok(())
            });
            // The fault's own time: fetch, copy and decode, lock waits
            // excluded.
            let op_ns = sw.map_or(0, |s| s.elapsed_ns());
            let ns = [copied.load_ns, decomp_ns, op_ns];
            // A swap-in whose block did not decode books nothing.
            let decoded = match (&gone, decoded) {
                (Some(_), Err(e)) => return Err(e),
                (_, decoded) => decoded,
            };
            let (mut s, rewaited) = self.lock_shard_waited(si);
            let bsw = sw.map(|_| Stopwatch::start());
            let booked = match &gone {
                None => s.finish_load(&copied, decoded, &self.cost, ns)?,
                Some(gone) => {
                    let (tenant, bytes, kind) = (gone.owner.tenant, copied.bytes, copied.codec);
                    let cause = self.hook.decoded(&s, tenant, page, bytes, kind, do_offload);
                    let outcome = if cause == Cause::NmaOffload {
                        offloaded(gone.len, ByteSize::ZERO)
                    } else {
                        gone.cpu_outcome(&self.cost)
                    };
                    s.record_swap_in(gone, &outcome, cause, ns);
                    (outcome, false)
                }
            };
            drop(s);
            let booking_ns = bsw.map_or(0, |s| s.elapsed_ns());
            if let (Some(t), Some(registry)) = (&self.telemetry, &self.registry) {
                if gone.is_some() {
                    t.swap_ins[si].inc();
                }
                t.busy_ns[si].add(op_ns);
                // The fault's layers outside its own timed work.
                let (trail, tenant) = (registry.lifecycle(), copied.owner.tenant);
                let span = |layer: Layer, ns: u64| {
                    let code = u64::from(layer.code());
                    let (stage, page) = (LifecycleStage::Span, page.index());
                    trail.record(stage, Cause::Ok, tenant, page, si as u32, code, ns);
                };
                if waited + rewaited > 0 {
                    span(Layer::ShardLock, waited + rewaited);
                }
                span(Layer::Booking, booking_ns);
            }
            Ok(booked)
        })?;
        self.hook.end();
        Ok(booked)
    }

    /// Invalidates `page` in its shard with no decode (see
    /// [`PageStore::discard`]); returns the bytes credited back.
    fn discard_page(&self, page: PageNumber) -> Result<u32> {
        let si = self.shard_of(page);
        let mut s = self.lock_shard(si);
        self.hook.begin(&s);
        let len = s.discard(page)?;
        if let Some(t) = &self.telemetry {
            t.entries[si].set(s.len() as f64);
        }
        Ok(len)
    }

    /// Shard `si`'s lock, its waits timed into
    /// `xfm_shard_lock_wait_ns{shard}` (see [`timed_lock`]).
    fn lock_shard(&self, si: usize) -> MutexGuard<'_, PageStore> {
        self.lock_shard_waited(si).0
    }

    /// [`lock_shard`](Self::lock_shard), and the ns it waited (0 when it
    /// did not, or no telemetry is attached).
    fn lock_shard_waited(&self, si: usize) -> (MutexGuard<'_, PageStore>, u64) {
        let wait = self.telemetry.as_ref().map(|t| &*t.lock_wait_ns[si]);
        timed_lock(&self.shards[si], wait)
    }

    /// Batched swap-out, billed to `tenant`: every page that will reach
    /// the codec (4 KiB, not same-filled, not stored) is compressed on
    /// one of `threads` [`map_pages`] workers, then every page is stored
    /// by the single-page path in submission order.
    ///
    /// Returns an error when `threads` is zero or the codec itself fails
    /// (per-page conditions such as `EntryExists` or `SfmRegionFull` are
    /// reported in the per-page results instead).
    fn swap_out_pages(
        &self,
        tenant: TenantId,
        batch: &[(PageNumber, Bytes)],
        threads: usize,
    ) -> Result<Vec<Result<SwapOutcome>>> {
        let needs_codec: Vec<bool> = batch
            .iter()
            .map(|(page, data)| {
                data.len() == PAGE_SIZE && same_filled(data).is_none() && !self.contains(*page)
            })
            .collect();
        let (pages, to_compress): (Vec<PageNumber>, Vec<Bytes>) = batch
            .iter()
            .zip(&needs_codec)
            .filter(|(_, &codec)| codec)
            .map(|((page, data), _)| (*page, data.clone()))
            .unzip();
        // A block waits for its store in an exact-size copy: a batch holds
        // its compressed bytes, not a page-sized buffer a page.
        let mut encoded = map_pages(&to_compress, threads, |k, data| {
            let csw = self.telemetry.as_ref().map(|_| Stopwatch::start());
            self.with_codec_state(self.shard_of(pages[k]), |scratch, buf| {
                buf.clear();
                self.codec.compress_into(data, buf, scratch)?;
                Ok((buf.to_vec(), csw.map_or(0, |s| s.elapsed_ns())))
            })
        })?
        .into_iter();
        Ok(batch
            .iter()
            .zip(needs_codec)
            .map(|((page, data), codec)| {
                if !codec {
                    return self.swap_out_page(tenant, *page, data);
                }
                let (block, ns) = encoded.next().expect("one block per compressed page");
                // The page's own time from here: its compression ran
                // (and was timed) on a worker.
                let sw = self.telemetry.as_ref().map(|_| Stopwatch::start());
                let kind = self.codec.kind();
                self.store_block(tenant, *page, data, &block, kind, sw, ns)
            })
            .collect())
    }

    /// Store-back of a page encoded with no lock held: takes the owning
    /// shard's lock and stores `encoded` as a `kind` block — or `data`
    /// itself, raw, when the encoding is over the reject threshold (the
    /// compression cycles were still spent discovering that). The store
    /// re-checks the entry table: the caller's check, if any, predates
    /// the compression. `compress_ns` is the caller's own compression
    /// latency, recorded here.
    #[allow(clippy::too_many_arguments)]
    fn store_block(
        &self,
        tenant: TenantId,
        page: PageNumber,
        data: &[u8],
        encoded: &[u8],
        kind: CodecKind,
        sw: Option<Stopwatch>,
        compress_ns: u64,
    ) -> Result<SwapOutcome> {
        let si = self.shard_of(page);
        let owner = Owner::new(tenant, self.tenants.as_ref());
        let mut s = self.lock_shard(si);
        self.hook.begin(&s);
        let (block, kind) = block_for(data, encoded, kind);
        let stored = s.store(owner, page, block, kind)?;
        let cause = self.hook.stored(&s, tenant, page, block, kind);
        let outcome = if cause == Cause::NmaOffload {
            // The side channel carries all the traffic but the host's
            // own compaction copies.
            offloaded(stored.len, stored.extra_ddr)
        } else {
            stored.cpu_outcome(&self.cost)
        };
        let total = sw.map_or(0, |s| s.elapsed_ns());
        s.record_swap_out(&stored, &outcome, cause, encoded, [compress_ns, total]);
        if let Some(t) = &self.telemetry {
            t.swap_outs[si].inc();
            t.busy_ns[si].add(total);
            t.entries[si].set(s.len() as f64);
        }
        Ok(outcome)
    }

    // ------------------------------------------------------------------
    // Aggregated views
    // ------------------------------------------------------------------

    /// Merged backend statistics across shards.
    #[must_use]
    pub fn stats(&self) -> BackendStats {
        total(self.shards.iter().map(|s| s.lock().stats()))
    }

    /// Merged zpool statistics across shards.
    #[must_use]
    pub fn pool_stats(&self) -> ZpoolStats {
        total(self.shards.iter().map(|s| s.lock().pool_stats()))
    }

    /// Live compressed entries per shard (for imbalance inspection).
    #[must_use]
    pub fn shard_entries(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.lock().len() as u64).collect()
    }
}

impl<H: OffloadHook> SwapPlane for ShardedSfm<H> {
    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome> {
        Ok(self.swap_out_page(ctx.tenant, page, data)?)
    }

    /// `do_offload` goes to the hook (the CPU plane's ignores it), and
    /// the caller's context is not read: the freed bytes go back to the
    /// entry's recorded owner.
    fn swap_in_into_ctx(
        &self,
        _ctx: &OpContext,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        Ok(self.swap_in_page(page, out, false, do_offload)?.0)
    }

    /// Keeps a block that decoded: the entry stays billed to the owner
    /// recorded at swap-out. Not kept only when a discard or a
    /// replacement of the page landed during the decode; the bytes
    /// returned are still the block this load copied.
    fn load_into_ctx(
        &self,
        _ctx: &OpContext,
        page: PageNumber,
        out: &mut Vec<u8>,
    ) -> SwapResult<(SwapOutcome, bool)> {
        Ok(self.swap_in_page(page, out, true, false)?)
    }

    /// Checksum and consume under the shard lock; no codec runs.
    fn discard_ctx(&self, _ctx: &OpContext, page: PageNumber) -> SwapResult<u32> {
        Ok(self.discard_page(page)?)
    }

    fn swap_out_batch_ctx(
        &self,
        ctx: &OpContext,
        batch: &[(PageNumber, Bytes)],
        threads: usize,
    ) -> SwapResult<Vec<SwapResult<SwapOutcome>>> {
        Ok(self
            .swap_out_pages(ctx.tenant, batch, threads)?
            .into_iter()
            .map(|r| r.map_err(SwapError::from))
            .collect())
    }

    /// Merged across shards, sorted by tenant id. Derived from the
    /// resident entries (each billed to the tenant recorded at
    /// swap-out), so the accounting can neither leak nor double-count
    /// and the byte sum always equals `pool_stats().stored_bytes`.
    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        merge_usage(self.shards.iter().flat_map(|s| s.lock().tenant_bytes()))
    }

    fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        self.lock_shard(self.shard_of(page)).tenant_of(page)
    }

    fn contains(&self, page: PageNumber) -> bool {
        self.lock_shard(self.shard_of(page)).contains(page)
    }

    /// Compacts every shard's pool, returning the merged report.
    fn compact(&self) -> CompactReport {
        total(self.shards.iter().map(|s| s.lock().compact()))
    }

    fn stats(&self) -> BackendStats {
        Self::stats(self)
    }

    fn pool_stats(&self) -> ZpoolStats {
        Self::pool_stats(self)
    }
}

/// `mutex`'s lock and the ns spent waiting for it. With a `wait`
/// histogram (telemetry attached), an acquisition that has to wait is
/// timed into it; the clock is read only after the non-blocking attempt
/// failed, so an uncontended one costs nothing there (and reads 0).
fn timed_lock<'a, T>(mutex: &'a Mutex<T>, wait: Option<&Histogram>) -> (MutexGuard<'a, T>, u64) {
    let Some(wait) = wait else {
        return (mutex.lock(), 0);
    };
    match mutex.try_lock() {
        Some(guard) => (guard, 0),
        None => {
            let since = Instant::now();
            let guard = mutex.lock();
            let ns = since.elapsed().as_nanos() as u64;
            wait.record(ns);
            (guard, ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfm_compress::Corpus;
    use xfm_types::ByteSize;

    fn page_of(corpus: Corpus, seed: u64) -> Vec<u8> {
        corpus.generate(seed, PAGE_SIZE)
    }

    fn plane(shards: usize) -> ShardedSfm {
        ShardedSfm::new(ShardedSfmConfig {
            sfm: SfmConfig {
                region_capacity: ByteSize::from_mib(4),
            },
            shards,
        })
    }

    #[test]
    fn plane_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedSfm>();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = plane(3);
    }

    #[test]
    fn round_trip_across_shard_counts() {
        for shards in [1usize, 2, 4, 8] {
            let sfm = plane(shards);
            for (i, corpus) in Corpus::all().iter().enumerate() {
                let page = page_of(*corpus, i as u64);
                sfm.swap_out(PageNumber::new(i as u64), &page).unwrap();
                assert!(sfm.contains(PageNumber::new(i as u64)));
                let (restored, _) = sfm.swap_in(PageNumber::new(i as u64), false).unwrap();
                assert_eq!(restored, page, "{} shards, {}", shards, corpus.name());
            }
            assert_eq!(sfm.pool_stats().objects, 0);
        }
    }

    #[test]
    fn lifecycle_trail_reconstructs_page_story() {
        let mut sfm = plane(2);
        let registry = Registry::new();
        sfm.attach_telemetry(&registry);

        // Warm-up is recorded retroactively at attach time: 3 pages per
        // shard round-tripped through the codec during construction.
        let warmups: Vec<_> = registry
            .lifecycle()
            .snapshot()
            .into_iter()
            .filter(|e| e.stage == LifecycleStage::Warmup)
            .collect();
        assert_eq!(warmups.len(), 1);
        assert_eq!(warmups[0].aux, 6, "3 warm pages x 2 shards");

        let page = page_of(Corpus::EnglishText, 11);
        sfm.swap_out(PageNumber::new(11), &page).unwrap();
        sfm.swap_in(PageNumber::new(11), false).unwrap();

        let story: Vec<LifecycleStage> = registry
            .lifecycle()
            .page_history(11)
            .into_iter()
            .map(|e| e.stage)
            .collect();
        for stage in [
            LifecycleStage::Compress,
            LifecycleStage::ZpoolStore,
            LifecycleStage::Fault,
            LifecycleStage::Fetch,
            LifecycleStage::Decompress,
        ] {
            assert!(story.contains(&stage), "missing {stage:?} in {story:?}");
        }
        // Events for one page all carry that page's owning shard.
        let si = sfm.shard_of(PageNumber::new(11)) as u32;
        for e in registry.lifecycle().page_history(11) {
            assert_eq!(e.shard, si);
        }
    }

    #[test]
    fn hash_routing_spreads_sequential_pages() {
        let sfm = plane(8);
        let mut counts = [0usize; 8];
        for p in 0..8000u64 {
            counts[sfm.shard_of(PageNumber::new(p))] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (700..=1300).contains(&c),
                "shard {s} got {c} of 8000 sequential pages"
            );
        }
    }

    // The paper's Baseline-CPU backend is the 1-shard plane; the next
    // three tests pin its accounting, errors and telemetry.

    #[test]
    fn ddr_traffic_matches_four_component_model() {
        let b = plane(1);
        let page = page_of(Corpus::Json, 1);
        let out = b.swap_out(PageNumber::new(1), &page).unwrap();
        let c = u64::from(out.compressed_len);
        assert_eq!(out.ddr_bytes.as_bytes(), 4096 + c);
        let (_, inn) = b.swap_in(PageNumber::new(1), false).unwrap();
        assert_eq!(inn.ddr_bytes.as_bytes(), c + 4096);
        // Over the round trip: compressed read+write plus page read+write.
        assert_eq!(b.stats().ddr_bytes.as_bytes(), 2 * 4096 + 2 * c);
    }

    #[test]
    fn swap_errors_carry_cause_site_and_retryability() {
        let b = plane(1);
        let page = page_of(Corpus::Csv, 3);
        b.swap_out(PageNumber::new(4), &page).unwrap();
        let err = b.swap_out(PageNumber::new(4), &page).unwrap_err();
        assert!(matches!(err.cause(), Error::EntryExists { page: 4 }));
        let err = b.swap_in(PageNumber::new(11), false).unwrap_err();
        assert!(matches!(err.cause(), Error::EntryNotFound { page: 11 }));
        assert_eq!(err.site(), xfm_types::SwapSite::EntryTable);
        assert!(!err.is_retryable());
        assert!(b.swap_out(PageNumber::new(1), &[0u8; 100]).is_err());
    }

    #[test]
    fn telemetry_records_cpu_swap_path_and_changes_no_outcome() {
        let registry = Registry::new();
        let plain = plane(1);
        let mut b = plane(1);
        b.attach_telemetry(&registry);
        // One compressible, one same-filled, one incompressible page.
        let pages = [
            page_of(Corpus::Json, 1),
            vec![9u8; PAGE_SIZE],
            page_of(Corpus::RandomBytes, 2),
        ];
        for (i, page) in pages.iter().enumerate() {
            let pn = PageNumber::new(i as u64);
            assert_eq!(
                b.swap_out(pn, page).unwrap(),
                plain.swap_out(pn, page).unwrap()
            );
        }
        for i in 0..3 {
            let pn = PageNumber::new(i);
            assert_eq!(
                b.swap_in(pn, false).unwrap(),
                plain.swap_in(pn, false).unwrap()
            );
        }
        let s = registry.snapshot();
        assert_eq!(s.counters["xfm_swap_outs_total"], 3);
        assert_eq!(s.counters["xfm_swap_ins_total"], 3);
        assert_eq!(s.counters["xfm_cpu_executions_total"], 6);
        assert_eq!(s.counters["xfm_same_filled_total"], 1);
        assert_eq!(s.counters["xfm_stored_raw_total"], 1);
        assert_eq!(
            s.counters
                .get("xfm_nma_executions_total")
                .copied()
                .unwrap_or(0),
            0
        );
        assert_eq!(s.histograms["xfm_swap_out_latency_ns"].count, 3);
        assert_eq!(s.histograms["xfm_swap_in_latency_ns"].count, 3);
        // Only the codec-compressed page exercises compress/decompress
        // (raw pages still pass through compress_into to discover they
        // don't fit, so compress has 2 samples; decompress has 1).
        assert_eq!(s.histograms["xfm_compress_latency_ns"].count, 2);
        assert_eq!(s.histograms["xfm_decompress_latency_ns"].count, 1);
        assert!(s
            .events
            .iter()
            .any(|e| e.stage == LifecycleStage::Compress && e.cause == Cause::SameFilled));
    }

    #[test]
    fn capacity_budget_is_global_across_shards() {
        // Two raw pages fill the 2-page global budget no matter which
        // shards they land on; the third is rejected after the one
        // compaction attempt (1 shard: the Baseline-CPU region-full).
        for shards in [1usize, 4] {
            let sfm = ShardedSfm::new(ShardedSfmConfig {
                sfm: SfmConfig {
                    region_capacity: ByteSize::from_pages(2),
                },
                shards,
            });
            let pages: Vec<Vec<u8>> = (0..3)
                .map(|i| page_of(Corpus::RandomBytes, 7 + i))
                .collect();
            // Incompressible pages are stored raw.
            let out = sfm.swap_out(PageNumber::new(0), &pages[0]).unwrap();
            assert_eq!(out.compressed_len as usize, PAGE_SIZE);
            sfm.swap_out(PageNumber::new(1), &pages[1]).unwrap();
            assert_eq!(sfm.stats().stored_raw, 2);
            let err = sfm.swap_out(PageNumber::new(2), &pages[2]).unwrap_err();
            assert!(matches!(err.cause(), Error::SfmRegionFull), "{shards}");
            assert_eq!(sfm.stats().rejected_full, 1);
            // Swapping one in frees global budget for any shard.
            sfm.swap_in(PageNumber::new(0), false).unwrap();
            sfm.swap_out(PageNumber::new(2), &pages[2]).unwrap();
        }
    }

    #[test]
    fn same_filled_store_follows_the_region_full_policy() {
        let region = |pages| {
            ShardedSfm::new(ShardedSfmConfig {
                sfm: SfmConfig {
                    region_capacity: ByteSize::from_pages(pages),
                },
                shards: 1,
            })
        };
        // Full even after compacting: rejected and counted, like a
        // compressed or raw store.
        let sfm = region(2);
        for i in 0..2u64 {
            sfm.swap_out(PageNumber::new(i), &page_of(Corpus::RandomBytes, 7 + i))
                .unwrap();
        }
        let err = sfm
            .swap_out(PageNumber::new(2), &[0u8; PAGE_SIZE])
            .unwrap_err();
        assert!(matches!(err.cause(), Error::SfmRegionFull));
        assert_eq!(sfm.stats().rejected_full, 1);

        // Stored when the one compaction frees a zspage. In a region of
        // exactly two zspages of a json block's size class, fill the
        // first, spill one block onto a second, fault all but the first
        // and last: two sparse zspages, and no page left for the
        // same-filled byte's class.
        let data = page_of(Corpus::Json, 1);
        let len = region(1)
            .swap_out(PageNumber::new(0), &data)
            .unwrap()
            .compressed_len as usize;
        let zspage = crate::zpool::Zpool::new(ByteSize::from_mib(1)).would_grow(len);
        let slot = len.next_multiple_of(crate::zpool::CHUNK);
        let slots = zspage * PAGE_SIZE as u64 / slot as u64;
        assert!(slots >= 2, "a json page compresses below half a page");
        let sfm = region(2 * zspage);
        for i in 0..=slots {
            sfm.swap_out(PageNumber::new(i), &data).unwrap();
        }
        for i in 1..slots {
            sfm.swap_in(PageNumber::new(i), false).unwrap();
        }
        assert_eq!(sfm.pool_stats().host_pages, 2 * zspage);
        let out = sfm
            .swap_out(PageNumber::new(99), &[0u8; PAGE_SIZE])
            .unwrap();
        // The compaction's copy is charged: one block read and written.
        assert_eq!(out.ddr_bytes.as_bytes(), 4097 + 2 * len as u64);
        assert_eq!(sfm.stats().rejected_full, 0);
        assert_eq!(sfm.pool_stats().host_pages, zspage + 1);
    }

    #[test]
    fn batch_matches_sequential_swap_out() {
        let registry = Registry::new();
        let mut batch_plane = plane(4);
        batch_plane.attach_telemetry(&registry);
        let seq_plane = plane(4);
        let batch: Vec<(PageNumber, Bytes)> = (0..24u64)
            .map(|i| {
                let data = if i % 7 == 0 {
                    vec![0xAAu8; PAGE_SIZE]
                } else {
                    page_of(Corpus::all()[i as usize % Corpus::all().len()], i)
                };
                (PageNumber::new(i), Bytes::from(data))
            })
            .collect();
        let results = batch_plane.swap_out_batch(&batch, 2).unwrap();
        assert_eq!(results.len(), batch.len());
        // Whichever of the two workers compressed a page timed it, once;
        // same-filled pages never reach the codec.
        let codec_pages = batch.iter().filter(|(_, d)| same_filled(d).is_none());
        let compress = &registry.snapshot().histograms["xfm_compress_latency_ns"];
        assert_eq!(compress.count, codec_pages.count() as u64);
        assert!(compress.p50 > 0);
        for ((page, data), res) in batch.iter().zip(&results) {
            let seq = seq_plane.swap_out(*page, data).unwrap();
            assert_eq!(res.as_ref().unwrap(), &seq);
        }
        assert_eq!(batch_plane.stats(), seq_plane.stats());
        assert_eq!(batch_plane.pool_stats(), seq_plane.pool_stats());
        // Every page faults back identical on both planes.
        for (page, data) in &batch {
            let (a, _) = batch_plane.swap_in(*page, false).unwrap();
            let (b, _) = seq_plane.swap_in(*page, false).unwrap();
            assert_eq!(&a[..], &data[..]);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn batch_reports_per_page_errors() {
        let sfm = plane(2);
        let good = page_of(Corpus::Json, 1);
        sfm.swap_out(PageNumber::new(5), &good).unwrap();
        let batch = vec![
            (PageNumber::new(5), Bytes::from(good.clone())), // duplicate
            (PageNumber::new(6), Bytes::from(vec![1u8; 10])), // wrong size
            (PageNumber::new(7), Bytes::from(good.clone())), // fine
        ];
        let results = sfm.swap_out_batch(&batch, 2).unwrap();
        let cause = |r: &SwapResult<SwapOutcome>| r.as_ref().unwrap_err().cause().clone();
        assert!(matches!(cause(&results[0]), Error::EntryExists { page: 5 }));
        assert!(matches!(cause(&results[1]), Error::InvalidConfig(_)));
        assert!(results[2].is_ok());
        assert!(sfm.contains(PageNumber::new(7)));
    }

    #[test]
    fn concurrent_disjoint_traffic_is_safe() {
        // 4 threads × disjoint page ranges, mixed fault/swap-out traffic.
        let sfm = Arc::new(plane(4));
        const PER_THREAD: u64 = 40;
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sfm = Arc::clone(&sfm);
                scope.spawn(move || {
                    let base = t * PER_THREAD;
                    let mut buf = Vec::with_capacity(PAGE_SIZE);
                    for i in 0..PER_THREAD {
                        let p = PageNumber::new(base + i);
                        let data = page_of(Corpus::Csv, base + i);
                        sfm.swap_out(p, &data).unwrap();
                        sfm.swap_in_into(p, false, &mut buf).unwrap();
                        assert_eq!(buf, data);
                    }
                });
            }
        });
        let stats = sfm.stats();
        assert_eq!(stats.swap_outs, 4 * PER_THREAD);
        assert_eq!(stats.swap_ins, 4 * PER_THREAD);
        assert_eq!(sfm.pool_stats().objects, 0);
    }

    #[test]
    fn only_a_contended_shard_lock_records_a_wait() {
        let registry = Registry::new();
        let mut sfm = plane(2);
        sfm.attach_telemetry(&registry);
        let page = PageNumber::new(3);
        let si = sfm.shard_of(page);
        let waits = |s: usize| {
            let name = format!("xfm_shard_lock_wait_ns{{shard=\"{s}\"}}");
            registry.histogram(&name).count()
        };
        sfm.swap_out(page, &page_of(Corpus::Json, 3)).unwrap();
        assert_eq!((waits(0), waits(1)), (0, 0), "nothing contended yet");

        // Hold the page's shard while a fault of it runs on another
        // thread: that fault has to wait, and only its shard records it.
        let held = sfm.shards[si].lock();
        std::thread::scope(|scope| {
            let fault = scope.spawn(|| sfm.swap_in(page, false).map(|(p, _)| p.len()));
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(held);
            assert_eq!(fault.join().unwrap().unwrap(), PAGE_SIZE);
        });
        assert_eq!(waits(si), 1);
        assert_eq!(waits(1 - si), 0);
    }

    #[test]
    fn only_a_contended_codec_state_list_records_a_wait() {
        let registry = Registry::new();
        let mut sfm = plane(2);
        sfm.attach_telemetry(&registry);
        let page = PageNumber::new(3);
        let waits = || registry.histogram("xfm_codec_state_lock_wait_ns").count();
        let shard_waits = || {
            let name = format!("xfm_shard_lock_wait_ns{{shard=\"{}\"}}", sfm.shard_of(page));
            registry.histogram(&name).count()
        };
        sfm.swap_out(page, &page_of(Corpus::Json, 3)).unwrap();
        assert_eq!(waits(), 0, "nothing contended yet");

        // Hold the page's shard's codec state and the spill list while a
        // fault, which takes codec state before it locks its shard, runs
        // on another thread: it finds the slot taken and waits on the
        // list, never on the slot.
        let slot = sfm.codec_slots[sfm.shard_of(page)].0.lock();
        let held = sfm.codec_spill.lock();
        std::thread::scope(|scope| {
            let fault = scope.spawn(|| sfm.swap_in(page, false).map(|(p, _)| p.len()));
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(held);
            assert_eq!(fault.join().unwrap().unwrap(), PAGE_SIZE);
        });
        drop(slot);
        assert_eq!(waits(), 1);
        assert_eq!(shard_waits(), 0, "the shard itself was free");
    }

    #[test]
    fn a_kept_load_leaves_the_entry_and_a_discard_decodes_nothing() {
        let registry = Registry::new();
        let mut sfm = plane(2);
        sfm.attach_telemetry(&registry);
        let ctx = OpContext::for_tenant(TenantId::new(4));
        let (page, data) = (PageNumber::new(9), page_of(Corpus::Json, 9));
        let stored = sfm.swap_out_ctx(&ctx, page, &data).unwrap();
        let mut out = Vec::new();
        for _ in 0..2 {
            let (outcome, kept) = sfm.load_into_ctx(&ctx, page, &mut out).unwrap();
            assert!(kept);
            assert_eq!(out, data);
            assert_eq!(outcome.compressed_len, stored.compressed_len);
        }
        // Still stored and billed, booked as loads and not swap-ins.
        assert!(sfm.contains(page));
        let len = u64::from(stored.compressed_len);
        assert_eq!(sfm.tenant_usage(), vec![(TenantId::new(4), len)]);
        let stats = sfm.stats();
        assert_eq!((stats.loads, stats.swap_ins, stats.discards), (2, 0, 0));
        let decodes = || registry.histogram("xfm_decompress_latency_ns").count();
        assert_eq!(decodes(), 2);

        assert_eq!(sfm.discard_ctx(&ctx, page).unwrap(), stored.compressed_len);
        assert!(!sfm.contains(page));
        assert!(sfm.tenant_usage().is_empty());
        assert_eq!(decodes(), 2, "a discard decoded");
        assert_eq!(sfm.stats().discards, 1);
        let err = sfm.discard_ctx(&ctx, page).unwrap_err();
        assert!(matches!(err.cause(), Error::EntryNotFound { page: 9 }));
        let stages: Vec<LifecycleStage> = registry
            .lifecycle()
            .page_history(9)
            .into_iter()
            .map(|e| e.stage)
            .collect();
        assert!(stages.contains(&LifecycleStage::Load), "{stages:?}");
        assert_eq!(stages.last(), Some(&LifecycleStage::Discard), "{stages:?}");
    }

    #[test]
    fn telemetry_records_per_shard_series() {
        let registry = Registry::new();
        let mut sfm = plane(2);
        sfm.attach_telemetry(&registry);
        for i in 0..8u64 {
            sfm.swap_out(PageNumber::new(i), &page_of(Corpus::Json, i))
                .unwrap();
        }
        let s = registry.snapshot();
        assert_eq!(s.counters["xfm_swap_outs_total"], 8);
        // Each shard's counter agrees with what that shard holds.
        let per_shard: Vec<u64> = (0..2)
            .map(|i| s.counters[&format!("xfm_shard_swap_outs_total{{shard=\"{i}\"}}")])
            .collect();
        assert_eq!(per_shard, sfm.shard_entries());
        assert_eq!(per_shard.iter().sum::<u64>(), 8);
        // The entries gauge is published by the swap itself.
        let gauged: Vec<u64> = (0..2)
            .map(|i| s.gauges[&format!("xfm_shard_entries{{shard=\"{i}\"}}")] as u64)
            .collect();
        assert_eq!(gauged, sfm.shard_entries());
        for i in 0..8u64 {
            sfm.swap_in(PageNumber::new(i), false).unwrap();
        }
        let s = registry.snapshot();
        let busy: u64 = (0..2)
            .map(|i| s.counters[&format!("xfm_shard_busy_ns_total{{shard=\"{i}\"}}")])
            .sum();
        assert!(busy > 0, "shard busy time must accumulate");
    }
}
