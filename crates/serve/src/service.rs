//! Tenant-aware key-value front-end over any [`SwapPlane`].
//!
//! Each tenant gets a bounded hot cache (resident quota), a compressed
//! far-memory budget (compressed quota), and an admission verdict per
//! write. The service owns no compression machinery: demotions and
//! faults go through the plane's context-carrying operations, so the
//! plane bills the right tenant and the service ledger mirrors the
//! plane's own accounting byte-for-byte.
//!
//! # Locking
//!
//! A tenant has a mutex over its bookkeeping (the far set, the
//! in-flight keys, the S3-FIFO queues, ledger and counters), and its
//! resident pages are split by a multiplicative hash of the key into 16
//! stripes, each a reader-writer lock over its pages beside the atomic
//! `gets`/`hits` of its keys, on a cache line of its own. The far set
//! and each stripe's pages are hash maps keyed by key
//! ([`xfm_types::hash::IntMap`], deterministic across processes), one
//! probe per lookup; nothing needs them ordered (`keys()` sorts).
//! Neither gives capacity back, so once each has held its most keys a
//! tenant's steady state allocates nothing. They are not sized from the
//! quota up front: the quota does not bound one stripe, and tables sized
//! for it are sparser than the keys a tenant holds below its quota
//! (`kv-hot` ran slower with them). A hot `get`
//! takes only its key's stripe's read lock: it copies the page out,
//! raises the page's frequency and bumps that stripe's `gets`/`hits`, so
//! hits of one tenant neither exclude each other nor write one shared
//! line. It needs no in-flight check, because a resident key is never in
//! flight. Every other operation — a miss, a put, a fault, a demotion —
//! takes the tenant mutex, and only a holder of the mutex write-locks a
//! stripe (mutex first), one at a time, to insert, overwrite or remove a
//! resident page: the quota pass write-locks the stripe of a queue's
//! head once per step. No caller holds two stripes.
//!
//! Two plane calls run with the tenant mutex held, and neither runs a
//! codec on a plane that implements it natively: `discard_ctx` (checksum
//! and consume of a stale copy) and `tenant_usage()` when a ledger is
//! re-derived. Neither runs under a stripe lock. So the order is tenant
//! mutex → one stripe lock, or tenant mutex → shard lock inside those
//! two calls, and the plane never calls back. On a plane without a
//! native discard the provided one decodes, under the mutex.
//!
//! Every codec-running plane call — a fault (`load_into_ctx` or
//! `swap_in_into_ctx`), a demotion (`swap_out_ctx`) — runs with the
//! mutex released. The caller takes the key out of the resident or far
//! set, marks it *in flight*, releases the tenant mutex, calls the
//! plane, re-locks and settles: ledger, the key's set, counters, then
//! wakes waiters. While a key is in flight it belongs to the caller that
//! marked it; any other operation on that key parks on the tenant's
//! condvar and re-reads the settled state, so a concurrent get of a
//! faulting key becomes a hit instead of a second fault, and a get of a
//! key being demoted faults it back after the demotion lands. A caller
//! holds at most one in-flight key and never waits while holding one,
//! so waits cannot cycle. The tenant mutex is never held together with
//! the degrade lock.
//!
//! Once telemetry is attached, every wait for a tenant's locks or its
//! condvar is recorded in `xfm_serve_lock_wait_ns{tenant=".."}`. The
//! clock is read only after a non-blocking attempt failed, so an
//! operation that did not wait costs nothing there. Every get that takes
//! the tenant mutex and every put also leaves its layers on the
//! lifecycle trail — tenant, stripe and in-flight waits, bookkeeping,
//! the discard of a stale copy, copy-out, the quota pass and the victims
//! it demoted — so that [`xfm_telemetry::LifecycleTrace::explain`]
//! rebuilds its critical path, and [`FarKvService::on_slow_op`] hands
//! that path over right after a slow one.
//!
//! # Eviction
//!
//! The resident keys sit in two FIFO queues, S3-FIFO's (Yang et al.,
//! SOSP '23): a *small* queue of 1/10 of the quota (at least one page)
//! and a *main* queue. Each resident page counts its accesses in two
//! bits: a hit or an overwrite raises the count up to 3, and a new
//! value enters at 0. A key that becomes resident — a fault or a put of
//! a new or demoted key — enters the small queue, so a one-hit wonder
//! leaves again without pushing a hot key out. The exception is the
//! *ghost*: a far key remembers the small-queue eviction at which it
//! left unpromoted, and one re-inserted within main's capacity of such
//! evictions enters main directly. These are the paper's constants,
//! not settings.
//!
//! The quota pass examines the small queue's head while that queue
//! holds at least its share, or while main is empty: a head accessed
//! since it entered moves to main's tail (`TenantSnapshot::promoted`),
//! and one that was not is the victim. Otherwise it examines main's
//! head, which goes to main's tail with its count lowered by one while
//! the count is above 0, and is the victim at 0. A victim the plane
//! refuses goes back to the head of the queue it left.
//!
//! A resident page is *backed* when the plane still holds a
//! byte-identical copy, billed to the tenant: a fault loads it with
//! `load_into_ctx` and the plane kept the entry (zswap's non-exclusive
//! load, Linux's swap cache). A backed victim is a *clean demotion*: it
//! moves to the far set with no plane call and no quota check, so a
//! value that is only read is compressed once. An overwrite of a backed
//! page discards the plane's copy first, and a put over a far key
//! discards it instead of decoding it. A fault keeps the copy only while
//! the tenant's ledger is under half its compressed quota — Linux's
//! `vm_swap_full()` rule for swap-cache slots — so kept copies never
//! crowd a tenant near its quota, and a tenant with no backed page sheds
//! and overflows exactly as it would with no kept copies at all.
//!
//! A dirty victim is demoted by a caller that overflowed the quota,
//! after it removed the victim from the hot cache — but a get never
//! compresses while it can help it. A get's pass turns the queues as a
//! put's does, and when the first victim it reaches is dirty while the
//! tenant holds at most `resident_quota` plus a slack of 1/64 of it, at
//! most 16 pages (constants: no slack below 64 pages), the get leaves
//! that victim in place at its queue's head and stops
//! (`TenantSnapshot::deferred`). A put's pass takes as many victims as
//! the tenant was pages over its quota when the pass began — with a
//! single caller, down to the quota — so the next put demotes it first:
//! the victim order stays S3-FIFO's, only who pays changes. Past the slack
//! a get pays as a put does, so a tenant that only reads stays bounded
//! too. A page another caller adds while a pass compresses is that
//! caller's to demote or defer, so readers cannot keep a put draining:
//! one put demotes at most the slack plus one page plus one page per
//! concurrent caller.
//!
//! So a tenant holds at most `resident_quota` plus the slack plus one
//! page per concurrent caller, and its compressed quota can be
//! overshot by one page per concurrent caller (the quota is checked
//! before the demotion, the ledger is credited after). A single caller
//! issues exactly the plane calls, in exactly the order, that it would
//! with the lock held throughout.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use xfm_faults::{DegradeController, DegradedMode};
use xfm_sfm::SwapPlane;
use xfm_telemetry::lifecycle::NO_SHARD;
use xfm_telemetry::{
    Cause, Counter, CriticalPath, Histogram, Layer, LifecycleStage, LifecycleTrace, Registry,
    TenantMetrics,
};
use xfm_types::hash::IntMap;
use xfm_types::{
    ByteSize, Error, OpContext, PageNumber, SwapError, SwapResult, SwapSite, TenantId, PAGE_SIZE,
};

/// Key bits inside a tenant's page namespace: page numbers are
/// `tenant << KEY_BITS | key`, so tenants can never collide on a page.
pub const KEY_BITS: u32 = 48;

/// The most pages of read slack a tenant gets, whatever its quota (a
/// tenant of 64 pages or more gets 1/64 of it up to this): it bounds
/// how many victims one put may be left to demote.
const READ_SLACK_MAX_PAGES: u64 = 16;

/// Stripes a tenant's resident pages are split into by key (a power of
/// two; a constant, not a setting).
const STRIPES: usize = 16;

/// The waits a traced operation tells apart, each its own [`Layer`].
#[derive(Debug, Clone, Copy)]
enum Wait {
    Tenant,
    Stripe,
    Settle,
}

const WAIT_LAYERS: [Layer; 3] = [Layer::TenantLock, Layer::StripeLock, Layer::Settle];

thread_local! {
    /// The calling thread's lock waits since its traced operation's
    /// last lap, by [`Wait`].
    static WAITS: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
}

/// The layer clock of one operation: each lap books the time since the
/// last one to a [`Layer`], less the lock waits recorded meanwhile,
/// which go to their own layers. Inert — no clock read — while no
/// telemetry is attached.
struct OpClock<'a>(Option<Laps<'a>>);

struct Laps<'a> {
    trail: &'a LifecycleTrace,
    tenant: TenantId,
    page: PageNumber,
    started: Instant,
    last: Instant,
    /// Wall ns by layer code.
    ns: [u64; 16],
}

impl<'a> OpClock<'a> {
    fn start(trail: Option<&'a LifecycleTrace>, tenant: TenantId, page: PageNumber) -> Self {
        OpClock(trail.map(|trail| {
            WAITS.set([0; 3]);
            let now = Instant::now();
            Laps {
                trail,
                tenant,
                page,
                started: now,
                last: now,
                ns: [0; 16],
            }
        }))
    }

    fn lap(&mut self, layer: Layer) {
        if let Some(l) = &mut self.0 {
            let now = Instant::now();
            let mut work = (now - l.last).as_nanos() as u64;
            for (waited, wait) in WAITS.replace([0; 3]).into_iter().zip(WAIT_LAYERS) {
                l.ns[usize::from(wait.code())] += waited;
                work = work.saturating_sub(waited);
            }
            l.ns[usize::from(layer.code())] += work;
            l.last = now;
        }
    }

    /// Skips the time since the last lap: a plane call, whose layers the
    /// plane records itself. Returns it.
    fn skip(&mut self) -> u64 {
        self.0.as_mut().map_or(0, |l| {
            let now = Instant::now();
            let ns = (now - l.last).as_nanos() as u64;
            l.last = now;
            ns
        })
    }

    /// Names `victim` as demoted by this operation, in a plane call of
    /// `ns`.
    fn evict(&self, victim: PageNumber, ns: u64) {
        if let Some(l) = &self.0 {
            let (stage, page) = (LifecycleStage::Evict, l.page.index());
            l.trail.record(
                stage,
                Cause::Ok,
                l.tenant,
                page,
                NO_SHARD,
                victim.index(),
                ns,
            );
        }
    }
}

/// What [`FarKvService::on_slow_op`] calls.
type SlowOpHook = Box<dyn Fn(&CriticalPath) + Send + Sync>;

/// What the operator promised a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceClass {
    /// Latency-sensitive: never shed by degraded-mode admission.
    Guaranteed,
    /// Throughput-oriented: writes are shed while the plane is in
    /// `CpuOnly` degradation, protecting guaranteed tenants' CPU.
    BestEffort,
}

impl ServiceClass {
    /// Stable lowercase name (used in exposition and JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ServiceClass::Guaranteed => "guaranteed",
            ServiceClass::BestEffort => "best_effort",
        }
    }
}

/// Per-tenant quotas and service class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// The tenant this spec provisions.
    pub tenant: TenantId,
    /// Admission treatment under degradation.
    pub class: ServiceClass,
    /// Hot-cache budget: resident (uncompressed) bytes.
    pub resident_quota: ByteSize,
    /// Far-memory budget: compressed bytes in the plane.
    pub compressed_quota: ByteSize,
}

impl TenantSpec {
    /// A guaranteed-class spec with the given quotas.
    #[must_use]
    pub fn new(tenant: TenantId, resident_quota: ByteSize, compressed_quota: ByteSize) -> Self {
        Self {
            tenant,
            class: ServiceClass::Guaranteed,
            resident_quota,
            compressed_quota,
        }
    }

    /// Returns `self` with the service class replaced.
    #[must_use]
    pub fn with_class(mut self, class: ServiceClass) -> Self {
        self.class = class;
        self
    }
}

/// Why admission control refused a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Both quotas exhausted: the hot cache is full and the compressed
    /// budget has no room to demote into.
    QuotaExhausted,
    /// Best-effort write refused while the plane is in `CpuOnly`
    /// degradation.
    Degraded,
}

impl ShedReason {
    /// Stable lowercase name (used in exposition and JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::QuotaExhausted => "quota_exhausted",
            ShedReason::Degraded => "degraded",
        }
    }
}

/// Outcome of an admitted or shed write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutResult {
    /// The value is stored (hot); `demotions` pages were evicted to the
    /// plane to make room.
    Stored {
        /// Pages demoted to far memory during this write.
        demotions: u32,
    },
    /// Admission control refused the write; the store is unchanged.
    Shed(ShedReason),
}

/// Where a read was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetSource {
    /// The hot cache (no plane involvement).
    Hot,
    /// A demand fault: decompressed out of the plane.
    Fault,
}

/// Outcome of a successful read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetOutcome {
    /// Where the value came from.
    pub source: GetSource,
    /// Wall-clock fault latency, when `source` is [`GetSource::Fault`].
    pub fault_ns: Option<u64>,
}

/// Point-in-time view of one tenant's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// The tenant observed.
    pub tenant: TenantId,
    /// Its service class.
    pub class: ServiceClass,
    /// Admitted writes.
    pub puts: u64,
    /// Reads (hits + faults + misses).
    pub gets: u64,
    /// Reads served from the hot cache.
    pub hits: u64,
    /// Reads served by a demand fault.
    pub faults: u64,
    /// Writes refused by admission control.
    pub sheds: u64,
    /// Pages demoted to the plane.
    pub demotions: u64,
    /// The demotions of backed pages: the plane still held their bytes,
    /// so they moved to far memory with no plane call (a subset of
    /// `demotions`).
    pub clean_demotions: u64,
    /// Demotions refused by the plane or the compressed quota while the
    /// hot cache was over budget (the page stayed resident).
    pub overflows: u64,
    /// Gets whose quota pass left a dirty victim in place for the next
    /// put, within the read slack.
    pub deferred: u64,
    /// Operations that found their key in flight and waited for the
    /// other caller's plane call to settle.
    pub coalesced: u64,
    /// Resident keys the quota pass moved from the small queue to main:
    /// they were read or overwritten while in the small queue.
    pub promoted: u64,
    /// Keys that became resident straight into main: they had left the
    /// small queue unpromoted within the last main-capacity evictions.
    pub ghost_hits: u64,
    /// Hot-cache bytes currently resident (a victim being demoted is
    /// not counted: it is held by the demoting caller).
    pub resident_bytes: u64,
    /// Compressed bytes currently billed in the plane (service ledger).
    pub compressed_bytes: u64,
    /// Median demand-fault latency (wall ns; 0 before the first fault).
    pub fault_p50_ns: u64,
    /// Tail demand-fault latency (wall ns; 0 before the first fault).
    pub fault_p99_ns: u64,
}

/// Per-tenant ledger line of an [`AccountingReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantBalance {
    /// The tenant.
    pub tenant: TenantId,
    /// Compressed bytes per the service ledger (outcome deltas).
    pub ledger_bytes: u64,
    /// Compressed bytes per the plane's own accounting.
    pub plane_bytes: u64,
}

/// Cross-layer accounting reconciliation.
///
/// `balanced` iff every tenant's service ledger equals the plane's
/// usage entry *and* the ledger total equals the plane total — i.e. no
/// byte was double-counted, leaked, or attributed to the wrong tenant
/// anywhere between the front-end and the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountingReport {
    /// One line per tenant known to either layer.
    pub per_tenant: Vec<TenantBalance>,
    /// Sum of the service ledgers.
    pub ledger_total: u64,
    /// Sum of the plane's per-tenant usage.
    pub plane_total: u64,
    /// Whether the two layers agree exactly.
    pub balanced: bool,
}

/// One tenant's bookkeeping, behind the tenant mutex: S3-FIFO queues,
/// far set, in-flight keys, ledger, counters.
struct TenantState {
    spec: TenantSpec,
    /// S3-FIFO's small and main queues, in insertion order: together
    /// they hold exactly the keys of [`Tenant::hot`]'s stripes.
    small: VecDeque<u64>,
    main: VecDeque<u64>,
    /// The share of the quota the small queue holds before the quota
    /// pass turns to main: 1/10 of the quota, at least one page.
    small_share: usize,
    /// Keys currently demoted to the plane, each with the small-queue
    /// eviction it left at unpromoted (S3-FIFO's ghost), or 0.
    far: IntMap<u64, u64>,
    /// Small-queue evictions so far, numbered from 1, and how many of
    /// the last ones the ghost remembers: main's capacity.
    small_evictions: u64,
    ghost_window: u64,
    /// Keys a caller is taking through the plane with the lock released
    /// (neither resident nor far); one entry per concurrent caller at
    /// most.
    in_flight: Vec<u64>,
    /// Operations parked on the tenant's condvar.
    waiters: u32,
    /// Page buffers of demoted victims, reused by the next insert.
    spare: Vec<Vec<u8>>,
    /// A plane failure consumed an entry without reporting its size;
    /// the ledger is re-derived once nothing is in flight.
    ledger_stale: bool,
    /// Compressed bytes billed to this tenant, mirrored from outcomes
    /// (backed pages' copies included).
    compressed_bytes: u64,
    /// Resident pages whose [`HotPage::backed`] is set.
    backed_pages: usize,
    puts: u64,
    faults: u64,
    sheds: u64,
    demotions: u64,
    clean_demotions: u64,
    overflows: u64,
    deferred: u64,
    coalesced: u64,
    promoted: u64,
    ghost_hits: u64,
    fault_ns: Histogram,
}

impl TenantState {
    fn new(spec: TenantSpec) -> Self {
        let pages = (spec.resident_quota.as_bytes() / PAGE_SIZE as u64) as usize;
        let small_share = (pages / 10).max(1);
        Self {
            spec,
            // Sized for a single caller's most, so neither ever grows.
            small: VecDeque::with_capacity(pages + 1),
            main: VecDeque::with_capacity(pages + 1),
            small_share,
            far: IntMap::default(),
            small_evictions: 0,
            ghost_window: pages.saturating_sub(small_share) as u64,
            in_flight: Vec::new(),
            waiters: 0,
            spare: Vec::new(),
            ledger_stale: false,
            compressed_bytes: 0,
            backed_pages: 0,
            puts: 0,
            faults: 0,
            sheds: 0,
            demotions: 0,
            clean_demotions: 0,
            overflows: 0,
            deferred: 0,
            coalesced: 0,
            promoted: 0,
            ghost_hits: 0,
            fault_ns: Histogram::new(),
        }
    }

    /// The context this tenant's plane calls carry.
    fn ctx(&self) -> OpContext {
        OpContext::for_tenant(self.spec.tenant)
    }

    fn resident_bytes(&self) -> u64 {
        ((self.small.len() + self.main.len()) * PAGE_SIZE) as u64
    }

    /// Whether a far key that left at small-queue eviction `left` is
    /// still in the ghost.
    fn in_ghost(&self, left: u64) -> bool {
        left != 0 && self.small_evictions - left < self.ghost_window
    }

    /// The small queue, or main.
    fn queue(&mut self, small: bool) -> &mut VecDeque<u64> {
        if small {
            &mut self.small
        } else {
            &mut self.main
        }
    }

    /// Books a demoted victim into the far set; one from the small
    /// queue enters the ghost.
    fn book_far(&mut self, victim: &Victim) {
        let left = if victim.small {
            self.small_evictions += 1;
            self.small_evictions
        } else {
            0
        };
        self.far.insert(victim.key, left);
        self.demotions += 1;
    }

    /// The resident bytes up to which a get leaves a dirty victim for
    /// the next put: the quota plus 1/64 of it, at most
    /// [`READ_SLACK_MAX_PAGES`].
    fn read_slack_limit(&self) -> u64 {
        let quota = self.spec.resident_quota.as_bytes();
        quota + (quota / 64).min(READ_SLACK_MAX_PAGES * PAGE_SIZE as u64)
    }

    /// Whether the compressed quota leaves no room for a demotion that
    /// stores bytes.
    fn compressed_full(&self) -> bool {
        self.compressed_bytes >= self.spec.compressed_quota.as_bytes()
    }

    /// Whether a fault may keep the plane's copy: only while the ledger
    /// is under half the compressed quota (Linux's `vm_swap_full()`
    /// rule for swap-cache slots — a constant, not a setting).
    fn keeps_copies(&self) -> bool {
        self.compressed_bytes < self.spec.compressed_quota.as_bytes() / 2
    }

    /// A page buffer for the next resident value: a demoted victim's
    /// when one is spare, else a fresh one.
    fn take_buffer(&mut self) -> Vec<u8> {
        self.spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(PAGE_SIZE))
    }
}

/// The most a page's access frequency counts to (two bits).
const FREQ_MAX: u8 = 3;

/// A resident value, its S3-FIFO access frequency, and whether the
/// plane holds a copy of it.
struct HotPage {
    data: Vec<u8>,
    /// Raised by a hit or an overwrite up to [`FREQ_MAX`]; lowered by
    /// each pass of main's head.
    freq: AtomicU8,
    /// The plane still holds a byte-identical copy of `data`, billed to
    /// the tenant (a fault kept it). Changed only with the tenant mutex
    /// held, under its stripe's write lock.
    backed: bool,
}

impl HotPage {
    fn unreferenced(data: Vec<u8>, backed: bool) -> Self {
        Self {
            data,
            freq: AtomicU8::new(0),
            backed,
        }
    }
}

/// A page the quota pass took out of the resident pages.
struct Victim {
    key: u64,
    data: Vec<u8>,
    backed: bool,
    /// It left the small queue (else main).
    small: bool,
}

/// The resident pages of the keys that hash to one stripe, and those
/// keys' reads: everything a hit writes — the lock word, `gets` and
/// `hits` — on one cache line, shared with no other stripe.
#[repr(C, align(64))]
struct Stripe {
    /// Hits read-lock it; it is write-locked only with the tenant mutex
    /// held.
    pages: RwLock<IntMap<u64, HotPage>>,
    /// Reads (hits + faults + misses) and reads served from `pages`:
    /// atomics, so that a hit takes no mutex.
    gets: AtomicU64,
    hits: AtomicU64,
}

// The layout the doc above promises.
const _: () = assert!(std::mem::size_of::<Stripe>() == 64);

/// One tenant's slot: its resident pages in [`STRIPES`] stripes, its
/// bookkeeping behind the tenant mutex, and the condvar operations park
/// on while the key they need is in flight. The mutex's word sits on a
/// line after the stripes'.
#[repr(C, align(64))]
struct Tenant {
    /// Resident pages, by [`Tenant::stripe`] of their key.
    hot: [Stripe; STRIPES],
    settled: Condvar,
    /// `xfm_tenant_shed_total{tenant=..}`, resolved once when telemetry
    /// attaches (the tenant set is fixed): a shed takes no second lock.
    sheds: Option<Arc<Counter>>,
    /// `xfm_serve_lock_wait_ns{tenant=..}`, resolved the same way.
    lock_wait_ns: Option<Arc<Histogram>>,
    /// `xfm_serve_quota_pass_ns{tenant=..,op=..}`, gets' then puts',
    /// resolved the same way.
    quota_pass_ns: Option<[Arc<Histogram>; 2]>,
    state: Mutex<TenantState>,
}

const _: () = assert!(std::mem::offset_of!(Tenant, state) >= STRIPES * 64);

impl Tenant {
    fn new(spec: TenantSpec) -> Self {
        Self {
            state: Mutex::new(TenantState::new(spec)),
            hot: std::array::from_fn(|_| Stripe {
                pages: RwLock::new(IntMap::default()),
                gets: AtomicU64::new(0),
                hits: AtomicU64::new(0),
            }),
            settled: Condvar::new(),
            sheds: None,
            lock_wait_ns: None,
            quota_pass_ns: None,
        }
    }

    fn count_shed(&self) {
        if let Some(sheds) = &self.sheds {
            sheds.inc();
        }
    }

    /// Records a wait in the histogram and in the calling thread's
    /// traced operation.
    fn record_wait(&self, since: Instant, wait: Wait) {
        if let Some(h) = &self.lock_wait_ns {
            let ns = since.elapsed().as_nanos() as u64;
            h.record(ns);
            let mut waits = WAITS.get();
            waits[wait as usize] += ns;
            WAITS.set(waits);
        }
    }

    /// `try_acquire`'s guard, else `acquire`'s, with the wait recorded.
    fn acquire<G>(
        &self,
        wait: Wait,
        try_acquire: impl FnOnce() -> Option<G>,
        acquire: impl FnOnce() -> G,
    ) -> G {
        try_acquire().unwrap_or_else(|| {
            let since = Instant::now();
            let guard = acquire();
            self.record_wait(since, wait);
            guard
        })
    }

    fn lock(&self) -> MutexGuard<'_, TenantState> {
        self.acquire(Wait::Tenant, || self.state.try_lock(), || self.state.lock())
    }

    /// `key`'s stripe: the top bits of a multiplicative hash.
    fn stripe(&self, key: u64) -> &Stripe {
        let hash = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.hot[(hash >> (64 - STRIPES.ilog2())) as usize]
    }

    fn read_hot(&self, key: u64) -> RwLockReadGuard<'_, IntMap<u64, HotPage>> {
        let pages = &self.stripe(key).pages;
        self.acquire(Wait::Stripe, || pages.try_read(), || pages.read())
    }

    fn write_hot(&self, key: u64) -> RwLockWriteGuard<'_, IntMap<u64, HotPage>> {
        let pages = &self.stripe(key).pages;
        self.acquire(Wait::Stripe, || pages.try_write(), || pages.write())
    }

    /// Locks the tenant and waits until no other caller has `key` in
    /// flight, so the state read next is settled for that key.
    fn lock_settled(&self, key: u64) -> MutexGuard<'_, TenantState> {
        let mut st = self.lock();
        if st.in_flight.contains(&key) {
            let since = Instant::now();
            st.coalesced += 1;
            st.waiters += 1;
            while st.in_flight.contains(&key) {
                // Poisoning is ignored, as `Mutex::lock` does.
                st = self
                    .settled
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.waiters -= 1;
            self.record_wait(since, Wait::Settle);
        }
        st
    }

    /// Serves `key` from the resident pages into `out` under its
    /// stripe's read lock alone, raising its frequency; `false` when it is not
    /// resident.
    fn copy_hot(&self, key: u64, out: &mut Vec<u8>) -> bool {
        let stripe = self.stripe(key);
        let hot = self.acquire(
            Wait::Stripe,
            || stripe.pages.try_read(),
            || stripe.pages.read(),
        );
        let Some(page) = hot.get(&key) else {
            return false;
        };
        out.clear();
        out.extend_from_slice(&page.data);
        // Relaxed: the count publishes no other data, and a racing hit
        // may lose an increment. The load first keeps a saturated page
        // that every client hits in a shared cache line.
        let freq = page.freq.load(Ordering::Relaxed);
        if freq < FREQ_MAX {
            page.freq.store(freq + 1, Ordering::Relaxed);
        }
        // Release: publishes this get's `gets` to a snapshot that sees
        // the hit.
        stripe.hits.fetch_add(1, Ordering::Release);
        true
    }

    /// Whether `key` is resident and backed. The caller holds the mutex.
    fn is_backed(&self, key: u64) -> bool {
        self.read_hot(key).get(&key).is_some_and(|page| page.backed)
    }

    /// Clears resident `key`'s backed flag: the plane's copy is gone.
    /// The caller holds the mutex.
    fn unback(&self, st: &mut TenantState, key: u64) {
        if let Some(page) = self.write_hot(key).get_mut(&key) {
            st.backed_pages -= usize::from(std::mem::take(&mut page.backed));
        }
    }

    /// Overwrites `key`'s resident page in place, raises its frequency
    /// and clears its backed flag; `false` when it is not resident. The
    /// caller holds the mutex and has discarded a backed page's copy.
    fn overwrite_hot(&self, st: &mut TenantState, key: u64, value: &[u8]) -> bool {
        let mut hot = self.write_hot(key);
        let Some(page) = hot.get_mut(&key) else {
            return false;
        };
        page.data.clear();
        page.data.extend_from_slice(value);
        let freq = page.freq.get_mut();
        *freq = (*freq + 1).min(FREQ_MAX);
        st.backed_pages -= usize::from(std::mem::take(&mut page.backed));
        true
    }

    /// Makes `key` resident with frequency 0 at the small queue's tail,
    /// or at main's when it left the small queue at eviction `left` and
    /// is still in the ghost. The key must not be resident already.
    fn insert_hot(&self, st: &mut TenantState, key: u64, data: Vec<u8>, backed: bool, left: u64) {
        let old = self
            .write_hot(key)
            .insert(key, HotPage::unreferenced(data, backed));
        debug_assert!(old.is_none(), "key {key} was already resident");
        if st.in_ghost(left) {
            st.ghost_hits += 1;
            st.main.push_back(key);
        } else {
            st.small.push_back(key);
        }
        st.backed_pages += usize::from(backed);
    }

    /// Puts a victim that was not demoted back: resident, frequency 0,
    /// at the head of the queue it left, so it is the next victim again.
    fn restore_victim(&self, st: &mut TenantState, victim: Victim) {
        self.write_hot(victim.key)
            .insert(victim.key, HotPage::unreferenced(victim.data, false));
        st.queue(victim.small).push_front(victim.key);
    }

    /// Takes the S3-FIFO victim out of the resident pages. While the
    /// small queue holds at least its share, or main is empty, its head
    /// is examined: one with a nonzero frequency moves to main's tail
    /// (promoted), unless main has no capacity (a 1-page tenant), where
    /// it is the victim as with an empty main. Otherwise main's head is:
    /// one with a nonzero frequency has it lowered and goes to main's
    /// tail. The first head at frequency 0 is the victim. `None` when nothing is resident, or
    /// when `leave_dirty` is set and the victim is dirty: it then stays
    /// resident, in place at its queue's head. Each step write-locks
    /// only the head key's stripe.
    fn pop_victim(&self, st: &mut TenantState, leave_dirty: bool) -> Option<Victim> {
        loop {
            let small = st.small.len() >= st.small_share || st.main.is_empty();
            let &key = st.queue(small).front()?;
            let mut hot = self.write_hot(key);
            let Entry::Occupied(mut page) = hot.entry(key) else {
                unreachable!("the queues hold resident keys only");
            };
            let freq = page.get_mut().freq.get_mut();
            if *freq > 0 && small && st.ghost_window > 0 {
                st.small.pop_front();
                st.main.push_back(key);
                st.promoted += 1;
            } else if *freq > 0 && !small {
                *freq -= 1;
                st.main.rotate_left(1);
            } else if leave_dirty && !page.get().backed {
                return None;
            } else {
                st.queue(small).pop_front();
                let page = page.remove();
                st.backed_pages -= usize::from(page.backed);
                return Some(Victim {
                    key,
                    data: page.data,
                    backed: page.backed,
                    small,
                });
            }
        }
    }

    fn snapshot(&self) -> TenantSnapshot {
        let st = self.lock();
        // Every stripe's hits before any stripe's gets, so each hit seen
        // brings its get (and the mutex each fault's): hits + faults <=
        // gets.
        let total = |count: fn(&Stripe) -> &AtomicU64, order| {
            self.hot.iter().map(|s| count(s).load(order)).sum()
        };
        let hits = total(|s| &s.hits, Ordering::Acquire);
        let gets = total(|s| &s.gets, Ordering::Relaxed);
        TenantSnapshot {
            tenant: st.spec.tenant,
            class: st.spec.class,
            puts: st.puts,
            gets,
            hits,
            faults: st.faults,
            sheds: st.sheds,
            demotions: st.demotions,
            clean_demotions: st.clean_demotions,
            overflows: st.overflows,
            deferred: st.deferred,
            coalesced: st.coalesced,
            promoted: st.promoted,
            ghost_hits: st.ghost_hits,
            resident_bytes: st.resident_bytes(),
            compressed_bytes: st.compressed_bytes,
            fault_p50_ns: st.fault_ns.quantile(0.50),
            fault_p99_ns: st.fault_ns.quantile(0.99),
        }
    }
}

/// A get served by the resident pages.
const HIT: GetOutcome = GetOutcome {
    source: GetSource::Hot,
    fault_ns: None,
};

/// Multi-tenant key-value service over a shared swap plane.
///
/// The tenant set is fixed at construction: each tenant's state sits
/// behind its own locks, so operations for different tenants contend
/// only inside the (itself sharded) plane, hot reads of one tenant take
/// read locks of its key-hashed stripes, and its other operations
/// contend only for bookkeeping — no lock is held across a plane call
/// (see the module docs). One
/// [`DegradeController`] watches demotion outcomes across all tenants
/// and drives class-aware admission.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use xfm_serve::{FarKvService, TenantSpec};
/// use xfm_sfm::{ShardedSfm, ShardedSfmConfig};
/// use xfm_types::{ByteSize, TenantId, PAGE_SIZE};
///
/// let plane = Arc::new(ShardedSfm::new(ShardedSfmConfig::default()));
/// let svc = FarKvService::new(
///     plane,
///     vec![TenantSpec::new(
///         TenantId::new(1),
///         ByteSize::from_pages(2), // hot cache: two pages
///         ByteSize::from_mib(1),
///     )],
/// );
/// let t = TenantId::new(1);
/// let page = vec![7u8; PAGE_SIZE];
/// for key in 0..4 {
///     svc.put(t, key, &page)?;
/// }
/// // Two of the four values were demoted to far memory...
/// assert_eq!(svc.snapshot(t).unwrap().demotions, 2);
/// // ...and every value still reads back intact.
/// let mut out = Vec::new();
/// for key in 0..4 {
///     assert!(svc.get(t, key, &mut out)?.is_some());
///     assert_eq!(out, page);
/// }
/// assert!(svc.accounting().balanced);
/// # Ok::<(), xfm_types::SwapError>(())
/// ```
pub struct FarKvService {
    plane: Arc<dyn SwapPlane>,
    tenants: BTreeMap<u16, Tenant>,
    /// Locked only to record an outcome, never to read the mode.
    degrade: Mutex<DegradeController>,
    /// Mirror of the controller's mode ([`DegradedMode::level`]),
    /// stored under the `degrade` lock on every transition.
    mode: AtomicU8,
    /// Where operations record their layers, once telemetry attaches.
    registry: Option<Registry>,
    /// Called with the path of a traced operation at least this many ns
    /// long.
    slow_op: Option<(u64, SlowOpHook)>,
}

impl std::fmt::Debug for FarKvService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FarKvService")
            .field("tenants", &self.tenants.len())
            .finish_non_exhaustive()
    }
}

impl FarKvService {
    /// Builds a service over `plane` for a fixed tenant set.
    #[must_use]
    pub fn new(plane: Arc<dyn SwapPlane>, specs: Vec<TenantSpec>) -> Self {
        let tenants = specs
            .into_iter()
            .map(|s| (s.tenant.as_u16(), Tenant::new(s)))
            .collect();
        let degrade = DegradeController::default();
        Self {
            plane,
            tenants,
            mode: AtomicU8::new(degrade.mode().level()),
            degrade: Mutex::new(degrade),
            registry: None,
            slow_op: None,
        }
    }

    /// Registers per-tenant shed counters, lock-wait histograms
    /// (`xfm_serve_lock_wait_ns{tenant=".."}`) and quota-pass histograms
    /// (`xfm_serve_quota_pass_ns{tenant="..",op="get"|"put"}`) on
    /// `registry`. The plane's own telemetry (swap counts, bytes, fault
    /// histograms) attaches on the plane; the service only adds what the
    /// plane cannot see — operations shed before reaching it, time spent
    /// waiting in the service, and what an operation's quota pass cost
    /// it.
    ///
    /// From then on every get that takes its tenant's lock and every put
    /// leaves its layers on the registry's lifecycle trail (see
    /// [`LifecycleTrace::explain`]): lock waits, bookkeeping, copy-out,
    /// the quota pass and the victims it demoted.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.registry = Some(registry.clone());
        registry.describe(
            "xfm_serve_lock_wait_ns",
            "Time a serve operation waited for a tenant lock or for an in-flight key to settle (wall ns).",
        );
        registry.describe(
            "xfm_serve_quota_pass_ns",
            "Time a get or put spent in a quota pass that found the hot cache over its quota, demotions included (wall ns).",
        );
        let metrics = TenantMetrics::register(registry);
        for (&id, slot) in &mut self.tenants {
            slot.sheds = Some(Arc::clone(&metrics.series(TenantId::new(id)).sheds));
            slot.lock_wait_ns =
                Some(registry.histogram(&format!("xfm_serve_lock_wait_ns{{tenant=\"{id}\"}}")));
            slot.quota_pass_ns = Some(["get", "put"].map(|op| {
                registry.histogram(&format!(
                    "xfm_serve_quota_pass_ns{{tenant=\"{id}\",op=\"{op}\"}}"
                ))
            }));
        }
    }

    /// Calls `hook`, with no lock held, with the critical path of every
    /// traced operation that took at least `threshold`, right after it
    /// finished: the trail wraps too fast to ask later. Operations are
    /// traced only while telemetry is attached
    /// ([`attach_telemetry`](Self::attach_telemetry)); a hit is never
    /// traced.
    pub fn on_slow_op(
        &mut self,
        threshold: Duration,
        hook: impl Fn(&CriticalPath) + Send + Sync + 'static,
    ) {
        let ns = u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX);
        self.slow_op = Some((ns, Box::new(hook)));
    }

    /// The layer clock of an operation on `(tenant, key)`.
    fn clock(&self, tenant: TenantId, key: u64) -> OpClock<'_> {
        let trail = self.registry.as_ref().map(Registry::lifecycle);
        OpClock::start(trail, tenant, Self::page_of(tenant, key))
    }

    /// Ends a traced operation: records its layers and then its end
    /// (`stage`, `aux`) on the trail, and hands its path to the slow-op
    /// hook when it took the hook's threshold. Called with no lock held.
    fn finish(&self, clock: OpClock<'_>, stage: LifecycleStage, aux: u64) {
        let Some(l) = clock.0 else {
            return;
        };
        let total = l.started.elapsed().as_nanos() as u64;
        let (tenant, page) = (l.tenant, l.page.index());
        for layer in Layer::all() {
            let ns = l.ns[usize::from(layer.code())];
            if ns > 0 {
                let (span, code) = (LifecycleStage::Span, u64::from(layer.code()));
                l.trail
                    .record(span, Cause::Ok, tenant, page, NO_SHARD, code, ns);
            }
        }
        l.trail
            .record(stage, Cause::Ok, tenant, page, NO_SHARD, aux, total);
        if let Some((threshold, hook)) = &self.slow_op {
            if total >= *threshold {
                if let Some(path) = l.trail.explain(page) {
                    hook(&path);
                }
            }
        }
    }

    /// The shared plane this service fronts.
    #[must_use]
    pub fn plane(&self) -> &Arc<dyn SwapPlane> {
        &self.plane
    }

    /// Current degraded-mode verdict of the admission controller.
    #[must_use]
    pub fn degraded_mode(&self) -> DegradedMode {
        // Relaxed: the mode publishes no other data.
        DegradedMode::from_level(self.mode.load(Ordering::Relaxed))
            .expect("the mirror only ever holds DegradedMode::level values")
    }

    /// Feeds one outcome to the degrade controller and mirrors a mode
    /// change. Never called with a tenant lock held.
    fn record_health(&self, f: impl FnOnce(&mut DegradeController) -> Option<DegradedMode>) {
        let mut ctl = self.degrade.lock();
        if let Some(mode) = f(&mut ctl) {
            self.mode.store(mode.level(), Ordering::Relaxed);
        }
    }

    /// The plane page number backing `(tenant, key)`.
    fn page_of(tenant: TenantId, key: u64) -> PageNumber {
        PageNumber::new((u64::from(tenant.as_u16()) << KEY_BITS) | key)
    }

    fn tenant(&self, tenant: TenantId) -> SwapResult<&Tenant> {
        self.tenants.get(&tenant.as_u16()).ok_or_else(|| {
            SwapError::new(
                SwapSite::HostSubmit,
                Error::InvalidConfig(format!("unknown {tenant}")),
            )
        })
    }

    /// Hands an in-flight `key` back: the caller has re-locked and put
    /// the key where its plane call left it. Wakes the operations that
    /// waited for it.
    fn settle(&self, slot: &Tenant, st: &mut TenantState, key: u64) {
        st.in_flight.retain(|&k| k != key);
        self.resync_ledger(st);
        if st.waiters > 0 {
            slot.settled.notify_all();
        }
    }

    /// Re-derives a ledger marked stale (an entry-consuming failure such
    /// as `Corrupt`, where no outcome reports how many bytes the plane
    /// credited back) from the plane, once nothing of this tenant is in
    /// flight — only then do the plane's usage and the outcomes already
    /// mirrored describe the same set of entries.
    fn resync_ledger(&self, st: &mut TenantState) {
        if st.ledger_stale && st.in_flight.is_empty() {
            st.ledger_stale = false;
            st.compressed_bytes = self
                .plane
                .tenant_usage()
                .into_iter()
                .find(|(t, _)| *t == st.spec.tenant)
                .map_or(0, |(_, b)| b);
        }
    }

    /// Puts `key` back after its fault failed: a retryable error left
    /// the plane entry intact, so the key is still demoted; anything
    /// else may have consumed the entry, so the key is forgotten and the
    /// ledger re-derived.
    fn settle_failed_swap_in(
        &self,
        slot: &Tenant,
        st: &mut TenantState,
        key: u64,
        left: u64,
        buf: Vec<u8>,
        e: &SwapError,
    ) {
        st.spare.push(buf);
        if e.retryable {
            st.far.insert(key, left);
        } else {
            st.ledger_stale = true;
        }
        self.settle(slot, st, key);
    }

    /// Discards the plane's copy of `key` with the tenant mutex held (a
    /// native discard runs no codec) and credits the bytes back. A
    /// retryable error left the entry intact; any other may have
    /// consumed it, so the ledger is re-derived.
    fn discard(&self, st: &mut TenantState, key: u64) -> SwapResult<()> {
        let page = Self::page_of(st.spec.tenant, key);
        match self.plane.discard_ctx(&st.ctx(), page) {
            Ok(len) => {
                st.compressed_bytes = st.compressed_bytes.saturating_sub(u64::from(len));
                Ok(())
            }
            Err(e) => {
                if !e.retryable {
                    st.ledger_stale = true;
                    self.resync_ledger(st);
                }
                Err(e)
            }
        }
    }

    /// Demotes S3-FIFO victims until the hot cache fits its quota; returns
    /// how many this call demoted. A backed victim moves to the far set
    /// under the lock with no plane call. A dirty one is swapped out
    /// with the tenant lock released around the plane call; the pass
    /// stops (leaving the cache over budget and counting an overflow)
    /// when the compressed quota is exhausted or the plane refuses —
    /// values are never dropped: a dirty victim that stays goes back to
    /// the head of its queue, so it is the next victim again.
    ///
    /// A get's pass (`is_get`) also stops at a dirty victim while the
    /// tenant holds at most [`TenantState::read_slack_limit`], leaving
    /// the victim in place at its queue's head for the next put (counted
    /// in `deferred`). So a tenant holds at most `resident_quota` plus
    /// the slack (`resident_quota / 64`, at most
    /// [`READ_SLACK_MAX_PAGES`]) plus one page per concurrent caller;
    /// past that slack a get demotes as a put does.
    ///
    /// A pass takes at most as many victims as the tenant was pages over
    /// its quota when the pass began: a page another caller adds while
    /// this one compresses is that caller's to demote (or to defer), so
    /// readers faulting steadily cannot keep a put draining. One put
    /// thus demotes at most the slack plus one page plus one page per
    /// concurrent caller.
    fn enforce_resident_quota<'a>(
        &self,
        slot: &'a Tenant,
        mut st: MutexGuard<'a, TenantState>,
        is_get: bool,
        clock: &mut OpClock<'_>,
    ) -> u32 {
        let quota = st.spec.resident_quota.as_bytes();
        if st.resident_bytes() <= quota {
            return 0;
        }
        let timer = slot
            .quota_pass_ns
            .as_ref()
            .map(|h| (&h[usize::from(!is_get)], Instant::now()));
        let tenant = st.spec.tenant;
        let ctx = st.ctx();
        let mut victims = (st.resident_bytes() - quota).div_ceil(PAGE_SIZE as u64);
        let mut demoted = 0;
        while victims > 0 && st.resident_bytes() > quota {
            victims -= 1;
            let leave_dirty = is_get && st.resident_bytes() <= st.read_slack_limit();
            // With the quota exhausted only a backed victim can leave;
            // with none resident, the queues are not even turned.
            if st.compressed_full() && st.backed_pages == 0 {
                st.overflows += 1;
                break;
            }
            let Some(victim) = slot.pop_victim(&mut st, leave_dirty) else {
                st.deferred += u64::from(leave_dirty);
                break;
            };
            if victim.backed {
                st.book_far(&victim);
                st.clean_demotions += 1;
                st.spare.push(victim.data);
                demoted += 1;
                continue;
            }
            if st.compressed_full() {
                slot.restore_victim(&mut st, victim);
                st.overflows += 1;
                break;
            }
            st.in_flight.push(victim.key);
            drop(st);
            clock.lap(Layer::QuotaPass);

            let page = Self::page_of(tenant, victim.key);
            let r = self.plane.swap_out_ctx(&ctx, page, &victim.data);
            let plane_ns = clock.skip();
            clock.evict(page, plane_ns);
            // The controller watches demotion *health*, not NMA usage:
            // a CPU-only plane is healthy, an NMA plane reports its
            // offload failures as retryable errors.
            match &r {
                Ok(_) => self.record_health(|ctl| ctl.record_offload(true)),
                Err(e) if e.retryable => self.record_health(|ctl| ctl.record_offload(false)),
                Err(_) => {}
            }

            st = slot.lock();
            let (key, refused) = (victim.key, r.is_err());
            match r {
                Ok(outcome) => {
                    st.compressed_bytes += u64::from(outcome.compressed_len);
                    st.book_far(&victim);
                    st.spare.push(victim.data);
                    demoted += 1;
                }
                Err(_) => {
                    // Region full or transient reject: keep the victim
                    // resident rather than lose it; admission will shed
                    // incoming writes while we stay over budget.
                    slot.restore_victim(&mut st, victim);
                    st.overflows += 1;
                }
            }
            self.settle(slot, &mut st, key);
            if refused {
                break;
            }
        }
        drop(st);
        clock.lap(Layer::QuotaPass);
        if let Some((h, started)) = timer {
            h.record(started.elapsed().as_nanos() as u64);
        }
        demoted
    }

    /// Stores one page-sized value under `(tenant, key)`.
    ///
    /// Admission may shed the write ([`PutResult::Shed`]): best-effort
    /// tenants are refused while the plane is in `CpuOnly` degradation,
    /// and any tenant is refused when both its quotas are exhausted.
    /// When the plane holds a copy of the key — a demoted value, or a
    /// resident one a fault kept — that copy is discarded first, with no
    /// decode, so the ledger never double-bills a key and a later
    /// demotion never finds a stale copy.
    ///
    /// # Errors
    ///
    /// - [`Error::InvalidConfig`] (via [`SwapError`]) for an unknown
    ///   tenant, a value not exactly 4 KiB, or a key outside
    ///   [`KEY_BITS`];
    /// - any plane error from discarding the plane's copy. After a
    ///   retryable one the key still holds its old value; after any
    ///   other the copy may be gone, so a resident key keeps its old
    ///   value and a demoted one is forgotten.
    pub fn put(&self, tenant: TenantId, key: u64, value: &[u8]) -> SwapResult<PutResult> {
        if value.len() != PAGE_SIZE {
            return Err(SwapError::new(
                SwapSite::HostSubmit,
                Error::InvalidConfig(format!("value must be {PAGE_SIZE} bytes")),
            ));
        }
        if key >> KEY_BITS != 0 {
            return Err(SwapError::new(
                SwapSite::HostSubmit,
                Error::InvalidConfig(format!("key {key} exceeds {KEY_BITS} bits")),
            ));
        }
        let slot = self.tenant(tenant)?;
        let mut clock = self.clock(tenant, key);
        let stored = self.put_checked(slot, key, value, &mut clock)?;
        clock.lap(Layer::Bookkeeping);
        let demotions = match stored {
            PutResult::Stored { demotions } => demotions,
            PutResult::Shed(_) => 0,
        };
        self.finish(clock, LifecycleStage::Put, u64::from(demotions));
        Ok(stored)
    }

    /// [`put`](Self::put) of a checked value, its layers lapped on
    /// `clock`.
    fn put_checked(
        &self,
        slot: &Tenant,
        key: u64,
        value: &[u8],
        clock: &mut OpClock<'_>,
    ) -> SwapResult<PutResult> {
        // Settled first, so admission below sees a key that another
        // caller has in flight where that caller's plane call left it.
        let mut st = slot.lock_settled(key);

        // Admission: degraded-mode shedding for best-effort tenants.
        if st.spec.class == ServiceClass::BestEffort
            && self.degraded_mode() == DegradedMode::CpuOnly
        {
            st.sheds += 1;
            slot.count_shed();
            return Ok(PutResult::Shed(ShedReason::Degraded));
        }
        // A backed value's plane copy is about to go stale: discard it
        // before the value changes, so a failure leaves the key as it was.
        if st.backed_pages > 0 && slot.is_backed(key) {
            clock.lap(Layer::Bookkeeping);
            let discarded = self.discard(&mut st, key);
            clock.lap(Layer::Discard);
            if let Err(e) = discarded {
                if !e.retryable {
                    slot.unback(&mut st, key);
                }
                return Err(e);
            }
        }
        // Overwrites are always admitted (no net growth); a resident one
        // copies in place.
        if !slot.overwrite_hot(&mut st, key, value) {
            // Admission: a *new* key needs a hot slot now or a
            // compressed slot soon; with both quotas exhausted there is
            // nowhere to put it.
            if !st.far.contains_key(&key)
                && st.resident_bytes() + PAGE_SIZE as u64 > st.spec.resident_quota.as_bytes()
                && st.compressed_full()
            {
                st.sheds += 1;
                slot.count_shed();
                return Ok(PutResult::Shed(ShedReason::QuotaExhausted));
            }
            // Overwrite of a demoted value: the stale far copy goes
            // undecoded, its bytes credited back before the new version
            // lands.
            let left = st.far.remove(&key);
            if let Some(left) = left {
                clock.lap(Layer::Bookkeeping);
                let discarded = self.discard(&mut st, key);
                clock.lap(Layer::Discard);
                if let Err(e) = discarded {
                    if e.retryable {
                        st.far.insert(key, left);
                    }
                    return Err(e);
                }
            }
            let mut buf = st.take_buffer();
            buf.clear();
            buf.extend_from_slice(value);
            slot.insert_hot(&mut st, key, buf, false, left.unwrap_or(0));
        }
        st.puts += 1;
        clock.lap(Layer::Bookkeeping);
        let demotions = self.enforce_resident_quota(slot, st, false, clock);
        Ok(PutResult::Stored { demotions })
    }

    /// Reads the value under `(tenant, key)` into `out` (cleared
    /// first). Returns `None` when the key was never stored (or its
    /// write was shed).
    ///
    /// # Errors
    ///
    /// - [`Error::InvalidConfig`] (via [`SwapError`]) for an unknown
    ///   tenant;
    /// - any plane error while faulting a demoted value back in (the
    ///   ledger is re-synced from the plane on entry-consuming
    ///   failures).
    pub fn get(
        &self,
        tenant: TenantId,
        key: u64,
        out: &mut Vec<u8>,
    ) -> SwapResult<Option<GetOutcome>> {
        let slot = self.tenant(tenant)?;
        slot.stripe(key).gets.fetch_add(1, Ordering::Relaxed);
        // A resident key is never in flight, so its stripe's read lock
        // alone serves it.
        if slot.copy_hot(key, out) {
            return Ok(Some(HIT));
        }
        let mut clock = self.clock(tenant, key);
        let got = self.get_miss(slot, tenant, key, out, &mut clock)?;
        clock.lap(Layer::Bookkeeping);
        let faulted = got.is_some_and(|g| g.source == GetSource::Fault);
        self.finish(clock, LifecycleStage::Get, u64::from(faulted));
        Ok(got)
    }

    /// A [`get`](Self::get) its key's stripe did not serve, its layers
    /// lapped on `clock`.
    fn get_miss(
        &self,
        slot: &Tenant,
        tenant: TenantId,
        key: u64,
        out: &mut Vec<u8>,
        clock: &mut OpClock<'_>,
    ) -> SwapResult<Option<GetOutcome>> {
        let mut st = slot.lock_settled(key);
        // It became resident meanwhile (a fault this caller waited on).
        if slot.copy_hot(key, out) {
            return Ok(Some(HIT));
        }
        let Some(left) = st.far.remove(&key) else {
            return Ok(None);
        };

        // Demand fault: the caller is stalled, so the CPU path is
        // preferred (`do_offload = false`), exactly like a page fault.
        // Below half its compressed quota the tenant asks the plane to
        // keep its copy, so that the page can later leave clean.
        let ctx = st.ctx();
        let keep = st.keeps_copies();
        let mut buf = st.take_buffer();
        st.in_flight.push(key);
        drop(st);
        clock.lap(Layer::Bookkeeping);

        let page = Self::page_of(tenant, key);
        let started = Instant::now();
        let r = if keep {
            self.plane.load_into_ctx(&ctx, page, out)
        } else {
            let r = self.plane.swap_in_into_ctx(&ctx, page, false, out);
            r.map(|outcome| (outcome, false))
        };
        let elapsed = started.elapsed().as_nanos() as u64;
        clock.skip();
        if r.is_ok() {
            self.record_health(DegradeController::record_cpu_op);
            clock.lap(Layer::Bookkeeping);
            buf.clear();
            buf.extend_from_slice(out);
            clock.lap(Layer::CopyOut);
        }

        let mut st = slot.lock();
        match r {
            Ok((outcome, kept)) => {
                // A kept copy stays billed: the ledger moves only when
                // the plane credited the bytes back.
                if !kept {
                    st.compressed_bytes = st
                        .compressed_bytes
                        .saturating_sub(u64::from(outcome.compressed_len));
                }
                st.faults += 1;
                st.fault_ns.record(elapsed);
                slot.insert_hot(&mut st, key, buf, kept, left);
                self.settle(slot, &mut st, key);
                clock.lap(Layer::Bookkeeping);
                self.enforce_resident_quota(slot, st, true, clock);
                Ok(Some(GetOutcome {
                    source: GetSource::Fault,
                    fault_ns: Some(elapsed),
                }))
            }
            Err(e) => {
                self.settle_failed_swap_in(slot, &mut st, key, left, buf, &e);
                Err(e)
            }
        }
    }

    /// Every key currently stored for `tenant` (hot, demoted, or in
    /// flight between the two), sorted. Empty for unknown tenants.
    #[must_use]
    pub fn keys(&self, tenant: TenantId) -> Vec<u64> {
        self.tenants
            .get(&tenant.as_u16())
            .map_or_else(Vec::new, |slot| {
                let st = slot.lock();
                let mut keys: Vec<u64> = st.small.iter().chain(&st.main).copied().collect();
                keys.extend(st.far.keys().copied());
                keys.extend(st.in_flight.iter().copied());
                keys.sort_unstable();
                keys
            })
    }

    /// Point-in-time counters for one tenant.
    #[must_use]
    pub fn snapshot(&self, tenant: TenantId) -> Option<TenantSnapshot> {
        self.tenants.get(&tenant.as_u16()).map(Tenant::snapshot)
    }

    /// Snapshots for every provisioned tenant, sorted by tenant id.
    #[must_use]
    pub fn snapshots(&self) -> Vec<TenantSnapshot> {
        self.tenants.values().map(Tenant::snapshot).collect()
    }

    /// Reconciles the service ledgers against the plane's accounting.
    #[must_use]
    pub fn accounting(&self) -> AccountingReport {
        let plane: BTreeMap<TenantId, u64> = self.plane.tenant_usage().into_iter().collect();
        let mut per_tenant = Vec::new();
        let mut ledger_total = 0u64;
        for slot in self.tenants.values() {
            let st = slot.lock();
            ledger_total += st.compressed_bytes;
            per_tenant.push(TenantBalance {
                tenant: st.spec.tenant,
                ledger_bytes: st.compressed_bytes,
                plane_bytes: plane.get(&st.spec.tenant).copied().unwrap_or(0),
            });
        }
        // Plane-side tenants the service does not provision (e.g. the
        // system tenant) show up with a zero ledger.
        for (&t, &b) in &plane {
            if b > 0 && !self.tenants.contains_key(&t.as_u16()) {
                per_tenant.push(TenantBalance {
                    tenant: t,
                    ledger_bytes: 0,
                    plane_bytes: b,
                });
            }
        }
        per_tenant.sort_by_key(|b| b.tenant);
        let plane_total: u64 = plane.values().sum();
        let balanced = ledger_total == plane_total
            && per_tenant.iter().all(|b| b.ledger_bytes == b.plane_bytes);
        AccountingReport {
            per_tenant,
            ledger_total,
            plane_total,
            balanced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfm_sfm::{BackendStats, SfmConfig, ShardedSfm, ShardedSfmConfig};

    fn plane() -> Arc<ShardedSfm> {
        Arc::new(ShardedSfm::new(ShardedSfmConfig {
            sfm: SfmConfig {
                region_capacity: ByteSize::from_mib(8),
            },
            ..ShardedSfmConfig::default()
        }))
    }

    fn spec(id: u16, resident_pages: u64, compressed: ByteSize) -> TenantSpec {
        TenantSpec::new(
            TenantId::new(id),
            ByteSize::from_pages(resident_pages),
            compressed,
        )
    }

    fn page(tag: u8) -> Vec<u8> {
        // Compressible but not same-filled.
        let mut p: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 97) as u8).collect();
        p[0] = tag;
        p
    }

    #[test]
    fn put_get_round_trip_through_far_memory() {
        let svc = FarKvService::new(plane(), vec![spec(1, 2, ByteSize::from_mib(4))]);
        let t = TenantId::new(1);
        for k in 0..6u64 {
            let r = svc.put(t, k, &page(k as u8)).unwrap();
            assert!(matches!(r, PutResult::Stored { .. }));
        }
        let snap = svc.snapshot(t).unwrap();
        assert_eq!(snap.puts, 6);
        assert_eq!(snap.demotions, 4);
        assert_eq!(snap.resident_bytes, 2 * PAGE_SIZE as u64);
        let mut out = Vec::new();
        for k in 0..6u64 {
            let got = svc.get(t, k, &mut out).unwrap().unwrap();
            assert_eq!(out, page(k as u8), "key {k}");
            let _ = got;
        }
        assert_eq!(svc.snapshot(t).unwrap().gets, 6);
        assert!(svc.accounting().balanced);
    }

    #[test]
    fn overwrite_of_demoted_value_does_not_double_bill() {
        let svc = FarKvService::new(plane(), vec![spec(1, 1, ByteSize::from_mib(4))]);
        let t = TenantId::new(1);
        svc.put(t, 0, &page(1)).unwrap();
        svc.put(t, 1, &page(2)).unwrap(); // demotes key 0
        assert_eq!(svc.snapshot(t).unwrap().demotions, 1);
        svc.put(t, 0, &page(3)).unwrap(); // overwrite: stale far copy discarded
        let mut out = Vec::new();
        assert!(svc.get(t, 0, &mut out).unwrap().is_some());
        assert_eq!(out, page(3));
        assert!(svc.accounting().balanced);
    }

    #[test]
    fn retryable_discard_failure_keeps_the_key() {
        use xfm_faults::{FaultInjector, FaultPlan, FaultSite, SiteSpec};

        // One in-transit bit flip: the first swap-in fails its checksum
        // (retryable, plane entry intact), every later one succeeds.
        let plan = FaultPlan::new(9).with_site(
            FaultSite::BitCorruption,
            SiteSpec::with_probability(1.0).max_fires(1),
        );
        let mut sfm = ShardedSfm::new(ShardedSfmConfig::default());
        sfm.attach_faults(Arc::new(FaultInjector::new(&plan)));
        let svc = FarKvService::new(Arc::new(sfm), vec![spec(1, 1, ByteSize::from_mib(4))]);
        let t = TenantId::new(1);
        svc.put(t, 0, &page(1)).unwrap();
        svc.put(t, 1, &page(2)).unwrap(); // demotes key 0
        let e = svc.put(t, 0, &page(3)).unwrap_err(); // stale-copy discard fails
        assert!(e.retryable, "{e}");

        // The plane still holds (and bills) key 0, so the service must
        // too: it reads back the old value, and the retry overwrites it.
        assert_eq!(svc.keys(t), vec![0, 1]);
        let mut out = Vec::new();
        assert!(svc.get(t, 0, &mut out).unwrap().is_some());
        assert_eq!(out, page(1));
        svc.put(t, 0, &page(3)).unwrap();
        assert!(svc.get(t, 0, &mut out).unwrap().is_some());
        assert_eq!(out, page(3));
        assert!(svc.accounting().balanced);
    }

    #[test]
    fn a_kept_load_checksum_failure_is_retryable_and_keeps_entry_and_ledger() {
        use xfm_faults::{FaultInjector, FaultPlan, FaultSite, SiteSpec};

        // One in-transit bit flip: the first fetch (the kept load) fails
        // its checksum, every later one succeeds.
        let plan = FaultPlan::new(9).with_site(
            FaultSite::BitCorruption,
            SiteSpec::with_probability(1.0).max_fires(1),
        );
        let mut sfm = ShardedSfm::new(ShardedSfmConfig::default());
        sfm.attach_faults(Arc::new(FaultInjector::new(&plan)));
        let p = Arc::new(sfm);
        let svc = FarKvService::new(p.clone(), vec![spec(1, 1, ByteSize::from_mib(4))]);
        let t = TenantId::new(1);
        svc.put(t, 0, &page(1)).unwrap();
        svc.put(t, 1, &page(2)).unwrap(); // demotes key 0
        let billed = svc.snapshot(t).unwrap().compressed_bytes;
        let mut out = Vec::new();
        let e = svc.get(t, 0, &mut out).unwrap_err();
        assert!(e.retryable, "{e}");

        // Entry and ledger intact: the key is still demoted and billed.
        assert_eq!(svc.keys(t), vec![0, 1]);
        assert!(p.contains(FarKvService::page_of(t, 0)));
        let snap = svc.snapshot(t).unwrap();
        assert_eq!((snap.faults, snap.compressed_bytes), (0, billed));
        assert!(svc.accounting().balanced);
        // The retry loads it, and the plane keeps its copy.
        let got = svc.get(t, 0, &mut out).unwrap().unwrap();
        assert_eq!((got.source, &out), (GetSource::Fault, &page(1)));
        assert_eq!((p.stats().loads, p.stats().swap_ins), (1, 0));
        assert!(p.contains(FarKvService::page_of(t, 0)));
        assert!(svc.accounting().balanced);
    }

    #[test]
    fn an_overwritten_kept_key_never_reads_back_its_stale_copy() {
        // Two pages: a small queue of one, a ghost of one eviction.
        let p = plane();
        let svc = FarKvService::new(p.clone(), vec![spec(1, 2, ByteSize::from_mib(4))]);
        let t = TenantId::new(1);
        let mut out = Vec::new();
        for k in 0..3 {
            svc.put(t, k, &page(k as u8 + 1)).unwrap(); // the last demotes key 0
        }
        // A ghost hit: key 0 enters main, kept and backed, and key 1
        // leaves the small queue.
        let got = svc.get(t, 0, &mut out).unwrap().unwrap();
        assert_eq!((got.source, &out), (GetSource::Fault, &page(1)));
        // The kept copy is discarded.
        svc.put(t, 0, &page(4)).unwrap();
        // A hit: key 2 will be promoted.
        svc.get(t, 2, &mut out).unwrap().unwrap();
        // Key 1 is a ghost: it enters main, key 2 is promoted, and main's
        // turn lowers key 0's frequency and demotes key 1.
        svc.put(t, 1, &page(5)).unwrap();
        // New: key 3 leaves the small queue at once.
        svc.put(t, 3, &page(6)).unwrap();
        // A ghost again: main's turn lowers key 2 and demotes key 0, dirty.
        svc.put(t, 3, &page(7)).unwrap();
        assert_eq!(svc.snapshot(t).unwrap().clean_demotions, 0);
        // The fault keeps the fresh copy, which leaves clean at once; the
        // second, a ghost hit, loads that copy.
        for _ in 0..2 {
            let got = svc.get(t, 0, &mut out).unwrap().unwrap();
            assert_eq!((got.source, &out), (GetSource::Fault, &page(4)));
        }

        let snap = svc.snapshot(t).unwrap();
        assert_eq!(
            (
                snap.overflows,
                snap.clean_demotions,
                snap.promoted,
                snap.ghost_hits
            ),
            (0, 1, 1, 4),
            "{snap:?}"
        );
        let stats = p.stats();
        assert_eq!((stats.loads, stats.discards), (3, 3));
        assert!(svc.accounting().balanced);
    }

    #[test]
    fn a_put_over_a_far_key_runs_no_codec() {
        let registry = Registry::new();
        let mut sfm = ShardedSfm::new(ShardedSfmConfig::default());
        sfm.attach_telemetry(&registry);
        let p = Arc::new(sfm);
        let svc = FarKvService::new(p.clone(), vec![spec(1, 1, ByteSize::from_mib(4))]);
        let t = TenantId::new(1);
        let mut out = Vec::new();
        svc.put(t, 0, &page(1)).unwrap();
        svc.put(t, 1, &page(2)).unwrap(); // demotes key 0
        svc.put(t, 2, &page(3)).unwrap(); // demotes key 1
        svc.get(t, 1, &mut out).unwrap().unwrap(); // key 1 kept; demotes key 2

        let codec = |s: &xfm_telemetry::Snapshot| {
            let count = |name: &str| s.histograms.get(name).map_or(0, |h| h.count);
            [
                count("xfm_compress_latency_ns"),
                count("xfm_decompress_latency_ns"),
            ]
        };
        let (before, codec_before) = (p.stats(), codec(&registry.snapshot()));
        // Key 0 is far: its copy is discarded undecoded, and the victim,
        // key 1, leaves clean.
        assert_eq!(
            svc.put(t, 0, &page(4)).unwrap(),
            PutResult::Stored { demotions: 1 }
        );
        let after = p.stats();
        assert_eq!(codec(&registry.snapshot()), codec_before);
        assert_eq!(
            BackendStats {
                discards: before.discards + 1,
                ..before
            },
            after
        );
        assert_eq!(svc.snapshot(t).unwrap().clean_demotions, 1);
        let got = svc.get(t, 0, &mut out).unwrap().unwrap();
        assert_eq!((got.source, &out), (GetSource::Hot, &page(4)));
        assert!(svc.accounting().balanced);
    }

    #[test]
    fn a_fault_keeps_the_copy_only_under_half_the_compressed_quota() {
        for (quota, kept) in [
            (ByteSize::from_mib(4), true),
            (ByteSize::from_bytes(1), false),
        ] {
            let p = plane();
            let svc = FarKvService::new(p.clone(), vec![spec(1, 1, quota)]);
            let t = TenantId::new(1);
            let mut out = Vec::new();
            svc.put(t, 0, &page(1)).unwrap();
            svc.put(t, 1, &page(2)).unwrap(); // demotes key 0
            svc.get(t, 0, &mut out).unwrap().unwrap();
            assert_eq!(out, page(1));
            let stats = p.stats();
            assert_eq!(
                (stats.loads, stats.swap_ins),
                (u64::from(kept), u64::from(!kept))
            );
            assert_eq!(p.contains(FarKvService::page_of(t, 0)), kept, "{quota}");
            assert!(svc.accounting().balanced);
        }
    }

    #[test]
    fn overwrite_of_resident_value_reuses_its_buffer() {
        let svc = FarKvService::new(plane(), vec![spec(1, 2, ByteSize::from_mib(4))]);
        let t = TenantId::new(1);
        svc.put(t, 0, &page(1)).unwrap();
        svc.put(t, 1, &page(2)).unwrap();
        svc.put(t, 0, &page(3)).unwrap(); // in place, and key 0's frequency is now 1
        svc.put(t, 2, &page(4)).unwrap(); // so this demotes key 1
        let snap = svc.snapshot(t).unwrap();
        assert_eq!((snap.puts, snap.demotions), (4, 1));
        assert_eq!(snap.resident_bytes, 2 * PAGE_SIZE as u64);
        let mut out = Vec::new();
        let got = svc.get(t, 0, &mut out).unwrap().unwrap();
        assert_eq!((got.source, &out), (GetSource::Hot, &page(3)));
        let got = svc.get(t, 1, &mut out).unwrap().unwrap();
        assert_eq!((got.source, &out), (GetSource::Fault, &page(2)));
    }

    #[test]
    fn a_hit_gives_its_key_a_second_chance() {
        let p = plane();
        let svc = FarKvService::new(p.clone(), vec![spec(1, 4, ByteSize::from_mib(4))]);
        let t = TenantId::new(1);
        for k in 0..4u64 {
            svc.put(t, k, &page(k as u8)).unwrap();
        }
        let mut out = Vec::new();
        svc.get(t, 0, &mut out).unwrap();
        assert_eq!(
            svc.put(t, 4, &page(4)).unwrap(),
            PutResult::Stored { demotions: 1 }
        );
        // k0 was the small queue's head but had been read: it moved to
        // main, and k1, the oldest unread key, went to the plane.
        assert!(p.contains(FarKvService::page_of(t, 1)));
        assert!(!p.contains(FarKvService::page_of(t, 0)));
        let got = svc.get(t, 0, &mut out).unwrap().unwrap();
        assert_eq!((got.source, &out), (GetSource::Hot, &page(0)));
    }

    /// Puts keys `0..=pages` into a tenant of `pages` resident pages, so
    /// key 0 is demoted dirty and keys `1..=pages` are resident, dirty
    /// and unread, key 1 at the small queue's head.
    fn at_quota(pages: u64) -> (Arc<ShardedSfm>, FarKvService) {
        let p = plane();
        let svc = FarKvService::new(p.clone(), vec![spec(1, pages, ByteSize::from_mib(4))]);
        let t = TenantId::new(1);
        for k in 0..=pages {
            svc.put(t, k, &page(k as u8)).unwrap();
        }
        assert_eq!(p.stats().swap_outs, 1);
        (p, svc)
    }

    #[test]
    fn a_get_leaves_its_dirty_victim_for_the_next_put() {
        let t = TenantId::new(1);
        let mut out = Vec::new();
        for read_victim in [false, true] {
            let (p, svc) = at_quota(64);
            let before = p.stats();
            // The fault grows the cache to 65 pages, within the 1-page
            // slack: its victim, key 1, is dirty and stays where it is.
            let got = svc.get(t, 0, &mut out).unwrap().unwrap();
            assert_eq!((got.source, &out), (GetSource::Fault, &page(0)));
            let calls = |s: BackendStats| {
                (
                    s.swap_outs,
                    s.rejected_full,
                    s.swap_ins,
                    s.discards,
                    s.loads,
                )
            };
            assert_eq!(
                calls(p.stats()),
                calls(BackendStats {
                    loads: before.loads + 1,
                    ..before
                }),
                "the get made a plane call other than its load"
            );
            let snap = svc.snapshot(t).unwrap();
            assert_eq!((snap.deferred, snap.demotions), (1, 1), "{snap:?}");
            assert_eq!(snap.resident_bytes, 65 * PAGE_SIZE as u64);
            assert!(!p.contains(FarKvService::page_of(t, 1)));

            // An overwrite grows nothing, but its pass runs to the quota.
            let first = if read_victim {
                // A hit raises the victim's frequency: it still reads
                // back hot, and moves to main instead of leaving.
                let got = svc.get(t, 1, &mut out).unwrap().unwrap();
                assert_eq!((got.source, &out), (GetSource::Hot, &page(1)));
                2
            } else {
                1
            };
            assert_eq!(
                svc.put(t, 5, &page(50)).unwrap(),
                PutResult::Stored { demotions: 1 }
            );
            assert_eq!(p.stats().swap_outs, 2);
            assert!(p.contains(FarKvService::page_of(t, first)));
            assert_eq!(
                svc.snapshot(t).unwrap().resident_bytes,
                64 * PAGE_SIZE as u64
            );
            for k in 0..=64u64 {
                svc.get(t, k, &mut out).unwrap().unwrap();
                assert_eq!(out, page(if k == 5 { 50 } else { k as u8 }), "key {k}");
            }
            assert!(svc.accounting().balanced);
        }
    }

    #[test]
    fn a_read_only_tenant_stays_within_the_slack_and_then_pays() {
        // 1/64 of 128 pages is a 2-page slack; 1/64 of 1 152 is 18,
        // capped at READ_SLACK_MAX_PAGES.
        for (pages, slack) in [(128, 2), (1152, READ_SLACK_MAX_PAGES)] {
            let p = plane();
            let svc = FarKvService::new(p.clone(), vec![spec(1, pages, ByteSize::from_mib(4))]);
            let t = TenantId::new(1);
            let limit = (pages + slack) * PAGE_SIZE as u64;
            // Keys 0..pages demoted dirty, the next `pages` resident and
            // dirty.
            for k in 0..2 * pages {
                svc.put(t, k, &page(k as u8)).unwrap();
            }
            let outs = p.stats().swap_outs;
            assert_eq!(outs, pages);

            let mut out = Vec::new();
            for k in 0..pages {
                let got = svc.get(t, k, &mut out).unwrap().unwrap();
                assert_eq!((got.source, &out), (GetSource::Fault, &page(k as u8)));
                let snap = svc.snapshot(t).unwrap();
                assert!(snap.resident_bytes <= limit, "get {k}: {snap:?}");
            }
            // The first `slack` gets used the slack; each later one
            // demoted the dirty head and left the next one for a put
            // that never came.
            let snap = svc.snapshot(t).unwrap();
            assert_eq!(snap.resident_bytes, limit);
            assert_eq!(snap.deferred, pages);
            assert_eq!(p.stats().swap_outs - outs, pages - slack);
            assert_eq!(snap.overflows, 0);
            assert!(svc.accounting().balanced);
        }
    }

    #[test]
    fn quota_passes_are_timed_per_op_once_telemetry_attaches() {
        let registry = Registry::new();
        let p = plane();
        let mut svc = FarKvService::new(p, vec![spec(1, 64, ByteSize::from_mib(4))]);
        svc.attach_telemetry(&registry);
        let t = TenantId::new(1);
        for k in 0..=64u64 {
            svc.put(t, k, &page(k as u8)).unwrap();
        }
        let mut out = Vec::new();
        svc.get(t, 0, &mut out).unwrap().unwrap(); // faults, defers
        svc.get(t, 0, &mut out).unwrap().unwrap(); // a hit: no pass
        let pass = |op: &str| {
            registry
                .histogram(&format!(
                    "xfm_serve_quota_pass_ns{{tenant=\"1\",op=\"{op}\"}}"
                ))
                .count()
        };
        // Only passes that found the cache over its quota are timed.
        assert_eq!((pass("get"), pass("put")), (1, 1));
    }

    #[test]
    fn single_threaded_traffic_records_no_lock_wait() {
        let registry = Registry::new();
        let mut svc = FarKvService::new(plane(), vec![spec(1, 2, ByteSize::from_mib(4))]);
        svc.attach_telemetry(&registry);
        let t = TenantId::new(1);
        let mut out = Vec::new();
        for k in 0..6u64 {
            svc.put(t, k, &page(k as u8)).unwrap();
        }
        // Each key twice in a row: a fault (and a demotion), then a hit.
        for k in (0..6u64).flat_map(|k| [k, k]) {
            svc.get(t, k, &mut out).unwrap().unwrap();
        }
        let snap = svc.snapshot(t).unwrap();
        assert!(
            snap.hits > 0 && snap.faults > 0 && snap.demotions > 0,
            "{snap:?}"
        );
        let waits = registry.histogram("xfm_serve_lock_wait_ns{tenant=\"1\"}");
        assert_eq!(waits.count(), 0);
    }

    #[test]
    fn quota_exhaustion_sheds_new_keys_only() {
        // One resident page, zero compressed budget: the second key has
        // nowhere to go.
        let svc = FarKvService::new(plane(), vec![spec(1, 1, ByteSize::ZERO)]);
        let t = TenantId::new(1);
        assert!(matches!(
            svc.put(t, 0, &page(1)).unwrap(),
            PutResult::Stored { .. }
        ));
        assert_eq!(
            svc.put(t, 1, &page(2)).unwrap(),
            PutResult::Shed(ShedReason::QuotaExhausted)
        );
        // Overwriting the existing key is still admitted.
        assert!(matches!(
            svc.put(t, 0, &page(3)).unwrap(),
            PutResult::Stored { .. }
        ));
        assert_eq!(svc.snapshot(t).unwrap().sheds, 1);
    }

    #[test]
    fn tenants_are_isolated() {
        let svc = FarKvService::new(
            plane(),
            vec![
                spec(1, 1, ByteSize::from_mib(2)),
                spec(2, 1, ByteSize::from_mib(2)),
            ],
        );
        let (a, b) = (TenantId::new(1), TenantId::new(2));
        svc.put(a, 7, &page(1)).unwrap();
        svc.put(b, 7, &page(2)).unwrap(); // same key, different namespace
        svc.put(a, 8, &page(3)).unwrap(); // demotes a/7
        let mut out = Vec::new();
        assert!(svc.get(b, 7, &mut out).unwrap().is_some());
        assert_eq!(out, page(2));
        assert!(svc.get(a, 7, &mut out).unwrap().is_some());
        assert_eq!(out, page(1));
        assert!(svc.get(b, 8, &mut out).unwrap().is_none());
        let acct = svc.accounting();
        assert!(acct.balanced, "{acct:?}");
    }

    #[test]
    fn rejects_bad_arguments() {
        let svc = FarKvService::new(plane(), vec![spec(1, 1, ByteSize::from_mib(1))]);
        let t = TenantId::new(1);
        assert!(svc.put(t, 0, &[0u8; 17]).is_err());
        assert!(svc.put(t, 1u64 << KEY_BITS, &page(0)).is_err());
        assert!(svc.put(TenantId::new(9), 0, &page(0)).is_err());
        let mut out = Vec::new();
        assert!(svc.get(TenantId::new(9), 0, &mut out).is_err());
    }
}
