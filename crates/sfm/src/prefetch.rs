//! The speculative prefetch data plane.
//!
//! The paper's conclusion points at predicting application access
//! patterns as the next lever on far-memory cost; this module is that
//! lever's data plane. A [`PrefetchEngine`] wraps the sharded swap
//! plane and feeds a [`StridePredictor`] with the demand-fault stream. On
//! every [`PrefetchEngine::pump`] it turns fresh predictions into
//! *batched speculative swap-ins* through
//! [`SwapPlane::swap_in_batch_into`] (a loop over the inner plane's
//! single-page fault, off the demand path) and lands the pages in a
//! bounded hot-side **staging cache**. A later demand fault for a staged page is served by memcpy —
//! no shard lock, no checksum, no codec work — which is where the p99
//! fault-latency reduction comes from.
//!
//! Invariants the staging cache maintains:
//!
//! - **Bounded**: at most `staging_capacity` pages are staged; beyond
//!   that predictions are throttled (back-pressure), never evicted —
//!   speculation can never displace a demand page, and a staged page is
//!   never silently dropped (it is the page's only copy: the swap-in
//!   consumed the pool entry).
//! - **Write-back, not drop**: pages staged longer than
//!   `stale_after_pumps` pump rounds are compressed back into the pool
//!   (a mispredicted page returns to far memory; its contents survive).
//! - **Precision-gated**: when fewer than 0.6 of the last 64 issued
//!   pages were hit, issuing pauses except for one probe pump in eight,
//!   so a predictor gone cold cannot burn decompress bandwidth
//!   indefinitely.
//! - **Observably equivalent**: a fault served from staging returns
//!   byte-identical contents to the fault the un-prefetched plane would
//!   have served (pinned by a differential proptest).
//!
//! The demand hit path performs zero steady-state heap allocations:
//! fault observations are queued into a fixed ring consumed by `pump`
//! (the allocating prediction/issue work happens off the fault path,
//! as a background prefetcher thread would), staging buffers recycle
//! through a free list, and telemetry records through pre-registered
//! handles.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use xfm_telemetry::lifecycle::NO_SHARD;
use xfm_telemetry::{Cause, LifecycleStage, PrefetchMetrics, Registry};
use xfm_types::{Error, OpContext, PageNumber, SwapError, SwapResult, TenantId};

use crate::backend::{BackendStats, SwapOutcome, SwapPlane};
use crate::predictor::StridePredictor;
use crate::sharded::ShardedSfm;
use crate::zpool::{CompactReport, ZpoolStats};

/// Fault observations buffered between pumps. Oldest are overwritten
/// when the prefetcher falls this far behind the fault stream.
const OBSERVE_RING: usize = 4096;

/// Pages predicted ahead per confident stream.
const DEPTH: u32 = 8;
/// Cap on pages issued per pump.
const BATCH_LIMIT: usize = 64;
/// Precision floor: below this `hits / issued` over a window, issuing
/// is gated to probe pumps only.
const MIN_PRECISION: f64 = 0.6;
/// Pages issued per precision-gate evaluation window.
const PRECISION_WINDOW: u64 = 64;
/// While gated, one pump in this many still issues (probing for the
/// pattern to come back).
const PROBE_INTERVAL: u64 = 8;

/// Configuration for [`PrefetchEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchConfig {
    /// Bound on staged pages; beyond it predictions are throttled.
    pub staging_capacity: usize,
    /// Write a staged page back to the pool after this many pump rounds
    /// without a hit (0 disables write-back).
    pub stale_after_pumps: u64,
    /// Run a pump inline after every fault. Convenient for tests; the
    /// bench disables it and pumps explicitly between timed sections,
    /// modeling a background prefetch thread.
    pub auto_pump: bool,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self {
            staging_capacity: 256,
            stale_after_pumps: 64,
            auto_pump: true,
        }
    }
}

/// One page parked in the staging cache. Holds the page's only copy:
/// the speculative swap-in already consumed the pool entry.
struct StagedPage {
    data: Vec<u8>,
    outcome: SwapOutcome,
    staged_round: u64,
    /// The account the page was billed to before the speculative
    /// swap-in consumed its entry — a stale write-back re-stores it
    /// under the same identity, so speculation never shifts bytes
    /// between tenants.
    tenant: TenantId,
}

/// Everything behind the engine's single mutex. Lock ordering: this
/// lock may be held across inner-plane calls (engine -> shard), never
/// the reverse.
struct PrefetchState {
    predictor: StridePredictor,
    staging: BTreeMap<u64, StagedPage>,
    /// Recycled staging buffers (capacity-bounded, pre-reserved).
    free: Vec<Vec<u8>>,
    /// Fault observations awaiting the next pump.
    ring: VecDeque<u64>,
    pump_round: u64,
    /// Precision-gate window accounting.
    window_issued: u64,
    window_hits: u64,
    gated: bool,
    issued_total: u64,
    hits_total: u64,
    /// Pages whose write-back the wrapped plane billed differently from
    /// what their tenant was billed (a composition may land the page on
    /// another medium): the owner and the tenant's bill minus the
    /// plane's, settled on the page's next swap-in.
    rebilled: BTreeMap<u64, (TenantId, i64)>,
}

/// What one [`PrefetchEngine::pump`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Pages speculatively staged this pump.
    pub issued: usize,
    /// Predictions dropped by the precision gate or back-pressure.
    pub throttled: usize,
    /// Stale staged pages written back into the pool.
    pub written_back: usize,
}

/// The prefetch front: same [`SwapPlane`] surface as the wrapped
/// plane, plus speculation.
///
/// Generic over the wrapped plane (default [`ShardedSfm`], the
/// classic configuration): staging works identically over a
/// [`TieredPlane`](crate::tier::TieredPlane), where the batched
/// speculative swap-ins fan out per owning tier.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use xfm_sfm::{PrefetchConfig, PrefetchEngine, ShardedSfm, ShardedSfmConfig, SwapPlane};
/// use xfm_types::PageNumber;
///
/// let inner = Arc::new(ShardedSfm::new(ShardedSfmConfig::default()));
/// let engine = PrefetchEngine::new(inner, PrefetchConfig::default());
/// let page = b"16-byte pattern!".repeat(256);
/// engine.swap_out(PageNumber::new(7), &page)?;
/// let mut out = Vec::new();
/// engine.swap_in_into(PageNumber::new(7), false, &mut out)?;
/// assert_eq!(out, page);
/// # Ok::<(), xfm_types::Error>(())
/// ```
pub struct PrefetchEngine<P: SwapPlane = ShardedSfm> {
    inner: Arc<P>,
    config: PrefetchConfig,
    state: parking_lot::Mutex<PrefetchState>,
    /// Speculation toggle; off = transparent pass-through (the bench's
    /// "prefetch disabled" arm, and the degrade path's kill switch).
    enabled: AtomicBool,
    metrics: Option<PrefetchMetrics>,
    registry: Option<Registry>,
}

impl<P: SwapPlane> std::fmt::Debug for PrefetchEngine<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefetchEngine")
            .field("staged", &self.staged_pages())
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

impl<P: SwapPlane> PrefetchEngine<P> {
    /// Wraps `inner` with speculation configured by `config`.
    #[must_use]
    pub fn new(inner: Arc<P>, config: PrefetchConfig) -> Self {
        Self {
            inner,
            config,
            state: parking_lot::Mutex::new(PrefetchState {
                predictor: StridePredictor::new(DEPTH),
                staging: BTreeMap::new(),
                free: Vec::with_capacity(config.staging_capacity),
                ring: VecDeque::with_capacity(OBSERVE_RING),
                pump_round: 0,
                window_issued: 0,
                window_hits: 0,
                gated: false,
                issued_total: 0,
                hits_total: 0,
                rebilled: BTreeMap::new(),
            }),
            enabled: AtomicBool::new(true),
            metrics: None,
            registry: None,
        }
    }

    /// Attaches the prefetch metric bundle and the lifecycle trail.
    /// Call before sharing the engine; recording afterwards is
    /// allocation-free (pre-registered handles).
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.metrics = Some(PrefetchMetrics::register(registry));
        self.registry = Some(registry.clone());
    }

    /// The wrapped plane.
    #[must_use]
    pub fn inner(&self) -> &Arc<P> {
        &self.inner
    }

    /// Turns speculation on or off. Off, the engine is a pass-through
    /// (already-staged pages are still served until drained).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether speculation is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Pages currently staged.
    #[must_use]
    pub fn staged_pages(&self) -> usize {
        self.state.lock().staging.len()
    }

    /// Whether the precision gate is currently throttling issues.
    #[must_use]
    pub fn is_gated(&self) -> bool {
        self.state.lock().gated
    }

    /// Rolling engine precision: staged pages later hit by a demand
    /// fault, over pages staged.
    #[must_use]
    pub fn precision(&self) -> f64 {
        let st = self.state.lock();
        if st.issued_total == 0 {
            0.0
        } else {
            st.hits_total as f64 / st.issued_total as f64
        }
    }

    /// Queues a fault observation; `st.ring` never grows past its
    /// pre-reserved capacity (oldest observations are dropped first).
    /// Records that the wrapped plane billed the write-back of `staged`
    /// as `stored`, when that differs from its tenant's bill.
    fn note_rebill(st: &mut PrefetchState, page: u64, staged: &StagedPage, stored: &SwapOutcome) {
        let delta = i64::from(staged.outcome.compressed_len) - i64::from(stored.compressed_len);
        if delta != 0 {
            st.rebilled.insert(page, (staged.tenant, delta));
        }
    }

    /// Gives `outcome`, the swap-in of `page` from the wrapped plane,
    /// back the bill its tenant was charged.
    fn settle_rebill(st: &mut PrefetchState, page: u64, outcome: &mut SwapOutcome) {
        if let Some((_, delta)) = st.rebilled.remove(&page) {
            let bill = i64::from(outcome.compressed_len) + delta;
            outcome.compressed_len = u32::try_from(bill).expect("a bill is a block length");
        }
    }

    fn push_ring(st: &mut PrefetchState, page: u64) {
        if st.ring.len() == OBSERVE_RING {
            st.ring.pop_front();
        }
        st.ring.push_back(page);
    }

    /// One prefetcher step: drains buffered fault observations through
    /// the predictor, issues surviving predictions as one batched
    /// speculative swap-in, stages the pages, and
    /// writes stale staged pages back to the pool.
    ///
    /// This is the allocating half of the engine — it models the
    /// background prefetch thread, off the demand-fault path.
    pub fn pump(&self) -> PumpReport {
        let mut report = PumpReport::default();
        if !self.enabled() {
            return report;
        }
        let mut st = self.state.lock();
        st.pump_round += 1;
        let round = st.pump_round;

        // Feed the predictor everything faulted since the last pump.
        let mut predicted: Vec<PageNumber> = Vec::new();
        while let Some(p) = st.ring.pop_front() {
            predicted.extend(st.predictor.observe(PageNumber::new(p)));
        }

        // Precision gate: every `PRECISION_WINDOW` issued pages, compare
        // the window's realized precision against the floor.
        if st.window_issued >= PRECISION_WINDOW {
            let precision = st.window_hits as f64 / st.window_issued as f64;
            st.gated = precision < MIN_PRECISION;
            st.window_issued = 0;
            st.window_hits = 0;
        }
        let suppress = st.gated && !round.is_multiple_of(PROBE_INTERVAL);

        // Back-pressure: staging is bounded; speculation never evicts.
        let room = self
            .config
            .staging_capacity
            .saturating_sub(st.staging.len())
            .min(BATCH_LIMIT);
        let mut batch: Vec<PageNumber> = Vec::new();
        for p in predicted {
            if st.staging.contains_key(&p.index()) || batch.contains(&p) || !self.inner.contains(p)
            {
                continue;
            }
            if suppress || batch.len() >= room {
                report.throttled += 1;
                continue;
            }
            batch.push(p);
        }

        if !batch.is_empty() {
            // Capture each page's owner before the batched swap-in
            // consumes its entry: afterwards the plane no longer knows.
            let owners: Vec<TenantId> = batch
                .iter()
                .map(|p| self.inner.tenant_of(*p).unwrap_or(TenantId::SYSTEM))
                .collect();
            let mut outs: Vec<Vec<u8>> = batch
                .iter()
                .map(|_| st.free.pop().unwrap_or_default())
                .collect();
            let results = self.inner.swap_in_batch_into(&batch, &mut outs);
            for (((page, result), data), tenant) in batch.iter().zip(results).zip(outs).zip(owners)
            {
                match result {
                    Ok(mut outcome) => {
                        Self::settle_rebill(&mut st, page.index(), &mut outcome);
                        st.staging.insert(
                            page.index(),
                            StagedPage {
                                data,
                                outcome,
                                staged_round: round,
                                tenant,
                            },
                        );
                        st.issued_total += 1;
                        st.window_issued += 1;
                        report.issued += 1;
                        if let Some(m) = &self.metrics {
                            m.issued.inc();
                        }
                        if let Some(r) = &self.registry {
                            r.lifecycle().record(
                                LifecycleStage::PrefetchIssue,
                                Cause::Ok,
                                tenant,
                                page.index(),
                                NO_SHARD,
                                batch.len() as u64,
                                0,
                            );
                        }
                    }
                    Err(_) => {
                        // Entry vanished or failed verification; the
                        // speculation simply didn't happen.
                        let mut buf = data;
                        buf.clear();
                        if st.free.len() < self.config.staging_capacity {
                            st.free.push(buf);
                        }
                    }
                }
            }
        }

        // Stale write-back: a mispredicted page goes home to the pool
        // rather than squatting in staging (or being dropped — staging
        // holds the only copy).
        if self.config.stale_after_pumps > 0 {
            let stale: Vec<u64> = st
                .staging
                .iter()
                .filter(|(_, sp)| {
                    round.saturating_sub(sp.staged_round) >= self.config.stale_after_pumps
                })
                .map(|(&p, _)| p)
                .collect();
            for p in stale {
                let staged = st.staging.remove(&p).expect("collected above");
                let ctx = OpContext::for_tenant(staged.tenant);
                match self
                    .inner
                    .swap_out_ctx(&ctx, PageNumber::new(p), &staged.data)
                {
                    Ok(stored) => {
                        Self::note_rebill(&mut st, p, &staged, &stored);
                        report.written_back += 1;
                        let age = round.saturating_sub(staged.staged_round);
                        let mut buf = staged.data;
                        buf.clear();
                        if st.free.len() < self.config.staging_capacity {
                            st.free.push(buf);
                        }
                        if let Some(m) = &self.metrics {
                            m.writebacks.inc();
                        }
                        // A stale write-back is a demotion (speculation
                        // going back to far memory), not a store: give
                        // Chrome-trace export its own stage.
                        if let Some(r) = &self.registry {
                            r.lifecycle().record(
                                LifecycleStage::Demote,
                                Cause::Ok,
                                staged.tenant,
                                p,
                                NO_SHARD,
                                age,
                                0,
                            );
                        }
                    }
                    Err(_) => {
                        // Pool full (or transient): keep the page staged
                        // and retry on a later pump.
                        st.staging.insert(p, staged);
                    }
                }
            }
        }

        if let Some(m) = &self.metrics {
            m.throttled.add(report.throttled as u64);
            m.staged_pages.set(st.staging.len() as f64);
            let precision = if st.issued_total == 0 {
                0.0
            } else {
                st.hits_total as f64 / st.issued_total as f64
            };
            m.precision.set(precision);
            m.accuracy.set(st.predictor.stats().accuracy());
        }
        report
    }

    /// Writes every staged page back into the pool (drain before
    /// shutdown, reconfiguration, or an equivalence check).
    ///
    /// # Errors
    ///
    /// Propagates the first write-back failure; the failing page stays
    /// staged.
    pub fn flush_staging(&self) -> SwapResult<usize> {
        let mut st = self.state.lock();
        let pages: Vec<u64> = st.staging.keys().copied().collect();
        let mut flushed = 0usize;
        for p in pages {
            let staged = st.staging.remove(&p).expect("key collected above");
            let ctx = OpContext::for_tenant(staged.tenant);
            match self
                .inner
                .swap_out_ctx(&ctx, PageNumber::new(p), &staged.data)
            {
                Ok(stored) => {
                    Self::note_rebill(&mut st, p, &staged, &stored);
                    flushed += 1;
                    if let Some(m) = &self.metrics {
                        m.writebacks.inc();
                    }
                }
                Err(e) => {
                    st.staging.insert(p, staged);
                    if let Some(m) = &self.metrics {
                        m.staged_pages.set(st.staging.len() as f64);
                    }
                    return Err(e);
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.staged_pages.set(st.staging.len() as f64);
        }
        Ok(flushed)
    }
}

impl<P: SwapPlane> SwapPlane for PrefetchEngine<P> {
    /// Compresses `data` into the wrapped plane under `page`, billed to
    /// `ctx.tenant`. A staged page is [`Error::EntryExists`]: it is in
    /// the SFM, just pre-decompressed.
    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome> {
        let st = self.state.lock();
        if st.staging.contains_key(&page.index()) {
            return Err(SwapError::from(Error::EntryExists { page: page.index() }));
        }
        self.inner.swap_out_ctx(ctx, page, data)
    }

    /// Fault path: consults the staging cache before the wrapped
    /// plane's decompress path, for single and batched swap-ins alike.
    /// A staged hit is a memcpy — no shard lock, no checksum, no codec
    /// work, no heap allocation.
    fn swap_in_into_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        let mut st = self.state.lock();
        if let Some(staged) = st.staging.remove(&page.index()) {
            out.clear();
            out.extend_from_slice(&staged.data);
            let age = st.pump_round.saturating_sub(staged.staged_round);
            st.hits_total += 1;
            st.window_hits += 1;
            Self::push_ring(&mut st, page.index());
            let mut buf = staged.data;
            buf.clear();
            if st.free.len() < self.config.staging_capacity {
                st.free.push(buf);
            }
            if let Some(m) = &self.metrics {
                m.hits.inc();
                m.staged_pages.set(st.staging.len() as f64);
            }
            if let Some(r) = &self.registry {
                r.lifecycle().record(
                    LifecycleStage::PrefetchHit,
                    Cause::Ok,
                    staged.tenant,
                    page.index(),
                    NO_SHARD,
                    age,
                    0,
                );
            }
            drop(st);
            if self.config.auto_pump && self.enabled() {
                self.pump();
            }
            return Ok(staged.outcome);
        }
        Self::push_ring(&mut st, page.index());
        let mut res = self.inner.swap_in_into_ctx(ctx, page, do_offload, out);
        match &mut res {
            Ok(outcome) => Self::settle_rebill(&mut st, page.index(), outcome),
            Err(_) if !st.rebilled.is_empty() && !self.inner.contains(page) => {
                st.rebilled.remove(&page.index());
            }
            Err(_) => {}
        }
        drop(st);
        if self.config.auto_pump && self.enabled() {
            self.pump();
        }
        res
    }

    /// Whether `page` is in the SFM — staged or compressed.
    fn contains(&self, page: PageNumber) -> bool {
        self.state.lock().staging.contains_key(&page.index()) || self.inner.contains(page)
    }

    fn compact(&self) -> CompactReport {
        self.inner.compact()
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn pool_stats(&self) -> ZpoolStats {
        self.inner.pool_stats()
    }

    /// The wrapped plane's bills, plus what the engine's own moves
    /// hold back from it: a staged page stays billed to its tenant
    /// (speculation moved it to DRAM, the tenant still has it in far
    /// memory), and a written-back page stays billed what its tenant was
    /// billed.
    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        let st = self.state.lock();
        let mut per: BTreeMap<TenantId, i64> = BTreeMap::new();
        let inner = self.inner.tenant_usage();
        let inner = inner.into_iter().map(|(t, b)| (t, b as i64));
        let staged = st
            .staging
            .values()
            .map(|sp| (sp.tenant, i64::from(sp.outcome.compressed_len)));
        for (tenant, bytes) in inner.chain(staged).chain(st.rebilled.values().copied()) {
            *per.entry(tenant).or_insert(0) += bytes;
        }
        per.into_iter()
            .filter(|&(_, b)| b > 0)
            .map(|(t, b)| (t, b as u64))
            .collect()
    }

    fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        if let Some(sp) = self.state.lock().staging.get(&page.index()) {
            return Some(sp.tenant);
        }
        self.inner.tenant_of(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SfmConfig;
    use crate::sharded::ShardedSfmConfig;
    use xfm_compress::Corpus;
    use xfm_types::{ByteSize, PAGE_SIZE};

    fn plane() -> Arc<ShardedSfm> {
        Arc::new(ShardedSfm::new(ShardedSfmConfig {
            sfm: SfmConfig {
                region_capacity: ByteSize::from_mib(16),
            },
            ..ShardedSfmConfig::default()
        }))
    }

    fn page_of(seed: u64) -> Vec<u8> {
        Corpus::Json.generate(seed, PAGE_SIZE)
    }

    fn engine(config: PrefetchConfig) -> PrefetchEngine {
        PrefetchEngine::new(plane(), config)
    }

    #[test]
    fn sequential_faults_hit_staging() {
        let e = engine(PrefetchConfig {
            auto_pump: false,
            ..PrefetchConfig::default()
        });
        for p in 0..256u64 {
            e.swap_out(PageNumber::new(p), &page_of(p)).unwrap();
        }
        let mut out = Vec::new();
        let mut hits = 0;
        for p in 0..256u64 {
            let before = e.staged_pages();
            let was_staged = before > 0 && {
                let st = e.state.lock();
                st.staging.contains_key(&p)
            };
            e.swap_in_into(PageNumber::new(p), false, &mut out).unwrap();
            assert_eq!(out, page_of(p), "page {p} contents");
            if was_staged {
                hits += 1;
            }
            e.pump();
        }
        assert!(hits > 200, "only {hits} staged hits over 256 faults");
        assert!(e.precision() > 0.9, "precision {}", e.precision());
    }

    #[test]
    fn staged_and_written_back_pages_stay_billed_to_their_tenant() {
        let e = engine(PrefetchConfig {
            staging_capacity: 8,
            stale_after_pumps: 1,
            auto_pump: false,
        });
        let ctx = OpContext::for_tenant(TenantId::new(3));
        let mut billed = 0u64;
        for p in 0..32u64 {
            let out = e
                .swap_out_ctx(&ctx, PageNumber::new(p), &page_of(p))
                .unwrap();
            billed += u64::from(out.compressed_len);
        }
        // A stride of faults stages pages ahead; each fault's outcome
        // returns its bill, and every staged page stays billed.
        let mut out = Vec::new();
        for p in 0..4u64 {
            let got = e.swap_in_into_ctx(&ctx, PageNumber::new(p), false, &mut out);
            billed -= u64::from(got.unwrap().compressed_len);
            e.pump();
        }
        assert!(e.staged_pages() > 0, "the stride staged nothing");
        assert_eq!(e.tenant_usage(), vec![(ctx.tenant, billed)]);
        // Stale pages go home under the same bill.
        for _ in 0..2 {
            e.pump();
        }
        assert_eq!(e.staged_pages(), 0);
        assert_eq!(e.tenant_usage(), vec![(ctx.tenant, billed)]);
        for p in 4..32u64 {
            let got = e.swap_in_into_ctx(&ctx, PageNumber::new(p), false, &mut out);
            billed -= u64::from(got.unwrap().compressed_len);
        }
        assert_eq!((billed, e.tenant_usage()), (0, vec![]));
    }

    #[test]
    fn staging_is_bounded_by_capacity() {
        let e = engine(PrefetchConfig {
            staging_capacity: 4,
            auto_pump: false,
            stale_after_pumps: 0,
        });
        for p in 0..128u64 {
            e.swap_out(PageNumber::new(p), &page_of(p)).unwrap();
        }
        let mut out = Vec::new();
        let mut throttled = 0;
        for p in 0..64u64 {
            let _ = e.swap_in_into(PageNumber::new(p), false, &mut out);
            throttled += e.pump().throttled;
            assert!(e.staged_pages() <= 4, "staging grew past its bound");
        }
        assert!(throttled > 0, "depth {DEPTH} never met the 4-page bound");
    }

    #[test]
    fn stale_pages_write_back_not_drop() {
        let e = engine(PrefetchConfig {
            stale_after_pumps: 2,
            auto_pump: false,
            ..PrefetchConfig::default()
        });
        for p in 0..64u64 {
            e.swap_out(PageNumber::new(p), &page_of(p)).unwrap();
        }
        let mut out = Vec::new();
        for p in 0..8u64 {
            e.swap_in_into(PageNumber::new(p), false, &mut out).unwrap();
        }
        e.pump();
        let staged = e.staged_pages();
        assert!(staged > 0, "nothing staged");
        // Idle pumps age the staged pages out.
        let mut wrote = 0;
        for _ in 0..4 {
            wrote += e.pump().written_back;
        }
        assert!(wrote >= staged, "staged pages not written back");
        // Written-back pages are still faultable with intact contents.
        for p in 8..16u64 {
            e.swap_in_into(PageNumber::new(p), false, &mut out).unwrap();
            assert_eq!(out, page_of(p));
        }
    }

    #[test]
    fn swap_out_of_staged_page_is_entry_exists() {
        let e = engine(PrefetchConfig {
            auto_pump: false,
            ..PrefetchConfig::default()
        });
        for p in 0..32u64 {
            e.swap_out(PageNumber::new(p), &page_of(p)).unwrap();
        }
        let mut out = Vec::new();
        for p in 0..6u64 {
            e.swap_in_into(PageNumber::new(p), false, &mut out).unwrap();
        }
        e.pump();
        let staged: Vec<u64> = {
            let st = e.state.lock();
            st.staging.keys().copied().collect()
        };
        assert!(!staged.is_empty());
        let p = staged[0];
        assert!(e.contains(PageNumber::new(p)));
        let err = e.swap_out(PageNumber::new(p), &page_of(p)).unwrap_err();
        assert!(matches!(err.cause(), Error::EntryExists { .. }));
    }

    #[test]
    fn disabled_engine_is_pass_through() {
        let e = engine(PrefetchConfig::default());
        e.set_enabled(false);
        for p in 0..64u64 {
            e.swap_out(PageNumber::new(p), &page_of(p)).unwrap();
        }
        let mut out = Vec::new();
        for p in 0..64u64 {
            e.swap_in_into(PageNumber::new(p), false, &mut out).unwrap();
            assert_eq!(out, page_of(p));
        }
        assert_eq!(e.staged_pages(), 0);
        assert_eq!(e.pump(), PumpReport::default());
    }

    /// Faults four pages at stride 3 from `base` with a pump after
    /// each: the fourth makes the stream confident, and its `DEPTH`
    /// predictions are never faulted.
    fn abandoned_run(e: &PrefetchEngine, base: u64) -> PumpReport {
        let mut out = Vec::new();
        let mut last = PumpReport::default();
        for k in 0..4u64 {
            e.swap_in_into(PageNumber::new(base + 3 * k), false, &mut out)
                .unwrap();
            last = e.pump();
        }
        last
    }

    #[test]
    fn precision_gate_throttles_wild_predictions() {
        let e = engine(PrefetchConfig {
            stale_after_pumps: 0,
            auto_pump: false,
            ..PrefetchConfig::default()
        });
        for p in 0..2048u64 {
            e.swap_out(PageNumber::new(p), &page_of(p)).unwrap();
        }
        // Eight abandoned runs stage one precision window of pages and
        // hit none of them.
        let runs = PRECISION_WINDOW / u64::from(DEPTH);
        for run in 0..runs {
            assert!(!e.is_gated(), "gate closed early, run {run}");
            assert_eq!(abandoned_run(&e, run * 128).issued, DEPTH as usize);
        }
        // The next window check closes the gate; a confident stream is
        // throttled instead of staged (pump 36 is not a probe round).
        let report = abandoned_run(&e, runs * 128);
        assert!(e.is_gated());
        assert_eq!(report.issued, 0);
        assert_eq!(report.throttled, DEPTH as usize);
        assert_eq!(e.precision(), 0.0);
    }

    #[test]
    fn short_runs_keep_issuing_past_the_outstanding_bound() {
        // Regression: only the six pages of each run exist, so the pump
        // drops the eight predictions past its end and they stay
        // outstanding. Once 4 096 had piled up the predictor refused
        // every new prediction and `issued` stopped for good.
        let e = engine(PrefetchConfig {
            auto_pump: false,
            ..PrefetchConfig::default()
        });
        let runs = 1100u64;
        for run in 0..runs {
            for k in 0..6u64 {
                e.swap_out(PageNumber::new(run * 1000 + k), &[run as u8; PAGE_SIZE])
                    .unwrap();
            }
        }
        let mut out = Vec::new();
        let mut issued_by_run = Vec::new();
        for run in 0..runs {
            let mut issued = 0;
            for k in 0..6u64 {
                e.swap_in_into(PageNumber::new(run * 1000 + k), false, &mut out)
                    .unwrap();
                issued += e.pump().issued;
            }
            issued_by_run.push(issued);
        }
        // The fourth fault of a run stages its last two pages.
        assert!(
            issued_by_run[1000..].iter().all(|&n| n == 2),
            "issuing stopped: {:?}",
            &issued_by_run[1000..1010]
        );
    }

    #[test]
    fn flush_staging_returns_pages_to_pool() {
        let e = engine(PrefetchConfig {
            auto_pump: false,
            ..PrefetchConfig::default()
        });
        for p in 0..64u64 {
            e.swap_out(PageNumber::new(p), &page_of(p)).unwrap();
        }
        let mut out = Vec::new();
        for p in 0..8u64 {
            e.swap_in_into(PageNumber::new(p), false, &mut out).unwrap();
        }
        e.pump();
        let staged = e.staged_pages();
        assert!(staged > 0);
        assert_eq!(e.flush_staging().unwrap(), staged);
        assert_eq!(e.staged_pages(), 0);
        // Every flushed page faultable from the pool, contents intact.
        for p in 8..24u64 {
            if e.inner.contains(PageNumber::new(p)) {
                e.swap_in_into(PageNumber::new(p), false, &mut out).unwrap();
                assert_eq!(out, page_of(p));
            }
        }
    }

    #[test]
    fn telemetry_counts_hits_and_issues() {
        let inner = plane();
        let mut e = PrefetchEngine::new(
            inner,
            PrefetchConfig {
                auto_pump: false,
                ..PrefetchConfig::default()
            },
        );
        let registry = Registry::new();
        e.attach_telemetry(&registry);
        for p in 0..128u64 {
            e.swap_out(PageNumber::new(p), &page_of(p)).unwrap();
        }
        let mut out = Vec::new();
        for p in 0..128u64 {
            e.swap_in_into(PageNumber::new(p), false, &mut out).unwrap();
            e.pump();
        }
        let snap = registry.snapshot();
        assert!(snap.counters["xfm_prefetch_issued_total"] > 0);
        assert!(snap.counters["xfm_prefetch_hits_total"] > 0);
        assert!(snap.gauges["xfm_prefetch_precision"] > 0.5);
    }
}
