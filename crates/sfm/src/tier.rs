//! The [`TieredPlane`]: multiple swap planes composed into a demotion
//! hierarchy.
//!
//! Tier 0 is the hottest far-memory tier (conventionally the
//! compressed local zpool); higher indices are progressively colder
//! media ([`crate::modeled::ModeledPlane`] SSD, replicated remote
//! nodes). The composition keeps tiers first-class:
//!
//! - **Placement verdicts** — a swap-out lands on the hottest tier
//!   that accepts it; a tier-local rejection
//!   ([`SwapError::is_retryable_on_other_tier`]) spills the page to
//!   the next tier instead of failing the caller.
//! - **Capacity budgets** — each [`TierSpec`] carries a resident-page
//!   budget; after every store the plane demotes the *oldest* resident
//!   pages down-tier until all budgets hold, recording a
//!   [`LifecycleStage::Demote`] event per move.
//! - **Promotion on fault** — a swap-in resolves the owning tier from
//!   the directory, consumes the page there, and records
//!   [`LifecycleStage::PromoteTier`] when it came from a cold tier.
//! - **Structured errors** — every error is annotated with the
//!   originating [`PlaneId`] via [`SwapError::with_plane`].
//!
//! Configured with a single tier, the composition is observably
//! identical to the inner plane — same results, same telemetry, no
//! extra lifecycle events — which `tests/tier_diff.rs` pins down.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use xfm_telemetry::lifecycle::NO_SHARD;
use xfm_telemetry::{Cause, LifecycleStage, Registry};
use xfm_types::{
    Error, OpContext, PageNumber, PlacementClass, PlaneId, SwapError, SwapResult, TenantId,
    PAGE_SIZE,
};

use crate::backend::{merge_usage, total, BackendStats, SwapOutcome, SwapPlane};
use crate::zpool::{CompactReport, ZpoolStats};

/// One tier in a [`TieredPlane`] composition.
pub struct TierSpec {
    /// The plane storing this tier's pages.
    pub plane: Arc<dyn SwapPlane>,
    /// Stable identity, threaded through errors and telemetry.
    pub id: PlaneId,
    /// The media class (drives demotion direction and reporting).
    pub class: PlacementClass,
    /// Resident-page budget enforced by background demotion
    /// (`0` = unbounded; the plane's own capacity still applies).
    pub capacity_pages: u64,
}

impl TierSpec {
    /// Builds a tier over `plane`.
    #[must_use]
    pub fn new(plane: Arc<dyn SwapPlane>, id: PlaneId, class: PlacementClass) -> Self {
        Self {
            plane,
            id,
            class,
            capacity_pages: 0,
        }
    }

    /// Sets the resident-page budget.
    #[must_use]
    pub fn with_capacity_pages(mut self, pages: u64) -> Self {
        self.capacity_pages = pages;
        self
    }
}

/// Where a page currently resides inside a tiered composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The owning tier's plane id.
    pub plane: PlaneId,
    /// The owning tier's media class.
    pub class: PlacementClass,
}

/// Per-tier accounting snapshot.
#[derive(Debug, Clone)]
pub struct TierStats {
    /// The tier's plane id.
    pub id: PlaneId,
    /// The tier's media class.
    pub class: PlacementClass,
    /// Pages the directory currently attributes to this tier.
    pub resident_pages: u64,
    /// Configured resident-page budget (`0` = unbounded).
    pub capacity_pages: u64,
    /// Pages demoted out of this tier to a colder one.
    pub demoted_out: u64,
    /// Pages demoted into this tier from a hotter one.
    pub demoted_in: u64,
    /// Pages promoted out of this tier by a fault (tiers > 0).
    pub promoted: u64,
    /// The inner plane's aggregate statistics.
    pub backend: BackendStats,
    /// The inner plane's pool occupancy.
    pub pool: ZpoolStats,
}

#[derive(Debug, Clone, Copy)]
struct PageLoc {
    tier: usize,
    seq: u64,
    /// The account billed for the page — demotions and promotions
    /// re-issue inner-plane ops under this identity, so a page keeps
    /// its owner no matter how many tiers it crosses.
    tenant: TenantId,
}

#[derive(Debug, Default, Clone, Copy)]
struct TierCounts {
    demoted_out: u64,
    demoted_in: u64,
    promoted: u64,
}

#[derive(Debug, Default)]
struct Directory {
    /// page index -> owning tier + LRU sequence.
    owner: BTreeMap<u64, PageLoc>,
    /// Per-tier LRU: sequence -> page index (oldest first).
    lru: Vec<BTreeMap<u64, u64>>,
    /// Pages stranded in DRAM when no tier would hold them (never
    /// lost: the fault path serves them by memcpy). Each parked page
    /// keeps its owning tenant so a later re-store stays attributed.
    parked: BTreeMap<u64, (Vec<u8>, TenantId)>,
    counts: Vec<TierCounts>,
    next_seq: u64,
}

impl Directory {
    fn insert(&mut self, page: u64, tier: usize, tenant: TenantId) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.owner.insert(page, PageLoc { tier, seq, tenant });
        self.lru[tier].insert(seq, page);
    }

    fn remove(&mut self, page: u64) -> Option<PageLoc> {
        let loc = self.owner.remove(&page)?;
        self.lru[loc.tier].remove(&loc.seq);
        Some(loc)
    }
}

/// A demotion hierarchy of [`SwapPlane`]s behind one plane surface.
///
/// See the [module docs](self) for semantics. All data-path methods
/// take `&self`; the directory sits behind one mutex that is never held
/// across an inner-plane call: a fault reads it once (parked? which
/// tier? whose?) and settles it once (entry removed, promotion counted).
pub struct TieredPlane {
    tiers: Vec<TierSpec>,
    dir: Mutex<Directory>,
    registry: Option<Registry>,
}

impl TieredPlane {
    /// Composes `tiers` (hottest first) into one plane.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `tiers` is empty or two tiers
    /// share a [`PlaneId`].
    pub fn new(tiers: Vec<TierSpec>) -> Result<Self, Error> {
        if tiers.is_empty() {
            return Err(Error::InvalidConfig("TieredPlane needs >= 1 tier".into()));
        }
        for (i, a) in tiers.iter().enumerate() {
            if tiers.iter().skip(i + 1).any(|b| b.id == a.id) {
                return Err(Error::InvalidConfig(format!("duplicate tier id {}", a.id)));
            }
        }
        let dir = Directory {
            lru: tiers.iter().map(|_| BTreeMap::new()).collect(),
            counts: vec![TierCounts::default(); tiers.len()],
            ..Directory::default()
        };
        Ok(Self {
            tiers,
            dir: Mutex::new(dir),
            registry: None,
        })
    }

    /// Routes lifecycle events (Demote / PromoteTier) into `registry`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.registry = Some(registry.clone());
    }

    /// Where `page` currently resides, if the composition holds it.
    #[must_use]
    pub fn placement_of(&self, page: PageNumber) -> Option<Placement> {
        let dir = self.dir.lock();
        if dir.parked.contains_key(&page.index()) {
            // Parked pages are effectively hottest: resident in DRAM.
            let spec = &self.tiers[0];
            return Some(Placement {
                plane: spec.id,
                class: spec.class,
            });
        }
        dir.owner.get(&page.index()).map(|loc| {
            let spec = &self.tiers[loc.tier];
            Placement {
                plane: spec.id,
                class: spec.class,
            }
        })
    }

    /// Per-tier accounting snapshots, hottest first.
    #[must_use]
    pub fn tier_stats(&self) -> Vec<TierStats> {
        let dir = self.dir.lock();
        self.tiers
            .iter()
            .enumerate()
            .map(|(k, spec)| TierStats {
                id: spec.id,
                class: spec.class,
                resident_pages: dir.lru[k].len() as u64,
                capacity_pages: spec.capacity_pages,
                demoted_out: dir.counts[k].demoted_out,
                demoted_in: dir.counts[k].demoted_in,
                promoted: dir.counts[k].promoted,
                backend: spec.plane.stats(),
                pool: spec.plane.pool_stats(),
            })
            .collect()
    }

    /// Records a page's move to or from tier `k`, whose identity is
    /// packed into the lifecycle `aux` word.
    fn record(&self, stage: LifecycleStage, cause: Cause, tenant: TenantId, page: u64, k: usize) {
        if let Some(registry) = &self.registry {
            let spec = &self.tiers[k];
            let aux = (u64::from(spec.id.as_u32()) << 8) | u64::from(spec.class.code());
            registry
                .lifecycle()
                .record(stage, cause, tenant, page, NO_SHARD, aux, 0);
        }
    }

    /// Stores `data` on the hottest tier that accepts it, carrying the
    /// caller's context down to the accepting plane.
    fn place(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<(usize, SwapOutcome)> {
        let mut last = None;
        for (k, tier) in self.tiers.iter().enumerate() {
            match tier.plane.swap_out_ctx(ctx, page, data) {
                Ok(outcome) => return Ok((k, outcome)),
                Err(e) if e.is_retryable_on_other_tier() && k + 1 < self.tiers.len() => {
                    last = Some(e.with_plane(tier.id));
                }
                Err(e) => return Err(e.with_plane(tier.id)),
            }
        }
        Err(last.expect("place() loop ran at least once"))
    }

    /// Demotes oldest pages down-tier until every budget holds.
    fn rebalance(&self) {
        let mut buf = Vec::with_capacity(PAGE_SIZE);
        loop {
            let victim = {
                let mut dir = self.dir.lock();
                let mut found = None;
                for (k, spec) in self.tiers.iter().enumerate() {
                    if spec.capacity_pages == 0 {
                        continue;
                    }
                    if dir.lru[k].len() as u64 > spec.capacity_pages {
                        let (&seq, &pg) = dir.lru[k].iter().next().expect("tier is over budget");
                        dir.lru[k].remove(&seq);
                        let loc = dir.owner.remove(&pg).expect("owner tracks every LRU page");
                        found = Some((k, pg, loc.tenant));
                        break;
                    }
                }
                found
            };
            let Some((k, pg, tenant)) = victim else { break };
            let page = PageNumber::new(pg);
            let ctx = OpContext::for_tenant(tenant);
            if self.tiers[k]
                .plane
                .swap_in_into_ctx(&ctx, page, true, &mut buf)
                .is_err()
            {
                // Could not read the victim out (transient fault);
                // re-list it as freshest and stop this pass.
                self.dir.lock().insert(pg, k, tenant);
                break;
            }
            let mut placed = None;
            for (j, tier) in self.tiers.iter().enumerate().skip(k + 1) {
                if tier.plane.swap_out_ctx(&ctx, page, &buf).is_ok() {
                    placed = Some(j);
                    break;
                }
            }
            match placed {
                Some(j) => {
                    {
                        let mut dir = self.dir.lock();
                        dir.insert(pg, j, tenant);
                        dir.counts[k].demoted_out += 1;
                        dir.counts[j].demoted_in += 1;
                    }
                    self.record(LifecycleStage::Demote, Cause::Ok, tenant, pg, j);
                }
                None => {
                    // No colder tier accepts. Put it back where it was
                    // (its slot just freed); park in DRAM as the
                    // no-page-lost backstop if even that fails.
                    if self.tiers[k].plane.swap_out_ctx(&ctx, page, &buf).is_ok() {
                        self.dir.lock().insert(pg, k, tenant);
                    } else {
                        self.dir.lock().parked.insert(pg, (buf.clone(), tenant));
                    }
                    break;
                }
            }
        }
    }
}

impl SwapPlane for TieredPlane {
    /// `ctx.tenant` is recorded in the directory and travels with the
    /// page through every later demotion or promotion.
    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome> {
        // Duplicate stores route to the owning tier so it reports
        // `EntryExists` itself (identical telemetry to a bare plane).
        let owner_tier = {
            let dir = self.dir.lock();
            if dir.parked.contains_key(&page.index()) {
                return Err(SwapError::from(Error::EntryExists { page: page.index() })
                    .with_plane(self.tiers[0].id));
            }
            dir.owner.get(&page.index()).map(|loc| loc.tier)
        };
        if let Some(j) = owner_tier {
            return self.tiers[j]
                .plane
                .swap_out_ctx(ctx, page, data)
                .map_err(|e| e.with_plane(self.tiers[j].id));
        }
        let (k, outcome) = self.place(ctx, page, data)?;
        self.dir.lock().insert(page.index(), k, ctx.tenant);
        if k > 0 {
            // A spill placement is a demotion relative to the hot tier.
            self.record(
                LifecycleStage::Demote,
                Cause::RegionFull,
                ctx.tenant,
                page.index(),
                k,
            );
        }
        self.rebalance();
        Ok(outcome)
    }

    fn swap_in_into_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        // One acquisition answers parked? / which tier / whose. A page
        // the directory does not list is asked of tier 0, billed to
        // nobody.
        let (k, tenant) = {
            let mut dir = self.dir.lock();
            if let Some((data, _)) = dir.parked.remove(&page.index()) {
                // Parked pages never touch a plane: served by memcpy.
                out.clear();
                out.extend_from_slice(&data);
                return Ok(SwapOutcome::raw_page());
            }
            dir.owner
                .get(&page.index())
                .map_or((0, TenantId::SYSTEM), |loc| (loc.tier, loc.tenant))
        };
        match self.tiers[k]
            .plane
            .swap_in_into_ctx(ctx, page, do_offload, out)
        {
            Ok(outcome) => {
                {
                    let mut dir = self.dir.lock();
                    dir.remove(page.index());
                    if k > 0 {
                        dir.counts[k].promoted += 1;
                    }
                }
                if k > 0 {
                    self.record(
                        LifecycleStage::PromoteTier,
                        Cause::Ok,
                        tenant,
                        page.index(),
                        k,
                    );
                }
                Ok(outcome)
            }
            Err(e) => {
                if matches!(e.cause(), Error::EntryNotFound { .. }) {
                    // Stale directory entry: drop it.
                    self.dir.lock().remove(page.index());
                }
                Err(e.with_plane(self.tiers[k].id))
            }
        }
    }

    fn swap_out_batch_ctx(
        &self,
        ctx: &OpContext,
        batch: &[(PageNumber, Bytes)],
        threads: usize,
    ) -> SwapResult<Vec<SwapResult<SwapOutcome>>> {
        if self.tiers.len() == 1 {
            // Single tier: delegate wholesale so the inner plane's
            // batched pipeline (and its telemetry) runs unchanged.
            let results = self.tiers[0]
                .plane
                .swap_out_batch_ctx(ctx, batch, threads)
                .map_err(|e| e.with_plane(self.tiers[0].id))?;
            let mut dir = self.dir.lock();
            for ((page, _), result) in batch.iter().zip(&results) {
                if result.is_ok() {
                    dir.insert(page.index(), 0, ctx.tenant);
                }
            }
            return Ok(results);
        }
        // Multi-tier: per-page placement (each page may land on a
        // different tier, then trigger cascading demotion).
        Ok(batch
            .iter()
            .map(|(page, data)| self.swap_out_ctx(ctx, *page, data))
            .collect())
    }

    fn contains(&self, page: PageNumber) -> bool {
        if self.dir.lock().parked.contains_key(&page.index()) {
            return true;
        }
        self.tiers.iter().any(|t| t.plane.contains(page))
    }

    fn compact(&self) -> CompactReport {
        total(self.tiers.iter().map(|t| t.plane.compact()))
    }

    fn stats(&self) -> BackendStats {
        total(self.tiers.iter().map(|t| t.plane.stats()))
    }

    fn pool_stats(&self) -> ZpoolStats {
        total(self.tiers.iter().map(|t| t.plane.pool_stats()))
    }

    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        merge_usage(self.tiers.iter().flat_map(|t| t.plane.tenant_usage()))
    }

    fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        let dir = self.dir.lock();
        if let Some((_, tenant)) = dir.parked.get(&page.index()) {
            return Some(*tenant);
        }
        dir.owner.get(&page.index()).map(|loc| loc.tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modeled::{MediaModel, ModeledPlane};
    use xfm_event::ClockMirror;

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
    }

    /// local (budget 2) -> ssd (budget 4) -> remote (unbounded).
    fn three_tiers() -> TieredPlane {
        let clock = ClockMirror::new();
        let local = ModeledPlane::new("local", MediaModel::remote(), 0, clock.clone());
        let ssd = ModeledPlane::new("ssd", MediaModel::ssd(), 0, clock.clone());
        let remote = ModeledPlane::new("remote", MediaModel::remote(), 0, clock);
        TieredPlane::new(vec![
            TierSpec::new(
                Arc::new(local),
                PlaneId::new(0),
                PlacementClass::CompressedLocal,
            )
            .with_capacity_pages(2),
            TierSpec::new(Arc::new(ssd), PlaneId::new(1), PlacementClass::Ssd)
                .with_capacity_pages(4),
            TierSpec::new(Arc::new(remote), PlaneId::new(2), PlacementClass::Remote),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty_and_duplicate_ids() {
        assert!(TieredPlane::new(vec![]).is_err());
        let clock = ClockMirror::new();
        let a = ModeledPlane::new("a", MediaModel::ssd(), 0, clock.clone());
        let b = ModeledPlane::new("b", MediaModel::ssd(), 0, clock);
        assert!(TieredPlane::new(vec![
            TierSpec::new(Arc::new(a), PlaneId::new(0), PlacementClass::Ssd),
            TierSpec::new(Arc::new(b), PlaneId::new(0), PlacementClass::Remote),
        ])
        .is_err());
    }

    #[test]
    fn budget_overflow_demotes_oldest() {
        let plane = three_tiers();
        for i in 0..3u64 {
            plane
                .swap_out(PageNumber::new(i), &page_of(i as u8))
                .unwrap();
        }
        // Budget 2 on tier 0: page 0 (oldest) demoted to tier 1.
        assert_eq!(
            plane.placement_of(PageNumber::new(0)).unwrap().class,
            PlacementClass::Ssd
        );
        assert_eq!(
            plane.placement_of(PageNumber::new(2)).unwrap().class,
            PlacementClass::CompressedLocal
        );
        let stats = plane.tier_stats();
        assert_eq!(stats[0].demoted_out, 1);
        assert_eq!(stats[1].demoted_in, 1);
        // Contents survive the demotion.
        let (back, _) = plane.swap_in(PageNumber::new(0), false).unwrap();
        assert_eq!(back, page_of(0));
    }

    #[test]
    fn deep_fill_cascades_to_remote() {
        let plane = three_tiers();
        for i in 0..12u64 {
            plane
                .swap_out(PageNumber::new(i), &page_of(i as u8))
                .unwrap();
        }
        let stats = plane.tier_stats();
        assert_eq!(stats[0].resident_pages, 2);
        assert_eq!(stats[1].resident_pages, 4);
        assert_eq!(stats[2].resident_pages, 6);
        // Every page still round-trips byte-exact from wherever it sits.
        for i in 0..12u64 {
            let (back, _) = plane.swap_in(PageNumber::new(i), false).unwrap();
            assert_eq!(back, page_of(i as u8), "page {i}");
        }
    }

    #[test]
    fn promotion_counts_cold_tier_faults() {
        let plane = three_tiers();
        for i in 0..6u64 {
            plane
                .swap_out(PageNumber::new(i), &page_of(i as u8))
                .unwrap();
        }
        // Pages 0..4 were demoted off tier 0; faulting one counts as a
        // tier promotion.
        let victim = plane
            .placement_of(PageNumber::new(0))
            .expect("page 0 resident");
        assert!(victim.class > PlacementClass::CompressedLocal);
        plane.swap_in(PageNumber::new(0), false).unwrap();
        let promoted: u64 = plane.tier_stats().iter().map(|t| t.promoted).sum();
        assert_eq!(promoted, 1);
    }

    #[test]
    fn capacity_spill_places_on_next_tier() {
        let clock = ClockMirror::new();
        // Tier 0's *plane* holds only 1 page (hard capacity, not budget).
        let tiny = ModeledPlane::new("tiny", MediaModel::remote(), 1, clock.clone());
        let big = ModeledPlane::new("big", MediaModel::ssd(), 0, clock);
        let plane = TieredPlane::new(vec![
            TierSpec::new(
                Arc::new(tiny),
                PlaneId::new(0),
                PlacementClass::CompressedLocal,
            ),
            TierSpec::new(Arc::new(big), PlaneId::new(1), PlacementClass::Ssd),
        ])
        .unwrap();
        plane.swap_out(PageNumber::new(1), &page_of(1)).unwrap();
        plane.swap_out(PageNumber::new(2), &page_of(2)).unwrap();
        assert_eq!(
            plane.placement_of(PageNumber::new(2)).unwrap().class,
            PlacementClass::Ssd,
            "second store spilled past the full tier 0"
        );
    }

    #[test]
    fn errors_carry_plane_ids() {
        let plane = three_tiers();
        let err = plane.swap_in(PageNumber::new(99), false).unwrap_err();
        assert_eq!(err.plane(), Some(PlaneId::new(0)));
        plane.swap_out(PageNumber::new(7), &page_of(7)).unwrap();
        let err = plane.swap_out(PageNumber::new(7), &page_of(7)).unwrap_err();
        assert!(matches!(err.cause(), Error::EntryExists { .. }));
        assert!(err.plane().is_some());
    }

    #[test]
    fn batched_swap_in_spans_tiers() {
        let plane = three_tiers();
        for i in 0..8u64 {
            plane
                .swap_out(PageNumber::new(i), &page_of(i as u8))
                .unwrap();
        }
        let pages: Vec<PageNumber> = (0..8).map(PageNumber::new).collect();
        let mut outs: Vec<Vec<u8>> = (0..8).map(|_| Vec::new()).collect();
        let results = plane.swap_in_batch_into(&pages, &mut outs);
        for (i, result) in results.iter().enumerate() {
            assert!(result.is_ok(), "page {i}: {result:?}");
            assert_eq!(outs[i], page_of(i as u8), "page {i}");
        }
        assert!(!plane.contains(PageNumber::new(0)));
    }
}
