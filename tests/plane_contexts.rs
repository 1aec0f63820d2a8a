//! One contract, every plane: whatever form a swap-out takes — single,
//! batched, context-free — the page is billed to the tenant the caller
//! named, and the bytes come back on swap-in.
//!
//! Only `SwapPlane` methods are used, through `dyn SwapPlane`, so a
//! plane passes by implementing the trait's required methods and
//! nothing else.

use std::sync::Arc;

use xfm::core::backend::XfmBackend;
use xfm::event::ClockMirror;
use xfm::sfm::{
    MediaModel, ModeledPlane, PrefetchConfig, PrefetchEngine, ReplicatedPlane, ShardedSfm,
    ShardedSfmConfig, SwapPlane, TierSpec, TieredPlane,
};
use xfm::types::{OpContext, PageNumber, PlacementClass, PlaneId, TenantId};
use xfm_testkit::mixed_page;

fn sharded() -> Arc<ShardedSfm> {
    Arc::new(ShardedSfm::new(ShardedSfmConfig::default()))
}

/// Every plane in the repository, each over fresh state.
fn planes() -> Vec<(&'static str, Arc<dyn SwapPlane>)> {
    let tiered = TieredPlane::new(vec![
        TierSpec::new(sharded(), PlaneId::new(0), PlacementClass::CompressedLocal)
            .with_capacity_pages(2),
        TierSpec::new(
            Arc::new(ModeledPlane::new(
                "ssd",
                MediaModel::ssd(),
                0,
                ClockMirror::new(),
            )),
            PlaneId::new(1),
            PlacementClass::Ssd,
        ),
    ])
    .expect("two distinct tiers");
    vec![
        ("sharded", sharded()),
        (
            "modeled",
            Arc::new(ModeledPlane::new(
                "ssd",
                MediaModel::ssd(),
                0,
                ClockMirror::new(),
            )),
        ),
        (
            "replicated",
            Arc::new(ReplicatedPlane::new(
                "remote",
                MediaModel::remote(),
                0,
                ClockMirror::new(),
            )),
        ),
        ("tiered", Arc::new(tiered)),
        (
            "prefetch",
            Arc::new(PrefetchEngine::new(sharded(), PrefetchConfig::default())),
        ),
        ("xfm", Arc::new(XfmBackend::builder().build().unwrap())),
    ]
}

#[test]
fn every_swap_out_form_bills_the_callers_tenant() {
    // Run every row even after one fails, and name all that did.
    let failed: Vec<&str> = planes()
        .into_iter()
        .filter(|(name, plane)| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(name, &**plane)))
                .is_err()
        })
        .map(|(name, _)| name)
        .collect();
    assert!(failed.is_empty(), "planes that mis-bill: {failed:?}");
}

fn check(name: &str, plane: &dyn SwapPlane) {
    let batch_tenant = TenantId::new(5);
    let single_tenant = TenantId::new(9);

    // Batched, with a context.
    let batch: Vec<_> = (0..4u64)
        .map(|p| (PageNumber::new(p), mixed_page(p).into()))
        .collect();
    let results = plane
        .swap_out_batch_ctx(&OpContext::for_tenant(batch_tenant), &batch, 2)
        .unwrap_or_else(|e| panic!("{name}: batch failed: {e}"));
    for ((pn, _), r) in batch.iter().zip(&results) {
        assert!(r.is_ok(), "{name}: {pn}: {r:?}");
        assert_eq!(plane.tenant_of(*pn), Some(batch_tenant), "{name}: {pn}");
    }
    // Every stored byte is on the context's tenant and nobody else.
    assert_eq!(
        plane.tenant_usage(),
        vec![(batch_tenant, plane.pool_stats().stored_bytes.as_bytes())],
        "{name}"
    );

    // Single, with a context; then context-free (the system tenant).
    let (single, anon) = (PageNumber::new(4), PageNumber::new(5));
    plane
        .swap_out_ctx(
            &OpContext::for_tenant(single_tenant),
            single,
            &mixed_page(4),
        )
        .unwrap();
    plane.swap_out(anon, &mixed_page(5)).unwrap();
    assert_eq!(plane.tenant_of(single), Some(single_tenant), "{name}");
    assert_eq!(plane.tenant_of(anon), Some(TenantId::SYSTEM), "{name}");
    let tenants: Vec<TenantId> = plane.tenant_usage().iter().map(|(t, _)| *t).collect();
    assert_eq!(
        tenants,
        vec![TenantId::SYSTEM, batch_tenant, single_tenant],
        "{name}"
    );

    // Consuming an entry returns the bytes to the owner's account,
    // whoever asks for the page.
    let mut buf = Vec::new();
    for p in 0..6u64 {
        plane
            .swap_in_into_ctx(&OpContext::SYSTEM, PageNumber::new(p), false, &mut buf)
            .unwrap_or_else(|e| panic!("{name}: swap-in {p}: {e}"));
        assert_eq!(buf, mixed_page(p), "{name}: page {p}");
    }
    assert!(
        plane.tenant_usage().is_empty(),
        "{name}: nothing left billed"
    );
}
