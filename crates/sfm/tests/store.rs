//! The store's own contract, below either plane: a checksum mismatch
//! leaves entry and slot untouched and names the owner; consuming an
//! entry credits the owner exactly once, whatever the decode said; a
//! kept load finished after its lock was released touches only the
//! entry it copied. The
//! refusal, budget and restore paths are driven through the planes
//! (`sharded.rs`, `xfm-core`'s backend tests, `tests/store_parity.rs`).

use std::sync::Arc;

use xfm_compress::{CodecKind, CostModel};
use xfm_faults::{FaultInjector, FaultPlan, FaultSite, SiteSpec};
use xfm_sfm::{Owner, PageStore, RegionBudget};
use xfm_telemetry::{Cause, Registry, SwapMetrics, TenantMetrics};
use xfm_types::{ByteSize, Error, PageNumber, TenantId};

const OWNER: TenantId = TenantId::new(3);
const PAGE: PageNumber = PageNumber::new(9);

/// A traced store and, as the plane in front of it would resolve it,
/// the owner whose ledger series live in `registry`.
fn traced_store(registry: &Registry) -> (PageStore, Owner) {
    let mut s = PageStore::new(RegionBudget::new(ByteSize::from_pages(4)));
    s.attach_telemetry(SwapMetrics::register(registry), 0);
    let tenants = TenantMetrics::register(registry);
    (s, Owner::new(OWNER, Some(&tenants)))
}

#[test]
fn a_checksum_mismatch_leaves_entry_and_slot_and_names_the_owner() {
    let registry = Registry::new();
    let (mut s, owner) = traced_store(&registry);
    let plan = FaultPlan::new(7).with_site(
        FaultSite::BitCorruption,
        SiteSpec::with_probability(1.0).max_fires(1),
    );
    s.attach_faults(Arc::new(FaultInjector::new(&plan)));
    s.store(owner, PAGE, b"stored block", CodecKind::XDeflate)
        .unwrap();
    let before = s.pool_stats();
    assert!(matches!(
        s.fetch(PAGE),
        Err(Error::ChecksumMismatch { page: 9, .. })
    ));
    assert!(s.contains(PAGE));
    assert_eq!(s.pool_stats(), before);
    let events = registry.snapshot().events;
    let mismatch = events.iter().find(|e| e.cause == Cause::ChecksumMismatch);
    assert_eq!(mismatch.unwrap().tenant, OWNER);
    // The stored copy was pristine: the retry reads it back.
    assert_eq!(s.fetch(PAGE).unwrap().bytes, b"stored block");
}

#[test]
fn consume_credits_the_owner_once_whatever_the_decode_said() {
    let registry = Registry::new();
    let (mut s, owner) = traced_store(&registry);
    s.store(owner, PAGE, &[5u8; 300], CodecKind::XDeflate)
        .unwrap();
    let mut out = Vec::new();
    let failed = s.fetch(PAGE).unwrap().restore(PAGE, &mut out, |_, _| {
        Err(Error::Corrupt("decode failed".into()))
    });
    assert!(failed.is_err());
    s.consume(PAGE).unwrap();
    assert!(matches!(
        s.consume(PAGE),
        Err(Error::EntryNotFound { page: 9 })
    ));
    let ledger = registry.snapshot().counters;
    assert_eq!(ledger["xfm_tenant_bytes_stored_total{tenant=\"3\"}"], 300);
    assert_eq!(ledger["xfm_tenant_bytes_freed_total{tenant=\"3\"}"], 300);
    assert_eq!(s.pool_stats().objects, 0);
    assert!(s.is_empty() && s.tenant_bytes().is_empty());
}

#[test]
fn a_load_finished_late_touches_only_the_entry_it_copied() {
    let registry = Registry::new();
    let (mut s, owner) = traced_store(&registry);
    let cost = CostModel::paper_average();
    let failed = || Err(Error::Corrupt("decode failed".into()));
    s.store(owner.clone(), PAGE, b"first block", CodecKind::XDeflate)
        .unwrap();
    let mut buf = Vec::new();
    let copied = s.fetch_into(PAGE, &mut buf).unwrap();
    assert_eq!(copied.block.bytes, b"first block");

    // Replaced while the copy was out (likely in the slot it vacated).
    s.discard(PAGE).unwrap();
    s.store(owner, PAGE, b"second", CodecKind::XDeflate)
        .unwrap();
    assert!(s.finish_load(&copied, failed(), &cost, [0; 3]).is_err());
    let (outcome, kept) = s.finish_load(&copied, Ok(()), &cost, [0; 3]).unwrap();
    assert!(!kept);
    assert_eq!(outcome.compressed_len, 11);
    assert_eq!(s.fetch(PAGE).unwrap().bytes, b"second");

    // The replacement's own load keeps it; its failed decode consumes it.
    let copied = s.fetch_into(PAGE, &mut buf).unwrap();
    assert!(s.finish_load(&copied, Ok(()), &cost, [0; 3]).unwrap().1);
    assert!(s.contains(PAGE));
    assert!(s.finish_load(&copied, failed(), &cost, [0; 3]).is_err());
    assert!(!s.contains(PAGE));
    assert_eq!(s.stats().loads, 2);
    let ledger = registry.snapshot().counters;
    assert_eq!(ledger["xfm_tenant_bytes_stored_total{tenant=\"3\"}"], 17);
    assert_eq!(ledger["xfm_tenant_bytes_freed_total{tenant=\"3\"}"], 17);
}
