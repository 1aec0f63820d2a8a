//! Counted work of one fixed single-client trace over a tenant of 1 024
//! resident pages.
//!
//! A get's quota pass leaves a dirty CLOCK victim for the next put while
//! the tenant is within its read slack (1/64 of the resident quota, at
//! most 16 pages: 16 here), so on this trace no get ever compresses:
//! every dirty demotion is a put's.
//! Moving that work to puts must not add to it. The plane's swap-outs
//! (one compress each) may not exceed, and the hits may not fall below,
//! what the same trace counted when every get paid for its own victim
//! (`PARENT_*`, recorded on the tree before the read slack, and never
//! regenerated to make a change pass).

use std::sync::Arc;

use xfm_serve::{FarKvService, PutResult, TenantSpec};
use xfm_sfm::{SfmConfig, ShardedSfm, ShardedSfmConfig};
use xfm_types::{ByteSize, TenantId, PAGE_SIZE};

const T: TenantId = TenantId::new(1);
const RESIDENT_PAGES: u64 = 1024;
const KEYS: u64 = 4096;
const OPS: u64 = 20_000;

/// Swap-outs and hits of this trace when a get demoted its dirty victim
/// itself (2 050 of those 6 000 swap-outs were gets').
const PARENT_SWAP_OUTS: u64 = 6_000;
const PARENT_HITS: u64 = 10_225;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// A compressible page naming its key and version.
fn value(key: u64, version: u64) -> Vec<u8> {
    let mut page: Vec<u8> = (0..PAGE_SIZE as u64)
        .map(|i| (i.wrapping_mul(key + 3) ^ version) as u8)
        .collect();
    page[..8].copy_from_slice(&key.to_le_bytes());
    page[8..16].copy_from_slice(&version.to_le_bytes());
    page
}

#[test]
fn no_get_compresses_and_the_trace_does_no_more_work_than_before() {
    let plane = Arc::new(ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(8),
        },
        ..ShardedSfmConfig::default()
    }));
    let svc = FarKvService::new(
        plane.clone(),
        vec![TenantSpec::new(
            T,
            ByteSize::from_pages(RESIDENT_PAGES),
            ByteSize::from_mib(4),
        )],
    );
    let mut versions = vec![0u64; KEYS as usize];
    for key in 0..KEYS {
        svc.put(T, key, &value(key, 0)).unwrap();
    }

    let mut out = Vec::new();
    let (mut x, mut get_swap_outs) = (0x5EED_u64, 0);
    for op in 1..=OPS {
        x = lcg(x);
        // The product of three uniform draws: a skewed, Zipf-like key.
        let draw = |shift: u32| (x >> shift) % KEYS;
        let key = draw(8) * draw(24) / KEYS * draw(40) / KEYS;
        if x % 10 < 3 {
            versions[key as usize] = op;
            let stored = svc.put(T, key, &value(key, op)).unwrap();
            assert!(matches!(stored, PutResult::Stored { .. }));
        } else {
            let before = plane.stats().swap_outs;
            svc.get(T, key, &mut out)
                .unwrap()
                .expect("every key is stored");
            assert_eq!(out, value(key, versions[key as usize]), "key {key}");
            get_swap_outs += plane.stats().swap_outs - before;
        }
    }

    let snap = svc.snapshot(T).unwrap();
    let swap_outs = plane.stats().swap_outs;
    assert_eq!(get_swap_outs, 0, "a get compressed: {snap:?}");
    assert!(
        snap.deferred > 0,
        "no get ever met a dirty victim: {snap:?}"
    );
    assert_eq!(swap_outs, snap.demotions - snap.clean_demotions);
    assert!(
        swap_outs <= PARENT_SWAP_OUTS,
        "{swap_outs} swap-outs, {PARENT_SWAP_OUTS} before"
    );
    assert!(
        snap.hits >= PARENT_HITS,
        "{} hits, {PARENT_HITS} before",
        snap.hits
    );
    assert!(svc.accounting().balanced);
}
