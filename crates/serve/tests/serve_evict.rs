//! What a tenant's S3-FIFO eviction keeps resident.
//!
//! A tenant's resident keys sit in a small FIFO queue (1/10 of the
//! quota, at least one page) and a main one; a far key that left the
//! small queue unpromoted is remembered by the ghost for main-capacity
//! small-queue evictions. These tests pin what that buys and what it
//! must not break: keys read while resident stay resident while a scan
//! of single-access keys four times the quota passes through; a key
//! re-faulted within the ghost's window enters main and one re-faulted
//! after it enters the small queue; a key read on a 1-page tenant,
//! whose main has no capacity, is demoted like any other; and tenants
//! of 1, 2, 9 and 10 pages — the quotas where the small queue is a
//! single page and main is empty, one page, or nine — keep every
//! invariant after every op.

use std::collections::BTreeMap;
use std::sync::Arc;

use xfm_serve::{FarKvService, GetSource, PutResult, TenantSnapshot, TenantSpec};
use xfm_sfm::{SfmConfig, ShardedSfm, ShardedSfmConfig};
use xfm_types::{ByteSize, TenantId, PAGE_SIZE};

const T: TenantId = TenantId::new(1);

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

fn service(resident_pages: u64) -> (Arc<ShardedSfm>, FarKvService) {
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
            ByteSize::from_pages(resident_pages),
            ByteSize::from_mib(4),
        )],
    );
    (plane, svc)
}

/// Reads `key` and checks its value; returns where it came from.
fn read(svc: &FarKvService, key: u64, version: u64) -> GetSource {
    let mut out = Vec::new();
    let got = svc.get(T, key, &mut out).unwrap().expect("key lost");
    assert_eq!(out, value(key, version), "key {key}");
    got.source
}

fn snap(svc: &FarKvService) -> TenantSnapshot {
    svc.snapshot(T).unwrap()
}

#[test]
fn keys_read_twice_stay_resident_through_a_scan_four_times_the_quota() {
    const QUOTA: u64 = 64;
    let (plane, svc) = service(QUOTA);
    // The hot half of the quota, each key read twice while resident.
    for key in 0..QUOTA / 2 {
        svc.put(T, key, &value(key, 0)).unwrap();
    }
    for key in (0..QUOTA / 2).chain(0..QUOTA / 2) {
        assert_eq!(read(&svc, key, 0), GetSource::Hot);
    }
    // Single-access keys, four times the quota, pass through.
    let scan = QUOTA / 2..QUOTA / 2 + 4 * QUOTA;
    for key in scan.clone() {
        svc.put(T, key, &value(key, 0)).unwrap();
    }
    let s = snap(&svc);
    assert_eq!(s.promoted, QUOTA / 2, "{s:?}");
    assert_eq!(s.demotions, 4 * QUOTA - QUOTA / 2, "{s:?}");
    // Every hot key is still resident: no fault, no plane call.
    let loads = plane.stats().loads;
    for key in 0..QUOTA / 2 {
        assert_eq!(read(&svc, key, 0), GetSource::Hot, "hot key {key}");
    }
    assert_eq!((snap(&svc).faults, plane.stats().loads), (0, loads));
    // And the scan itself is intact.
    for key in scan {
        read(&svc, key, 0);
    }
    assert!(svc.accounting().balanced);
}

#[test]
fn a_refault_within_the_ghost_window_enters_main_and_one_after_it_the_small_queue() {
    // Ten pages: a small queue of one, main and the ghost nine.
    let (_, svc) = service(10);
    for key in 0..=10 {
        svc.put(T, key, &value(key, 0)).unwrap(); // the last demotes key 0
    }
    // One small-queue eviction ago: key 0 is a ghost and enters main,
    // which new keys passing through the small queue never reach.
    assert_eq!(read(&svc, 0, 0), GetSource::Fault); // demotes key 1
    assert_eq!((snap(&svc).ghost_hits, snap(&svc).promoted), (1, 0));
    for key in 11..=30 {
        svc.put(T, key, &value(key, 0)).unwrap(); // demotes keys 2..=21
    }
    assert_eq!(read(&svc, 0, 0), GetSource::Hot);

    // Key 13 left eight small-queue evictions ago, within the window: it
    // enters main, and its fault demotes key 22. Key 12 left ten ago,
    // past it: it enters the small queue.
    assert_eq!(read(&svc, 13, 0), GetSource::Fault);
    assert_eq!(snap(&svc).ghost_hits, 2);
    assert_eq!(read(&svc, 12, 0), GetSource::Fault);
    assert_eq!(snap(&svc).ghost_hits, 2);
    // Eight new keys drain the small queue, key 12 last; main keeps 0
    // and 13.
    for key in 31..=38 {
        svc.put(T, key, &value(key, 0)).unwrap();
    }
    assert_eq!(read(&svc, 13, 0), GetSource::Hot);
    assert_eq!(read(&svc, 0, 0), GetSource::Hot);
    // Key 12 left at the last small-queue eviction: a ghost hit again.
    assert_eq!(read(&svc, 12, 0), GetSource::Fault);
    let s = snap(&svc);
    assert_eq!((s.ghost_hits, s.promoted, s.overflows), (3, 0, 0), "{s:?}");
    assert!(svc.accounting().balanced);
}

#[test]
fn a_read_key_on_a_one_page_tenant_is_demoted_like_any_other() {
    // Main has no capacity on one page: a key read while resident is not
    // promoted into it for good, but is the small queue's next victim.
    let (_, svc) = service(1);
    svc.put(T, 0, &value(0, 0)).unwrap();
    assert_eq!(read(&svc, 0, 0), GetSource::Hot);
    for key in 1..=4 {
        svc.put(T, key, &value(key, 0)).unwrap();
    }
    assert_eq!(read(&svc, 0, 0), GetSource::Fault);
    let s = snap(&svc);
    assert_eq!((s.promoted, s.demotions), (0, 5), "{s:?}");
    assert!(svc.accounting().balanced);
}

#[test]
fn tiny_quotas_keep_every_invariant() {
    for quota in [1, 2, 9, 10] {
        let (plane, svc) = service(quota);
        let keys = 3 * quota + 2;
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let (mut x, mut misses) = (0x7E57 + quota, 0);
        for op in 1..=3_000 {
            x = lcg(x);
            // Half the ops on a fifth of the keys, so some are read
            // while resident and others leave and come back.
            let key = if (x >> 40) % 2 == 0 {
                (x >> 20) % (keys / 5 + 1)
            } else {
                (x >> 20) % keys
            };
            if (x >> 50) % 10 < 3 {
                let stored = svc.put(T, key, &value(key, op)).unwrap();
                assert!(matches!(stored, PutResult::Stored { .. }));
                model.insert(key, op);
            } else {
                let mut out = Vec::new();
                match (svc.get(T, key, &mut out).unwrap(), model.get(&key)) {
                    (Some(_), Some(&version)) => assert_eq!(out, value(key, version)),
                    (None, None) => misses += 1,
                    (got, want) => panic!("quota {quota}, key {key}: {got:?}, model {want:?}"),
                }
            }
            let s = snap(&svc);
            let resident = u64::try_from(model.len()).unwrap().min(quota);
            assert_eq!(s.resident_bytes, resident * PAGE_SIZE as u64, "{s:?}");
            assert_eq!(s.hits + s.faults + misses, s.gets, "{s:?}");
            assert_eq!(
                plane.stats().swap_outs,
                s.demotions - s.clean_demotions,
                "{s:?}"
            );
            assert_eq!(svc.keys(T), model.keys().copied().collect::<Vec<_>>());
            assert!(svc.accounting().balanced, "quota {quota}, op {op}");
        }
        let s = snap(&svc);
        // One page leaves main no room, so no promotion and no ghost.
        assert_eq!(s.promoted > 0, quota > 1, "quota {quota}: {s:?}");
        assert_eq!(s.ghost_hits > 0, quota > 1, "quota {quota}: {s:?}");
        assert_eq!((s.overflows, s.sheds, s.deferred), (0, 0, 0), "{s:?}");
    }
}
