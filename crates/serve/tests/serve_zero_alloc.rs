//! Zero-allocation gate for the serve hit path.
//!
//! A hot `get` copies a resident page into the caller's buffer under the
//! resident pages' read lock, and an overwrite of a resident key copies
//! into the page's own buffer: after warm-up, neither may touch the
//! allocator, telemetry attached (the shed counters and lock-wait
//! histograms are resolved once, when it attaches).

use std::sync::Arc;

use xfm_serve::{FarKvService, GetSource, PutResult, TenantSpec};
use xfm_sfm::{ShardedSfm, ShardedSfmConfig};
use xfm_telemetry::Registry;
use xfm_testkit::count_allocs;
use xfm_types::{ByteSize, TenantId, PAGE_SIZE};

const TENANT: TenantId = TenantId::new(3);
const KEYS: u64 = 64;
const OPS: u64 = 10_000;

#[test]
fn hot_gets_and_overwrites_allocate_nothing() {
    let mut svc = FarKvService::new(
        Arc::new(ShardedSfm::new(ShardedSfmConfig::default())),
        vec![TenantSpec::new(
            TENANT,
            ByteSize::from_pages(KEYS),
            ByteSize::from_mib(1),
        )],
    );
    svc.attach_telemetry(&Registry::new());
    let pages: Vec<Vec<u8>> = (0..KEYS).map(|k| vec![k as u8; PAGE_SIZE]).collect();
    for (key, page) in (0..KEYS).zip(&pages) {
        svc.put(TENANT, key, page).unwrap();
    }

    let mut out = Vec::with_capacity(PAGE_SIZE);
    // One op in eight overwrites a resident key, the rest are hot gets.
    let mut op = |i: u64| {
        let key = i.wrapping_mul(0x9E37_79B9) % KEYS;
        let page = &pages[key as usize];
        if i.is_multiple_of(8) {
            let stored = svc.put(TENANT, key, page).unwrap();
            assert_eq!(stored, PutResult::Stored { demotions: 0 });
        } else {
            let got = svc.get(TENANT, key, &mut out).unwrap();
            assert_eq!(got.map(|g| g.source), Some(GetSource::Hot));
            assert_eq!(out, *page);
        }
    };
    for i in 0..OPS {
        op(i);
    }
    let allocs = count_allocs(|| {
        for i in 0..OPS {
            op(i);
        }
    });
    assert_eq!(
        allocs, 0,
        "{OPS} hot gets and overwrites allocated {allocs} times"
    );
}
