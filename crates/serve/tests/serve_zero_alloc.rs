//! Zero-allocation gates for the serve hit path and the clean fault
//! cycle.
//!
//! A hot `get` copies a resident page into the caller's buffer under the
//! key's stripe's read lock, and an overwrite of a resident key copies
//! into the page's own buffer: after warm-up, neither may touch the
//! allocator, telemetry attached (the shed counters and lock-wait
//! histograms are resolved once, when it attaches). Nor may a demand
//! fault whose plane keeps its copy, followed by the clean demotion of
//! a page: the load decodes into a warm buffer and the demotion makes
//! no plane call. That cycle runs every part of S3-FIFO — promotions
//! from the small queue to main, turns of main's head and ghost
//! readmissions — on queues sized when the tenant was built. A tenant
//! of 64 pages whose gets leave dirty victims for the puts that drain
//! them (compress and zpool store) allocates nothing either: its
//! stripes and far set are hash maps that keep their capacity.

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

#[test]
fn kept_faults_and_their_clean_demotions_allocate_nothing() {
    // Twenty pages: a small queue of two, room in main and the ghost
    // for eighteen.
    const KEYS: u64 = 28;
    const RESIDENT: u64 = 20;
    const CYCLE: usize = 200;
    let registry = Registry::new();
    let mut sfm = ShardedSfm::new(ShardedSfmConfig::default());
    sfm.attach_telemetry(&registry);
    let sfm = Arc::new(sfm);
    let mut svc = FarKvService::new(
        sfm.clone(),
        vec![TenantSpec::new(
            TENANT,
            ByteSize::from_pages(RESIDENT),
            ByteSize::from_mib(1),
        )],
    );
    svc.attach_telemetry(&registry);
    // Compressible and not same-filled, so every fault decodes.
    let pages: Vec<Vec<u8>> = (0..KEYS)
        .map(|k| {
            (0..PAGE_SIZE)
                .map(|i| (i as u64 * (k + 3) % 251) as u8)
                .collect()
        })
        .collect();
    for (key, page) in (0..KEYS).zip(&pages) {
        svc.put(TENANT, key, page).unwrap();
    }

    // A fixed cycle of skewed keys (the product of two uniform draws):
    // hot keys stay in main, warm ones are read again while in the small
    // queue or soon after they left it, cold ones pass through.
    let mut x = 3u64;
    let cycle: Vec<u64> = (0..CYCLE)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % KEYS * ((x >> 45) % KEYS) / KEYS
        })
        .collect();
    let mut out = Vec::with_capacity(PAGE_SIZE);
    let mut op = |i: u64| {
        let key = cycle[i as usize % CYCLE];
        svc.get(TENANT, key, &mut out).unwrap().unwrap();
        assert_eq!(out, pages[key as usize]);
    };
    // After a few cycles every key read has faulted once and been kept.
    for i in 0..4 * CYCLE as u64 {
        op(i);
    }
    let (outs, before) = (sfm.stats().swap_outs, svc.snapshot(TENANT).unwrap());
    let allocs = count_allocs(|| {
        for i in 0..OPS {
            op(i);
        }
    });
    assert_eq!(
        allocs, 0,
        "{OPS} kept faults and clean demotions allocated {allocs} times"
    );
    assert_eq!(sfm.stats().swap_outs, outs, "a demotion re-compressed");
    let snap = svc.snapshot(TENANT).unwrap();
    let faults = snap.faults - before.faults;
    assert!(faults > 0, "{snap:?}");
    assert_eq!(snap.clean_demotions - before.clean_demotions, faults);
    assert!(snap.ghost_hits > before.ghost_hits, "{snap:?}");
    // A promoted key was read in the small queue, so it enters main with
    // a nonzero frequency and leaves only after main's head turned it:
    // more promotions than main can hold means main turned too.
    assert!(snap.promoted - before.promoted > RESIDENT + 1, "{snap:?}");
    assert!(svc.accounting().balanced);
}

#[test]
fn a_large_tenants_deferring_gets_and_draining_puts_allocate_nothing() {
    // 64 pages: a read slack of one page, a small queue of six. The
    // stripes, the far set and the plane's indexes reach their
    // high-water marks during warm-up and never shrink.
    const KEYS: u64 = 112;
    const RESIDENT: u64 = 64;
    const CYCLE: usize = 600;
    let registry = Registry::new();
    let mut sfm = ShardedSfm::new(ShardedSfmConfig::default());
    sfm.attach_telemetry(&registry);
    let sfm = Arc::new(sfm);
    let mut svc = FarKvService::new(
        sfm.clone(),
        vec![TenantSpec::new(
            TENANT,
            ByteSize::from_pages(RESIDENT),
            ByteSize::from_mib(4),
        )],
    );
    svc.attach_telemetry(&registry);
    let pages: Vec<Vec<u8>> = (0..KEYS)
        .map(|k| {
            (0..PAGE_SIZE)
                .map(|i| (i as u64 * (k % 7 + 3) % 251) as u8)
                .collect()
        })
        .collect();
    for (key, page) in (0..KEYS).zip(&pages) {
        svc.put(TENANT, key, page).unwrap();
    }

    // Skewed keys, one op in three a put: a get that faults leaves its
    // dirty victim within the slack, and the next put drains it.
    let mut x = 11u64;
    let cycle: Vec<(u64, bool)> = (0..CYCLE)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % KEYS * ((x >> 45) % KEYS) / KEYS, i % 3 == 0)
        })
        .collect();
    let mut out = Vec::with_capacity(PAGE_SIZE);
    let mut op = |i: u64| {
        let (key, put) = cycle[i as usize % CYCLE];
        let page = &pages[key as usize];
        if put {
            assert!(matches!(
                svc.put(TENANT, key, page).unwrap(),
                PutResult::Stored { .. }
            ));
        } else {
            svc.get(TENANT, key, &mut out).unwrap().unwrap();
            assert_eq!(out, *page);
        }
    };
    for i in 0..8 * CYCLE as u64 {
        op(i);
    }
    let (outs, before) = (sfm.stats().swap_outs, svc.snapshot(TENANT).unwrap());
    let allocs = count_allocs(|| {
        for i in 0..OPS {
            op(i);
        }
    });
    assert_eq!(
        allocs, 0,
        "{OPS} deferring gets and draining puts allocated {allocs} times"
    );
    let snap = svc.snapshot(TENANT).unwrap();
    assert!(snap.deferred > before.deferred, "{snap:?}");
    assert!(
        sfm.stats().swap_outs > outs,
        "no put drained a dirty victim"
    );
    assert!(snap.ghost_hits > before.ghost_hits, "{snap:?}");
    assert!(svc.accounting().balanced);
}
