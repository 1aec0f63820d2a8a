//! `LifecycleTrace::explain` on the serve path, through the slow-op
//! hook: a faulting get and a draining put decompose into layers — lock
//! waits, serve bookkeeping, fetch and checksum, decode, booking,
//! copy-out, the quota pass, and each drained victim's compress and
//! zpool store — that sum back to the latency the operation measured.
//!
//! The band: no operation's layers add up to more than its latency, and
//! over the run they cover at least 85 % of it. The rest is what no
//! layer records: the plane call's dispatch (the codec-state free list,
//! the same-filled check, the ledger-series lookup of a swap-out) and
//! the clock reads themselves.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use xfm_serve::{FarKvService, TenantSpec};
use xfm_sfm::{ShardedSfm, ShardedSfmConfig};
use xfm_telemetry::{CriticalPath, Layer, LifecycleStage, Registry};
use xfm_types::{ByteSize, TenantId, PAGE_SIZE};

const TENANT: TenantId = TenantId::new(5);
const KEYS: u64 = 256;
const RESIDENT: u64 = 64;
const OPS: u64 = 3_000;

/// Runs a churning single client (one op in three a put) with every
/// traced operation's path captured; returns the paths and how many
/// pages the plane compressed meanwhile.
fn churn() -> (Vec<CriticalPath>, u64) {
    let registry = Registry::new();
    let mut sfm = ShardedSfm::new(ShardedSfmConfig::default());
    sfm.attach_telemetry(&registry);
    let sfm = Arc::new(sfm);
    let mut svc = FarKvService::new(
        sfm.clone(),
        vec![TenantSpec::new(
            TENANT,
            ByteSize::from_pages(RESIDENT),
            ByteSize::from_mib(8),
        )],
    );
    svc.attach_telemetry(&registry);
    let pages: Vec<Vec<u8>> = (0..KEYS).map(xfm_testkit::json_page).collect();
    for (key, page) in (0..KEYS).zip(&pages) {
        svc.put(TENANT, key, page).unwrap();
    }
    let paths = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&paths);
    svc.on_slow_op(Duration::ZERO, move |path| {
        sink.lock().unwrap().push(path.clone());
    });

    let outs = sfm.stats().swap_outs;
    let mut out = Vec::with_capacity(PAGE_SIZE);
    let mut x = 7u64;
    for i in 0..OPS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let key = (x >> 33) % KEYS;
        if i % 3 == 0 {
            svc.put(TENANT, key, &pages[key as usize]).unwrap();
        } else {
            svc.get(TENANT, key, &mut out).unwrap().unwrap();
            assert_eq!(out, pages[key as usize]);
        }
    }
    let compressed = sfm.stats().swap_outs - outs;
    let paths = paths.lock().unwrap().clone();
    (paths, compressed)
}

#[test]
fn faults_and_draining_puts_sum_back_to_their_latency() {
    let (paths, compressed) = churn();
    let (mut total, mut layers) = (0u64, 0u64);
    let (mut faults, mut drains) = (0, 0);
    for path in &paths {
        let sum = path.wait_ns() + path.work_ns();
        assert!(sum <= path.total_ns, "layers over the latency:\n{path}");
        total += path.total_ns;
        layers += sum;
        let has = |layer| path.layer_ns(layer) > 0;
        if path.stage == LifecycleStage::Get && has(Layer::Fetch) {
            faults += 1;
            for layer in [Layer::Bookkeeping, Layer::Booking, Layer::CopyOut] {
                assert!(has(layer), "fault without {layer:?}:\n{path}");
            }
        }
        let victims = path.victims();
        if path.stage == LifecycleStage::Put && !victims.is_empty() {
            drains += 1;
            for v in victims {
                let store = path
                    .steps
                    .iter()
                    .any(|s| s.page == v && s.layer == Layer::ZpoolStore);
                assert!(store, "victim {v:#x} without its store:\n{path}");
            }
        }
    }
    // Every compression of the run belongs to exactly one traced path.
    let named: usize = paths.iter().map(|p| p.victims().len()).sum();
    assert_eq!(named as u64, compressed);
    assert!(
        faults > 100 && drains > 100,
        "{faults} faults, {drains} drains"
    );
    let covered = layers as f64 / total as f64;
    assert!(
        covered >= 0.85,
        "layers cover {:.1} % of {total} ns",
        covered * 100.0
    );
}
