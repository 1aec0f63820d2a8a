//! One fault path: `FarKvService` over the paper's backend and over the
//! CPU plane storing the same blocks — a one-shard `ShardedSfm` over the
//! backend's container codec — makes the same plane calls on one seeded
//! trace. Both keep a faulted value's compressed copy while the tenant
//! is under half its compressed quota and drop a stale one with no
//! decode, so they compress exactly as often, keep as many loads and
//! discard as many copies; only where the codec ran differs.

use std::sync::Arc;

use xfm::compress::ratio::Container;
use xfm::compress::{CostModel, XDeflate};
use xfm::core::backend::{XfmBackend, XfmBackendConfig};
use xfm::faults::SplitMix64;
use xfm::serve::{FarKvService, TenantSpec};
use xfm::sfm::{BackendStats, ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm::types::{ByteSize, Nanos, TenantId, PAGE_SIZE};

const TENANT: TenantId = TenantId::new(3);
const KEYS: u64 = 192;
const OPS: u64 = 3_000;

/// Version `version` of `key`'s value.
fn value(key: u64, version: u64) -> Vec<u8> {
    xfm_testkit::json_page(key * 1_000 + version)
}

/// Fills `KEYS` keys, then runs `OPS` operations (one in five a put of
/// a new version, the rest gets; three in four on the hottest quarter
/// of the keys), calling `tick` before each. Returns the plane's
/// statistics and the service's operation count.
fn drive(plane: Arc<dyn SwapPlane>, tick: impl Fn()) -> (BackendStats, u64) {
    let spec = TenantSpec::new(TENANT, ByteSize::from_pages(48), ByteSize::from_mib(1));
    let svc = FarKvService::new(Arc::clone(&plane), vec![spec]);
    let mut versions = vec![0u64; KEYS as usize];
    for key in 0..KEYS {
        tick();
        svc.put(TENANT, key, &value(key, 0)).unwrap();
    }
    let (mut rng, mut out) = (SplitMix64::new(0x5A3E_7ACE), Vec::with_capacity(PAGE_SIZE));
    for _ in 0..OPS {
        tick();
        let r = rng.next_u64();
        let key = if r % 4 == 0 {
            r >> 8
        } else {
            (r >> 8) % (KEYS / 4)
        } % KEYS;
        let version = &mut versions[key as usize];
        if (r >> 40) % 5 == 0 {
            *version += 1;
            svc.put(TENANT, key, &value(key, *version)).unwrap();
        } else {
            svc.get(TENANT, key, &mut out).unwrap().expect("stored");
            assert_eq!(out, value(key, *version), "key {key}");
        }
    }
    assert!(svc.accounting().balanced);
    let ops = svc.snapshots().iter().map(|s| s.puts + s.gets).sum();
    (plane.stats(), ops)
}

#[test]
fn both_planes_compress_keep_and_discard_alike_on_one_trace() {
    for n_dimms in [1usize, 2, 4] {
        let xfm = XfmBackend::builder()
            .config(XfmBackendConfig {
                n_dimms,
                ..XfmBackendConfig::default()
            })
            .build()
            .unwrap();
        let xfm = Arc::new(xfm);
        let now = std::cell::Cell::new(Nanos::from_ms(1));
        let (paper, ops) = drive(xfm.clone(), || {
            now.set(now.get() + Nanos::from_us(10));
            xfm.advance_to(now.get());
        });

        let blocks = Container::new(Arc::new(XDeflate::default()), n_dimms);
        let config = ShardedSfmConfig {
            sfm: xfm.config().sfm,
            shards: 1,
        };
        let cpu = ShardedSfm::with_codec(config, Arc::new(blocks), CostModel::paper_average());
        let (host, cpu_ops) = drive(Arc::new(cpu), || {});

        let calls = |s: &BackendStats| (s.swap_outs, s.loads, s.discards, s.swap_ins);
        assert_eq!(calls(&paper), calls(&host), "{n_dimms} DIMMs");
        assert_eq!(ops, cpu_ops);
        // The trace reaches what it was written for: clean copies kept
        // and stale ones dropped, on the paper's path too.
        assert!(paper.loads > 0 && paper.discards > 0, "{paper:?}");
        assert!(
            paper.swap_outs < ops,
            "{} compressions for {ops} ops",
            paper.swap_outs
        );
        assert!(xfm.nma_stats().submitted > 0, "{n_dimms} DIMMs: no offload");
    }
}
