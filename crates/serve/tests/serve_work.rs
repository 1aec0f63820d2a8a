//! Counted work of two fixed single-client traces: a skewed one over a
//! tenant of 1 024 resident pages, and one of the benchmark's `kv-churn`
//! shape over 2 048.
//!
//! A get's quota pass leaves a dirty victim for the next put while the
//! tenant is within its read slack (1/64 of the resident quota, at most
//! 16 pages: 16 here), so on the first trace no get ever compresses:
//! every dirty demotion is a put's.
//! Moving that work to puts must not add to it. The plane's swap-outs
//! (one compress each) may not exceed, and the hits may not fall below,
//! what the same trace counted when every get paid for its own victim
//! (`PARENT_*`, recorded on the tree before the read slack, and never
//! regenerated to make a change pass).
//!
//! S3-FIFO replaced the CLOCK ring to do less of that work: on both
//! traces the swap-outs must be fewer, and the hits more, than CLOCK's
//! counts (`CLOCK_*`, recorded on the tree before S3-FIFO, and never
//! regenerated either) — on the `kv-churn` shape at least 10 % fewer
//! faults and 15 % fewer swap-outs.
//!
//! A change to the service's locking must not change what a single
//! caller does at all: each trace's counted work is also pinned exactly
//! (`TRACE_*` and `CHURN_*`, recorded when S3-FIFO went in; regenerated
//! only by a deliberate change of the eviction policy).

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

/// Swap-outs, hits, deferred gets and clean demotions of this trace
/// under one CLOCK ring per tenant.
const CLOCK_SWAP_OUTS: u64 = 5_995;
const CLOCK_HITS: u64 = 10_228;
const CLOCK_DEFERRED: u64 = 2_382;
const CLOCK_CLEAN_DEMOTIONS: u64 = 2_514;

/// Swap-outs, hits, deferred gets, clean demotions, promotions and
/// ghost hits of this trace under S3-FIFO.
const TRACE_SWAP_OUTS: u64 = 5_488;
const TRACE_HITS: u64 = 10_556;
const TRACE_DEFERRED: u64 = 1_929;
const TRACE_CLEAN_DEMOTIONS: u64 = 2_539;
const TRACE_PROMOTED: u64 = 975;
const TRACE_GHOST_HITS: u64 = 1_370;

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
    assert!(
        swap_outs < CLOCK_SWAP_OUTS && snap.hits > CLOCK_HITS,
        "{swap_outs} swap-outs and {} hits, {CLOCK_SWAP_OUTS} and {CLOCK_HITS} under CLOCK \
         ({CLOCK_DEFERRED} deferred, {CLOCK_CLEAN_DEMOTIONS} clean demotions)",
        snap.hits
    );
    assert_eq!(
        (
            swap_outs,
            snap.hits,
            snap.deferred,
            snap.clean_demotions,
            snap.promoted,
            snap.ghost_hits
        ),
        (
            TRACE_SWAP_OUTS,
            TRACE_HITS,
            TRACE_DEFERRED,
            TRACE_CLEAN_DEMOTIONS,
            TRACE_PROMOTED,
            TRACE_GHOST_HITS
        ),
        "{snap:?}"
    );
    assert!(svc.accounting().balanced);
}

/// The shape of the benchmark's `kv-churn` for one tenant and one
/// client: Zipf(0.99) keys over 8 192 keys, a 2 048-page resident
/// quota, 30 % puts.
const CHURN_KEYS: u64 = 8192;
const CHURN_RESIDENT_PAGES: u64 = 2048;
const CHURN_OPS: u64 = 100_000;

/// Faults and swap-outs of the `kv-churn`-shaped trace after populate,
/// under one CLOCK ring per tenant.
const CLOCK_CHURN_FAULTS: u64 = 14_236;
const CLOCK_CHURN_SWAP_OUTS: u64 = 8_814;

/// The same under S3-FIFO.
const CHURN_FAULTS: u64 = 12_561;
const CHURN_SWAP_OUTS: u64 = 6_850;

/// A seeded Zipf(θ) sampler by inverse CDF: rank `r` is drawn with
/// weight `1 / (r + 1)^θ` and maps to a seeded permutation of the keys.
struct Zipf {
    cdf: Vec<f64>,
    key_of_rank: Vec<u64>,
}

impl Zipf {
    fn new(n: u64, theta: f64, seed: u64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        // Fisher-Yates over the LCG's high bits.
        let mut key_of_rank: Vec<u64> = (0..n).collect();
        let mut x = seed;
        for i in (1..n as usize).rev() {
            x = lcg(x);
            key_of_rank.swap(i, ((x >> 33) % (i as u64 + 1)) as usize);
        }
        Self { cdf, key_of_rank }
    }

    /// The key of the rank a uniform `u` in `[0, 1)` falls on.
    fn key(&self, u: f64) -> u64 {
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.key_of_rank[rank]
    }
}

/// A uniform draw in `[0, 1)` from the LCG state's top 53 bits.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[test]
fn the_kv_churn_shape_faults_and_compresses_less_than_under_clock() {
    let plane = Arc::new(ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(64),
        },
        ..ShardedSfmConfig::default()
    }));
    let svc = FarKvService::new(
        plane.clone(),
        vec![TenantSpec::new(
            T,
            ByteSize::from_pages(CHURN_RESIDENT_PAGES),
            ByteSize::from_pages(2 * CHURN_KEYS),
        )],
    );
    let zipf = Zipf::new(CHURN_KEYS, 0.99, 0xC4_0A11);
    // Coldest key first, so the hottest keys start out resident.
    for &key in zipf.key_of_rank.iter().rev() {
        svc.put(T, key, &value(key, 0)).unwrap();
    }
    let mut versions = vec![0u64; CHURN_KEYS as usize];
    let (faults, swap_outs) = (svc.snapshot(T).unwrap().faults, plane.stats().swap_outs);

    let mut out = Vec::new();
    let mut x = 0xC4_0A11_u64;
    for op in 1..=CHURN_OPS {
        x = lcg(x);
        let put = unit(x) < 0.3;
        x = lcg(x);
        let key = zipf.key(unit(x));
        if put {
            versions[key as usize] = op;
            let stored = svc.put(T, key, &value(key, op)).unwrap();
            assert!(matches!(stored, PutResult::Stored { .. }));
        } else {
            svc.get(T, key, &mut out)
                .unwrap()
                .expect("every key is stored");
            assert_eq!(out, value(key, versions[key as usize]), "key {key}");
        }
    }
    let snap = svc.snapshot(T).unwrap();
    let faults = snap.faults - faults;
    let swap_outs = plane.stats().swap_outs - swap_outs;
    assert!(
        faults * 10 <= CLOCK_CHURN_FAULTS * 9 && swap_outs * 20 <= CLOCK_CHURN_SWAP_OUTS * 17,
        "{faults} faults and {swap_outs} swap-outs, \
         {CLOCK_CHURN_FAULTS} and {CLOCK_CHURN_SWAP_OUTS} under CLOCK: {snap:?}"
    );
    assert!(snap.promoted > 0 && snap.ghost_hits > 0, "{snap:?}");
    assert_eq!(
        (faults, swap_outs),
        (CHURN_FAULTS, CHURN_SWAP_OUTS),
        "{snap:?}"
    );
    assert!(svc.accounting().balanced);
}
