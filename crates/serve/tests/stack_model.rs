//! One model-based test over the composed stack: `FarKvService` →
//! `PrefetchEngine` → `TieredPlane`, whose tier 0 is a 4-shard
//! `ShardedSfm` on a 12-page region with injected zpool store failures
//! and whose tier 1 is a `ReplicatedPlane`. Every layer's own
//! differential test is one or two layers deep; this one drives them
//! together against a `HashMap` of what each tenant last wrote.
//!
//! Tier 0's region fills, so stores spill to the replicas; tier 0 has no
//! page budget, because a budget's demotions re-bill a page in the
//! colder tier's terms (a 1 KiB block becomes a 4 KiB raw page in
//! `tenant_usage`) while the service's ledger keeps what the demotion
//! cost, and that billing is pinned by `xfm-sfm`'s `media_exact`.
//!
//! Ops are puts, gets, prefetch pumps, compactions (so zspage moves run
//! under every layer), replica kills and revivals (at most one replica
//! down at a time; a revival scrubs) and clock advances. After every op:
//! - a get returns exactly the model's bytes, or nothing for a key the
//!   model does not hold;
//! - every put is stored, and no key is lost: the service lists exactly
//!   the model's keys;
//! - each tenant's service ledger equals its bill in the stack
//!   (`tenant_usage`), and the totals agree;
//! - resident pages stay within the quota after a put, and within the
//!   quota plus the read slack after any other op.
//!
//! A final sweep reads every key back. Each op is a tuple of range-drawn
//! fields, so a failure shrinks and prints its `rerun:` line.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use xfm_event::ClockMirror;
use xfm_faults::{FaultInjector, FaultPlan, FaultSite, SiteSpec};
use xfm_serve::{FarKvService, PutResult, TenantSpec};
use xfm_sfm::{
    MediaModel, PrefetchConfig, PrefetchEngine, ReplicatedPlane, SfmConfig, ShardedSfm,
    ShardedSfmConfig, SwapPlane, TierSpec, TieredPlane,
};
use xfm_types::{ByteSize, Nanos, PlacementClass, PlaneId, TenantId, PAGE_SIZE};

/// The tenants `(id, resident quota in pages, keys)`: a 4-page one over
/// 48 keys, and a 64-page one (the smallest with a read slack, of one
/// page) over 160 keys, the first 96 of them stored before the ops.
const TENANTS: [(u16, u64, u64); 2] = [(1, 4, 48), (2, 64, 160)];

/// Keys a scan op reads in a row: a stride the prefetcher follows.
const SCAN: u64 = 6;

/// Keys of the 64-page tenant stored before the ops, so its gets run
/// over its quota.
const PREFILL: u64 = 96;

/// The stack under test, with handles on the layers the ops reach.
struct Stack {
    service: FarKvService,
    engine: Arc<PrefetchEngine<TieredPlane>>,
    remote: Arc<ReplicatedPlane>,
    clock: ClockMirror,
    /// The replica currently killed, if any.
    down: Option<usize>,
}

fn stack(seed: u64) -> Stack {
    let clock = ClockMirror::new();
    // 12 host pages shared by 4 shards: the region fills, and tier 0
    // spills to the replicas.
    let mut local = ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_pages(12),
        },
        shards: 4,
    });
    let plan = FaultPlan::new(seed).with_site(
        FaultSite::ZpoolStoreFailure,
        SiteSpec::with_probability(0.02),
    );
    local.attach_faults(Arc::new(FaultInjector::new(&plan)));
    let remote = Arc::new(ReplicatedPlane::new(
        "remote",
        MediaModel::remote(),
        0,
        clock.clone(),
    ));
    let tiered = TieredPlane::new(vec![
        TierSpec::new(
            Arc::new(local),
            PlaneId::new(0),
            PlacementClass::CompressedLocal,
        ),
        TierSpec::new(remote.clone(), PlaneId::new(1), PlacementClass::Remote),
    ])
    .unwrap();
    let engine = Arc::new(PrefetchEngine::new(
        Arc::new(tiered),
        PrefetchConfig {
            staging_capacity: 8,
            stale_after_pumps: 2,
            auto_pump: false,
        },
    ));
    let specs = TENANTS
        .iter()
        .map(|&(t, pages, _)| {
            TenantSpec::new(
                TenantId::new(t),
                ByteSize::from_pages(pages),
                ByteSize::from_mib(4),
            )
        })
        .collect();
    Stack {
        service: FarKvService::new(engine.clone(), specs),
        engine,
        remote,
        clock,
        down: None,
    }
}

/// Version `v` of `key`'s value: JSON with a per-key, per-version tag,
/// same-filled for every eighth version, so blocks land in many size
/// classes.
fn value(tenant: u16, key: u64, v: u8) -> Vec<u8> {
    if v % 8 == 7 {
        return xfm_testkit::filled_page(v);
    }
    let mut page = xfm_testkit::json_page(u64::from(tenant) << 32 | key << 8 | u64::from(v));
    page[..8].copy_from_slice(&key.to_le_bytes());
    page[8] = v;
    page
}

/// The pages a tenant of `quota` pages may hold after a get.
fn read_slack(quota: u64) -> u64 {
    if quota < 64 {
        0
    } else {
        (quota / 64).min(16)
    }
}

/// One op: `(kind, tenant, key, version)`. Kinds 0–3 put, 4–7 get,
/// 8 reads `SCAN` keys from `key` on, 9 pumps the prefetcher, 10
/// compacts, 11 kills or revives a replica, 12 advances the clock.
type Op = (u8, usize, u64, u8);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..13, 0usize..2, 0u64..160, 0u8..=255), 1..300)
}

/// Reads `key` and checks it against the model.
fn check_get(
    s: &Stack,
    model: &HashMap<(u16, u64), Vec<u8>>,
    tenant: u16,
    key: u64,
    out: &mut Vec<u8>,
) -> Result<(), String> {
    let id = TenantId::new(tenant);
    let got = s.service.get(id, key, out);
    let got = got.map_err(|e| format!("get {id:?}/{key}: {e}"))?;
    match model.get(&(tenant, key)) {
        Some(expect) => {
            prop_assert!(got.is_some(), "{:?}/{} lost", id, key);
            prop_assert!(out == expect, "{:?}/{} bytes differ", id, key);
        }
        None => prop_assert!(got.is_none(), "phantom {:?}/{}", id, key),
    }
    Ok(())
}

/// Runs `ops` against the stack and the model, checking after each.
fn run(seed: u64, ops: Vec<Op>) -> Result<(), String> {
    let mut s = stack(seed);
    let mut model: HashMap<(u16, u64), Vec<u8>> = HashMap::new();
    let tenant = TENANTS[1].0;
    for key in 0..PREFILL {
        let data = value(tenant, key, 0);
        s.service
            .put(TenantId::new(tenant), key, &data)
            .map_err(|e| format!("prefill: {e}"))?;
        model.insert((tenant, key), data);
    }
    let mut out = Vec::new();
    for (i, (kind, t, key, v)) in ops.into_iter().enumerate() {
        let (tenant, quota, keys) = TENANTS[t];
        let (id, key) = (TenantId::new(tenant), key % keys);
        match kind {
            0..=3 => {
                let data = value(tenant, key, v);
                let r = s.service.put(id, key, &data);
                prop_assert!(
                    matches!(r, Ok(PutResult::Stored { .. })),
                    "op {}: put {:?}/{}: {:?}",
                    i,
                    id,
                    key,
                    r
                );
                model.insert((tenant, key), data);
            }
            4..=7 => {
                check_get(&s, &model, tenant, key, &mut out).map_err(|e| format!("op {i}: {e}"))?
            }
            8 => {
                for k in (key..key + SCAN).map(|k| k % keys) {
                    check_get(&s, &model, tenant, k, &mut out)
                        .map_err(|e| format!("op {i}: {e}"))?;
                }
            }
            9 => {
                s.engine.pump();
            }
            10 => {
                s.engine.compact();
            }
            11 => match s.down.take() {
                Some(r) => {
                    s.remote.revive(r);
                    s.remote.scrub();
                }
                None => {
                    let r = usize::from(v % 2);
                    s.remote.kill(r);
                    s.down = Some(r);
                }
            },
            _ => s
                .clock
                .publish(s.clock.now() + Nanos::from_us(u64::from(v))),
        }
        // No key lost, none invented.
        for &(tenant, _, _) in &TENANTS {
            let mut want: Vec<u64> = model
                .keys()
                .filter(|(t, _)| *t == tenant)
                .map(|&(_, k)| k)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(s.service.keys(TenantId::new(tenant)), want, "op {}", i);
        }
        // Ledgers reconcile with the stack's bills.
        let acct = s.service.accounting();
        prop_assert!(acct.balanced, "op {}: {:?}", i, acct);
        // Resident pages within the quota after a put, within it plus
        // the read slack after anything else (a get's deferred victim
        // waits for the next put).
        let snap = s.service.snapshot(id).unwrap();
        let slack = if kind <= 3 { 0 } else { read_slack(quota) };
        let limit = (quota + slack) * PAGE_SIZE as u64;
        prop_assert!(snap.resident_bytes <= limit, "op {}: {:?}", i, snap);
    }
    for (&(tenant, key), expect) in &model {
        let got = s.service.get(TenantId::new(tenant), key, &mut out);
        let got = got.map_err(|e| format!("sweep: {e}"))?;
        prop_assert!(got.is_some(), "sweep: {}/{} lost", tenant, key);
        prop_assert!(&out == expect, "sweep: {}/{} bytes differ", tenant, key);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn the_composed_stack_equals_the_model(seed in 0u64..1 << 16, ops in ops()) {
        run(seed, ops)?;
    }
}
