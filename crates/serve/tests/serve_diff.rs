//! Differential property tests for the service front-end.
//!
//! 1. **Single-tenant equivalence**: for any op sequence, a
//!    [`FarKvService`] tenant must be observably identical to driving
//!    the plane directly with the same hot-cache policy — same values
//!    back, same presence/absence — and the accounting must reconcile
//!    after every sequence. The service adds quotas, admission, and
//!    ledgers *around* the plane; none of that may change what a
//!    single in-quota tenant reads.
//!
//! 2. **Multi-threaded accounting**: concurrent mixed-tenant traffic
//!    must leave the per-tenant ledgers summing exactly to the plane's
//!    global accounting — no interleaving may double-count or leak a
//!    byte. (`cargo test` runs this with threads actually racing.)
//!
//! 3. **Read slack**: a tenant of 64 resident pages — the smallest
//!    whose gets may leave a dirty victim for the next put — over 160
//!    keys reads back exactly what a model map holds, and after every op
//!    its accounting reconciles and it holds at most its quota plus 1/64.
//!
//! 4. **Noisy neighbour at quota**: a fixed-seed racing run with a
//!    best-effort tenant whose compressed quota is below its working
//!    set — admission sheds land on that tenant only, every tenant
//!    faults, and a final sweep reads every listed key back byte-exact.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use xfm_serve::{FarKvService, GetSource, PutResult, ServiceClass, TenantSpec};
use xfm_sfm::{SfmConfig, ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm_types::{ByteSize, TenantId, PAGE_SIZE};

/// Distinct keys the ops draw from (small enough to force collisions
/// and far-memory traffic against the tiny hot cache below).
const KEYS: u64 = 24;

#[derive(Debug, Clone)]
enum Op {
    Put(u64, u8),
    Get(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..KEYS, any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
        4 => (0..KEYS).prop_map(Op::Get),
    ]
}

/// Page contents mixing structure and per-kind noise (never
/// same-filled, compresses like a real value).
fn content(key: u64, kind: u8) -> Vec<u8> {
    let mut page: Vec<u8> = (0..PAGE_SIZE)
        .map(|i| {
            (i as u64)
                .wrapping_mul(key + 3)
                .wrapping_add(u64::from(kind)) as u8
        })
        .collect();
    page[..8].copy_from_slice(&key.to_le_bytes());
    page[8] = kind;
    page
}

/// One step of the cheap deterministic stream the racing threads draw
/// their ops from.
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

fn plane() -> Arc<ShardedSfm> {
    Arc::new(ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(8),
        },
        ..ShardedSfmConfig::default()
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The service path returns exactly what a model KV (and therefore
    /// the plane driven directly) would: every admitted put is
    /// readable, reads return the latest value, absent keys miss.
    /// Quotas are ample, so no op is ever shed and the far set mirrors
    /// plain plane usage.
    #[test]
    fn single_tenant_service_equals_model(
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let t = TenantId::new(1);
        // Hot cache of 4 pages against 24 keys: most reads fault
        // through the plane, exercising the demote/fault cycle.
        let service = FarKvService::new(
            plane(),
            vec![TenantSpec::new(
                t,
                ByteSize::from_pages(4),
                ByteSize::from_mib(4),
            )],
        );
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut out = Vec::new();

        for op in ops {
            match op {
                Op::Put(k, kind) => {
                    let v = content(k, kind);
                    let r = service.put(t, k, &v).unwrap();
                    prop_assert!(
                        matches!(r, PutResult::Stored { .. }),
                        "in-quota put was shed: {r:?}"
                    );
                    model.insert(k, v);
                }
                Op::Get(k) => {
                    let got = service.get(t, k, &mut out).unwrap();
                    match model.get(&k) {
                        Some(expect) => {
                            let g = got.expect("model key must be present in service");
                            prop_assert_eq!(&out, expect, "key {} contents diverge", k);
                            prop_assert!(
                                matches!(g.source, GetSource::Hot | GetSource::Fault)
                            );
                        }
                        None => prop_assert!(got.is_none(), "phantom key {}", k),
                    }
                }
            }
        }

        // Everything the model holds must still be byte-identical,
        // and the ledgers must reconcile with the plane exactly.
        for (k, expect) in &model {
            service.get(t, *k, &mut out).unwrap().expect("final sweep");
            prop_assert_eq!(&out, expect);
        }
        let acct = service.accounting();
        prop_assert!(acct.balanced, "accounting diverged: {:?}", acct);
    }

    /// Racing mixed-tenant traffic never breaks the accounting
    /// identity: sum(per-tenant service ledger) == sum(per-tenant
    /// plane usage) == the plane's stored bytes, per tenant and in
    /// total.
    #[test]
    fn concurrent_tenants_keep_accounting_balanced(
        seeds in prop::collection::vec(any::<u64>(), 4),
        ops_per_thread in 20usize..80,
    ) {
        let shared = plane();
        let specs: Vec<TenantSpec> = (1..=3)
            .map(|id| TenantSpec::new(
                TenantId::new(id),
                ByteSize::from_pages(4),
                ByteSize::from_mib(2),
            ))
            .collect();
        let service = FarKvService::new(shared.clone(), specs.clone());

        std::thread::scope(|scope| {
            for (w, &seed) in seeds.iter().enumerate() {
                let service = &service;
                let specs = &specs;
                scope.spawn(move || {
                    // Cheap deterministic per-thread op stream.
                    let mut x = seed | 1;
                    let mut out = Vec::new();
                    for i in 0..ops_per_thread {
                        x = lcg(x);
                        let tenant = specs[(x >> 8) as usize % specs.len()].tenant;
                        let key = (x >> 16) % KEYS;
                        if x % 3 == 0 {
                            let v = content(key, (w as u8) ^ (i as u8));
                            service.put(tenant, key, &v).unwrap();
                        } else {
                            let _ = service.get(tenant, key, &mut out).unwrap();
                        }
                    }
                });
            }
        });

        let acct = service.accounting();
        prop_assert!(acct.balanced, "accounting diverged: {:?}", acct);
        // The identity the report is built on, re-derived here from
        // the plane side so the test does not trust the report alone.
        let plane_sum: u64 = shared.tenant_usage().iter().map(|(_, b)| b).sum();
        let ledger_sum: u64 = service
            .snapshots()
            .iter()
            .map(|s| s.compressed_bytes)
            .sum();
        prop_assert_eq!(ledger_sum, plane_sum);
        prop_assert_eq!(plane_sum, shared.pool_stats().stored_bytes.as_bytes());
    }
}

/// Resident quota of the slack case: the smallest with a read slack of
/// one page (1/64 of the quota).
const SLACK_PAGES: u64 = 64;
/// Keys of the slack case: 2.5 times its quota.
const SLACK_KEYS: u64 = 160;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A tenant large enough for gets to leave dirty victims to puts
    /// still reads exactly what a model KV map holds, its ledger
    /// reconciles, and it never holds more than its quota plus the
    /// slack — checked after every op. Each op is a tuple of ranges
    /// (kind, key, version), so a failure shrinks.
    #[test]
    fn a_tenant_with_a_read_slack_equals_the_model_and_stays_bounded(
        ops in prop::collection::vec((0u8..10, 0..SLACK_KEYS, 0u8..=255), 1..300),
    ) {
        let t = TenantId::new(1);
        let service = FarKvService::new(
            plane(),
            vec![TenantSpec::new(
                t,
                ByteSize::from_pages(SLACK_PAGES),
                ByteSize::from_mib(4),
            )],
        );
        let limit = (SLACK_PAGES + SLACK_PAGES / 64) * PAGE_SIZE as u64;
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        // Every key stored first, so the cache starts over its quota.
        for k in 0..SLACK_KEYS {
            let v = content(k, 0);
            service.put(t, k, &v).unwrap();
            model.insert(k, v);
        }
        let mut out = Vec::new();

        for (i, (kind, k, version)) in ops.into_iter().enumerate() {
            if kind < 3 {
                let v = content(k, version);
                let r = service.put(t, k, &v).unwrap();
                prop_assert!(matches!(r, PutResult::Stored { .. }), "op {}: {:?}", i, r);
                model.insert(k, v);
            } else {
                let got = service.get(t, k, &mut out).unwrap();
                prop_assert!(got.is_some(), "op {}: key {} lost", i, k);
                prop_assert_eq!(&out, &model[&k], "op {}: key {} contents diverge", i, k);
            }
            let snap = service.snapshot(t).unwrap();
            prop_assert!(snap.resident_bytes <= limit, "op {}: {:?}", i, snap);
            let acct = service.accounting();
            prop_assert!(acct.balanced, "op {}: accounting diverged: {:?}", i, acct);
        }
        for (k, expect) in &model {
            service.get(t, *k, &mut out).unwrap().expect("final sweep");
            prop_assert_eq!(&out, expect);
        }
    }
}

/// The one value `(tenant, key)` ever holds: 16-byte blocks alternating
/// a tag with seeded noise, so a page compresses about 2:1 and racing
/// writers of one key all write the same bytes.
fn tenant_value(tenant: TenantId, key: u64) -> Vec<u8> {
    let mut x = (u64::from(tenant.as_u16()) << 48 | key).wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let mut page = Vec::with_capacity(PAGE_SIZE);
    while page.len() < PAGE_SIZE {
        page.extend_from_slice(&[tenant.as_u16() as u8; 8]);
        page.extend_from_slice(&key.to_le_bytes());
        for _ in 0..2 {
            x = lcg(x);
            page.extend_from_slice(&(x >> 8).to_le_bytes());
        }
    }
    page
}

/// What the retired serve bench checked on its report file, checked on
/// the service itself.
#[test]
fn best_effort_tenant_sheds_at_quota_and_nothing_is_lost() {
    const WORKING_SET: u64 = 64;
    let guaranteed = |id| {
        TenantSpec::new(
            TenantId::new(id),
            ByteSize::from_pages(8),
            ByteSize::from_mib(2),
        )
    };
    // 4 hot pages and room for about 16 compressed ones, against 64 keys.
    let noisy = TenantSpec::new(
        TenantId::new(3),
        ByteSize::from_pages(4),
        ByteSize::from_kib(32),
    )
    .with_class(ServiceClass::BestEffort);
    let specs = vec![guaranteed(1), guaranteed(2), noisy];
    let service = FarKvService::new(plane(), specs.clone());

    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let (service, specs) = (&service, &specs);
            scope.spawn(move || {
                let mut x = 0x5EED_0000 + w;
                let mut out = Vec::new();
                for _ in 0..1_500 {
                    x = lcg(x);
                    let tenant = specs[(x >> 8) as usize % specs.len()].tenant;
                    let key = (x >> 16) % WORKING_SET;
                    if x % 3 == 0 {
                        service
                            .put(tenant, key, &tenant_value(tenant, key))
                            .expect("put errored");
                    } else {
                        service.get(tenant, key, &mut out).expect("get errored");
                    }
                }
            });
        }
    });

    for snap in service.snapshots() {
        match snap.class {
            ServiceClass::Guaranteed => {
                assert_eq!(snap.sheds, 0, "guaranteed tenant shed: {snap:?}");
            }
            ServiceClass::BestEffort => {
                assert!(snap.sheds > 0, "quota was never hit: {snap:?}");
            }
        }
        assert!(snap.faults > 0, "tenant never demand-faulted: {snap:?}");
    }
    let mut out = Vec::new();
    let mut checked = 0u64;
    for spec in &specs {
        for key in service.keys(spec.tenant) {
            let got = service
                .get(spec.tenant, key, &mut out)
                .expect("sweep errored");
            assert!(got.is_some(), "{:?} lost key {key}", spec.tenant);
            assert_eq!(out, tenant_value(spec.tenant, key), "key {key} corrupted");
            checked += 1;
        }
    }
    // The guaranteed tenants hold everything they wrote.
    assert!(checked >= 2 * WORKING_SET, "sweep checked {checked} keys");
    let acct = service.accounting();
    assert!(acct.balanced, "accounting diverged: {acct:?}");
}
