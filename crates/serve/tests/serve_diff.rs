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

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use xfm_serve::{FarKvService, GetSource, PutResult, TenantSpec};
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

fn plane() -> Arc<ShardedSfm> {
    Arc::new(ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(8),
            ..SfmConfig::default()
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
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
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
