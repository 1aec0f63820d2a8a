//! Differential property test: the prefetch engine is observably
//! equivalent to the plane it wraps.
//!
//! For any staging capacity (including tiny, to force back-pressure),
//! any stale write-back cadence, and any interleaving of swap-outs,
//! swap-ins, and pumps, a [`PrefetchEngine`] must return exactly the
//! page contents, outcomes, and error variants of an un-prefetched
//! [`ShardedSfm`] fed the same operations. Speculation may only move
//! *when* a page is decompressed — never what a fault observes. After draining the staging cache, the compressed pools
//! must also agree on stored bytes and object count (a written-back
//! page re-compresses to exactly what it was).

use std::sync::Arc;

use proptest::prelude::*;
use xfm_sfm::{
    PrefetchConfig, PrefetchEngine, SfmConfig, ShardedSfm, ShardedSfmConfig, SwapOutcome, SwapPlane,
};
use xfm_types::{ByteSize, Error, PageNumber, Result as XfmResult, PAGE_SIZE};

/// Distinct pages the ops draw from (small enough to force collisions
/// and give the predictor real streams to chew on).
const PAGES: u64 = 32;

#[derive(Debug, Clone)]
enum Op {
    SwapOut(u64, u8),
    SwapIn(u64),
    /// Run one prefetcher step.
    Pump,
}

/// Deterministic page contents covering all three store paths:
/// same-filled short-circuit, codec-compressed, and raw-store reject.
fn content(page: u64, kind: u8) -> Vec<u8> {
    match kind % 3 {
        0 => vec![kind; PAGE_SIZE],
        1 => xfm_compress::Corpus::Json.generate(page * 31 + u64::from(kind), PAGE_SIZE),
        _ => xfm_compress::Corpus::RandomBytes.generate(page * 17 + u64::from(kind), PAGE_SIZE),
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..PAGES, any::<u8>()).prop_map(|(p, k)| Op::SwapOut(p, k)),
        5 => (0..PAGES).prop_map(Op::SwapIn),
        2 => Just(Op::Pump),
    ]
}

fn fmt(r: &XfmResult<SwapOutcome>) -> String {
    match r {
        Ok(o) => format!("{o:?}"),
        Err(e) => format!("err:{e:?}"),
    }
}

fn plane() -> ShardedSfm {
    ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(4),
        },
        ..ShardedSfmConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prefetching_never_changes_observable_contents(
        capacity_idx in 0usize..3,
        stale_idx in 0usize..3,
        auto_pump in any::<bool>(),
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let config = PrefetchConfig {
            staging_capacity: [2usize, 8, 64][capacity_idx],
            stale_after_pumps: [0u64, 1, 3][stale_idx],
            auto_pump,
        };
        let engine = PrefetchEngine::new(Arc::new(plane()), config);
        let reference = plane();

        for op in ops {
            match op {
                Op::SwapOut(p, k) => {
                    let data = content(p, k);
                    // Collapse each `SwapError` to its cause so the two
                    // sides debug-format identically.
                    let a = engine.swap_out(PageNumber::new(p), &data).map_err(Error::from);
                    let b = reference.swap_out(PageNumber::new(p), &data).map_err(Error::from);
                    prop_assert_eq!(fmt(&a), fmt(&b), "swap_out page {}", p);
                }
                Op::SwapIn(p) => {
                    let a = engine.swap_in(PageNumber::new(p), false).map_err(Error::from);
                    let b = reference.swap_in(PageNumber::new(p), false).map_err(Error::from);
                    match (a, b) {
                        (Ok((da, oa)), Ok((db, ob))) => {
                            prop_assert_eq!(da, db, "swap_in contents page {}", p);
                            // A staged hit replays the outcome captured at
                            // speculation time; it must match the demand
                            // decompress bit-for-bit.
                            prop_assert_eq!(oa, ob, "swap_in outcome page {}", p);
                        }
                        (Err(ea), Err(eb)) => {
                            prop_assert_eq!(format!("{ea:?}"), format!("{eb:?}"));
                        }
                        (a, b) => prop_assert!(
                            false,
                            "swap_in diverged on page {p}: prefetch ok={} reference ok={}",
                            a.is_ok(),
                            b.is_ok()
                        ),
                    }
                }
                Op::Pump => {
                    let _ = engine.pump();
                }
            }

            // Membership must agree after every op: a staged page is
            // still "in the SFM" from the application's point of view.
            for p in 0..PAGES {
                prop_assert_eq!(
                    engine.contains(PageNumber::new(p)),
                    reference.contains(PageNumber::new(p)),
                    "contains diverged on page {}", p
                );
            }
        }

        // Drain speculation; the compressed pools must then agree.
        engine.flush_staging().unwrap();
        let ep = engine.inner().pool_stats();
        let rp = reference.pool_stats();
        prop_assert_eq!(ep.stored_bytes, rp.stored_bytes, "stored bytes after flush");
        prop_assert_eq!(ep.objects, rp.objects, "object count after flush");
        // And every remaining page faults to identical contents.
        for p in 0..PAGES {
            let a = engine.swap_in(PageNumber::new(p), false);
            let b = reference.swap_in(PageNumber::new(p), false);
            match (a, b) {
                (Ok((da, _)), Ok((db, _))) => prop_assert_eq!(da, db, "final page {}", p),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "final drain diverged on page {p}: prefetch ok={} reference ok={}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }
}
