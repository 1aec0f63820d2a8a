//! Allocation gate for `XfmBackend`'s single-page swap path.
//!
//! A warm swap-out packs its page into a container in its plane's
//! codec state, reads the per-DIMM offload shares off it inline and
//! hands them to the device; a warm swap-in decodes into the caller's
//! buffer, and so does a kept load; a discard decodes nothing. None may
//! touch the heap: the count is strict zero, on one DIMM and on four,
//! every other swap-in a prefetch (which offers the decode to the NMA).
//! The host-only path (no device) is `xfm-sfm`'s `sharded_zero_alloc`.
//!
//! As in `xfm-sfm`'s `sharded_zero_alloc`, the working set is shaped so
//! the pool itself has nothing to allocate: copies of one compressible
//! page (small objects of one size class, all on one host page) and one
//! pinned copy that never leaves, so neither that host page nor the
//! entry table's root ever empties (emptying frees them, and the next
//! round would allocate them again — the pool's doing, not the swap
//! path's), and few enough entries that the table never splits a node.

use xfm_core::backend::{XfmBackend, XfmBackendConfig};
use xfm_sfm::backend::{SfmConfig, SwapPlane};
use xfm_testkit::count_allocs;
use xfm_types::{ByteSize, Nanos, OpContext, PageNumber, PAGE_SIZE};

const WORKING_SET: u64 = 8;
const PINNED: PageNumber = PageNumber::new(1_000_000);

/// Demotes the working set and faults it back in through `out`, then
/// demotes it again, loads every page keeping its entry and discards
/// it, and returns the allocations. The clock first moves past a full
/// refresh calendar, outside the count, so every offload of the round
/// before has drained.
fn round(b: &XfmBackend, page: &[u8], out: &mut Vec<u8>, at: &mut Nanos) -> u64 {
    let ctx = OpContext::SYSTEM;
    *at += Nanos::from_ms(70);
    b.advance_to(*at);
    count_allocs(|| {
        for i in 0..WORKING_SET {
            b.swap_out(PageNumber::new(i), page).unwrap();
        }
        for i in 0..WORKING_SET {
            out.clear();
            b.swap_in_into(PageNumber::new(i), i % 2 == 0, out).unwrap();
            assert!(out == page);
        }
        for i in 0..WORKING_SET {
            b.swap_out(PageNumber::new(i), page).unwrap();
        }
        for i in 0..WORKING_SET {
            let (_, kept) = b.load_into_ctx(&ctx, PageNumber::new(i), out).unwrap();
            assert!(kept && out == page);
            b.discard_ctx(&ctx, PageNumber::new(i)).unwrap();
        }
    })
}

#[test]
fn warm_single_page_swaps_allocate_nothing() {
    let page =
        b"far memory pages compress in the DIMM. ".repeat(PAGE_SIZE / 39 + 1)[..PAGE_SIZE].to_vec();
    for n_dimms in [1, 4] {
        let backend = XfmBackend::builder()
            .config(XfmBackendConfig {
                n_dimms,
                sfm: SfmConfig {
                    region_capacity: ByteSize::from_mib(8),
                },
                ..XfmBackendConfig::default()
            })
            .build()
            .unwrap();
        backend.swap_out(PINNED, &page).unwrap();
        let (mut out, mut at) = (Vec::with_capacity(PAGE_SIZE), Nanos::ZERO);
        for _ in 0..4 {
            round(&backend, &page, &mut out, &mut at);
        }
        for r in 0..8 {
            let allocs = round(&backend, &page, &mut out, &mut at);
            assert_eq!(allocs, 0, "{n_dimms} DIMMs: round {r} allocated");
        }
        let nma = backend.nma_stats();
        assert!(nma.completed > 0, "{nma:?}");
        let stats = backend.stats();
        assert!(stats.loads > 0 && stats.discards > 0, "{stats:?}");
    }
}
