//! Zero-allocation proof for the sharded steady-state swap path.
//!
//! Extends the counting-allocator acceptance checks of
//! `crates/compress/tests/zero_alloc.rs` and
//! `crates/core/tests/telemetry_overhead.rs` to [`ShardedSfm`]: each
//! shard owns its own table and pool arena, and both directions run
//! the codec with state (scratch, block buffer) from the plane's free
//! list, so a warmed plane must serve swap traffic — swap-outs,
//! consuming swap-ins, kept loads and discards — with **zero** heap
//! allocations per operation, telemetry attached or not. A free list
//! that kept growing after warm-up would allocate here.
//!
//! Three phases, counted per thread by `xfm_testkit::count_allocs`:
//!
//! 1. **Strict**: a same-filled working set (class-0 objects) with one
//!    pinned entry per shard so no shard's table, handle map, or host
//!    page ever empties; after warm-up the measured rounds must perform
//!    exactly zero allocations, with telemetry attached.
//! 2. **Strict, through the codec**: the same with a compressible
//!    (not same-filled) page, so every swap-out and fault pops the
//!    pooled codec state, runs the codec off-lock, and pushes it back.
//! 3. **Parity**: real codec pages; attaching telemetry must not change
//!    the allocation count of identical rounds (the structural bound on
//!    instrumentation overhead used throughout the repo).
//!
//! The *batched* pipeline (`swap_out_batch`) is intentionally out of
//! scope: it allocates per batch (result slots, worker scratch) by
//! design and amortizes that over the batch.

use xfm_sfm::{SfmConfig, ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm_telemetry::{Cause, LifecycleStage, Registry};
use xfm_testkit::count_allocs;
use xfm_types::{ByteSize, OpContext, PageNumber, PAGE_SIZE};

const SHARDS: usize = 4;
const WORKING_SET: u64 = 16;
const WARMUP_ROUNDS: usize = 4;
const MEASURED_ROUNDS: usize = 8;

fn plane() -> ShardedSfm {
    ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(8),
        },
        shards: SHARDS,
    })
}

/// Swaps one permanently-out copy of `content` into every shard so
/// that no shard's table, handle map, or host page of that size class
/// ever empties during rounds (emptying would free the `BTreeMap` root
/// / host page and the next round would re-allocate it).
fn pin_every_shard(sfm: &ShardedSfm, content: &[u8]) -> u64 {
    let mut pinned = [false; SHARDS];
    let mut count = 0u64;
    let mut p = 1_000_000u64;
    while pinned.iter().any(|&done| !done) {
        let pn = PageNumber::new(p);
        let si = sfm.shard_of(pn);
        if !pinned[si] {
            sfm.swap_out(pn, content).unwrap();
            pinned[si] = true;
            count += 1;
        }
        p += 1;
    }
    count
}

/// One round: every page swapped out, then loaded and kept, then
/// leaving the plane — half by a consuming swap-in, half by a discard.
fn measure(sfm: &ShardedSfm, pages: &[(PageNumber, Vec<u8>)]) -> u64 {
    let ctx = OpContext::default();
    let mut buf = Vec::with_capacity(PAGE_SIZE);
    let mut round = || {
        for (pn, data) in pages {
            sfm.swap_out(*pn, data).unwrap();
        }
        for (pn, data) in pages {
            let (_, kept) = sfm.load_into_ctx(&ctx, *pn, &mut buf).unwrap();
            assert!(kept);
            assert_eq!(buf, *data);
        }
        for (i, (pn, data)) in pages.iter().enumerate() {
            if i % 2 == 0 {
                sfm.swap_in_into(*pn, false, &mut buf).unwrap();
                assert_eq!(buf, *data);
            } else {
                sfm.discard_ctx(&ctx, *pn).unwrap();
            }
        }
    };
    for _ in 0..WARMUP_ROUNDS {
        round();
    }
    count_allocs(|| {
        for _ in 0..MEASURED_ROUNDS {
            round();
        }
    })
}

#[test]
fn sharded_steady_state_swap_path_is_allocation_free() {
    // ---- Phase 1: strict zero, telemetry attached ----
    let registry = Registry::new();
    let mut sfm = plane();
    sfm.attach_telemetry(&registry);
    let pinned = pin_every_shard(&sfm, &[0x55u8; PAGE_SIZE]);
    // Same-filled pages: the store path exercises the shard lock, the
    // table, and the class-0 arena with no codec variance in object
    // sizes across rounds.
    let pages: Vec<(PageNumber, Vec<u8>)> = (0..WORKING_SET)
        .map(|i| (PageNumber::new(i), vec![(i % 251) as u8; PAGE_SIZE]))
        .collect();
    let strict_allocs = measure(&sfm, &pages);
    assert_eq!(
        strict_allocs, 0,
        "steady-state sharded swap path allocated {strict_allocs} times \
         over {MEASURED_ROUNDS} rounds"
    );
    // The instrumented run really did record.
    let s = registry.snapshot();
    let rounds = (WARMUP_ROUNDS + MEASURED_ROUNDS) as u64;
    assert_eq!(
        s.counters["xfm_swap_outs_total"],
        pinned + WORKING_SET * rounds
    );
    assert_eq!(s.counters["xfm_swap_ins_total"], WORKING_SET / 2 * rounds);
    let stats = sfm.stats();
    assert_eq!(stats.loads, WORKING_SET * rounds);
    assert_eq!(stats.discards, WORKING_SET / 2 * rounds);
    // Every same-filled swap-out is one `Compress`/`SameFilled` event
    // on the trail, recorded inside the counted rounds.
    let same_filled = s
        .events
        .iter()
        .filter(|e| e.stage == LifecycleStage::Compress && e.cause == Cause::SameFilled);
    assert_eq!(same_filled.count() as u64, pinned + WORKING_SET * rounds);

    // ---- Phase 2: strict zero through the pooled codec state ----
    // One compressible page for the whole working set: every object
    // lands in the size class the pinned copies keep alive.
    let pattern = b"16-byte pattern!".repeat(PAGE_SIZE / 16);
    let mut sfm = plane();
    sfm.attach_telemetry(&Registry::new());
    pin_every_shard(&sfm, &pattern);
    let pages: Vec<(PageNumber, Vec<u8>)> = (0..WORKING_SET)
        .map(|i| (PageNumber::new(i), pattern.clone()))
        .collect();
    let codec_allocs = measure(&sfm, &pages);
    assert_eq!(
        codec_allocs, 0,
        "steady-state swap-out through the codec allocated {codec_allocs} \
         times over {MEASURED_ROUNDS} rounds"
    );
    let stored: u64 = sfm.tenant_usage().iter().map(|(_, b)| b).sum();
    assert!(
        stored > SHARDS as u64 && stored < (SHARDS * PAGE_SIZE / 8) as u64,
        "pinned pages must be stored compressed, not same-filled or raw: {stored} bytes"
    );

    // ---- Phase 3: real codec pages, traced == plain ----
    let codec_pages: Vec<(PageNumber, Vec<u8>)> = (0..WORKING_SET)
        .map(|i| {
            (
                PageNumber::new(i),
                xfm_compress::Corpus::Json.generate(i, PAGE_SIZE),
            )
        })
        .collect();
    let plain = plane();
    let plain_allocs = measure(&plain, &codec_pages);
    let mut traced = plane();
    traced.attach_telemetry(&Registry::new());
    let traced_allocs = measure(&traced, &codec_pages);
    assert_eq!(
        traced_allocs, plain_allocs,
        "telemetry changed the sharded steady-state allocation count"
    );
}
