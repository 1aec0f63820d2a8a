//! Zero-allocation proof for the staging-cache hit path.
//!
//! Extends `crates/sfm/tests/sharded_zero_alloc.rs` to the prefetch
//! plane: once the predictor has locked onto a stream and the pump has
//! staged the pages ahead of it, a demand fault that hits staging must
//! be a pure memcpy — no heap allocations, telemetry attached. The
//! staged buffer recycles into the engine's free list (pre-sized to the
//! staging capacity), the observation ring is a fixed-capacity
//! `VecDeque`, and the caller's output buffer is reused, so the
//! steady-state hit costs zero allocator calls.
//!
//! The *pump* path (prediction, batch issue) is intentionally out of
//! scope: it allocates per batch by design and runs off the fault path,
//! exactly like `swap_out_batch` in the sharded gate.

use std::sync::Arc;

use xfm_sfm::{PrefetchConfig, PrefetchEngine, SfmConfig, ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm_telemetry::Registry;
use xfm_testkit::count_allocs;
use xfm_types::{ByteSize, PageNumber, PAGE_SIZE};

/// Sequential pages swapped out up front.
const TOTAL_PAGES: u64 = 256;
/// Faults served (with pumps) before the measured window.
const WARMUP_FAULTS: u64 = 64;
/// Staging-hit faults measured for allocations.
const MEASURED_HITS: u64 = 6;

fn engine(registry: &Registry) -> PrefetchEngine {
    let mut inner = ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(8),
        },
        ..ShardedSfmConfig::default()
    });
    inner.attach_telemetry(registry);
    let mut e = PrefetchEngine::new(
        Arc::new(inner),
        PrefetchConfig {
            staging_capacity: 64,
            auto_pump: false,
            ..PrefetchConfig::default()
        },
    );
    e.attach_telemetry(registry);
    e
}

#[test]
fn staging_cache_hit_path_is_allocation_free() {
    let registry = Registry::new();
    let e = engine(&registry);

    // Same-filled working set: round-trips are deterministic and the
    // speculative issue path stays on the class-0 arena.
    for p in 0..TOTAL_PAGES {
        e.swap_out(PageNumber::new(p), &vec![(p % 251) as u8; PAGE_SIZE])
            .unwrap();
    }

    // Warm up: a sequential fault stream with a pump after each fault.
    // The stride predictor locks on after a few faults and the pump
    // keeps staging ~depth pages ahead of the stream.
    let mut buf = Vec::with_capacity(PAGE_SIZE);
    for p in 0..WARMUP_FAULTS {
        e.swap_in_into(PageNumber::new(p), false, &mut buf).unwrap();
        e.pump();
    }
    assert!(
        e.staged_pages() as u64 >= MEASURED_HITS,
        "warmup staged only {} pages",
        e.staged_pages()
    );
    let hits_before = registry.counter("xfm_prefetch_hits_total").get();

    // Measured window: the next faults in the stream are already
    // staged. No pumps — every swap-in below must be a staging hit
    // served without touching the allocator.
    let hit_allocs = count_allocs(|| {
        for p in WARMUP_FAULTS..WARMUP_FAULTS + MEASURED_HITS {
            e.swap_in_into(PageNumber::new(p), false, &mut buf).unwrap();
            assert_eq!(buf[0], (p % 251) as u8);
            assert_eq!(buf.len(), PAGE_SIZE);
        }
    });

    // Prove the window really exercised the hit path, then the bound.
    let hits_after = registry.counter("xfm_prefetch_hits_total").get();
    assert_eq!(
        hits_after - hits_before,
        MEASURED_HITS,
        "measured window was not hit-only"
    );
    assert_eq!(
        hit_allocs, 0,
        "staging-cache hit path allocated {hit_allocs} times over {MEASURED_HITS} faults"
    );
}
