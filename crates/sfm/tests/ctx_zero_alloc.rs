//! Zero-allocation proof for the *context-carrying* steady-state swap
//! path.
//!
//! The tenant refactor threads an [`xfm_types::OpContext`] through
//! every swap operation and bills per-tenant counters on each op. The
//! context itself is `Copy` (three words), and the per-tenant telemetry
//! series are registered lazily on a tenant's **first** touch and cached
//! — so after warm-up, `swap_out_ctx`/`swap_in_into_ctx` for a
//! non-system tenant must perform exactly zero heap allocations per
//! operation, telemetry attached: threading identity through the hot
//! path costs registers and one map lookup, never an allocation.
//!
//! Structure mirrors `sharded_zero_alloc.rs`: a strict phase with
//! telemetry attached and per-tenant counters verified, a second
//! strict phase whose pages go through the pooled codec state, then a
//! parity phase proving the ctx surface allocates exactly as much as the
//! context-free surface on real codec pages — i.e. zero overhead.

use xfm_sfm::{SfmConfig, ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm_telemetry::Registry;
use xfm_testkit::count_allocs;
use xfm_types::{ByteSize, OpContext, PageNumber, TenantId, PAGE_SIZE};

const SHARDS: usize = 4;
const WORKING_SET: u64 = 16;
const WARMUP_ROUNDS: usize = 4;
const MEASURED_ROUNDS: usize = 8;
const TENANT: TenantId = TenantId::new(7);

fn plane() -> ShardedSfm {
    ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(8),
        },
        shards: SHARDS,
    })
}

/// Swaps one permanently-out copy of `content` per shard (billed to
/// the measured tenant, so its telemetry series exists before
/// measurement) so no shard's table, handle map, or host page of that
/// size class empties mid-round.
fn pin_every_shard(sfm: &ShardedSfm, content: &[u8]) -> u64 {
    let ctx = OpContext::for_tenant(TENANT);
    let mut pinned = [false; SHARDS];
    let mut count = 0u64;
    let mut p = 1_000_000u64;
    while pinned.iter().any(|&done| !done) {
        let pn = PageNumber::new(p);
        let si = sfm.shard_of(pn);
        if !pinned[si] {
            sfm.swap_out_ctx(&ctx, pn, content).unwrap();
            pinned[si] = true;
            count += 1;
        }
        p += 1;
    }
    count
}

/// Rounds of ctx swap-out / ctx swap-in over a fixed working set,
/// returning the allocations of the measured rounds.
fn measure_ctx(sfm: &ShardedSfm, pages: &[(PageNumber, Vec<u8>)]) -> u64 {
    let ctx = OpContext::for_tenant(TENANT);
    let mut buf = Vec::with_capacity(PAGE_SIZE);
    let mut round = || {
        for (pn, data) in pages {
            sfm.swap_out_ctx(&ctx, *pn, data).unwrap();
        }
        for (pn, data) in pages {
            sfm.swap_in_into_ctx(&ctx, *pn, false, &mut buf).unwrap();
            assert_eq!(buf, *data);
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

/// Same rounds through the context-free surface (system tenant).
fn measure_plain(sfm: &ShardedSfm, pages: &[(PageNumber, Vec<u8>)]) -> u64 {
    let mut buf = Vec::with_capacity(PAGE_SIZE);
    let mut round = || {
        for (pn, data) in pages {
            sfm.swap_out(*pn, data).unwrap();
        }
        for (pn, data) in pages {
            sfm.swap_in_into(*pn, false, &mut buf).unwrap();
            assert_eq!(buf, *data);
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
fn ctx_steady_state_swap_path_is_allocation_free() {
    // ---- Phase 1: strict zero, telemetry + per-tenant series live ----
    let registry = Registry::new();
    let mut sfm = plane();
    sfm.attach_telemetry(&registry);
    let pinned = pin_every_shard(&sfm, &[0x55u8; PAGE_SIZE]);
    let pages: Vec<(PageNumber, Vec<u8>)> = (0..WORKING_SET)
        .map(|i| (PageNumber::new(i), vec![(i % 251) as u8; PAGE_SIZE]))
        .collect();
    let strict_allocs = measure_ctx(&sfm, &pages);
    assert_eq!(
        strict_allocs, 0,
        "steady-state ctx swap path allocated {strict_allocs} times \
         over {MEASURED_ROUNDS} rounds"
    );
    // The per-tenant series really recorded every billed operation.
    let s = registry.snapshot();
    let rounds = (WARMUP_ROUNDS + MEASURED_ROUNDS) as u64;
    assert_eq!(
        s.counters[&format!(
            "xfm_tenant_swap_outs_total{{tenant=\"{}\"}}",
            TENANT.as_u16()
        )],
        pinned + WORKING_SET * rounds
    );
    assert_eq!(
        s.counters[&format!(
            "xfm_tenant_swap_ins_total{{tenant=\"{}\"}}",
            TENANT.as_u16()
        )],
        WORKING_SET * rounds
    );

    // ---- Phase 2: strict zero through the pooled codec state ----
    // A compressible page, not same-filled: each ctx swap-out pops the
    // plane's codec state, compresses off-lock, and pushes it back.
    let pattern = b"16-byte pattern!".repeat(PAGE_SIZE / 16);
    let mut sfm = plane();
    sfm.attach_telemetry(&Registry::new());
    pin_every_shard(&sfm, &pattern);
    let pages: Vec<(PageNumber, Vec<u8>)> = (0..WORKING_SET)
        .map(|i| (PageNumber::new(i), pattern.clone()))
        .collect();
    let codec_allocs = measure_ctx(&sfm, &pages);
    assert_eq!(
        codec_allocs, 0,
        "steady-state ctx swap-out through the codec allocated {codec_allocs} \
         times over {MEASURED_ROUNDS} rounds"
    );

    // ---- Phase 3: ctx surface == context-free surface, real codec ----
    let codec_pages: Vec<(PageNumber, Vec<u8>)> = (0..WORKING_SET)
        .map(|i| {
            (
                PageNumber::new(i),
                xfm_compress::Corpus::Json.generate(i, PAGE_SIZE),
            )
        })
        .collect();
    let mut plain = plane();
    plain.attach_telemetry(&Registry::new());
    let plain_allocs = measure_plain(&plain, &codec_pages);
    let mut ctxed = plane();
    ctxed.attach_telemetry(&Registry::new());
    let ctx_allocs = measure_ctx(&ctxed, &codec_pages);
    assert_eq!(
        ctx_allocs, plain_allocs,
        "carrying an OpContext changed the steady-state allocation count"
    );
}
