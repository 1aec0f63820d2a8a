//! Deterministic full-stack replay for the determinism gate.
//!
//! [`replay`] runs the Fig. 12 fallback simulation (telemetry attached)
//! and an NMA offload pipeline, and returns the results as one JSON
//! document. Every exported value is **simulated time or a deterministic
//! counter** — there are no wall-clock readings — so two runs with the
//! same seed must produce byte-identical output. `ci.sh` enforces
//! exactly that across two processes, through `xfm-repro --replay-out`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xfm_compress::ratio::pack_page_into;
use xfm_compress::{Corpus, Scratch, XDeflate};
use xfm_core::multichannel::offload_shares;
use xfm_core::nma::{NearMemoryAccelerator, NmaConfig, NmaStats, OffloadShare};
use xfm_core::OffloadKind;
use xfm_sim::fallback::{simulate_traced, FallbackConfig, FallbackReport};
use xfm_telemetry::json::{parse, JsonValue};
use xfm_telemetry::Registry;
use xfm_types::{Nanos, PageNumber, RowId, PAGE_SIZE};

/// The share a 1-DIMM `XfmBackend` hands its NMA to compress `page`:
/// the page packed into its container through `scratch` (into
/// `container`, cleared first), the sizes read back from the header.
///
/// # Panics
///
/// Panics if `page` is longer than a container share holds.
pub fn compress_share(page: &[u8], scratch: &mut Scratch, container: &mut Vec<u8>) -> OffloadShare {
    container.clear();
    pack_page_into(&XDeflate::default(), page, 1, scratch, container).expect("a page packs");
    offload_shares(OffloadKind::Compress, page.len(), container).expect("a packed container")[0]
}

/// A seeded NMA offload scenario: compress offloads of JSON pages (each
/// sized by [`compress_share`]) for rows aligned to upcoming refresh
/// slots, driven to completion through the overlapped read → compute →
/// write-back pipeline.
///
/// # Panics
///
/// Panics if the NMA queue rejects a submission (it is sized for the
/// workload).
#[must_use]
pub fn nma_run(seed: u64, offloads: u64) -> NmaStats {
    let mut nma = NearMemoryAccelerator::new(NmaConfig::default());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
    let t_refi = NmaConfig::default().timings.t_refi;
    let (mut scratch, mut container) = (Scratch::new(), Vec::new());
    for i in 0..offloads {
        let data = Corpus::Json.generate(seed.wrapping_add(i), PAGE_SIZE);
        let share = compress_share(&data, &mut scratch, &mut container);
        let row = RowId::new(rng.gen_range(1..4096));
        nma.submit(
            OffloadKind::Compress,
            PageNumber::new(i),
            share,
            row,
            Nanos::ZERO,
            true,
        )
        .expect("queue has room");
    }
    nma.advance_to(t_refi * 16_384);
    nma.stats()
}

fn json_report(r: &FallbackReport) -> JsonValue {
    JsonValue::object([
        ("completed", r.completed.into()),
        ("fallbacks", r.fallbacks.into()),
        ("conditional", r.conditional_accesses.into()),
        ("random", r.random_accesses.into()),
        ("spm_high_water_bytes", r.spm_high_water.as_bytes().into()),
        ("subarray_conflicts", r.subarray_conflicts.into()),
    ])
}

fn json_nma(s: &NmaStats) -> JsonValue {
    JsonValue::object([
        ("submitted", s.submitted.into()),
        ("completed", s.completed.into()),
        ("fallbacks", s.fallbacks.into()),
        ("rejected", s.rejected.into()),
        ("conditional", s.sched.conditional.into()),
        ("random", s.sched.random.into()),
        ("spilled", s.sched.spilled.into()),
        ("windows", s.sched.windows.into()),
        ("spm_high_water_bytes", s.spm_high_water.as_bytes().into()),
        ("total_latency_ns", s.total_latency.as_ns().into()),
        ("ecc_parity_bytes", s.ecc_parity_bytes.into()),
    ])
}

/// The deterministic full-stack replay: every exported value is a pure
/// function of `seed`.
///
/// # Panics
///
/// Panics if the registry's own JSON export does not parse.
#[must_use]
pub fn replay(seed: u64) -> JsonValue {
    let registry = Registry::new();
    let cfg = FallbackConfig {
        duration: Nanos::from_ms(50),
        seed,
        ..FallbackConfig::default()
    };
    let report = simulate_traced(&cfg, &registry);
    let telemetry = parse(&registry.snapshot().to_json()).expect("registry export parses");
    JsonValue::object([
        ("seed", seed.into()),
        ("fallback", json_report(&report)),
        ("nma", json_nma(&nma_run(seed, 64))),
        ("telemetry", telemetry),
    ])
}
