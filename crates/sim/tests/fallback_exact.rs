//! Exactness pin of the Fig. 12 simulation.
//!
//! Every value below was recorded before the simulation became one
//! plain per-window loop, and a change that only restructures that loop
//! must reproduce them exactly: the same service order and the same RNG
//! draws give the same report. Never regenerate these constants to make
//! a change pass; a change that moves one on purpose says which and why.

use xfm_sim::fallback::{simulate, simulate_traced, FallbackConfig, FallbackReport};
use xfm_telemetry::Registry;
use xfm_types::{ByteSize, Nanos};

/// The default sweep point (§8 setup, 2 MiB SPM, 3 accesses/tRFC, 100 %
/// promotion) over 50 ms of simulated time.
fn default_point() -> FallbackConfig {
    FallbackConfig {
        duration: Nanos::from_ms(50),
        ..FallbackConfig::default()
    }
}

fn report(
    completed: u64,
    fallbacks: u64,
    conditional_accesses: u64,
    random_accesses: u64,
    spm_high_water: u64,
    subarray_conflicts: u64,
) -> FallbackReport {
    FallbackReport {
        completed,
        fallbacks,
        conditional_accesses,
        random_accesses,
        spm_high_water: ByteSize::from_bytes(spm_high_water),
        subarray_conflicts,
    }
}

/// The five per-cause counters of a traced run, in the order
/// queue-full, SPM-exhausted, deadline spills, subarray conflicts,
/// completed.
fn traced_counters(cfg: &FallbackConfig) -> (FallbackReport, [u64; 5]) {
    let registry = Registry::new();
    let r = simulate_traced(cfg, &registry);
    let s = registry.snapshot();
    let counters = [
        "xfm_sim_queue_full_fallbacks_total",
        "xfm_sim_spm_exhausted_stalls_total",
        "xfm_sim_deadline_spills_total",
        "xfm_sim_subarray_conflicts_total",
        "xfm_sim_nma_completed_total",
    ]
    .map(|name| s.counters[name]);
    (r, counters)
}

#[test]
fn default_point_report_is_pinned() {
    assert_eq!(
        simulate(&default_point()),
        report(24_170, 0, 44_003, 5_194, 2_097_146, 380)
    );
}

#[test]
fn default_point_traced_counters_are_pinned() {
    let (r, counters) = traced_counters(&default_point());
    assert_eq!(r, simulate(&default_point()));
    assert_eq!(counters, [0, 12_310, 0, 380, 24_170]);
}

#[test]
fn one_access_per_trfc_falls_back_exactly() {
    let cfg = FallbackConfig {
        accesses_per_trfc: 1,
        ..default_point()
    };
    assert_eq!(
        simulate(&cfg),
        report(6_868, 11_261, 9_357, 5_130, 2_097_068, 462)
    );
    let (_, counters) = traced_counters(&cfg);
    assert_eq!(counters, [11_221, 17_182, 40, 462, 6_868]);
}

#[test]
fn one_mib_at_two_accesses_falls_back_exactly() {
    let cfg = FallbackConfig {
        spm_capacity: ByteSize::from_mib(1),
        accesses_per_trfc: 2,
        promotion_rate: 1.0,
        ..default_point()
    };
    assert_eq!(
        simulate(&cfg),
        report(15_110, 3_791, 25_787, 4_886, 1_048_534, 525)
    );
    let (_, counters) = traced_counters(&cfg);
    assert_eq!(counters, [3_616, 102_320, 175, 525, 15_110]);
}
