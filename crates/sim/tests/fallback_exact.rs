//! Exactness pin of the Fig. 12 simulation.
//!
//! Every value below was recorded when the Fig. 12 driver began offering
//! its arrivals to the device `XfmBackend` runs (the near-memory
//! accelerator and its refresh-window scheduler) instead of a model of
//! its own. A change that only restructures the driver, the device or
//! the scheduler must reproduce them exactly: the same service order and
//! the same draws give the same report. Never regenerate these constants
//! to make a change pass; a change that moves one on purpose says which
//! and why.

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
        report(23_735, 164, 43_657, 4_761, 2_097_150, 2_418)
    );
}

#[test]
fn default_point_traced_counters_are_pinned() {
    let (r, counters) = traced_counters(&default_point());
    assert_eq!(r, simulate(&default_point()));
    assert_eq!(counters, [0, 37_723, 164, 2_418, 23_735]);
}

#[test]
fn one_access_per_trfc_falls_back_exactly() {
    let cfg = default_point().with_accesses(1);
    assert_eq!(
        simulate(&cfg),
        report(6_810, 11_265, 9_560, 4_790, 2_097_074, 2_470)
    );
    let (_, counters) = traced_counters(&cfg);
    assert_eq!(counters, [11_115, 18_623, 150, 2_470, 6_810]);
}

#[test]
fn one_mib_at_two_accesses_falls_back_exactly() {
    let cfg = default_point()
        .with_spm(ByteSize::from_mib(1))
        .with_accesses(2);
    assert_eq!(
        simulate(&cfg),
        report(15_095, 3_751, 25_943, 4_676, 1_048_534, 2_386)
    );
    let (_, counters) = traced_counters(&cfg);
    assert_eq!(counters, [3_543, 100_229, 208, 2_386, 15_095]);
}
