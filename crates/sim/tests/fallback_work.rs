//! Counted-work pin of the Fig. 12 simulation: the queued ops the
//! refresh-window loop takes up ([`SchedStats::ops_touched`]) at
//! `fallback_exact`'s three points.
//!
//! Wall time on a shared host is noise; this count is not. It was
//! recorded on the scheduler that held each queued op by value and
//! copied its slot's whole backlog into the next slots every window.
//! The slab-index backlog moves a 4-byte index where that one moved the
//! op, and touches the same ops: a change of representation that keeps
//! the count lowers the cost per touch, and one that lowers the count
//! (a backlog that stops re-dealing every leftover op) moves these pins
//! on purpose and says so. The reports stay `fallback_exact`'s.

use xfm_core::SchedStats;
use xfm_sim::fallback::{simulate, simulate_sched, FallbackConfig};
use xfm_types::{ByteSize, Nanos};

/// `fallback_exact`'s default point: 2 MiB SPM, 3 accesses per `tRFC`,
/// 100 % promotion, 50 ms.
fn default_point() -> FallbackConfig {
    FallbackConfig {
        duration: Nanos::from_ms(50),
        ..FallbackConfig::default()
    }
}

/// The scheduler counters at `cfg`, after checking that reading them
/// leaves the report as [`simulate`] gives it.
fn sched(cfg: &FallbackConfig) -> SchedStats {
    let (report, stats) = simulate_sched(cfg);
    assert_eq!(report, simulate(cfg));
    stats
}

#[test]
fn default_point_work_is_pinned() {
    let s = sched(&default_point());
    assert_eq!((s.windows, s.ops_touched), (12_800, 1_955_000));
}

#[test]
fn one_access_per_trfc_work_is_pinned() {
    let s = sched(&default_point().with_accesses(1));
    assert_eq!((s.windows, s.ops_touched), (12_800, 10_381_752));
}

#[test]
fn one_mib_at_two_accesses_work_is_pinned() {
    let cfg = default_point()
        .with_spm(ByteSize::from_mib(1))
        .with_accesses(2);
    let s = sched(&cfg);
    assert_eq!((s.windows, s.ops_touched), (12_800, 7_793_600));
}
