//! The co-run interference engine (paper Fig. 11 and the §3.2
//! antagonist study).
//!
//! Applications and SFM swap traffic share two resources: the LLC and
//! the memory channels. Each SFM implementation stresses them
//! differently:
//!
//! - **Baseline-CPU** streams every page through the cache hierarchy
//!   (pollution) and moves `2 × GBSwapped × (1 + 1/ratio)` bytes over
//!   the DDR channels;
//! - **Host-Lockout-NMA** (Boroumand-style) keeps traffic off the
//!   channels but locks the rank against host accesses while the NMA
//!   works, adding blocking latency;
//! - **XFM** confines NMA accesses to refresh windows, when the rank
//!   was locked anyway: no added bandwidth, no pollution, no blocking.
//!
//! The engine solves a small fixed point (cache shares ↔ bandwidth ↔
//! latency) and reports per-application slowdowns and the SFM's own
//! throughput degradation.

use xfm_telemetry::Registry;
use xfm_types::{Bandwidth, ByteSize};

use crate::cache::SharedLlc;
use crate::contention::MemoryChannelModel;
use crate::workload::JobMix;

/// Which SFM implementation co-runs with the applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SfmMode {
    /// No SFM traffic (the reference run).
    None,
    /// CPU (de)compression, zswap-style.
    BaselineCpu,
    /// NMA with a host-lockout DRAM interface.
    HostLockoutNma,
    /// XFM (refresh-window side channel).
    Xfm,
}

impl SfmMode {
    /// The three compared configurations of Fig. 11.
    #[must_use]
    pub fn compared() -> [SfmMode; 3] {
        [SfmMode::BaselineCpu, SfmMode::HostLockoutNma, SfmMode::Xfm]
    }

    /// Fig. 11 legend label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SfmMode::None => "no-SFM",
            SfmMode::BaselineCpu => "Baseline-CPU",
            SfmMode::HostLockoutNma => "Host-Lockout-NMA",
            SfmMode::Xfm => "XFM",
        }
    }
}

/// Co-run configuration (defaults follow the paper's §8 setup).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorunConfig {
    /// Shared LLC.
    pub llc: SharedLlc,
    /// Memory channel model.
    pub channel: MemoryChannelModel,
    /// Core clock (the antagonist study pins cores at 2.2 GHz).
    pub core_hz: f64,
    /// SFM extra capacity (512 GB).
    pub sfm_capacity: ByteSize,
    /// Promotion rate (the paper's "moderate" setting: 14%).
    pub promotion_rate: f64,
    /// Average compression ratio of the swapped pages.
    pub compression_ratio: f64,
    /// Aggregate near-memory engine bandwidth across DIMMs (lockout
    /// duty-cycle input).
    pub nma_bandwidth: Bandwidth,
    /// Fraction of SFM's cache-streaming traffic that actually inserts
    /// into the LLC (non-temporal stores reduce it below 1.0).
    pub pollution_factor: f64,
    /// Ranks the lockout-mode NMA traffic is spread over (a host access
    /// collides with a locked rank with probability duty / spread).
    pub rank_spread: f64,
}

impl Default for CorunConfig {
    fn default() -> Self {
        Self {
            llc: SharedLlc::default(),
            channel: MemoryChannelModel::paper_testbed(),
            core_hz: 2.2e9,
            sfm_capacity: ByteSize::from_gib(512),
            promotion_rate: 0.14,
            compression_ratio: 2.2,
            nma_bandwidth: Bandwidth::from_gbps(12.0),
            pollution_factor: 0.8,
            rank_spread: 4.0,
        }
    }
}

/// Results for one (mix, mode) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CorunOutcome {
    /// Mode evaluated.
    pub mode: SfmMode,
    /// Per-application runtime inflation vs the no-SFM run (1.0 = no
    /// slowdown).
    pub app_slowdowns: Vec<f64>,
    /// Geometric-mean application slowdown.
    pub mean_slowdown: f64,
    /// SFM (de)compression throughput degradation vs running alone
    /// (0.0 = none).
    pub sfm_degradation: f64,
    /// Effective memory latency the applications saw (ns).
    pub effective_latency_ns: f64,
    /// Total DDR bandwidth offered (GB/s).
    pub offered_gbps: f64,
}

impl CorunOutcome {
    /// Combined throughput score: mean application speed × SFM speed
    /// (both relative to their solo runs). Fig. 11's "combined
    /// performance" improvements come from comparing these.
    #[must_use]
    pub fn combined_throughput(&self) -> f64 {
        (1.0 / self.mean_slowdown) * (1.0 - self.sfm_degradation)
    }
}

/// LLC insertions per byte moved, relative to one insertion per line:
/// compression reads the page, probes match tables, and writes output.
const CODEC_TOUCH_FACTOR: f64 = 3.0;

/// SFM swap traffic derived from the configuration.
fn swap_gbps(cfg: &CorunConfig) -> f64 {
    cfg.sfm_capacity.as_gib_f64() * cfg.promotion_rate / 60.0
}

/// Evaluates one job mix under one SFM mode.
///
/// # Examples
///
/// ```
/// use xfm_sim::corun::{evaluate, CorunConfig, SfmMode};
/// use xfm_sim::workload::JobMix;
///
/// let cfg = CorunConfig::default();
/// let mix = JobMix::memory_sensitive_eight();
/// let xfm = evaluate(&mix, SfmMode::Xfm, &cfg);
/// let cpu = evaluate(&mix, SfmMode::BaselineCpu, &cfg);
/// assert!(xfm.mean_slowdown < cpu.mean_slowdown);
/// ```
#[must_use]
pub fn evaluate(mix: &JobMix, mode: SfmMode, cfg: &CorunConfig) -> CorunOutcome {
    // SFM-side load on each shared resource.
    let swap = swap_gbps(cfg); // GB/s promoted (and demoted)
    let stream_bytes = 2.0 * swap * (1.0 + 1.0 / cfg.compression_ratio) * 1e9;
    let (sfm_ddr, pollution_rate, blocked) = match mode {
        SfmMode::None => (0.0, 0.0, 0.0),
        SfmMode::BaselineCpu => (
            stream_bytes,
            // The codec touches each line several times (input scan,
            // hash/dictionary lookups, output), so its LLC insertion
            // pressure exceeds the raw stream rate.
            stream_bytes / 64.0 * CODEC_TOUCH_FACTOR * cfg.pollution_factor,
            0.0,
        ),
        SfmMode::HostLockoutNma => (
            0.0,
            0.0,
            // The NMA holds one rank at a time; a host access collides
            // only when it targets that rank, so the effective blocking
            // probability is the busy duty over the rank spread.
            (stream_bytes / cfg.nma_bandwidth.as_bytes_per_sec() / cfg.rank_spread).min(0.9),
        ),
        SfmMode::Xfm => (0.0, 0.0, 0.0),
    };

    // Fixed point: latency <-> cache shares <-> bandwidth demand.
    let mut latency = cfg.channel.base_latency;
    let mut shares =
        vec![cfg.llc.capacity / mix.workloads.len().max(1) as u64; mix.workloads.len()];
    let mut offered = Bandwidth::ZERO;
    for _ in 0..24 {
        let lat_cycles = latency.as_secs_f64() * cfg.core_hz;
        let (new_shares, _) =
            cfg.llc
                .shares(&mix.workloads, lat_cycles, cfg.core_hz, pollution_rate);
        shares = new_shares;
        let app_bw: f64 = mix
            .workloads
            .iter()
            .zip(&shares)
            .map(|(w, &s)| {
                let cpi = w.cpi(s, cfg.llc.capacity, lat_cycles);
                w.bandwidth_demand(s, cfg.llc.capacity, cpi, cfg.core_hz)
                    .as_bytes_per_sec()
            })
            .sum();
        offered = Bandwidth::from_bytes_per_sec(app_bw + sfm_ddr);
        latency = cfg.channel.effective_latency(offered, blocked);
    }

    // Application slowdowns against the solo (None-mode) latency/shares.
    let solo = if mode == SfmMode::None {
        None
    } else {
        Some(evaluate(mix, SfmMode::None, cfg))
    };
    let lat_cycles = latency.as_secs_f64() * cfg.core_hz;
    let cpis: Vec<f64> = mix
        .workloads
        .iter()
        .zip(&shares)
        .map(|(w, &s)| w.cpi(s, cfg.llc.capacity, lat_cycles))
        .collect();
    let app_slowdowns: Vec<f64> = match &solo {
        None => vec![1.0; cpis.len()],
        Some(base) => {
            let base_lat_cycles = base.effective_latency_ns * 1e-9 * cfg.core_hz;
            mix.workloads
                .iter()
                .zip(&cpis)
                .enumerate()
                .map(|(i, (w, &cpi))| {
                    // Reference CPI with the solo run's latency & share.
                    let base_share = cfg.llc.capacity / mix.workloads.len().max(1) as u64;
                    let _ = base_share;
                    let base_cpi = w.cpi(
                        base.solo_share(i, mix, cfg),
                        cfg.llc.capacity,
                        base_lat_cycles,
                    );
                    cpi / base_cpi
                })
                .collect()
        }
    };
    let mean_slowdown = geomean(&app_slowdowns);

    // SFM throughput degradation: the codec threads' memory stalls grow
    // with the co-run latency relative to an unloaded system.
    let sfm_degradation = match mode {
        SfmMode::None | SfmMode::HostLockoutNma | SfmMode::Xfm => 0.0,
        SfmMode::BaselineCpu => {
            // An SFM codec thread alternates compute and exposed misses:
            // throughput ∝ 1 / (compute + misses x latency).
            const COMPUTE_NS: f64 = 80.0; // per cacheline of work
            const MISSES_EXPOSED: f64 = 2.0;
            let solo_lat = cfg.channel.base_latency.as_ns_f64();
            let t_solo = COMPUTE_NS + MISSES_EXPOSED * solo_lat;
            let t_corun = COMPUTE_NS + MISSES_EXPOSED * latency.as_ns_f64();
            1.0 - t_solo / t_corun
        }
    };

    CorunOutcome {
        mode,
        app_slowdowns,
        mean_slowdown,
        sfm_degradation,
        effective_latency_ns: latency.as_ns_f64(),
        offered_gbps: offered.as_gbps(),
    }
}

/// Evaluates one job mix under one SFM mode and publishes the outcome
/// as per-mode gauges on `registry` (the telemetry replacement for the
/// old stdout calibration probe):
/// `xfm_corun_mean_slowdown{mode="…"}`,
/// `xfm_corun_max_slowdown{mode="…"}`,
/// `xfm_corun_sfm_degradation{mode="…"}`,
/// `xfm_corun_effective_latency_ns{mode="…"}`, and
/// `xfm_corun_offered_gbps{mode="…"}`.
#[must_use]
pub fn evaluate_traced(
    mix: &JobMix,
    mode: SfmMode,
    cfg: &CorunConfig,
    registry: &Registry,
) -> CorunOutcome {
    for (name, help) in [
        (
            "xfm_corun_mean_slowdown",
            "Geometric-mean application slowdown of the co-run mix under the SFM mode.",
        ),
        (
            "xfm_corun_max_slowdown",
            "Largest application slowdown of the co-run mix under the SFM mode.",
        ),
        (
            "xfm_corun_sfm_degradation",
            "SFM (de)compression throughput lost to the co-run against running alone (0 = none).",
        ),
        (
            "xfm_corun_effective_latency_ns",
            "Effective memory latency the co-run applications saw (ns).",
        ),
        (
            "xfm_corun_offered_gbps",
            "Total DDR bandwidth offered by the co-run (GB/s).",
        ),
    ] {
        registry.describe(name, help);
    }
    let outcome = evaluate(mix, mode, cfg);
    let label = mode.label();
    let max = outcome.app_slowdowns.iter().copied().fold(1.0f64, f64::max);
    registry
        .gauge(&format!("xfm_corun_mean_slowdown{{mode=\"{label}\"}}"))
        .set(outcome.mean_slowdown);
    registry
        .gauge(&format!("xfm_corun_max_slowdown{{mode=\"{label}\"}}"))
        .set(max);
    registry
        .gauge(&format!("xfm_corun_sfm_degradation{{mode=\"{label}\"}}"))
        .set(outcome.sfm_degradation);
    registry
        .gauge(&format!(
            "xfm_corun_effective_latency_ns{{mode=\"{label}\"}}"
        ))
        .set(outcome.effective_latency_ns);
    registry
        .gauge(&format!("xfm_corun_offered_gbps{{mode=\"{label}\"}}"))
        .set(outcome.offered_gbps);
    outcome
}

impl CorunOutcome {
    /// Reconstructs the share workload `i` had in this outcome's fixed
    /// point (approximated by re-solving; used for slowdown baselines).
    fn solo_share(&self, i: usize, mix: &JobMix, cfg: &CorunConfig) -> ByteSize {
        let lat_cycles = self.effective_latency_ns * 1e-9 * cfg.core_hz;
        let (shares, _) = cfg.llc.shares(&mix.workloads, lat_cycles, cfg.core_hz, 0.0);
        shares[i]
    }
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The §3.2 antagonist experiment: eight memory-sensitive kernels plus
/// CPU (de)compression antagonists; returns (max application slowdown,
/// antagonist throughput degradation).
#[must_use]
pub fn antagonist_study(cfg: &CorunConfig) -> (f64, f64) {
    let mix = JobMix::memory_sensitive_eight();
    let outcome = evaluate(&mix, SfmMode::BaselineCpu, cfg);
    let max_slowdown = outcome.app_slowdowns.iter().copied().fold(1.0f64, f64::max);
    (max_slowdown - 1.0, outcome.sfm_degradation)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CorunConfig {
        CorunConfig::default()
    }

    #[test]
    fn xfm_eliminates_interference() {
        let mix = JobMix::memory_sensitive_eight();
        let xfm = evaluate(&mix, SfmMode::Xfm, &cfg());
        assert!(
            xfm.mean_slowdown < 1.005,
            "XFM slowdown {}",
            xfm.mean_slowdown
        );
        assert_eq!(xfm.sfm_degradation, 0.0);
    }

    #[test]
    fn baseline_cpu_slows_apps_and_sfm() {
        // Fig. 11: SPEC sees up to ~8% slowdown; SFM throughput drops
        // 5-20%.
        let mix = JobMix::memory_sensitive_eight();
        let out = evaluate(&mix, SfmMode::BaselineCpu, &cfg());
        assert!(out.mean_slowdown > 1.01, "mean {}", out.mean_slowdown);
        let max = out.app_slowdowns.iter().copied().fold(1.0f64, f64::max);
        assert!(max < 1.15, "max app slowdown {max}");
        assert!(
            (0.05..0.25).contains(&out.sfm_degradation),
            "sfm degradation {}",
            out.sfm_degradation
        );
    }

    #[test]
    fn lockout_hurts_apps_more_than_baseline() {
        // Fig. 11: Host-Lockout-NMA sees up to 15% SPEC degradation vs
        // 8% for Baseline-CPU, but zero SFM degradation.
        let mix = JobMix::memory_sensitive_eight();
        let base = evaluate(&mix, SfmMode::BaselineCpu, &cfg());
        let lock = evaluate(&mix, SfmMode::HostLockoutNma, &cfg());
        assert!(
            lock.mean_slowdown > base.mean_slowdown,
            "lockout {} vs baseline {}",
            lock.mean_slowdown,
            base.mean_slowdown
        );
        assert_eq!(lock.sfm_degradation, 0.0);
    }

    #[test]
    fn combined_improvement_in_paper_band() {
        // "5~27% improvement in the combined performance of co-running
        // applications."
        for mix in JobMix::figure11_mixes() {
            let base = evaluate(&mix, SfmMode::BaselineCpu, &cfg());
            let xfm = evaluate(&mix, SfmMode::Xfm, &cfg());
            let improvement = xfm.combined_throughput() / base.combined_throughput() - 1.0;
            assert!(
                (0.03..0.35).contains(&improvement),
                "{}: {improvement}",
                mix.name
            );
        }
    }

    #[test]
    fn antagonist_study_matches_section_3_2() {
        // "The runtime increases by up to 7.5% with the antagonists'
        // compression throughput degrading by more than 5.0%."
        let (app_hit, sfm_hit) = antagonist_study(&cfg());
        assert!((0.01..0.15).contains(&app_hit), "app {app_hit}");
        assert!(sfm_hit > 0.05, "sfm {sfm_hit}");
    }

    #[test]
    fn higher_promotion_rate_worsens_baseline() {
        let mix = JobMix::memory_sensitive_eight();
        let low = evaluate(
            &mix,
            SfmMode::BaselineCpu,
            &CorunConfig {
                promotion_rate: 0.05,
                ..cfg()
            },
        );
        let high = evaluate(
            &mix,
            SfmMode::BaselineCpu,
            &CorunConfig {
                promotion_rate: 0.5,
                ..cfg()
            },
        );
        assert!(high.mean_slowdown > low.mean_slowdown);
        assert!(high.sfm_degradation >= low.sfm_degradation);
    }

    #[test]
    fn none_mode_is_the_identity() {
        let mix = JobMix::memory_sensitive_eight();
        let none = evaluate(&mix, SfmMode::None, &cfg());
        assert!(none.app_slowdowns.iter().all(|&s| (s - 1.0).abs() < 1e-12));
        assert_eq!(none.sfm_degradation, 0.0);
    }
}

#[cfg(test)]
mod calibration_probe {
    use super::*;

    /// The old stdout calibration probe, rebuilt on telemetry: every
    /// number it used to print is now a labeled gauge, and the figure's
    /// orderings are asserted from one snapshot instead of eyeballed.
    #[test]
    fn gauges_capture_calibration_numbers() {
        let registry = Registry::new();
        let cfg = CorunConfig::default();
        let mix = JobMix::memory_sensitive_eight();
        for mode in [
            SfmMode::None,
            SfmMode::BaselineCpu,
            SfmMode::HostLockoutNma,
            SfmMode::Xfm,
        ] {
            let o = evaluate_traced(&mix, mode, &cfg, &registry);
            let g = registry
                .gauge(&format!(
                    "xfm_corun_mean_slowdown{{mode=\"{}\"}}",
                    mode.label()
                ))
                .get();
            assert_eq!(g, o.mean_slowdown);
        }
        let s = registry.snapshot();
        let mean = |label: &str| s.gauges[&format!("xfm_corun_mean_slowdown{{mode=\"{label}\"}}")];
        assert_eq!(mean("no-SFM"), 1.0);
        assert!(mean("XFM") < mean("Baseline-CPU"));
        assert!(mean("Baseline-CPU") < mean("Host-Lockout-NMA"));
        assert!(s.gauges[r#"xfm_corun_sfm_degradation{mode="Baseline-CPU"}"#] > 0.0);
        assert_eq!(s.gauges[r#"xfm_corun_sfm_degradation{mode="XFM"}"#], 0.0);
        assert!(
            s.gauges[r#"xfm_corun_offered_gbps{mode="Baseline-CPU"}"#]
                > s.gauges[r#"xfm_corun_offered_gbps{mode="XFM"}"#]
        );
        assert!(
            s.gauges[r#"xfm_corun_effective_latency_ns{mode="Host-Lockout-NMA"}"#]
                > s.gauges[r#"xfm_corun_effective_latency_ns{mode="no-SFM"}"#]
        );
    }
}
