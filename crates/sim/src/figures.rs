//! Typed row generators for every figure and table in the paper.
//!
//! Each `figN_*` function regenerates the data series behind the paper's
//! corresponding plot; the `xfm-repro` binary renders them through
//! [`crate::report`]. Absolute values are
//! simulator-scale; the *shape* (who wins, by what factor, where
//! cross-overs fall) is the reproduction target.

use xfm_compress::ratio::stored_ratio;
use xfm_compress::{Corpus, XDeflate};
use xfm_cost::{CostParams, FarMemoryKind, FarMemoryModel};
use xfm_dram::{DeviceGeometry, DramTimings, EnergyModel};
use xfm_types::{ByteSize, Nanos, PAGE_SIZE};

use crate::corun::{evaluate, CorunConfig, SfmMode};
use crate::fallback::{simulate, FallbackConfig};
use crate::resource::{DramModOverhead, FpgaResourceModel};
use crate::workload::JobMix;

// ---------------------------------------------------------------- Fig. 1

/// One point of Fig. 1: SFM-induced DDR bandwidth vs system size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Row {
    /// DRAM ranks in the system.
    pub ranks: u32,
    /// Promotion rate.
    pub promotion_rate: f64,
    /// DDR bandwidth a CPU-centric SFM consumes (GB/s).
    pub cpu_sfm_gbps: f64,
    /// DDR bandwidth XFM consumes (GB/s) — zero by construction.
    pub xfm_gbps: f64,
    /// Side-channel headroom XFM has in this configuration (GB/s).
    pub xfm_side_channel_gbps: f64,
}

/// Regenerates Fig. 1: bandwidth utilization of SFM operations as the
/// number of ranks (and with it the far-memory capacity) grows.
#[must_use]
pub fn fig1_bandwidth(promotion_rate: f64) -> Vec<Fig1Row> {
    let timings = DramTimings::paper_emulator();
    // Each rank contributes 8 GiB, half of it given to the SFM region.
    let gib_per_rank = 8.0;
    let sfm_fraction = 0.5;
    let compression_ratio = 2.5;
    (1..=6)
        .map(|log| {
            let ranks = 1u32 << log; // 2..=64
            let sfm_gib = f64::from(ranks) * gib_per_rank * sfm_fraction;
            let swap_gbps = sfm_gib * promotion_rate / 60.0;
            let cpu_sfm_gbps = 2.0 * swap_gbps * (1.0 + 1.0 / compression_ratio);
            // Per-rank side channel: accesses_per_trfc pages per tREFI.
            let per_rank = 3.0 * PAGE_SIZE as f64 / timings.t_refi.as_secs_f64() / 1e9;
            Fig1Row {
                ranks,
                promotion_rate,
                cpu_sfm_gbps,
                xfm_gbps: 0.0,
                xfm_side_channel_gbps: per_rank * f64::from(ranks),
            }
        })
        .collect()
}

/// The largest SFM capacity whose swap traffic still fits in the refresh
/// side channel (the abstract's "up to 1TB" claim).
#[must_use]
pub fn xfm_max_sfm_capacity(
    promotion_rate: f64,
    ranks: u32,
    accesses_per_trfc: u32,
    compression_ratio: f64,
) -> ByteSize {
    let timings = DramTimings::paper_emulator();
    let side_channel = f64::from(accesses_per_trfc) * PAGE_SIZE as f64
        / timings.t_refi.as_secs_f64()
        * f64::from(ranks);
    // bytes/s of side-channel demand per byte of SFM capacity:
    let per_byte = 2.0 * (1.0 + 1.0 / compression_ratio) * promotion_rate / 60.0;
    if per_byte <= 0.0 {
        return ByteSize::from_gib(u64::MAX >> 33);
    }
    ByteSize::from_bytes((side_channel / per_byte) as u64)
}

// ---------------------------------------------------------------- Fig. 3

/// One point of Fig. 3: cumulative cost/emissions over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Row {
    /// Deployment kind.
    pub kind: FarMemoryKind,
    /// Promotion rate.
    pub promotion_rate: f64,
    /// Years of operation.
    pub years: f64,
    /// Cumulative cost (USD).
    pub cost_usd: f64,
    /// Cumulative emissions (kg CO2e).
    pub emissions_kg: f64,
}

/// Regenerates Fig. 3's trajectories for both promotion rates.
#[must_use]
pub fn fig3_cost() -> Vec<Fig3Row> {
    let model = FarMemoryModel::new(CostParams::paper());
    let mut rows = Vec::new();
    for &pr in &[0.2, 1.0] {
        for kind in [
            FarMemoryKind::DfmDram,
            FarMemoryKind::DfmPmem,
            FarMemoryKind::Sfm,
        ] {
            for year in 0..=10 {
                let years = f64::from(year);
                rows.push(Fig3Row {
                    kind,
                    promotion_rate: pr,
                    years,
                    cost_usd: model.cost_usd(kind, pr, years),
                    emissions_kg: model.emissions_kg(kind, pr, years),
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------- Fig. 8

/// One bar group of Fig. 8: per-corpus compression ratios by DIMM count,
/// each the corpus over its stored containers
/// ([`xfm_compress::ratio::stored_ratio`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Row {
    /// Corpus.
    pub corpus: Corpus,
    /// Compression ratio in 1-DIMM (host-logical-order) mode.
    pub ratio_1dimm: f64,
    /// Same-offset (aligned) compression ratio in 2-DIMM mode.
    pub ratio_2dimm: f64,
    /// Same-offset (aligned) compression ratio in 4-DIMM mode.
    pub ratio_4dimm: f64,
}

impl Fig8Row {
    /// Fraction of the 1-DIMM savings retained in 4-DIMM mode
    /// (paper: 86.2% on average).
    #[must_use]
    pub fn retention_4dimm(&self) -> f64 {
        let base = 1.0 - 1.0 / self.ratio_1dimm;
        if base <= 0.0 {
            1.0
        } else {
            ((1.0 - 1.0 / self.ratio_4dimm) / base).max(0.0)
        }
    }
}

/// Regenerates Fig. 8 over every corpus class.
///
/// # Errors
///
/// Propagates codec failures (none expected).
pub fn fig8_ratios(bytes_per_corpus: usize) -> xfm_types::Result<Vec<Fig8Row>> {
    let codec = &XDeflate::default();
    Corpus::all()
        .iter()
        .map(|&corpus| {
            let data = corpus.generate(0x58f8, bytes_per_corpus);
            Ok(Fig8Row {
                corpus,
                ratio_1dimm: stored_ratio(codec, &data, PAGE_SIZE, 1)?,
                ratio_2dimm: stored_ratio(codec, &data, PAGE_SIZE, 2)?,
                ratio_4dimm: stored_ratio(codec, &data, PAGE_SIZE, 4)?,
            })
        })
        .collect()
}

/// Mean savings lost in 2- and 4-DIMM modes (paper §8: 5% and 14%).
#[must_use]
pub fn fig8_mean_savings_loss(rows: &[Fig8Row]) -> (f64, f64) {
    let mean = |f: &dyn Fn(&Fig8Row) -> f64| -> f64 {
        rows.iter().map(f).sum::<f64>() / rows.len().max(1) as f64
    };
    let savings = |ratio: f64| 1.0 - 1.0 / ratio.max(1.0);
    let s1 = mean(&|r| savings(r.ratio_1dimm));
    let s2 = mean(&|r| savings(r.ratio_2dimm));
    let s4 = mean(&|r| savings(r.ratio_4dimm));
    ((s1 - s2) / s1.max(1e-12), (s1 - s4) / s1.max(1e-12))
}

// ---------------------------------------------------------------- Fig. 11

/// One bar of Fig. 11.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// Job-mix name.
    pub mix: String,
    /// SFM implementation.
    pub mode: SfmMode,
    /// Geometric-mean application slowdown (1.0 = none).
    pub mean_slowdown: f64,
    /// Worst single-application slowdown.
    pub max_slowdown: f64,
    /// SFM throughput degradation.
    pub sfm_degradation: f64,
    /// Combined throughput score (apps × SFM).
    pub combined: f64,
}

/// Regenerates Fig. 11 across the job mixes and the three SFM modes.
#[must_use]
pub fn fig11_interference() -> Vec<Fig11Row> {
    let cfg = CorunConfig::default();
    let mut rows = Vec::new();
    for mix in JobMix::figure11_mixes() {
        for mode in SfmMode::compared() {
            let o = evaluate(&mix, mode, &cfg);
            rows.push(Fig11Row {
                mix: mix.name.clone(),
                mode,
                mean_slowdown: o.mean_slowdown,
                max_slowdown: o.app_slowdowns.iter().copied().fold(1.0, f64::max),
                sfm_degradation: o.sfm_degradation,
                combined: o.combined_throughput(),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- Fig. 12

/// One point of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig12Row {
    /// NMA accesses per `tRFC` (the figure's panels).
    pub accesses_per_trfc: u32,
    /// Promotion rate (top row 50%, bottom row 100%).
    pub promotion_rate: f64,
    /// SPM capacity (MiB, the x-axis).
    pub spm_mib: u64,
    /// CPU fallback fraction (the y-axis).
    pub fallback_fraction: f64,
    /// Share of served accesses that were conditional.
    pub conditional_fraction: f64,
    /// Share of served accesses that were random.
    pub random_fraction: f64,
}

/// The 30 sweep points of Fig. 12, in the order the figure prints them:
/// accesses per `tRFC`, then promotion rate, then SPM size.
#[must_use]
pub fn fig12_points(duration: Nanos) -> Vec<FallbackConfig> {
    let mut points = Vec::new();
    for accesses_per_trfc in [1u32, 2, 3] {
        for promotion_rate in [0.5, 1.0] {
            for spm_mib in [1u64, 2, 4, 8, 16] {
                let point = FallbackConfig {
                    promotion_rate,
                    duration,
                    ..FallbackConfig::default()
                };
                points.push(
                    point
                        .with_accesses(accesses_per_trfc)
                        .with_spm(ByteSize::from_mib(spm_mib)),
                );
            }
        }
    }
    points
}

/// Regenerates the Fig. 12 sweep. `duration` trades accuracy for time
/// (the paper-quality sweep uses ≥ 100 ms of simulated time per point).
#[must_use]
pub fn fig12_fallbacks(duration: Nanos) -> Vec<Fig12Row> {
    fig12_points(duration)
        .iter()
        .map(|point| {
            let report = simulate(point);
            Fig12Row {
                accesses_per_trfc: point.nma.sched.accesses_per_trfc,
                promotion_rate: point.promotion_rate,
                spm_mib: point.nma.spm_capacity.as_bytes() >> 20,
                fallback_fraction: report.fallback_fraction(),
                conditional_fraction: report.conditional_fraction(),
                random_fraction: report.random_fraction(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Tables

/// One column of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Device name.
    pub device: &'static str,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Banks per chip.
    pub banks_per_chip: u32,
    /// `tRFC` (all-bank refresh), ns.
    pub trfc_ns: u64,
    /// Rows of a bank refreshed during `tRFC`.
    pub rows_per_ref: u32,
    /// Subarrays per bank.
    pub subarrays_per_bank: u32,
    /// Max 4 KiB conditional accesses per `tRFC` (the §5 derivation).
    pub max_conditional: u32,
}

/// Regenerates Table 1 (plus the derived conditional-access capacity).
#[must_use]
pub fn table1_devices() -> Vec<Table1Row> {
    let entries: [(&'static str, DeviceGeometry, DramTimings); 3] = [
        (
            "8Gb",
            DeviceGeometry::ddr5_8gb(),
            DramTimings::ddr5_3200_8gb(),
        ),
        (
            "16Gb",
            DeviceGeometry::ddr5_16gb(),
            DramTimings::ddr5_3200_16gb(),
        ),
        (
            "32Gb",
            DeviceGeometry::ddr5_32gb(),
            DramTimings::ddr5_3200_32gb(),
        ),
    ];
    entries
        .into_iter()
        .map(|(device, g, t)| Table1Row {
            device,
            rows_per_bank: g.rows_per_bank,
            banks_per_chip: g.banks_per_chip,
            trfc_ns: t.t_rfc.as_ns(),
            rows_per_ref: g.rows_per_ref(),
            subarrays_per_bank: g.subarrays_per_bank(),
            max_conditional: t.max_conditional_accesses(),
        })
        .collect()
}

/// Regenerates Table 2 (FPGA resource utilization).
#[must_use]
pub fn table2_resources() -> FpgaResourceModel {
    FpgaResourceModel::xfm_prototype()
}

/// Regenerates Table 3 (power) and the DRAM-mod overhead estimate.
#[must_use]
pub fn table3_power() -> (crate::resource::PowerBreakdown, DramModOverhead) {
    (
        FpgaResourceModel::xfm_prototype().power(),
        DramModOverhead::from_geometry(128, 16, 512),
    )
}

// ------------------------------------------------------------- §5 timing

/// The Fig. 6/Fig. 10 timing summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingSummary {
    /// First conditional 4 KiB read in a window (ns) — paper: 110.
    pub conditional_first_ns: u64,
    /// Each subsequent overlapped read (ns) — paper: 80.
    pub conditional_next_ns: u64,
    /// Minimum XFM offload latency (ns) — paper: 2 × tREFI.
    pub min_offload_latency_ns: u64,
    /// `tREFI` (ns).
    pub trefi_ns: u64,
    /// Refresh duty cycle (fraction of time the rank is locked anyway).
    pub refresh_duty: f64,
}

/// Computes the §5 timing summary for DDR5-3200 32 Gb parts.
#[must_use]
pub fn timing_summary() -> TimingSummary {
    let t = DramTimings::ddr5_3200_32gb();
    TimingSummary {
        conditional_first_ns: t.conditional_read_first().as_ns(),
        conditional_next_ns: t.conditional_read_next().as_ns(),
        min_offload_latency_ns: (t.t_refi * 2).as_ns(),
        trefi_ns: t.t_refi.as_ns(),
        refresh_duty: t.refresh_duty_cycle(),
    }
}

// ------------------------------------------------------------- §8 energy

/// The §8 energy summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergySummary {
    /// Interface-energy saving of the on-DIMM path (paper §4.3: 69%).
    pub interface_saving: f64,
    /// NMA access-energy saving from conditional accesses, averaged over
    /// the Fig. 12 sweep's conditional/random mixes (paper §8: 10.1%).
    pub conditional_saving: f64,
}

/// Computes the energy summary from a Fig. 12 sweep. A row that served
/// no access (both fractions 0) has no mix and stays out of the mean.
#[must_use]
pub fn energy_summary(fig12: &[Fig12Row]) -> EnergySummary {
    let energy = EnergyModel::default();
    let page = ByteSize::from_bytes(PAGE_SIZE as u64);
    let savings: Vec<f64> = fig12
        .iter()
        .filter(|row| row.conditional_fraction + row.random_fraction > 0.0)
        .map(|row| {
            let cond = (row.conditional_fraction * 1000.0) as u64;
            let rand = 1000 - cond;
            energy.conditional_saving(page, cond, rand)
        })
        .collect();
    EnergySummary {
        interface_saving: energy.interface_saving(),
        conditional_saving: savings.iter().sum::<f64>() / savings.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_cpu_bandwidth_grows_xfm_stays_zero() {
        let rows = fig1_bandwidth(1.0);
        assert_eq!(rows.len(), 6);
        for w in rows.windows(2) {
            assert!(w[1].cpu_sfm_gbps > w[0].cpu_sfm_gbps);
            assert_eq!(w[1].xfm_gbps, 0.0);
        }
        // At 64 ranks (256 GiB SFM) the CPU-centric SFM needs >10 GB/s.
        assert!(rows.last().unwrap().cpu_sfm_gbps > 10.0);
    }

    #[test]
    fn xfm_capacity_headroom_near_1tb() {
        // Abstract: XFM eliminates SFM bandwidth for capacities up to
        // ~1 TB (8 ranks, 3 accesses/tRFC, 50% promotion rate).
        let cap = xfm_max_sfm_capacity(0.5, 8, 3, 2.5);
        let tb = cap.as_gib_f64() / 1024.0;
        assert!((0.5..2.0).contains(&tb), "{tb} TB");
    }

    #[test]
    fn fig3_rows_cover_grid() {
        let rows = fig3_cost();
        assert_eq!(rows.len(), 2 * 3 * 11);
        // SFM starts cheaper than DRAM DFM at year 0.
        let sfm0 = rows
            .iter()
            .find(|r| r.kind == FarMemoryKind::Sfm && r.years == 0.0 && r.promotion_rate == 1.0)
            .unwrap();
        let dfm0 = rows
            .iter()
            .find(|r| r.kind == FarMemoryKind::DfmDram && r.years == 0.0 && r.promotion_rate == 1.0)
            .unwrap();
        assert!(sfm0.cost_usd < dfm0.cost_usd);
    }

    #[test]
    fn fig8_retention_matches_paper_band() {
        let rows = fig8_ratios(64 * 1024).unwrap();
        assert_eq!(rows.len(), Corpus::all().len());
        let (loss2, loss4) = fig8_mean_savings_loss(&rows);
        // Paper §8: 2-/4-DIMM modes lose ~5% / ~14% of savings.
        assert!((0.0..0.20).contains(&loss2), "2-DIMM loss {loss2}");
        assert!((loss2..0.35).contains(&loss4), "4-DIMM loss {loss4}");
        // Average 4-DIMM retention near the paper's 86.2%.
        let mean_retention: f64 =
            rows.iter().map(Fig8Row::retention_4dimm).sum::<f64>() / rows.len() as f64;
        assert!((0.70..1.01).contains(&mean_retention), "{mean_retention}");
    }

    #[test]
    fn fig11_ordering_matches_paper() {
        let rows = fig11_interference();
        for mix in JobMix::figure11_mixes() {
            let get = |mode: SfmMode| {
                rows.iter()
                    .find(|r| r.mix == mix.name && r.mode == mode)
                    .unwrap()
            };
            let cpu = get(SfmMode::BaselineCpu);
            let lock = get(SfmMode::HostLockoutNma);
            let xfm = get(SfmMode::Xfm);
            assert!(xfm.mean_slowdown <= cpu.mean_slowdown);
            assert!(cpu.mean_slowdown <= lock.mean_slowdown);
            assert!(xfm.combined >= cpu.combined);
            assert_eq!(lock.sfm_degradation, 0.0);
        }
    }

    #[test]
    fn fig12_sweep_has_expected_shape() {
        let rows = fig12_fallbacks(Nanos::from_ms(30));
        assert_eq!(rows.len(), 3 * 2 * 5);
        let point = |acc: u32, pr: f64, mib: u64| {
            rows.iter()
                .find(|r| {
                    r.accesses_per_trfc == acc
                        && (r.promotion_rate - pr).abs() < 1e-9
                        && r.spm_mib == mib
                })
                .unwrap()
        };
        // 8 MiB + 3 accesses: fallbacks eliminated at either rate.
        assert!(point(3, 0.5, 8).fallback_fraction < 0.02);
        assert!(point(3, 1.0, 8).fallback_fraction < 0.02);
        // 1 access per window cannot keep up even with 16 MiB.
        assert!(point(1, 1.0, 16).fallback_fraction > 0.3);
    }

    #[test]
    fn table1_matches_paper() {
        let rows = table1_devices();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].trfc_ns, 195);
        assert_eq!(rows[1].trfc_ns, 295);
        assert_eq!(rows[2].trfc_ns, 410);
        assert_eq!(rows[2].rows_per_ref, 16);
        assert_eq!(
            rows.iter().map(|r| r.max_conditional).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn timing_summary_matches_section5() {
        let t = timing_summary();
        assert_eq!(t.conditional_first_ns, 110);
        assert_eq!(t.conditional_next_ns, 80);
        assert_eq!(t.min_offload_latency_ns, 2 * t.trefi_ns);
    }

    #[test]
    fn energy_summary_near_paper_numbers() {
        let fig12 = fig12_fallbacks(Nanos::from_ms(20));
        let e = energy_summary(&fig12);
        assert!((e.interface_saving - 0.69).abs() < 0.01);
        // Paper: 10.1% average conditional-access saving.
        assert!(
            (0.03..0.18).contains(&e.conditional_saving),
            "{}",
            e.conditional_saving
        );
    }

    #[test]
    fn a_row_that_served_nothing_is_neither_random_nor_averaged() {
        // Shorter than one tREFI: no window runs, no access is served.
        let empty = fig12_fallbacks(Nanos::ZERO);
        assert!(empty
            .iter()
            .all(|r| r.conditional_fraction == 0.0 && r.random_fraction == 0.0));
        assert_eq!(energy_summary(&empty).conditional_saving, 0.0);
        // Mixed into a real sweep, empty rows leave its mean as it was.
        let served = fig12_fallbacks(Nanos::from_ms(5));
        let mixed: Vec<_> = served.iter().chain(&empty).copied().collect();
        assert_eq!(energy_summary(&mixed), energy_summary(&served));
        let ablation = crate::ablation::prefetch_accuracy_sweep(Nanos::ZERO);
        assert!(ablation.iter().all(|r| r.random_fraction == 0.0));
    }
}
