//! Rendering helpers of the `xfm-repro` binary, and the modules the
//! `xfm-*-bench` bins and `xfm-sentinel` share.
//!
//! Every function takes the typed rows from [`xfm_sim::figures`] and
//! renders the same series the paper's corresponding figure or table
//! reports, as plain text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod replay;
pub mod report;
pub mod sentinel;

use xfm_sim::ablation::{
    GranularityRow, PredictorRow, PrefetchSweepRow, RandomBudgetRow, RefreshModeRow,
};
use xfm_sim::figures::{
    energy_summary, fig8_mean_savings_loss, Fig11Row, Fig12Row, Fig1Row, Fig3Row, Fig8Row,
    Table1Row, TimingSummary,
};
use xfm_sim::report::{f, pct, Table};

/// Renders Fig. 1 (bandwidth vs ranks).
#[must_use]
pub fn render_fig1(rows: &[Fig1Row]) -> String {
    let mut t = Table::new(vec![
        "ranks",
        "CPU-SFM DDR GB/s",
        "XFM DDR GB/s",
        "XFM side-channel GB/s",
    ]);
    t.title(format!(
        "Figure 1: SFM memory bandwidth vs ranks (promotion rate {})",
        rows.first().map_or(0.0, |r| r.promotion_rate)
    ));
    for r in rows {
        t.row(vec![
            r.ranks.to_string(),
            f(r.cpu_sfm_gbps, 2),
            f(r.xfm_gbps, 2),
            f(r.xfm_side_channel_gbps, 2),
        ]);
    }
    t.render()
}

/// Renders Fig. 3 (cost and emissions over years).
#[must_use]
pub fn render_fig3(rows: &[Fig3Row]) -> String {
    let mut out = String::new();
    for &pr in &[0.2, 1.0] {
        let mut t = Table::new(vec![
            "years",
            "DFM-DRAM $",
            "DFM-PMem $",
            "SFM $",
            "DFM-DRAM kg",
            "DFM-PMem kg",
            "SFM kg",
        ]);
        t.title(format!(
            "Figure 3: cumulative cost/emissions @ {}% promotion",
            pr * 100.0
        ));
        for year in 0..=10 {
            let years = f64::from(year);
            let get = |kind: xfm_cost::FarMemoryKind| {
                rows.iter()
                    .find(|r| {
                        r.kind == kind
                            && (r.promotion_rate - pr).abs() < 1e-9
                            && (r.years - years).abs() < 1e-9
                    })
                    .expect("grid point")
            };
            let dram = get(xfm_cost::FarMemoryKind::DfmDram);
            let pmem = get(xfm_cost::FarMemoryKind::DfmPmem);
            let sfm = get(xfm_cost::FarMemoryKind::Sfm);
            t.row(vec![
                year.to_string(),
                f(dram.cost_usd, 0),
                f(pmem.cost_usd, 0),
                f(sfm.cost_usd, 0),
                f(dram.emissions_kg, 0),
                f(pmem.emissions_kg, 0),
                f(sfm.emissions_kg, 0),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Renders Fig. 8 (compression ratios by DIMM count).
#[must_use]
pub fn render_fig8(rows: &[Fig8Row]) -> String {
    let mut t = Table::new(vec![
        "corpus",
        "1-DIMM",
        "2-DIMM",
        "4-DIMM",
        "4-DIMM retention",
    ]);
    t.title("Figure 8: aligned compression ratio by channel interleave");
    for r in rows {
        t.row(vec![
            r.corpus.name().to_string(),
            f(r.ratio_1dimm, 2),
            f(r.ratio_2dimm, 2),
            f(r.ratio_4dimm, 2),
            pct(r.retention_4dimm()),
        ]);
    }
    let (loss2, loss4) = fig8_mean_savings_loss(rows);
    let mut out = t.render();
    out.push_str(&format!(
        "mean savings loss: 2-DIMM {} (paper ~5%), 4-DIMM {} (paper ~14%)\n",
        pct(loss2),
        pct(loss4)
    ));
    out
}

/// Renders Fig. 11 (co-run interference).
#[must_use]
pub fn render_fig11(rows: &[Fig11Row]) -> String {
    let mut t = Table::new(vec![
        "mix",
        "mode",
        "app slowdown (mean)",
        "app slowdown (max)",
        "SFM degradation",
        "combined score",
    ]);
    t.title("Figure 11: interference between applications and SFM operations");
    for r in rows {
        t.row(vec![
            r.mix.clone(),
            r.mode.label().to_string(),
            f(r.mean_slowdown, 3),
            f(r.max_slowdown, 3),
            pct(r.sfm_degradation),
            f(r.combined, 3),
        ]);
    }
    let mut out = t.render();
    // Combined improvement of XFM over Baseline-CPU per mix.
    let mixes: Vec<&str> = {
        let mut v: Vec<&str> = rows.iter().map(|r| r.mix.as_str()).collect();
        v.dedup();
        v
    };
    for mix in mixes {
        let get = |mode: xfm_sim::SfmMode| {
            rows.iter()
                .find(|r| r.mix == mix && r.mode == mode)
                .unwrap()
        };
        let base = get(xfm_sim::SfmMode::BaselineCpu);
        let xfm = get(xfm_sim::SfmMode::Xfm);
        out.push_str(&format!(
            "{mix}: XFM combined improvement over Baseline-CPU = {} (paper band: 5~27%)\n",
            pct(xfm.combined / base.combined - 1.0)
        ));
    }
    out
}

/// Renders Fig. 12 (CPU fallbacks vs SPM size).
#[must_use]
pub fn render_fig12(rows: &[Fig12Row]) -> String {
    let mut out = String::new();
    for acc in [1u32, 2, 3] {
        let mut t = Table::new(vec![
            "SPM MiB",
            "PR 50%: fallback",
            "PR 50%: cond/random",
            "PR 100%: fallback",
            "PR 100%: cond/random",
        ]);
        t.title(format!(
            "Figure 12: CPU fallbacks, {acc} access(es) per tRFC"
        ));
        for mib in [1u64, 2, 4, 8, 16] {
            let get = |pr: f64| {
                rows.iter()
                    .find(|r| {
                        r.accesses_per_trfc == acc
                            && (r.promotion_rate - pr).abs() < 1e-9
                            && r.spm_mib == mib
                    })
                    .expect("sweep point")
            };
            let lo = get(0.5);
            let hi = get(1.0);
            t.row(vec![
                mib.to_string(),
                pct(lo.fallback_fraction),
                format!(
                    "{}/{}",
                    pct(lo.conditional_fraction),
                    pct(lo.random_fraction)
                ),
                pct(hi.fallback_fraction),
                format!(
                    "{}/{}",
                    pct(hi.conditional_fraction),
                    pct(hi.random_fraction)
                ),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Renders Table 1.
#[must_use]
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut t = Table::new(vec![
        "Device",
        "#Rows/bank",
        "#Banks",
        "tRFC (ns)",
        "#Rows ref'd/tRFC",
        "#Subarrays/bank",
        "max cond. accesses",
    ]);
    t.title("Table 1: DDR5 device configuration");
    for r in rows {
        t.row(vec![
            r.device.to_string(),
            r.rows_per_bank.to_string(),
            r.banks_per_chip.to_string(),
            r.trfc_ns.to_string(),
            r.rows_per_ref.to_string(),
            r.subarrays_per_bank.to_string(),
            r.max_conditional.to_string(),
        ]);
    }
    t.render()
}

/// Renders Tables 2 and 3 plus the DRAM-mod overhead.
#[must_use]
pub fn render_tables23() -> String {
    let model = xfm_sim::figures::table2_resources();
    let totals = model.totals();
    let (lut_pct, ff_pct, bram_pct) = model.utilization_pct();
    let mut t = Table::new(vec!["Resource", "Used", "Total", "Percent"]);
    t.title("Table 2: FPGA resource utilization of XFM");
    t.row(vec![
        "LUTs".into(),
        totals.luts.to_string(),
        model.device_luts.to_string(),
        format!("{lut_pct:.2}%"),
    ]);
    t.row(vec![
        "FFs".into(),
        totals.ffs.to_string(),
        model.device_ffs.to_string(),
        format!("{ff_pct:.2}%"),
    ]);
    t.row(vec![
        "BRAM".into(),
        totals.brams.to_string(),
        model.device_brams.to_string(),
        format!("{bram_pct:.2}%"),
    ]);
    let mut out = t.render();

    let (power, dram_mod) = xfm_sim::figures::table3_power();
    let mut t3 = Table::new(vec!["Power", "Watts", "%"]);
    t3.title("Table 3: power consumption breakdown of XFM");
    t3.row(vec![
        "Dynamic".into(),
        f(power.dynamic_w, 3),
        f(power.dynamic_pct(), 0),
    ]);
    t3.row(vec![
        "Static".into(),
        f(power.static_w, 3),
        f(power.static_pct(), 0),
    ]);
    t3.row(vec!["Total".into(), f(power.total_w(), 3), "100".into()]);
    out.push('\n');
    out.push_str(&t3.render());
    out.push_str(&format!(
        "DRAM bank modifications (CACTI-style): {:.2}% area, {:.4}% power (paper: ~0.15%, ~0.002%)\n",
        dram_mod.area_pct, dram_mod.power_pct
    ));
    out
}

/// Renders the §5 timing summary.
#[must_use]
pub fn render_timing(t: &TimingSummary) -> String {
    format!(
        "Section 5 timing (DDR5-3200, 32Gb):\n\
         - first conditional 4 KiB read:   {} ns (paper: 110 ns)\n\
         - each overlapped read:           {} ns (paper: 80 ns)\n\
         - minimum offload latency:        {} ns = 2 x tREFI ({} ns)\n\
         - refresh duty cycle:             {:.2}% of all cycles\n",
        t.conditional_first_ns,
        t.conditional_next_ns,
        t.min_offload_latency_ns,
        t.trefi_ns,
        t.refresh_duty * 100.0
    )
}

/// Renders the §8 energy summary from a Fig. 12 sweep.
#[must_use]
pub fn render_energy(fig12: &[Fig12Row]) -> String {
    let e = energy_summary(fig12);
    format!(
        "Section 8 energy:\n\
         - on-DIMM path interface-energy saving: {} (paper: 69%)\n\
         - conditional-access energy saving:     {} (paper: 10.1% average)\n",
        pct(e.interface_saving),
        pct(e.conditional_saving)
    )
}

/// Renders the ablation studies.
#[must_use]
pub fn render_ablations(
    prefetch: &[PrefetchSweepRow],
    random_budget: &[RandomBudgetRow],
    granularity: &[GranularityRow],
    refresh_modes: &[RefreshModeRow],
    predictor: &[PredictorRow],
) -> String {
    let mut out = String::new();

    let mut t = Table::new(vec!["prediction accuracy", "fallbacks", "random share"]);
    t.title("Ablation A: prefetch accuracy (8 MiB SPM, 3 acc/tRFC, 100% PR)");
    for r in prefetch {
        t.row(vec![
            pct(r.accuracy),
            pct(r.fallback_fraction),
            pct(r.random_fraction),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let mut t = Table::new(vec![
        "random slots/window",
        "fallbacks",
        "conditional share",
    ]);
    t.title("Ablation B: random-access budget (TRR-slot scavenging, 40% accuracy)");
    for r in random_budget {
        t.row(vec![
            r.max_random.to_string(),
            pct(r.fallback_fraction),
            pct(r.conditional_fraction),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let mut t = Table::new(vec!["offload unit", "4-DIMM ratio", "savings retention"]);
    t.title("Ablation C: offload granularity (paper future work)");
    for r in granularity {
        t.row(vec![
            format!("{} KiB", r.offload_kib),
            f(r.ratio_4dimm, 2),
            pct(r.retention_4dimm),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let mut t = Table::new(vec![
        "refresh mode",
        "NMA side channel GB/s",
        "host rank locked",
    ]);
    t.title("Ablation D: refresh mode as an XFM substrate");
    for r in refresh_modes {
        t.row(vec![
            r.mode.to_string(),
            f(r.side_channel_gbps, 2),
            format!("{:.2}%", r.host_rank_locked_pct),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let mut t = Table::new(vec!["fault pattern", "accuracy", "precision"]);
    t.title("Ablation E: achievable stride-predictor accuracy");
    for r in predictor {
        t.row(vec![r.pattern.clone(), pct(r.accuracy), pct(r.precision)]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfm_sim::figures;
    use xfm_types::Nanos;

    #[test]
    fn all_renderers_produce_output() {
        assert!(render_fig1(&figures::fig1_bandwidth(1.0)).contains("Figure 1"));
        assert!(render_fig3(&figures::fig3_cost()).contains("Figure 3"));
        let fig8 = figures::fig8_ratios(16 * 1024).unwrap();
        assert!(render_fig8(&fig8).contains("Figure 8"));
        assert!(render_fig11(&figures::fig11_interference()).contains("Figure 11"));
        let fig12 = figures::fig12_fallbacks(Nanos::from_ms(5));
        assert!(render_fig12(&fig12).contains("Figure 12"));
        assert!(render_table1(&figures::table1_devices()).contains("Table 1"));
        assert!(render_tables23().contains("Table 2"));
        assert!(render_timing(&figures::timing_summary()).contains("110 ns"));
        assert!(render_energy(&fig12).contains("69%"));
        let ab = render_ablations(
            &xfm_sim::ablation::prefetch_accuracy_sweep(Nanos::from_ms(5)),
            &xfm_sim::ablation::random_budget_sweep(Nanos::from_ms(5)),
            &xfm_sim::ablation::offload_granularity_sweep(16 * 1024).unwrap(),
            &xfm_sim::ablation::refresh_mode_compare(),
            &xfm_sim::ablation::predictor_study(500, 1),
        );
        assert!(ab.contains("Ablation A") && ab.contains("Ablation E"));
    }
}
