//! One test per headline claim in the paper, so `cargo test` doubles as
//! the reproduction checklist (see EXPERIMENTS.md for the narrative).

use xfm::cost::{CostParams, FarMemoryKind, FarMemoryModel};
use xfm::dram::{DeviceGeometry, DramTimings, EnergyModel};
use xfm::sim::ablation;
use xfm::sim::corun::{evaluate, CorunConfig, SfmMode};
use xfm::sim::fallback::{simulate, FallbackConfig};
use xfm::sim::workload::JobMix;
use xfm::types::{ByteSize, Nanos};

#[test]
fn claim_8_5_year_cost_breakeven() {
    // §3.1: "It takes 8.5 years for SFM to break even with the cost of
    // a DRAM-based DFM" (100% promotion rate).
    let model = FarMemoryModel::new(CostParams::paper());
    let years = model
        .cost_breakeven_years(FarMemoryKind::DfmDram, 1.0)
        .expect("break-even exists");
    assert!((8.0..9.0).contains(&years), "{years}");
}

#[test]
fn claim_emissions_never_break_even_in_lifetime() {
    // §3.1: "DRAM-based DFM and SFM never break even in terms of carbon
    // emissions during the typical 5-year lifetime of a server."
    let model = FarMemoryModel::new(CostParams::paper());
    for pr in [0.2, 1.0] {
        if let Some(t) = model.emission_breakeven_years(FarMemoryKind::DfmDram, pr) {
            assert!(t > 5.0, "pr {pr}: {t}");
        }
    }
}

#[test]
fn claim_accelerator_beneficial_above_6_percent() {
    // §3.2: "an integrated hardware accelerator becomes beneficial when
    // the average promotion rate is higher than 6%".
    let rate = FarMemoryModel::new(CostParams::paper()).accelerator_breakeven_promotion_rate();
    assert!((0.04..0.08).contains(&rate), "{rate}");
}

#[test]
fn claim_110ns_conditional_read_and_4_3_2_capacity() {
    // §5 / Fig. 6.
    assert_eq!(
        DramTimings::ddr5_3200_32gb()
            .conditional_read_first()
            .as_ns(),
        110
    );
    assert_eq!(DramTimings::ddr5_3200_32gb().max_conditional_accesses(), 4);
    assert_eq!(DramTimings::ddr5_3200_16gb().max_conditional_accesses(), 3);
    assert_eq!(DramTimings::ddr5_3200_8gb().max_conditional_accesses(), 2);
}

#[test]
fn claim_refreshed_rows_land_in_distinct_subarrays() {
    // §5: the per-REF row set spreads across subarrays, enabling
    // parallel refresh + access.
    let g = DeviceGeometry::ddr5_32gb();
    for ref_index in [0u32, 1000, 8191] {
        let rows = g.refreshed_rows(ref_index);
        let mut subarrays: Vec<_> = rows.iter().map(|&r| g.subarray_of(r)).collect();
        subarrays.sort();
        subarrays.dedup();
        assert_eq!(subarrays.len(), rows.len());
    }
}

#[test]
fn claim_86_percent_of_compression_ratio_survives_4_dimms() {
    // §6: "86.2% of the compression ratio of an in-order mapping is
    // maintained for a quad memory channel configuration."
    let rows = xfm::sim::figures::fig8_ratios(64 * 1024).unwrap();
    let mean: f64 = rows
        .iter()
        .map(xfm::sim::figures::Fig8Row::retention_4dimm)
        .sum::<f64>()
        / rows.len() as f64;
    assert!((0.75..1.0).contains(&mean), "mean retention {mean}");
}

#[test]
fn claim_multichannel_savings_losses_5_and_14_percent() {
    // §8: "2- and 4-channel modes reduce the memory savings from
    // compression by 5% and 14%."
    let rows = xfm::sim::figures::fig8_ratios(64 * 1024).unwrap();
    let (loss2, loss4) = xfm::sim::figures::fig8_mean_savings_loss(&rows);
    assert!((0.01..0.12).contains(&loss2), "2-DIMM {loss2}");
    assert!((0.08..0.22).contains(&loss4), "4-DIMM {loss4}");
}

#[test]
fn claim_8mb_spm_eliminates_fallbacks() {
    // §8 / Fig. 12: "regardless of the promotion rate, an 8MB SPM can
    // eliminate all CPU fall backs ... 3 NMA accesses per REF command."
    for pr in [0.5, 1.0] {
        let point = FallbackConfig {
            promotion_rate: pr,
            duration: Nanos::from_ms(150),
            ..FallbackConfig::default()
        };
        let r = simulate(&point.with_spm(ByteSize::from_mib(8)).with_accesses(3));
        assert!(
            r.fallback_fraction() < 0.01,
            "pr {pr}: {}",
            r.fallback_fraction()
        );
    }
}

#[test]
fn claim_majority_conditional_and_random_scales_with_rate() {
    // §8: "the majority of accesses can be accommodated with conditional
    // accesses" and "the rate of random accesses ... scale[s] with the
    // promotion rate."
    let at = |promotion_rate| {
        let point = FallbackConfig {
            promotion_rate,
            duration: Nanos::from_ms(100),
            ..FallbackConfig::default()
        };
        simulate(&point.with_spm(ByteSize::from_mib(8)))
    };
    let (lo, hi) = (at(0.25), at(1.0));
    assert!(lo.conditional_fraction() > 0.5);
    assert!(hi.conditional_fraction() > 0.5);
    assert!(hi.random_accesses > lo.random_accesses);
}

#[test]
fn claim_interference_ordering_and_combined_band() {
    // §8 / Fig. 11 + abstract: "5~27% improvement in the combined
    // performance of co-running applications."
    let cfg = CorunConfig::default();
    for mix in JobMix::figure11_mixes() {
        let cpu = evaluate(&mix, SfmMode::BaselineCpu, &cfg);
        let lock = evaluate(&mix, SfmMode::HostLockoutNma, &cfg);
        let xfm = evaluate(&mix, SfmMode::Xfm, &cfg);
        assert!(xfm.mean_slowdown <= 1.001, "{}", mix.name);
        assert!(cpu.mean_slowdown > 1.0);
        assert!(lock.mean_slowdown > cpu.mean_slowdown);
        assert!((0.05..0.25).contains(&cpu.sfm_degradation) || cpu.sfm_degradation > 0.02);
        let improvement = xfm.combined_throughput() / cpu.combined_throughput() - 1.0;
        assert!(
            (0.03..0.35).contains(&improvement),
            "{}: {improvement}",
            mix.name
        );
    }
}

#[test]
fn claim_69_percent_data_movement_energy_saving() {
    // §4.3: the on-DIMM path "cuts the overall data movement energy by
    // 69%".
    let saving = EnergyModel::default().interface_saving();
    assert!((saving - 0.69).abs() < 0.01, "{saving}");
}

#[test]
fn claim_conditional_access_energy_saving_near_10_percent() {
    // §8: "the conditional accesses enable XFM to reduce the NMA access
    // energy by 10.1% across various promotion rates."
    let fig12 = xfm::sim::figures::fig12_fallbacks(Nanos::from_ms(30));
    let e = xfm::sim::figures::energy_summary(&fig12);
    assert!(
        (0.05..0.18).contains(&e.conditional_saving),
        "{}",
        e.conditional_saving
    );
}

#[test]
fn claim_1tb_capacity_headroom() {
    // Abstract: "XFM eliminates memory bandwidth utilization when
    // performing compression and decompression operations with SFMs of
    // capacities up to 1TB."
    let cap = xfm::sim::figures::xfm_max_sfm_capacity(0.5, 8, 3, 2.5);
    let tb = cap.as_gib_f64() / 1024.0;
    assert!((0.5..2.0).contains(&tb), "{tb} TB");
}

#[test]
fn claim_tables_2_and_3_reproduce() {
    let m = xfm::sim::resource::FpgaResourceModel::xfm_prototype();
    let t = m.totals();
    assert_eq!((t.luts, t.ffs, t.brams), (435_467, 94_135, 51));
    let p = m.power();
    assert!((p.total_w() - 7.024).abs() < 1e-9);
}

#[test]
fn claim_dram_mod_overhead_tiny() {
    // §8: "~0.15% area and ~0.002% power overhead."
    let est = xfm::sim::resource::DramModOverhead::from_geometry(128, 16, 512);
    assert!(est.area_pct < 0.5, "{}", est.area_pct);
    assert!(est.power_pct < 0.01, "{}", est.power_pct);
}

#[test]
fn claim_all_bank_refresh_is_the_efficient_substrate() {
    // §2.2: "the all bank mode is still the most efficient way of
    // refreshing rows in a semi-parallel fashion" — and the better XFM
    // donor.
    let rows = ablation::refresh_mode_compare();
    assert!(rows[0].side_channel_gbps > rows[1].side_channel_gbps);
}

#[test]
fn claim_prediction_improves_xfm() {
    // Conclusion: "The benefits of XFM can be increased by improving the
    // far memory controller's proficiency at predicting application
    // memory access patterns."
    let sweep = ablation::prefetch_accuracy_sweep(Nanos::from_ms(40));
    let worst = sweep.first().unwrap();
    let best = sweep.last().unwrap();
    assert!(best.fallback_fraction < worst.fallback_fraction);
    assert!(best.random_fraction < worst.random_fraction);
}
