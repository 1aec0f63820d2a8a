//! EQ2–EQ5: cost and emission trajectories for each deployment kind.

use crate::params::CostParams;

/// Hours in a (365-day) year.
const HOURS_PER_YEAR: f64 = 24.0 * 365.0;

/// The far-memory deployment being costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FarMemoryKind {
    /// Disaggregated far memory built from new DRAM DIMMs.
    DfmDram,
    /// Disaggregated far memory built from persistent-memory DIMMs.
    DfmPmem,
    /// Software-defined far memory (CPU compression).
    Sfm,
    /// SFM with an on-chip compression accelerator (§3.2's QAT case).
    SfmAccelerated,
}

impl FarMemoryKind {
    /// All four deployment kinds.
    #[must_use]
    pub fn all() -> [FarMemoryKind; 4] {
        [
            FarMemoryKind::DfmDram,
            FarMemoryKind::DfmPmem,
            FarMemoryKind::Sfm,
            FarMemoryKind::SfmAccelerated,
        ]
    }

    /// Display label matching Fig. 3's legend.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FarMemoryKind::DfmDram => "DFM (DRAM)",
            FarMemoryKind::DfmPmem => "DFM (PMem)",
            FarMemoryKind::Sfm => "SFM",
            FarMemoryKind::SfmAccelerated => "SFM (accel)",
        }
    }
}

/// The §3 model.
///
/// # Examples
///
/// ```
/// use xfm_cost::{CostParams, FarMemoryKind, FarMemoryModel};
///
/// let m = FarMemoryModel::new(CostParams::paper());
/// // SFM starts cheaper than a DRAM DFM of the same capacity...
/// assert!(
///     m.cost_usd(FarMemoryKind::Sfm, 1.0, 0.0)
///         < m.cost_usd(FarMemoryKind::DfmDram, 1.0, 0.0)
/// );
/// // ...and emits far less CO2e over a 5-year server lifetime.
/// assert!(
///     m.emissions_kg(FarMemoryKind::Sfm, 1.0, 5.0)
///         < m.emissions_kg(FarMemoryKind::DfmDram, 1.0, 5.0)
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FarMemoryModel {
    params: CostParams,
}

impl FarMemoryModel {
    /// Creates the model.
    #[must_use]
    pub fn new(params: CostParams) -> Self {
        Self { params }
    }

    /// The parameters in use.
    #[must_use]
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// EQ2.1: PCIe transfer energy (kWh) over `years` at `promotion_rate`.
    #[must_use]
    pub fn pcie_energy_kwh(&self, promotion_rate: f64, years: f64) -> f64 {
        self.params.pcie_kwh_per_gb * self.params.gb_swapped(promotion_rate, years)
    }

    /// EQ2.2 (cleaned up): idle energy (kWh) of the extra DIMMs over
    /// `years`.
    #[must_use]
    pub fn idle_dimm_energy_kwh(&self, dimm: xfm_types::ByteSize, years: f64) -> f64 {
        let dimms = self.params.dfm_dimm_count(dimm);
        dimms * self.params.idle_dimm_watts / 1000.0 * HOURS_PER_YEAR * years
    }

    /// SFM (de)compression energy (kWh) over `years`.
    #[must_use]
    pub fn sfm_energy_kwh(&self, promotion_rate: f64, years: f64) -> f64 {
        self.params.energy_kwh_per_gb * self.params.gb_swapped(promotion_rate, years)
    }

    /// EQ3.1: up-front cost of the CPU capacity SFM must provision.
    #[must_use]
    pub fn sfm_cpu_cost(&self, promotion_rate: f64) -> f64 {
        self.params.cpu_fraction_needed(promotion_rate) * self.params.cpu_price
    }

    /// EQ2/EQ3: cumulative capital + operational cost (USD) after
    /// `years` at `promotion_rate`.
    #[must_use]
    pub fn cost_usd(&self, kind: FarMemoryKind, promotion_rate: f64, years: f64) -> f64 {
        let p = &self.params;
        let elec = p.electricity_cost_per_kwh;
        match kind {
            FarMemoryKind::DfmDram => {
                p.extra_capacity.as_gib_f64() * p.dram_cost_per_gb
                    + (self.pcie_energy_kwh(promotion_rate, years)
                        + self.idle_dimm_energy_kwh(p.dram_dimm, years))
                        * elec
            }
            FarMemoryKind::DfmPmem => {
                p.extra_capacity.as_gib_f64() * p.pmem_cost_per_gb
                    + (self.pcie_energy_kwh(promotion_rate, years)
                        + self.idle_dimm_energy_kwh(p.pmem_dimm, years))
                        * elec
            }
            FarMemoryKind::Sfm => {
                self.sfm_cpu_cost(promotion_rate)
                    + self.sfm_energy_kwh(promotion_rate, years) * elec
            }
            FarMemoryKind::SfmAccelerated => {
                // §3.2: the accelerator absorbs the codec cycles but
                // "comes at the cost of consuming a physical core to
                // manage the offload operations", plus its own price.
                let management = p.cpu_price / f64::from(p.cpu_cores);
                management + p.accelerator_price + self.sfm_energy_kwh(promotion_rate, years) * elec
            }
        }
    }

    /// EQ4/EQ5: cumulative embodied + operational emissions (kg CO2e)
    /// after `years` at `promotion_rate`.
    #[must_use]
    pub fn emissions_kg(&self, kind: FarMemoryKind, promotion_rate: f64, years: f64) -> f64 {
        let p = &self.params;
        let grid = p.electricity_kg_co2_per_kwh;
        match kind {
            FarMemoryKind::DfmDram => {
                p.extra_capacity.as_gib_f64() * p.dram_kg_co2_per_gb
                    + self.idle_dimm_energy_kwh(p.dram_dimm, years) * grid
            }
            FarMemoryKind::DfmPmem => {
                p.extra_capacity.as_gib_f64() * p.pmem_kg_co2_per_gb
                    + self.idle_dimm_energy_kwh(p.pmem_dimm, years) * grid
            }
            FarMemoryKind::Sfm => {
                let cores =
                    self.params.cpu_fraction_needed(promotion_rate) * f64::from(p.cpu_cores);
                cores * p.core_kg_co2 + self.sfm_energy_kwh(promotion_rate, years) * grid
            }
            FarMemoryKind::SfmAccelerated => {
                // One management core embodied plus accelerator silicon
                // (approximated as one core equivalent).
                2.0 * p.core_kg_co2 + self.sfm_energy_kwh(promotion_rate, years) * grid
            }
        }
    }

    /// Years until SFM's cumulative cost reaches `dfm`'s (the Fig. 3
    /// cross-over), or `None` if SFM never catches up within 100 years
    /// (or starts above and stays above — no meaningful break-even).
    #[must_use]
    pub fn cost_breakeven_years(&self, dfm: FarMemoryKind, promotion_rate: f64) -> Option<f64> {
        crate::breakeven::breakeven_years(
            |t| self.cost_usd(FarMemoryKind::Sfm, promotion_rate, t),
            |t| self.cost_usd(dfm, promotion_rate, t),
        )
    }

    /// Years until SFM's cumulative emissions reach `dfm`'s.
    #[must_use]
    pub fn emission_breakeven_years(&self, dfm: FarMemoryKind, promotion_rate: f64) -> Option<f64> {
        crate::breakeven::breakeven_years(
            |t| self.emissions_kg(FarMemoryKind::Sfm, promotion_rate, t),
            |t| self.emissions_kg(dfm, promotion_rate, t),
        )
    }

    /// §3.2: the promotion rate above which the on-chip accelerator
    /// pays for itself (paper: ~6%), judged on day-0 capital.
    #[must_use]
    pub fn accelerator_breakeven_promotion_rate(&self) -> f64 {
        // Bisection on the capital-cost difference.
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            let plain = self.cost_usd(FarMemoryKind::Sfm, mid, 0.0);
            let accel = self.cost_usd(FarMemoryKind::SfmAccelerated, mid, 0.0);
            if plain > accel {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

impl Default for FarMemoryModel {
    fn default() -> Self {
        Self::new(CostParams::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FarMemoryModel {
        FarMemoryModel::default()
    }

    #[test]
    fn dram_dfm_cost_breakeven_is_about_8_5_years() {
        // "It takes 8.5 years for SFM to break even with the cost of a
        // DRAM-based DFM" (at 100% promotion rate).
        let years = model()
            .cost_breakeven_years(FarMemoryKind::DfmDram, 1.0)
            .expect("break-even exists");
        assert!((8.0..9.0).contains(&years), "{years}");
    }

    #[test]
    fn sfm_cheaper_than_dram_dfm_at_any_rate_initially() {
        // "Even at a promotion rate of 100%, an SFM is more
        // cost-effective than a DRAM-based DFM counterpart."
        let m = model();
        for rate in [0.0, 0.2, 0.5, 1.0] {
            assert!(
                m.cost_usd(FarMemoryKind::Sfm, rate, 0.0)
                    < m.cost_usd(FarMemoryKind::DfmDram, rate, 0.0),
                "rate {rate}"
            );
        }
    }

    #[test]
    fn sfm_at_20_percent_beats_pmem_for_a_decade() {
        // "At a 20% promotion rate, SFM may prove more cost-effective,
        // even when compared to a PMem-based DFM."
        let m = model();
        for years in [0.0, 2.0, 5.0, 10.0] {
            assert!(
                m.cost_usd(FarMemoryKind::Sfm, 0.2, years)
                    < m.cost_usd(FarMemoryKind::DfmPmem, 0.2, years),
                "year {years}"
            );
        }
    }

    #[test]
    fn dram_emissions_never_break_even_in_server_lifetime() {
        // "DRAM-based DFM and SFM never break even in terms of carbon
        // emissions during the typical 5-year lifetime of a server."
        let m = model();
        for rate in [0.2, 1.0] {
            if let Some(t) = m.emission_breakeven_years(FarMemoryKind::DfmDram, rate) {
                assert!(t > 5.0, "rate {rate}: broke even at {t}")
            }
        }
    }

    #[test]
    fn pmem_emissions_break_even_after_several_years() {
        // "Even with PMem, it can take several years for SFM with a 20%
        // promotion rate to break even in emissions."
        let t = model()
            .emission_breakeven_years(FarMemoryKind::DfmPmem, 0.2)
            .expect("PMem emission break-even exists");
        assert!(t > 3.0, "{t}");
    }

    #[test]
    fn accelerator_threshold_near_6_percent() {
        // "An integrated hardware accelerator becomes beneficial when
        // the average promotion rate is higher than 6% in a 512GB SFM."
        let rate = model().accelerator_breakeven_promotion_rate();
        assert!((0.04..0.08).contains(&rate), "{rate}");
    }

    #[test]
    fn costs_monotone_in_time_and_rate() {
        let m = model();
        for kind in FarMemoryKind::all() {
            assert!(
                m.cost_usd(kind, 0.5, 5.0) >= m.cost_usd(kind, 0.5, 1.0),
                "{kind:?}"
            );
            assert!(
                m.cost_usd(kind, 1.0, 5.0) >= m.cost_usd(kind, 0.1, 5.0),
                "{kind:?}"
            );
            assert!(
                m.emissions_kg(kind, 0.5, 5.0) >= m.emissions_kg(kind, 0.5, 1.0),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn pmem_cheaper_capex_than_dram() {
        let m = model();
        assert!(
            m.cost_usd(FarMemoryKind::DfmPmem, 0.0, 0.0)
                < m.cost_usd(FarMemoryKind::DfmDram, 0.0, 0.0)
        );
        assert!(
            m.emissions_kg(FarMemoryKind::DfmPmem, 0.0, 0.0)
                < m.emissions_kg(FarMemoryKind::DfmDram, 0.0, 0.0)
        );
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = FarMemoryKind::all().iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }
}
