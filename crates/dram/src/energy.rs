//! Per-access DRAM energy model.
//!
//! The model separates three energy components per moved byte:
//!
//! 1. **Array energy** — activating (sensing + restoring) a row;
//! 2. **Internal read/write energy** — moving data between the local row
//!    buffer and the chip I/O;
//! 3. **Interface energy** — driving either the long DDR channel to the
//!    CPU or the short on-DIMM PCB track to the NMA.
//!
//! The on-DIMM serial link is modeled at 1.17 pJ/bit (Wilson et al.,
//! cited by the paper §4.1); the DDR channel at 3.77 pJ/bit, so moving a
//! byte over the on-DIMM path instead of the DDR channel cuts interface
//! ("data movement") energy by 69% — the paper's §4.3 claim.
//! Conditional accesses additionally skip row activation, because the
//! refresh operation was going to activate (sense + restore) the row
//! anyway; this produces the paper's §8 "10.1% NMA access energy
//! reduction" once weighted by the conditional/random mix.

use xfm_types::ByteSize;

/// Joules, as a plain f64 newtype-free unit (documented per field).
///
/// Energy model parameters and per-access accounting.
///
/// # Examples
///
/// ```
/// use xfm_dram::EnergyModel;
/// use xfm_types::ByteSize;
///
/// let e = EnergyModel::default();
/// let page = ByteSize::from_kib(4);
/// // A mix of conditional accesses, which ride the refresh's own row
/// // activation, saves energy against an all-random one.
/// assert!(e.conditional_saving(page, 80, 20) > 0.0);
/// // The interface-energy saving is ~69%.
/// assert!((e.interface_saving() - 0.69).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy to activate + restore one rank-level row, in nanojoules.
    pub act_nj_per_row: f64,
    /// Internal array-to-IO read energy, picojoules per bit.
    pub internal_pj_per_bit: f64,
    /// DDR channel interface energy, picojoules per bit.
    pub ddr_io_pj_per_bit: f64,
    /// On-DIMM serial link energy, picojoules per bit (Wilson et al.).
    pub dimm_link_pj_per_bit: f64,
}

impl EnergyModel {
    /// Fraction of interface energy saved by the on-DIMM path
    /// (paper §4.3: 69%).
    #[must_use]
    pub fn interface_saving(&self) -> f64 {
        1.0 - self.dimm_link_pj_per_bit / self.ddr_io_pj_per_bit
    }

    /// Energy (nJ) for the NMA to read a page of `bytes` over the on-DIMM
    /// link. A *conditional* access (`piggybacks_on_refresh = true`) skips
    /// the row activations because the refresh performs them regardless;
    /// a *random* access pays for activating the bank pair.
    fn nma_page_read_nj(&self, bytes: ByteSize, piggybacks_on_refresh: bool) -> f64 {
        let bits = bytes.as_bytes() as f64 * 8.0;
        let act = if piggybacks_on_refresh {
            0.0
        } else {
            // A 4 KiB page spans a bank pair (Fig. 6a): two activations.
            2.0 * self.act_nj_per_row
        };
        act + bits * (self.internal_pj_per_bit + self.dimm_link_pj_per_bit) / 1000.0
    }

    /// Average NMA access-energy saving of a workload that performed
    /// `conditional` conditional and `random` random page accesses,
    /// relative to an all-random baseline (paper §8: 10.1% on average).
    #[must_use]
    pub fn conditional_saving(
        &self,
        bytes_per_access: ByteSize,
        conditional: u64,
        random: u64,
    ) -> f64 {
        let total = conditional + random;
        if total == 0 {
            return 0.0;
        }
        let all_random = total as f64 * self.nma_page_read_nj(bytes_per_access, false);
        let actual = conditional as f64 * self.nma_page_read_nj(bytes_per_access, true)
            + random as f64 * self.nma_page_read_nj(bytes_per_access, false);
        1.0 - actual / all_random
    }
}

impl Default for EnergyModel {
    /// DDR4-class parameters: 15 nJ per row activation, 4 pJ/bit internal
    /// transfer, 3.77 pJ/bit DDR channel I/O, 1.17 pJ/bit on-DIMM link.
    fn default() -> Self {
        Self {
            act_nj_per_row: 15.0,
            internal_pj_per_bit: 4.0,
            ddr_io_pj_per_bit: 3.77,
            dimm_link_pj_per_bit: 1.17,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interface_saving_is_69_percent() {
        let e = EnergyModel::default();
        assert!((e.interface_saving() - 0.6897).abs() < 0.001);
    }

    #[test]
    fn conditional_access_skips_activation_energy() {
        let e = EnergyModel::default();
        let page = ByteSize::from_kib(4);
        let cond = e.nma_page_read_nj(page, true);
        let rand = e.nma_page_read_nj(page, false);
        assert!((rand - cond - 30.0).abs() < 1e-9); // 2 x 15 nJ
    }

    #[test]
    fn all_conditional_mix_maximizes_saving() {
        let e = EnergyModel::default();
        let page = ByteSize::from_kib(4);
        let all_cond = e.conditional_saving(page, 100, 0);
        let mixed = e.conditional_saving(page, 80, 20);
        let none = e.conditional_saving(page, 0, 100);
        assert!(all_cond > mixed && mixed > none);
        assert_eq!(none, 0.0);
        // At a ~85% conditional share the saving lands near the paper's
        // reported 10.1% average.
        let paper_like = e.conditional_saving(page, 85, 15);
        assert!(paper_like > 0.08 && paper_like < 0.16, "{paper_like}");
    }

    #[test]
    fn empty_mix_saves_nothing() {
        let e = EnergyModel::default();
        assert_eq!(e.conditional_saving(ByteSize::from_kib(4), 0, 0), 0.0);
    }
}
