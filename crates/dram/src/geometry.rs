//! DRAM device geometry.
//!
//! [`DeviceGeometry`] describes one DRAM chip (Table 1 of the paper) and
//! provides its subarray and refresh-schedule arithmetic.

use xfm_types::{RowId, SubarrayId};

use crate::timing::REFS_PER_RETENTION;

/// Geometry of a single DRAM chip (device).
///
/// # Examples
///
/// ```
/// use xfm_dram::DeviceGeometry;
///
/// let d = DeviceGeometry::ddr5_32gb();
/// assert_eq!(d.rows_per_bank, 128 * 1024);
/// assert_eq!(d.banks_per_chip, 32);
/// assert_eq!(d.subarrays_per_bank(), 256);
/// assert_eq!(d.rows_per_ref(), 16); // Table 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceGeometry {
    /// Rows in each bank.
    pub rows_per_bank: u32,
    /// Banks in the chip.
    pub banks_per_chip: u32,
    /// Rows in each subarray (paper assumes 512, after SALP).
    pub rows_per_subarray: u32,
}

impl DeviceGeometry {
    /// DDR4 8 Gb x8 device: 64 K rows x 16 banks.
    #[must_use]
    pub const fn ddr4_8gb() -> Self {
        Self {
            rows_per_bank: 64 * 1024,
            banks_per_chip: 16,
            rows_per_subarray: 512,
        }
    }

    /// DDR5 8 Gb device (Table 1: 64 K rows/bank, 16 banks).
    #[must_use]
    pub const fn ddr5_8gb() -> Self {
        Self {
            rows_per_bank: 64 * 1024,
            banks_per_chip: 16,
            rows_per_subarray: 512,
        }
    }

    /// DDR5 16 Gb device (Table 1: 64 K rows/bank, 32 banks).
    #[must_use]
    pub const fn ddr5_16gb() -> Self {
        Self {
            rows_per_bank: 64 * 1024,
            banks_per_chip: 32,
            rows_per_subarray: 512,
        }
    }

    /// DDR5 32 Gb device (Table 1: 128 K rows/bank, 32 banks).
    #[must_use]
    pub const fn ddr5_32gb() -> Self {
        Self {
            rows_per_bank: 128 * 1024,
            banks_per_chip: 32,
            rows_per_subarray: 512,
        }
    }

    /// Number of subarrays in each bank (Table 1: 128 or 256).
    #[must_use]
    pub fn subarrays_per_bank(&self) -> u32 {
        self.rows_per_bank / self.rows_per_subarray
    }

    /// Rows of a bank refreshed during each `tRFC` (Table 1: 8 or 16):
    /// `rows_per_bank / 8192`.
    #[must_use]
    pub fn rows_per_ref(&self) -> u32 {
        (u64::from(self.rows_per_bank) / REFS_PER_RETENTION) as u32
    }

    /// Subarray that contains `row`.
    #[must_use]
    pub fn subarray_of(&self, row: RowId) -> SubarrayId {
        SubarrayId::new(row.index() / self.rows_per_subarray)
    }

    /// The set of rows refreshed in *every* bank by REF command
    /// `ref_index` (0..8192): rows `ref_index + k·8192`.
    ///
    /// Because consecutive entries are 8192 rows (16 subarrays) apart, each
    /// refreshed row lands in a different subarray — the property XFM's
    /// conditional accesses rely on (paper §5).
    ///
    /// # Panics
    ///
    /// Panics if `ref_index >= 8192`.
    #[must_use]
    pub fn refreshed_rows(&self, ref_index: u32) -> Vec<RowId> {
        let mut rows = Vec::with_capacity(self.rows_per_ref() as usize);
        self.refreshed_rows_into(ref_index, &mut rows);
        rows
    }

    /// Allocation-free variant of [`DeviceGeometry::refreshed_rows`]:
    /// clears `out` and fills it with the refreshed rows. Hot simulation
    /// loops call this once per window, so the buffer must be reusable.
    ///
    /// # Panics
    ///
    /// Panics if `ref_index` is outside `0..8192`.
    pub fn refreshed_rows_into(&self, ref_index: u32, out: &mut Vec<RowId>) {
        assert!(
            u64::from(ref_index) < REFS_PER_RETENTION,
            "ref_index must be < 8192"
        );
        out.clear();
        out.extend(
            (0..self.rows_per_ref()).map(|k| RowId::new(ref_index + k * REFS_PER_RETENTION as u32)),
        );
    }

    /// Validates the geometry (power-of-two fields, divisibility).
    ///
    /// # Errors
    ///
    /// Returns [`xfm_types::Error::InvalidConfig`] when rows/banks are not
    /// powers of two or the subarray size does not divide the bank.
    pub fn validate(&self) -> xfm_types::Result<()> {
        for (name, v) in [
            ("rows_per_bank", self.rows_per_bank),
            ("banks_per_chip", self.banks_per_chip),
            ("rows_per_subarray", self.rows_per_subarray),
        ] {
            if !v.is_power_of_two() {
                return Err(xfm_types::Error::InvalidConfig(format!(
                    "{name} must be a power of two, got {v}"
                )));
            }
        }
        if !self.rows_per_bank.is_multiple_of(self.rows_per_subarray) {
            return Err(xfm_types::Error::InvalidConfig(
                "rows_per_subarray must divide rows_per_bank".into(),
            ));
        }
        if u64::from(self.rows_per_bank) < REFS_PER_RETENTION {
            return Err(xfm_types::Error::InvalidConfig(
                "rows_per_bank must be at least 8192".into(),
            ));
        }
        Ok(())
    }
}

impl Default for DeviceGeometry {
    fn default() -> Self {
        Self::ddr4_8gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_derived_values() {
        // Table 1 of the paper.
        let d8 = DeviceGeometry::ddr5_8gb();
        assert_eq!(d8.rows_per_ref(), 8);
        assert_eq!(d8.subarrays_per_bank(), 128);

        let d16 = DeviceGeometry::ddr5_16gb();
        assert_eq!(d16.rows_per_ref(), 8);
        assert_eq!(d16.subarrays_per_bank(), 128);

        let d32 = DeviceGeometry::ddr5_32gb();
        assert_eq!(d32.rows_per_ref(), 16);
        assert_eq!(d32.subarrays_per_bank(), 256);
    }

    #[test]
    fn refreshed_rows_are_in_distinct_subarrays() {
        // Paper §5: "it is safe to assume that the rows refreshed within a
        // bank each belong to a different subarray."
        let d = DeviceGeometry::ddr5_32gb();
        for ref_index in [0u32, 1, 511, 512, 4096, 8191] {
            let rows = d.refreshed_rows(ref_index);
            assert_eq!(rows.len(), 16);
            let mut subarrays: Vec<_> = rows.iter().map(|&r| d.subarray_of(r)).collect();
            subarrays.sort();
            subarrays.dedup();
            assert_eq!(subarrays.len(), 16, "ref {ref_index}");
        }
    }

    #[test]
    fn every_row_refreshed_exactly_once_per_retention() {
        let d = DeviceGeometry::ddr5_8gb();
        let mut seen = vec![false; d.rows_per_bank as usize];
        for ref_index in 0..8192 {
            for row in d.refreshed_rows(ref_index) {
                let idx = row.index() as usize;
                assert!(!seen[idx], "row {idx} refreshed twice");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some rows never refreshed");
    }

    #[test]
    #[should_panic(expected = "8192")]
    fn refreshed_rows_rejects_out_of_range_index() {
        let _ = DeviceGeometry::ddr5_8gb().refreshed_rows(8192);
    }

    #[test]
    fn subarray_of_uses_row_division() {
        let d = DeviceGeometry::ddr5_8gb();
        assert_eq!(d.subarray_of(RowId::new(0)).index(), 0);
        assert_eq!(d.subarray_of(RowId::new(511)).index(), 0);
        assert_eq!(d.subarray_of(RowId::new(512)).index(), 1);
    }

    #[test]
    fn geometry_validation() {
        let mut bad = DeviceGeometry::ddr4_8gb();
        bad.rows_per_subarray = 500;
        assert!(bad.validate().is_err());
    }
}
