//! Property-based tests for the DRAM substrate.

use proptest::prelude::*;
use xfm_dram::{DeviceGeometry, DramTimings, RefreshScheduler};
use xfm_types::{Nanos, RowId};

proptest! {
    /// Every REF index refreshes rows in pairwise-distinct subarrays.
    #[test]
    fn refreshed_rows_hit_distinct_subarrays(ref_index in 0u32..8192) {
        for device in [
            DeviceGeometry::ddr5_8gb(),
            DeviceGeometry::ddr5_16gb(),
            DeviceGeometry::ddr5_32gb(),
        ] {
            let rows = device.refreshed_rows(ref_index);
            let mut subarrays: Vec<_> =
                rows.iter().map(|&r| device.subarray_of(r)).collect();
            subarrays.sort();
            subarrays.dedup();
            prop_assert_eq!(subarrays.len(), rows.len());
        }
    }

    /// The refresh calendar is consistent: `next_window_refreshing`
    /// really refreshes the row, in a window that opens at or after the
    /// time asked about.
    #[test]
    fn refresh_calendar_consistency(time_ns in 0u64..100_000_000, row in 0u32..65_536) {
        let sched = RefreshScheduler::new(
            DramTimings::paper_emulator(),
            DeviceGeometry::ddr4_8gb(),
        );
        let time = Nanos::from_ns(time_ns);
        let row = RowId::new(row % sched.geometry().rows_per_bank);
        let w = sched.next_window_refreshing(row, time);
        prop_assert!(sched.is_row_refreshed_in(row, &w));
        prop_assert!(w.start >= time);
    }

    /// Conditional-access capacity is monotone in tRFC.
    #[test]
    fn conditional_capacity_monotone_in_trfc(trfc_ns in 1u64..2_000) {
        let base = DramTimings::ddr5_3200_32gb();
        let smaller = DramTimings { t_rfc: Nanos::from_ns(trfc_ns), ..base };
        let larger = DramTimings { t_rfc: Nanos::from_ns(trfc_ns + 100), ..base };
        prop_assert!(
            larger.max_conditional_accesses() >= smaller.max_conditional_accesses()
        );
    }
}
