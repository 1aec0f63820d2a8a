//! Property-based tests for the DRAM substrate.

use proptest::prelude::*;
use xfm_dram::{AddressMapping, DeviceGeometry, DramTimings, RefreshScheduler, SystemGeometry};
use xfm_types::{Nanos, PhysAddr, RowId};

fn arb_geometry() -> impl Strategy<Value = SystemGeometry> {
    (
        1u32..=6,                            // channels (incl. non-power-of-two)
        prop::sample::select(vec![1u32, 2]), // dimms per channel
        prop::sample::select(vec![1u32, 2]), // ranks per dimm
        prop::sample::select(vec![16u32 * 1024, 32 * 1024, 64 * 1024]),
        prop::sample::select(vec![4u32, 8, 16]),
    )
        .prop_map(|(channels, dimms, ranks, rows, banks)| SystemGeometry {
            channels,
            dimms_per_channel: dimms,
            ranks_per_dimm: ranks,
            chips_per_rank: 8,
            device: DeviceGeometry {
                rows_per_bank: rows,
                banks_per_chip: banks,
                rows_per_subarray: 512,
                row_bytes_per_chip: 1024,
            },
        })
}

proptest! {
    /// decompose/compose is a bijection on granule-aligned addresses for
    /// arbitrary geometries.
    #[test]
    fn mapping_round_trips(geometry in arb_geometry(), granule in 0u64..1_000_000) {
        let map = AddressMapping::skylake(geometry);
        let capacity = geometry.total_capacity().as_bytes();
        let addr = PhysAddr::new((granule * 128) % capacity).align_down(128);
        let coord = map.decompose(addr).unwrap();
        prop_assert_eq!(map.compose(coord).unwrap(), addr);
    }

    /// A page's granules always touch exactly `channels x 2` distinct
    /// (channel, bank, row) locations under the Skylake mapping.
    #[test]
    fn page_rows_count_matches_interleave(geometry in arb_geometry(), page in 0u64..10_000) {
        let map = AddressMapping::skylake(geometry);
        let pages = geometry.total_capacity().as_pages();
        let page = xfm_types::PageNumber::new(page % pages);
        let rows = map.page_rows(page).unwrap();
        // 4 KiB / 256 B = 16 channel-stripes; each stripe covers 2 banks.
        let expected = (geometry.channels as usize * 2).min(32);
        prop_assert_eq!(rows.len(), expected);
    }

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

    /// The refresh calendar is consistent: `window_at` agrees with
    /// `window`, and `next_window_refreshing` really refreshes the row.
    #[test]
    fn refresh_calendar_consistency(time_ns in 0u64..100_000_000, row in 0u32..65_536) {
        let sched = RefreshScheduler::new(
            DramTimings::paper_emulator(),
            DeviceGeometry::ddr4_8gb(),
        );
        let time = Nanos::from_ns(time_ns);
        if let Some(w) = sched.window_at(time) {
            prop_assert!(w.contains(time));
            prop_assert_eq!(sched.window(w.index), w);
        }
        let row = RowId::new(row % sched.geometry().rows_per_bank);
        let w = sched.next_window_refreshing(row, time);
        prop_assert!(sched.is_row_refreshed_in(row, &w));
        prop_assert!(w.start >= time || w.contains(time) || w.end > time);
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
