//! Physical-address-to-DRAM-coordinate mapping.
//!
//! Models the Intel Skylake interleaving the paper assumes (§5): physical
//! addresses are striped across channels at 256 B granularity and across a
//! bank pair at 128 B granularity, so a contiguous 4 KiB page is spread
//! over all channels and, within each channel, alternates between two
//! banks of the same row (Fig. 6a).
//!
//! The decomposition is a mixed-radix digit extraction, which keeps the
//! mapping a bijection even for non-power-of-two channel counts (the
//! paper's testbed has six channels).

use xfm_types::{
    BankId, ChannelId, ColId, DramCoord, Error, PageNumber, PhysAddr, RankId, Result, RowId,
    PAGE_SIZE,
};

use crate::geometry::SystemGeometry;

/// A configurable interleaved address mapping.
///
/// # Examples
///
/// ```
/// use xfm_dram::{AddressMapping, SystemGeometry};
/// use xfm_types::PhysAddr;
///
/// let map = AddressMapping::skylake(SystemGeometry::skylake_4ch());
/// let c0 = map.decompose(PhysAddr::new(0)).unwrap();
/// let c256 = map.decompose(PhysAddr::new(256)).unwrap();
/// // Consecutive 256 B chunks land on different channels...
/// assert_ne!(c0.channel, c256.channel);
/// let c128 = map.decompose(PhysAddr::new(128)).unwrap();
/// // ...and the two 128 B halves of a chunk land on a bank pair.
/// assert_ne!(c0.bank, c128.bank);
/// assert_eq!(c0.row, c128.row);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    /// Bytes of consecutive address space per channel stripe (Skylake: 256).
    pub channel_interleave: u64,
    /// Bytes of consecutive address space per bank stripe (Skylake: 128).
    pub bank_interleave: u64,
    geometry: SystemGeometry,
}

impl AddressMapping {
    /// Creates the Skylake-style mapping for `geometry`: 256 B channel
    /// interleave, 128 B bank interleave.
    #[must_use]
    pub fn skylake(geometry: SystemGeometry) -> Self {
        Self {
            channel_interleave: 256,
            bank_interleave: 128,
            geometry,
        }
    }

    /// Creates the view a single DIMM's near-memory accelerator has of its
    /// local memory: one channel (its own), banks still striped at 128 B.
    #[must_use]
    pub fn dimm_local(mut geometry: SystemGeometry) -> Self {
        geometry.channels = 1;
        Self {
            channel_interleave: 256,
            bank_interleave: 128,
            geometry,
        }
    }

    /// The system geometry this mapping addresses.
    #[must_use]
    pub fn geometry(&self) -> &SystemGeometry {
        &self.geometry
    }

    /// Number of banks a channel stripe is spread over
    /// (`channel_interleave / bank_interleave`; Skylake: 2).
    #[must_use]
    pub fn banks_per_stripe(&self) -> u64 {
        self.channel_interleave / self.bank_interleave
    }

    /// Granules (bank-interleave units) per rank-level row.
    fn granules_per_row(&self) -> u64 {
        u64::from(self.geometry.rank_row_bytes()) / self.bank_interleave
    }

    /// Decomposes a physical address into DRAM coordinates.
    ///
    /// The returned [`ColId`] indexes bank-interleave granules within the
    /// row; the sub-granule byte offset is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] when `addr` exceeds the modeled
    /// capacity.
    pub fn decompose(&self, addr: PhysAddr) -> Result<DramCoord> {
        let capacity = self.geometry.total_capacity().as_bytes();
        if addr.as_u64() >= capacity {
            return Err(Error::AddressOutOfRange {
                addr: addr.as_u64(),
                capacity,
            });
        }
        let g = &self.geometry;
        let stripe_banks = self.banks_per_stripe();

        // Mixed-radix digit extraction, LSB first:
        //   offset | bank_low | channel | col_high | bank_high | rank | row
        let mut rest = addr.as_u64() / self.bank_interleave;
        let bank_low = rest % stripe_banks;
        rest /= stripe_banks;
        let channel = rest % u64::from(g.channels);
        rest /= u64::from(g.channels);
        let cols_high = self.granules_per_row();
        let col_high = rest % cols_high;
        rest /= cols_high;
        let bank_pairs = u64::from(g.device.banks_per_chip) / stripe_banks;
        let bank_high = rest % bank_pairs;
        rest /= bank_pairs;
        let ranks = u64::from(g.ranks_per_channel());
        let rank = rest % ranks;
        rest /= ranks;
        let row = rest;
        debug_assert!(row < u64::from(g.device.rows_per_bank));

        // Within a row, granules owned by one bank are consecutive:
        // col = col_high; the bank is bank_high * stripe_banks + bank_low.
        Ok(DramCoord {
            channel: ChannelId::new(channel as u32),
            rank: RankId::new(rank as u32),
            bank: BankId::new((bank_high * stripe_banks + bank_low) as u32),
            row: RowId::new(row as u32),
            col: ColId::new(col_high as u32),
        })
    }

    /// Recomposes DRAM coordinates into the (granule-aligned) physical
    /// address. Inverse of [`AddressMapping::decompose`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any coordinate is out of range
    /// for the geometry.
    pub fn compose(&self, coord: DramCoord) -> Result<PhysAddr> {
        let g = &self.geometry;
        let stripe_banks = self.banks_per_stripe();
        let bank_pairs = u64::from(g.device.banks_per_chip) / stripe_banks;
        let cols_high = self.granules_per_row();
        let ranks = u64::from(g.ranks_per_channel());

        let bank = u64::from(coord.bank.index());
        let (bank_high, bank_low) = (bank / stripe_banks, bank % stripe_banks);
        if bank >= u64::from(g.device.banks_per_chip)
            || u64::from(coord.channel.index()) >= u64::from(g.channels)
            || u64::from(coord.rank.index()) >= ranks
            || u64::from(coord.row.index()) >= u64::from(g.device.rows_per_bank)
            || u64::from(coord.col.index()) >= cols_high
        {
            return Err(Error::InvalidConfig(format!(
                "coordinate {coord} out of range for geometry"
            )));
        }

        let mut addr = u64::from(coord.row.index());
        addr = addr * ranks + u64::from(coord.rank.index());
        addr = addr * bank_pairs + bank_high;
        addr = addr * cols_high + u64::from(coord.col.index());
        addr = addr * u64::from(g.channels) + u64::from(coord.channel.index());
        addr = addr * stripe_banks + bank_low;
        Ok(PhysAddr::new(addr * self.bank_interleave))
    }

    /// Returns the coordinates of every bank-interleave granule of a 4 KiB
    /// page, in address order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] when the page exceeds capacity.
    pub fn page_granules(&self, page: PageNumber) -> Result<Vec<DramCoord>> {
        let base = page.base_addr();
        (0..(PAGE_SIZE as u64 / self.bank_interleave))
            .map(|i| self.decompose(base + i * self.bank_interleave))
            .collect()
    }

    /// Returns the distinct `(channel, rank, bank, row)` locations a page
    /// touches — the rows the XFM scheduler must match against the refresh
    /// schedule to classify an access as *conditional*.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] when the page exceeds capacity.
    pub fn page_rows(&self, page: PageNumber) -> Result<Vec<(ChannelId, RankId, BankId, RowId)>> {
        let mut rows: Vec<_> = self
            .page_granules(page)?
            .into_iter()
            .map(|c| (c.channel, c.rank, c.bank, c.row))
            .collect();
        rows.sort();
        rows.dedup();
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geometry() -> SystemGeometry {
        // Keep rows small so exhaustive tests stay fast.
        SystemGeometry {
            channels: 2,
            dimms_per_channel: 1,
            ranks_per_dimm: 2,
            chips_per_rank: 8,
            device: crate::geometry::DeviceGeometry {
                rows_per_bank: 16 * 1024,
                banks_per_chip: 4,
                rows_per_subarray: 512,
                row_bytes_per_chip: 1024,
            },
        }
    }

    #[test]
    fn decompose_compose_round_trip_exhaustive_prefix() {
        let map = AddressMapping::skylake(small_geometry());
        for granule in 0..100_000u64 {
            let addr = PhysAddr::new(granule * 128);
            let coord = map.decompose(addr).unwrap();
            let back = map.compose(coord).unwrap();
            assert_eq!(back, addr, "granule {granule} -> {coord}");
        }
    }

    #[test]
    fn decompose_is_injective_over_prefix() {
        let map = AddressMapping::skylake(small_geometry());
        let mut seen = std::collections::HashSet::new();
        for granule in 0..50_000u64 {
            let coord = map.decompose(PhysAddr::new(granule * 128)).unwrap();
            assert!(seen.insert(coord), "duplicate coord {coord}");
        }
    }

    #[test]
    fn skylake_stripes_channels_at_256b() {
        let map = AddressMapping::skylake(SystemGeometry::skylake_4ch());
        let channels: Vec<u32> = (0..8)
            .map(|i| {
                map.decompose(PhysAddr::new(i * 256))
                    .unwrap()
                    .channel
                    .index()
            })
            .collect();
        assert_eq!(&channels[..4], &[0, 1, 2, 3]);
        assert_eq!(&channels[4..], &[0, 1, 2, 3]);
    }

    #[test]
    fn page_alternates_between_two_banks_same_row() {
        // Fig. 6a: single-channel view; a 4 KiB page alternates between
        // bank 0 and bank 1 of the same row.
        let mut g = small_geometry();
        g.channels = 1;
        let map = AddressMapping::skylake(g);
        let granules = map.page_granules(PageNumber::new(0)).unwrap();
        assert_eq!(granules.len(), 32);
        for (i, c) in granules.iter().enumerate() {
            assert_eq!(c.bank.index(), (i % 2) as u32, "granule {i}");
            assert_eq!(c.row.index(), 0);
        }
        let rows = map.page_rows(PageNumber::new(0)).unwrap();
        assert_eq!(rows.len(), 2); // two (bank,row) locations
    }

    #[test]
    fn four_channel_page_spreads_over_all_channels() {
        let map = AddressMapping::skylake(SystemGeometry::skylake_4ch());
        let rows = map.page_rows(PageNumber::new(3)).unwrap();
        let channels: std::collections::HashSet<_> =
            rows.iter().map(|(ch, _, _, _)| ch.index()).collect();
        assert_eq!(channels.len(), 4);
        // 4 channels x 2 banks = 8 (channel, bank, row) locations.
        assert_eq!(rows.len(), 8);
    }

    #[test]
    fn six_channel_mapping_stays_bijective() {
        // Non-power-of-two channel count (the paper's testbed).
        let mut g = small_geometry();
        g.channels = 6;
        let map = AddressMapping::skylake(g);
        for granule in 0..60_000u64 {
            let addr = PhysAddr::new(granule * 128);
            let coord = map.decompose(addr).unwrap();
            assert_eq!(map.compose(coord).unwrap(), addr);
        }
    }

    #[test]
    fn dimm_local_mapping_keeps_page_in_one_channel() {
        let map = AddressMapping::dimm_local(small_geometry());
        let rows = map.page_rows(PageNumber::new(7)).unwrap();
        assert!(rows.iter().all(|(ch, _, _, _)| ch.index() == 0));
    }

    #[test]
    fn out_of_range_address_rejected() {
        let map = AddressMapping::skylake(small_geometry());
        let cap = map.geometry().total_capacity().as_bytes();
        assert!(matches!(
            map.decompose(PhysAddr::new(cap)),
            Err(Error::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn compose_rejects_out_of_range_coord() {
        let map = AddressMapping::skylake(small_geometry());
        let bad = DramCoord {
            bank: BankId::new(99),
            ..DramCoord::default()
        };
        assert!(map.compose(bad).is_err());
    }

    #[test]
    fn last_valid_address_round_trips() {
        let map = AddressMapping::skylake(small_geometry());
        let cap = map.geometry().total_capacity().as_bytes();
        let addr = PhysAddr::new(cap - 128);
        let coord = map.decompose(addr).unwrap();
        assert_eq!(map.compose(coord).unwrap(), addr);
    }
}
