//! DRAM coordinate types: channel, DIMM, rank, bank, subarray, row, column.
//!
//! The DRAM main-memory system is a five-dimensional hierarchy (paper §2.2):
//! channels contain ranks, ranks contain banks, banks contain subarrays of
//! rows. Each level gets its own index newtype so a bank index can never be
//! passed where a row index is expected.

use core::fmt;

macro_rules! coord_newtype {
    ($(#[$meta:meta])* $name:ident, $display:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u32);

        impl $name {
            /// Creates an index from a raw value.
            #[must_use]
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the raw index.
            #[must_use]
            pub const fn index(self) -> u32 {
                self.0
            }

            /// Returns the raw index as `usize` for slice indexing.
            #[must_use]
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($display, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(index: u32) -> Self {
                Self::new(index)
            }
        }
    };
}

coord_newtype!(
    /// Index of a DDR channel.
    ChannelId,
    "ch"
);
coord_newtype!(
    /// Index of a DIMM within a channel.
    DimmId,
    "dimm"
);
coord_newtype!(
    /// Index of a rank within a channel.
    RankId,
    "rank"
);
coord_newtype!(
    /// Index of a bank within a rank.
    BankId,
    "bank"
);
coord_newtype!(
    /// Index of a subarray within a bank (each subarray holds 512 rows and
    /// has its own local row buffer — the structure XFM's Fig. 7 latches
    /// exploit).
    SubarrayId,
    "sa"
);
coord_newtype!(
    /// Index of a row within a bank.
    RowId,
    "row"
);
coord_newtype!(
    /// Column (burst-granule) index within a row.
    ColId,
    "col"
);

/// A fully-resolved DRAM location produced by the address mapping.
///
/// # Examples
///
/// ```
/// use xfm_types::{BankId, ChannelId, ColId, DramCoord, RankId, RowId};
///
/// let c = DramCoord {
///     channel: ChannelId::new(0),
///     rank: RankId::new(1),
///     bank: BankId::new(3),
///     row: RowId::new(0x1f00),
///     col: ColId::new(2),
/// };
/// assert_eq!(c.to_string(), "ch0/rank1/bank3/row7936/col2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DramCoord {
    /// DDR channel.
    pub channel: ChannelId,
    /// Rank within the channel.
    pub rank: RankId,
    /// Bank within the rank.
    pub bank: BankId,
    /// Row within the bank.
    pub row: RowId,
    /// Column (burst granule) within the row.
    pub col: ColId,
}

impl fmt::Display for DramCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/rank{}/bank{}/row{}/col{}",
            self.channel.index(),
            self.rank.index(),
            self.bank.index(),
            self.row.index(),
            self.col.index()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtype_round_trip() {
        assert_eq!(ChannelId::new(3).index(), 3);
        assert_eq!(BankId::from(7u32).as_usize(), 7);
        assert_eq!(RowId::new(65535).index(), 65535);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ChannelId::new(1).to_string(), "ch1");
        assert_eq!(RankId::new(0).to_string(), "rank0");
        assert_eq!(SubarrayId::new(255).to_string(), "sa255");
    }

    #[test]
    fn ordering_is_derived_per_field() {
        let a = DramCoord {
            row: RowId::new(1),
            ..DramCoord::default()
        };
        let b = DramCoord {
            row: RowId::new(2),
            ..DramCoord::default()
        };
        assert!(a < b);
    }
}
