//! DRAM coordinate types: subarray and row.
//!
//! The DRAM main-memory system is a five-dimensional hierarchy (paper §2.2):
//! channels contain ranks, ranks contain banks, banks contain subarrays of
//! rows. The refresh-window side channel addresses the last two levels, and
//! each gets its own index newtype so a subarray index can never be passed
//! where a row index is expected.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtype_round_trip() {
        assert_eq!(SubarrayId::new(3).index(), 3);
        assert_eq!(SubarrayId::from(7u32).index(), 7);
        assert_eq!(RowId::new(65535).index(), 65535);
    }

    #[test]
    fn display_formats() {
        assert_eq!(RowId::new(1).to_string(), "row1");
        assert_eq!(SubarrayId::new(255).to_string(), "sa255");
    }
}
