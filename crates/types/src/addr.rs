//! Physical addresses and OS page numbers.

use core::fmt;

/// Size of an OS page in bytes (4 KiB), the granularity of all SFM swap
/// operations in the paper.
pub const PAGE_SIZE: usize = 4096;

/// A physical memory address as seen by the memory controller: the base
/// of the SFM region that `xfm_paramset` programs into the device.
///
/// # Examples
///
/// ```
/// use xfm_types::{PhysAddr, PAGE_SIZE};
///
/// let a = PhysAddr::new(7 * PAGE_SIZE as u64 + 0x40);
/// assert_eq!(a.as_u64(), 0x7040);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw byte address.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw byte address.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA:{:#x}", self.0)
    }
}

impl From<u64> for PhysAddr {
    fn from(raw: u64) -> Self {
        Self::new(raw)
    }
}

/// An OS page number (address divided by [`PAGE_SIZE`]).
///
/// Swap-in/out requests, cold-page scans, and SFM entries all operate at
/// page granularity, so a dedicated index type keeps page arithmetic
/// separate from byte arithmetic.
///
/// # Examples
///
/// ```
/// use xfm_types::{PageNumber, PAGE_SIZE};
///
/// let p = PageNumber::new(7);
/// assert_eq!(p.index(), 7);
/// assert_eq!(p.next().index(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageNumber(u64);

impl PageNumber {
    /// Creates a page number from a raw index.
    #[must_use]
    pub const fn new(index: u64) -> Self {
        Self(index)
    }

    /// Returns the raw page index.
    #[must_use]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the next page number.
    #[must_use]
    pub const fn next(self) -> Self {
        Self(self.0 + 1)
    }
}

impl fmt::Display for PageNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

impl From<u64> for PageNumber {
    fn from(index: u64) -> Self {
        Self::new(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_number_ordering_and_display() {
        assert!(PageNumber::new(1) < PageNumber::new(2));
        assert_eq!(PageNumber::new(9).to_string(), "page#9");
        assert_eq!(PhysAddr::new(16).to_string(), "PA:0x10");
    }

    #[test]
    fn conversions_from_u64() {
        assert_eq!(PhysAddr::from(7u64).as_u64(), 7);
        assert_eq!(PageNumber::from(7u64).index(), 7);
    }
}
