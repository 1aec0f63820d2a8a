//! Physical addresses and OS page numbers.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// Size of an OS page in bytes (4 KiB), the granularity of all SFM swap
/// operations in the paper.
pub const PAGE_SIZE: usize = 4096;

/// A physical memory address as seen by the memory controller.
///
/// Physical addresses are what the DRAM address mapping decomposes into
/// channel/rank/bank/row/column coordinates.
///
/// # Examples
///
/// ```
/// use xfm_types::PhysAddr;
///
/// let a = PhysAddr::new(0x1000);
/// assert_eq!(a.as_u64(), 0x1000);
/// assert_eq!((a + 0x40).as_u64(), 0x1040);
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

    /// Returns the page this address falls in.
    #[must_use]
    pub const fn page(self) -> PageNumber {
        PageNumber(self.0 / PAGE_SIZE as u64)
    }

    /// Returns `true` if the address is aligned to `align` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two.
    #[must_use]
    pub fn is_aligned(self, align: u64) -> bool {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.0.is_multiple_of(align)
    }

    /// Rounds the address down to a multiple of `align` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two.
    #[must_use]
    pub fn align_down(self, align: u64) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        Self(self.0 & !(align - 1))
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA:{:#x}", self.0)
    }
}

impl Add<u64> for PhysAddr {
    type Output = Self;

    fn add(self, rhs: u64) -> Self {
        Self(self.0 + rhs)
    }
}

impl AddAssign<u64> for PhysAddr {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<PhysAddr> for PhysAddr {
    type Output = u64;

    fn sub(self, rhs: PhysAddr) -> u64 {
        self.0 - rhs.0
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
/// assert_eq!(p.base_addr().as_u64(), 7 * PAGE_SIZE as u64);
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

    /// Returns the physical address of the first byte of the page,
    /// interpreting this page number as a physical frame number.
    #[must_use]
    pub const fn base_addr(self) -> PhysAddr {
        PhysAddr(self.0 * PAGE_SIZE as u64)
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
    fn phys_addr_page_round_trip() {
        let a = PhysAddr::new(5 * PAGE_SIZE as u64 + 123);
        assert_eq!(a.page(), PageNumber::new(5));
        assert_eq!(a.page().base_addr() + 123, a);
    }

    #[test]
    fn phys_addr_alignment() {
        let a = PhysAddr::new(0x1040);
        assert!(a.is_aligned(0x40));
        assert!(!a.is_aligned(0x80));
        assert_eq!(a.align_down(0x1000).as_u64(), 0x1000);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn phys_addr_alignment_rejects_non_power_of_two() {
        let _ = PhysAddr::new(0).is_aligned(3);
    }

    #[test]
    fn phys_addr_arithmetic() {
        let a = PhysAddr::new(100);
        let b = a + 28;
        assert_eq!(b - a, 28);
        let mut c = a;
        c += 4;
        assert_eq!(c.as_u64(), 104);
    }

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
