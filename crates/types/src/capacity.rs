//! Byte capacities with binary-unit constructors.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::addr::PAGE_SIZE;

/// A size in bytes, with convenience constructors for binary units.
///
/// Used for DRAM capacities, SFM region sizes, scratchpad sizes, and
/// compressed-data accounting throughout the workspace.
///
/// # Examples
///
/// ```
/// use xfm_types::ByteSize;
///
/// let spm = ByteSize::from_mib(8);
/// assert_eq!(spm.as_bytes(), 8 * 1024 * 1024);
/// assert_eq!(spm.as_pages(), 2048);
/// assert_eq!(spm.to_string(), "8.00 MiB");
///
/// let far = ByteSize::from_gib(512);
/// assert_eq!(far / spm, 65536);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: Self = Self(0);

    /// Creates a size from a raw byte count.
    #[must_use]
    pub const fn from_bytes(bytes: u64) -> Self {
        Self(bytes)
    }

    /// Creates a size from KiB (1024 bytes).
    #[must_use]
    pub const fn from_kib(kib: u64) -> Self {
        Self(kib * 1024)
    }

    /// Creates a size from MiB.
    #[must_use]
    pub const fn from_mib(mib: u64) -> Self {
        Self(mib * 1024 * 1024)
    }

    /// Creates a size from GiB.
    #[must_use]
    pub const fn from_gib(gib: u64) -> Self {
        Self(gib * 1024 * 1024 * 1024)
    }

    /// Creates a size from 4 KiB pages.
    #[must_use]
    pub const fn from_pages(pages: u64) -> Self {
        Self(pages * PAGE_SIZE as u64)
    }

    /// Returns the raw byte count.
    #[must_use]
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Returns the size in GiB as a float (for cost-model arithmetic).
    #[must_use]
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Returns the number of whole 4 KiB pages in this size (truncating).
    #[must_use]
    pub const fn as_pages(self) -> u64 {
        self.0 / PAGE_SIZE as u64
    }

    /// Returns `true` if the size is zero bytes.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    #[must_use]
    pub const fn checked_sub(self, rhs: Self) -> Option<Self> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Self(v)),
            None => None,
        }
    }

    /// Returns the smaller of two sizes.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// Returns the larger of two sizes.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: f64 = 1024.0;
        const MIB: f64 = 1024.0 * 1024.0;
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        let b = self.0 as f64;
        if b >= GIB {
            write!(f, "{:.2} GiB", b / GIB)
        } else if b >= MIB {
            write!(f, "{:.2} MiB", b / MIB)
        } else if b >= KIB {
            write!(f, "{:.2} KiB", b / KIB)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

impl Add for ByteSize {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for ByteSize {
    type Output = Self;

    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<ByteSize> for ByteSize {
    type Output = u64;

    /// Integer ratio of two sizes (truncating).
    fn div(self, rhs: ByteSize) -> u64 {
        self.0 / rhs.0
    }
}

impl Div<u64> for ByteSize {
    type Output = Self;

    fn div(self, rhs: u64) -> Self {
        Self(self.0 / rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|b| b.0).sum())
    }
}

impl From<u64> for ByteSize {
    fn from(bytes: u64) -> Self {
        Self::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(ByteSize::from_kib(1).as_bytes(), 1024);
        assert_eq!(ByteSize::from_mib(1), ByteSize::from_kib(1024));
        assert_eq!(ByteSize::from_gib(1), ByteSize::from_mib(1024));
        assert_eq!(ByteSize::from_pages(1).as_bytes(), 4096);
    }

    #[test]
    fn arithmetic() {
        let a = ByteSize::from_kib(4);
        let b = ByteSize::from_kib(1);
        assert_eq!(a + b, ByteSize::from_kib(5));
        assert_eq!(a - b, ByteSize::from_kib(3));
        assert_eq!(a * 2, ByteSize::from_kib(8));
        assert_eq!(a / b, 4);
        assert_eq!(a / 2, ByteSize::from_kib(2));
        let total: ByteSize = [a, b, b].into_iter().sum();
        assert_eq!(total, ByteSize::from_kib(6));
    }

    #[test]
    fn saturating_and_checked_sub() {
        let small = ByteSize::from_bytes(10);
        let big = ByteSize::from_bytes(20);
        assert_eq!(small.saturating_sub(big), ByteSize::ZERO);
        assert_eq!(small.checked_sub(big), None);
        assert_eq!(big.checked_sub(small), Some(ByteSize::from_bytes(10)));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(ByteSize::from_bytes(12).to_string(), "12 B");
        assert_eq!(ByteSize::from_kib(2).to_string(), "2.00 KiB");
        assert_eq!(ByteSize::from_mib(3).to_string(), "3.00 MiB");
        assert_eq!(ByteSize::from_gib(512).to_string(), "512.00 GiB");
    }

    #[test]
    fn gib_f64_round_trips_for_whole_gib() {
        let s = ByteSize::from_gib(512);
        assert!((s.as_gib_f64() - 512.0).abs() < 1e-9);
    }

    #[test]
    fn min_max() {
        let a = ByteSize::from_kib(1);
        let b = ByteSize::from_kib(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
