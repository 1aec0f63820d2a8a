//! Simulated time, clock frequency, and bandwidth.
//!
//! The DRAM model works in picosecond-resolution timestamps stored as `u64`
//! (enough for ~213 days of simulated time), exposed through the [`Nanos`]
//! newtype. DRAM datasheet timings are all integral in picoseconds, so no
//! floating-point drift can accumulate in the timing model.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::capacity::ByteSize;

/// A duration or timestamp with picosecond resolution.
///
/// Despite the name (which matches the unit used throughout the paper),
/// the internal representation is picoseconds so that sub-nanosecond DRAM
/// parameters such as `tBURST = 0.625 ns` for DDR5-3200 are exact.
///
/// # Examples
///
/// ```
/// use xfm_types::Nanos;
///
/// let trfc = Nanos::from_ns(410);
/// let t_burst = Nanos::from_ps(2500);
/// assert_eq!(t_burst.as_ns_f64(), 2.5);
/// assert_eq!((trfc + t_burst).as_ps(), 412_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// Zero duration.
    pub const ZERO: Self = Self(0);

    /// Maximum representable duration (`u64::MAX` picoseconds, ~213
    /// days). Event drivers use it as the "idle, nothing scheduled"
    /// sentinel when folding `Option<Nanos>` deadlines with `min`.
    pub const MAX: Self = Self(u64::MAX);

    /// Creates a duration from picoseconds.
    #[must_use]
    pub const fn from_ps(ps: u64) -> Self {
        Self(ps)
    }

    /// Creates a duration from nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        Self(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        Self(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub const fn from_ms(ms: u64) -> Self {
        Self(ms * 1_000_000_000)
    }

    /// Creates a duration from seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000_000)
    }

    /// Returns the duration in picoseconds.
    #[must_use]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the duration in whole nanoseconds (truncating).
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration in nanoseconds as a float.
    #[must_use]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration in microseconds as a float.
    #[must_use]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the duration in milliseconds as a float.
    #[must_use]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the duration in seconds as a float.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000_000.0
    }

    /// Returns `true` if the duration is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: clamps at zero.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition: clamps at the maximum representable
    /// duration instead of overflowing. Use when accumulating unbounded
    /// sums (e.g. merging statistics) where `+`'s debug-build overflow
    /// panic is unacceptable.
    #[must_use]
    pub const fn saturating_add(self, rhs: Self) -> Self {
        Self(self.0.saturating_add(rhs.0))
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// How many whole periods of `period` fit into this duration.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn periods(self, period: Self) -> u64 {
        assert!(!period.is_zero(), "period must be non-zero");
        self.0 / period.0
    }

    /// Checked subtraction: `None` if `rhs > self`.
    #[must_use]
    pub fn checked_sub(self, rhs: Self) -> Option<Self> {
        self.0.checked_sub(rhs.0).map(Self)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3} s", self.as_secs_f64())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3} ms", self.as_ms_f64())
        } else if ps >= 1_000_000 {
            write!(f, "{:.3} us", self.as_us_f64())
        } else if ps >= 1_000 {
            write!(f, "{:.3} ns", self.as_ns_f64())
        } else {
            write!(f, "{ps} ps")
        }
    }
}

impl Add for Nanos {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Self;

    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Self;

    fn div(self, rhs: u64) -> Self {
        Self(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|n| n.0).sum())
    }
}

/// The paper's `CCPerGB` (§3, EQ3.4): CPU cycles to (de)compress one
/// GB, the average of zstd's and lzo's. Both cost models read it.
pub const CC_PER_GB: f64 = 7.65e9;

/// A cycle count for a clocked component (CPU core or DDR bus).
///
/// # Examples
///
/// ```
/// use xfm_types::{Cycles, Hertz};
///
/// let c = Cycles::new(2_600_000_000);
/// let f = Hertz::from_ghz(2.6);
/// assert!((c.at(f).as_secs_f64() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Self = Self(0);

    /// Creates a cycle count.
    #[must_use]
    pub const fn new(count: u64) -> Self {
        Self(count)
    }

    /// Returns the raw cycle count.
    #[must_use]
    pub const fn count(self) -> u64 {
        self.0
    }

    /// Converts the cycle count to a duration at clock frequency `freq`.
    #[must_use]
    pub fn at(self, freq: Hertz) -> Nanos {
        // ps = cycles * 1e12 / hz; use f64 then round — cycle counts in the
        // models here are far below 2^52 so this is exact enough.
        Nanos::from_ps((self.0 as f64 * 1e12 / freq.as_hz()).round() as u64)
    }
}

impl Add for Cycles {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A clock frequency.
///
/// # Examples
///
/// ```
/// use xfm_types::Hertz;
///
/// let f = Hertz::from_ghz(3.2);
/// assert_eq!(f.as_ghz(), 3.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Hertz(f64);

impl Hertz {
    /// Creates a frequency from gigahertz.
    #[must_use]
    pub const fn from_ghz(ghz: f64) -> Self {
        Self(ghz * 1e9)
    }

    /// Returns the frequency in hertz.
    #[must_use]
    pub const fn as_hz(self) -> f64 {
        self.0
    }

    /// Returns the frequency in gigahertz.
    #[must_use]
    pub fn as_ghz(self) -> f64 {
        self.0 / 1e9
    }

    /// Returns the period of one clock cycle.
    #[must_use]
    pub fn period(self) -> Nanos {
        Nanos::from_ps((1e12 / self.0).round() as u64)
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} GHz", self.as_ghz())
    }
}

/// A data rate in bytes per second.
///
/// # Examples
///
/// ```
/// use xfm_types::{Bandwidth, ByteSize, Nanos};
///
/// let bw = Bandwidth::from_gbps(25.6);
/// let t = bw.time_for(ByteSize::from_kib(4));
/// assert!((t.as_ns_f64() - 160.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Self = Self(0.0);

    /// Creates a bandwidth from bytes per second.
    #[must_use]
    pub const fn from_bytes_per_sec(bps: f64) -> Self {
        Self(bps)
    }

    /// Creates a bandwidth from gigabytes (1e9 bytes) per second.
    #[must_use]
    pub const fn from_gbps(gbps: f64) -> Self {
        Self(gbps * 1e9)
    }

    /// Returns the rate in bytes per second.
    #[must_use]
    pub const fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Returns the rate in GB/s (1e9 bytes).
    #[must_use]
    pub fn as_gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Returns the time needed to transfer `bytes` at this rate.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is zero.
    #[must_use]
    pub fn time_for(self, bytes: ByteSize) -> Nanos {
        assert!(self.0 > 0.0, "bandwidth must be positive");
        Nanos::from_ps((bytes.as_bytes() as f64 / self.0 * 1e12).round() as u64)
    }
}

impl Add for Bandwidth {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2} GB/s", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.2} MB/s", self.0 / 1e6)
        } else {
            write!(f, "{:.0} B/s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_units() {
        assert_eq!(Nanos::from_ns(1).as_ps(), 1_000);
        assert_eq!(Nanos::from_us(1), Nanos::from_ns(1_000));
        assert_eq!(Nanos::from_ms(1), Nanos::from_us(1_000));
        assert_eq!(Nanos::from_secs(1), Nanos::from_ms(1_000));
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_ns(100);
        let b = Nanos::from_ns(60);
        assert_eq!(a + b, Nanos::from_ns(160));
        assert_eq!(a - b, Nanos::from_ns(40));
        assert_eq!(a * 3, Nanos::from_ns(300));
        assert_eq!(a / 4, Nanos::from_ns(25));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.saturating_add(b), Nanos::from_ns(160));
        assert_eq!(
            Nanos::from_ps(u64::MAX).saturating_add(a),
            Nanos::from_ps(u64::MAX)
        );
    }

    #[test]
    fn nanos_periods_counts_trefi_in_retention() {
        // The paper: 8192 REF commands per 32 ms retention interval.
        let retention = Nanos::from_ms(32);
        let trefi = retention / 8192;
        assert_eq!(retention.periods(trefi), 8192);
    }

    #[test]
    fn nanos_display_scales() {
        assert_eq!(Nanos::from_ps(500).to_string(), "500 ps");
        assert_eq!(Nanos::from_ns(410).to_string(), "410.000 ns");
        assert_eq!(Nanos::from_us(4).to_string(), "4.000 us");
        assert_eq!(Nanos::from_ms(32).to_string(), "32.000 ms");
        assert_eq!(Nanos::from_secs(2).to_string(), "2.000 s");
    }

    #[test]
    fn cycles_to_time() {
        // 7.65e9 cycles at 2.6 GHz (the paper's per-GB compression cost)
        // should be ~2.94 s.
        let t = Cycles::new(7_650_000_000).at(Hertz::from_ghz(2.6));
        assert!((t.as_secs_f64() - 2.9423).abs() < 1e-3);
    }

    #[test]
    fn hertz_period() {
        // DDR5-3200: 1600 MHz clock -> 0.625 ns period.
        let p = Hertz::from_ghz(1.6).period();
        assert_eq!(p.as_ps(), 625);
    }

    #[test]
    fn bandwidth_round_trip() {
        let bw = Bandwidth::from_gbps(8.5);
        let bytes = ByteSize::from_gib(1);
        let t = bw.time_for(bytes);
        let back = bytes.as_bytes() as f64 / t.as_secs_f64() / 1e9;
        assert!((back - 8.5).abs() < 1e-6);
    }

    #[test]
    fn bandwidth_display() {
        assert_eq!(Bandwidth::from_gbps(25.6).to_string(), "25.60 GB/s");
        assert_eq!(Bandwidth::from_gbps(0.426).to_string(), "426.00 MB/s");
    }

    #[test]
    fn checked_sub_behaves() {
        let a = Nanos::from_ns(10);
        let b = Nanos::from_ns(3);
        assert_eq!(a.checked_sub(b), Some(Nanos::from_ns(7)));
        assert_eq!(b.checked_sub(a), None);
    }
}
