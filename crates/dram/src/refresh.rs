//! Auto-refresh scheduling.
//!
//! The memory controller sends 8192 REF commands per 32 ms retention
//! interval — one every `tREFI` — and each REF locks the whole rank for
//! `tRFC` (paper §2.2). [`RefreshScheduler`] provides the deterministic
//! window calendar: when each window opens and closes and which rows each
//! bank refreshes inside it. XFM builds its entire side-channel on this
//! calendar.

use xfm_types::{Nanos, RowId};

use crate::geometry::DeviceGeometry;
use crate::timing::{DramTimings, REFS_PER_RETENTION};

/// One all-bank refresh window (`tRFC` period following a REF command).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshWindow {
    /// Monotonic window number since time zero.
    pub index: u64,
    /// Time the REF command is issued (window opens).
    pub start: Nanos,
    /// Time the rank unlocks (`start + tRFC`).
    pub end: Nanos,
}

impl RefreshWindow {
    /// The refresh-counter value for this window (`index mod 8192`).
    #[must_use]
    pub fn ref_index(&self) -> u32 {
        (self.index % REFS_PER_RETENTION) as u32
    }

    /// Whether `time` falls inside the locked interval.
    #[must_use]
    pub fn contains(&self, time: Nanos) -> bool {
        time >= self.start && time < self.end
    }

    /// Duration of the locked interval.
    #[must_use]
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }
}

/// Deterministic refresh calendar for one rank.
///
/// # Examples
///
/// ```
/// use xfm_dram::{DramTimings, DeviceGeometry, RefreshScheduler};
/// use xfm_types::Nanos;
///
/// let sched = RefreshScheduler::new(
///     DramTimings::paper_emulator(),
///     DeviceGeometry::ddr4_8gb(),
/// );
/// let w = sched.window(0);
/// assert_eq!(w.start, Nanos::ZERO);
/// assert_eq!(w.duration().as_ns(), 410);
/// // Next REF lands one tREFI later.
/// assert_eq!(sched.window(1).start.as_ns(), 3906);
/// ```
#[derive(Debug, Clone)]
pub struct RefreshScheduler {
    timings: DramTimings,
    geometry: DeviceGeometry,
}

impl RefreshScheduler {
    /// Creates a scheduler from timings and device geometry.
    #[must_use]
    pub fn new(timings: DramTimings, geometry: DeviceGeometry) -> Self {
        Self { timings, geometry }
    }

    /// The timing parameters in use.
    #[must_use]
    pub fn timings(&self) -> &DramTimings {
        &self.timings
    }

    /// The device geometry in use.
    #[must_use]
    pub fn geometry(&self) -> &DeviceGeometry {
        &self.geometry
    }

    /// Returns window number `index`.
    #[must_use]
    pub fn window(&self, index: u64) -> RefreshWindow {
        let start = self.timings.t_refi * index;
        RefreshWindow {
            index,
            start,
            end: start + self.timings.t_rfc,
        }
    }

    /// Returns the window containing `time`, if `time` is inside one.
    #[must_use]
    pub fn window_at(&self, time: Nanos) -> Option<RefreshWindow> {
        let index = time.periods(self.timings.t_refi);
        let w = self.window(index);
        w.contains(time).then_some(w)
    }

    /// Returns the first window whose start is `>= time`.
    #[must_use]
    pub fn next_window(&self, time: Nanos) -> RefreshWindow {
        let index = time.periods(self.timings.t_refi);
        let w = self.window(index);
        if w.start >= time {
            w
        } else {
            self.window(index + 1)
        }
    }

    /// Rows refreshed in *each* bank during `window` (one row per distinct
    /// subarray; see [`DeviceGeometry::refreshed_rows`]).
    #[must_use]
    pub fn refreshed_rows(&self, window: &RefreshWindow) -> Vec<RowId> {
        self.geometry.refreshed_rows(window.ref_index())
    }

    /// Whether `row` is refreshed during `window` — the test that makes an
    /// NMA access *conditional* (paper §5).
    #[must_use]
    pub fn is_row_refreshed_in(&self, row: RowId, window: &RefreshWindow) -> bool {
        let ref_index = window.ref_index();
        row.index() % REFS_PER_RETENTION as u32 == ref_index
            && row.index() < self.geometry.rows_per_bank
    }

    /// The window in which `row` will next be refreshed, at or after
    /// `time`. XFM's SFM controller uses this to schedule prefetch
    /// decompressions as conditional accesses.
    #[must_use]
    pub fn next_window_refreshing(&self, row: RowId, time: Nanos) -> RefreshWindow {
        let target = u64::from(row.index()) % REFS_PER_RETENTION;
        let mut w = self.next_window(time);
        let cur = w.index % REFS_PER_RETENTION;
        let delta = (target + REFS_PER_RETENTION - cur) % REFS_PER_RETENTION;
        if delta > 0 {
            w = self.window(w.index + delta);
        }
        w
    }
}

/// Per-rank accounting of refresh-window side-channel usage.
///
/// XFM's core quantitative claim is that refresh windows provide
/// "just-enough" bandwidth for SFM traffic; this tracker measures the
/// claim directly — for each rank, the fraction of the per-`tRFC`
/// access budget the NMA actually consumed. A fraction near 1.0 means
/// the side channel is saturated (offloads will start spilling to the
/// CPU); near 0.0 means the windows are idle headroom.
///
/// The tracker is pure data (no atomics, no telemetry dependency): the
/// window scheduler records into it and the observability layer reads
/// it out into gauges.
///
/// # Examples
///
/// ```
/// use xfm_dram::refresh::WindowUtilization;
///
/// let mut u = WindowUtilization::new(2);
/// u.record_window(0, 3, 14); // rank 0: used 3 of 14 access slots
/// u.record_window(0, 14, 14);
/// u.record_window(1, 0, 14);
/// assert!((u.fraction(0) - 17.0 / 28.0).abs() < 1e-9);
/// assert_eq!(u.fraction(1), 0.0);
/// assert_eq!(u.windows(0), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WindowUtilization {
    ranks: Vec<RankUsage>,
}

#[derive(Debug, Clone, Copy, Default)]
struct RankUsage {
    windows: u64,
    used: u64,
    budget: u64,
    /// Windows whose access budget was stolen outright (contention or
    /// injected refresh-window misses): counted in `windows` with zero
    /// contribution to `used`/`budget`, tracked separately so starved
    /// ranks are distinguishable from idle ones.
    stolen: u64,
}

impl WindowUtilization {
    /// Creates a tracker for `ranks` ranks.
    #[must_use]
    pub fn new(ranks: usize) -> Self {
        Self {
            ranks: vec![RankUsage::default(); ranks],
        }
    }

    /// Number of tracked ranks.
    #[must_use]
    pub fn ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Records one completed refresh window on `rank`: the NMA used
    /// `used` of the window's `budget` access slots. Out-of-range ranks
    /// are ignored (a misconfigured caller must not corrupt accounting).
    pub fn record_window(&mut self, rank: usize, used: u64, budget: u64) {
        if let Some(r) = self.ranks.get_mut(rank) {
            r.windows = r.windows.saturating_add(1);
            r.used = r.used.saturating_add(used.min(budget));
            r.budget = r.budget.saturating_add(budget);
        }
    }

    /// Records a refresh window on `rank` whose whole access budget was
    /// stolen: the NMA got zero of its `budget` slots. The window still
    /// counts toward [`WindowUtilization::windows`], but neither `used`
    /// nor `budget` accumulate — a starved rank must not read as merely
    /// idle in [`WindowUtilization::fraction`].
    pub fn record_stolen_window(&mut self, rank: usize, _budget: u64) {
        if let Some(r) = self.ranks.get_mut(rank) {
            r.windows = r.windows.saturating_add(1);
            r.stolen = r.stolen.saturating_add(1);
        }
    }

    /// Windows recorded on `rank`.
    #[must_use]
    pub fn windows(&self, rank: usize) -> u64 {
        self.ranks.get(rank).map_or(0, |r| r.windows)
    }

    /// Windows on `rank` whose budget was stolen outright.
    #[must_use]
    pub fn stolen(&self, rank: usize) -> u64 {
        self.ranks.get(rank).map_or(0, |r| r.stolen)
    }

    /// Fraction of `rank`'s cumulative window budget the NMA used
    /// (0.0 when no windows recorded).
    #[must_use]
    pub fn fraction(&self, rank: usize) -> f64 {
        self.ranks.get(rank).map_or(0.0, |r| {
            if r.budget == 0 {
                0.0
            } else {
                r.used as f64 / r.budget as f64
            }
        })
    }

    /// Merges another tracker (rank-wise; extends if `other` has more
    /// ranks).
    pub fn merge(&mut self, other: &WindowUtilization) {
        if other.ranks.len() > self.ranks.len() {
            self.ranks.resize(other.ranks.len(), RankUsage::default());
        }
        for (a, b) in self.ranks.iter_mut().zip(other.ranks.iter()) {
            a.windows = a.windows.saturating_add(b.windows);
            a.used = a.used.saturating_add(b.used);
            a.budget = a.budget.saturating_add(b.budget);
            a.stolen = a.stolen.saturating_add(b.stolen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> RefreshScheduler {
        RefreshScheduler::new(DramTimings::paper_emulator(), DeviceGeometry::ddr4_8gb())
    }

    #[test]
    fn windows_are_periodic() {
        let s = sched();
        let w0 = s.window(0);
        let w1 = s.window(1);
        assert_eq!(w1.start - w0.start, s.timings().t_refi);
        assert_eq!(w0.duration(), s.timings().t_rfc);
    }

    #[test]
    fn window_at_detects_locked_time() {
        let s = sched();
        assert!(s.window_at(Nanos::from_ns(100)).is_some());
        assert!(s.window_at(Nanos::from_ns(500)).is_none()); // after tRFC=410
        let w = s.window_at(s.timings().t_refi + Nanos::from_ns(1)).unwrap();
        assert_eq!(w.index, 1);
    }

    #[test]
    fn next_window_rounds_up() {
        let s = sched();
        let w = s.next_window(Nanos::from_ns(1));
        assert_eq!(w.index, 1);
        let w = s.next_window(Nanos::ZERO);
        assert_eq!(w.index, 0);
    }

    #[test]
    fn ref_index_wraps_at_8192() {
        let s = sched();
        assert_eq!(s.window(8192).ref_index(), 0);
        assert_eq!(s.window(8193).ref_index(), 1);
    }

    #[test]
    fn is_row_refreshed_matches_geometry_list() {
        let s = sched();
        let w = s.window(17);
        let rows = s.refreshed_rows(&w);
        for row in &rows {
            assert!(s.is_row_refreshed_in(*row, &w));
        }
        assert!(!s.is_row_refreshed_in(RowId::new(18), &w));
    }

    #[test]
    fn next_window_refreshing_hits_target_row() {
        let s = sched();
        let row = RowId::new(100);
        let w = s.next_window_refreshing(row, Nanos::from_ns(10));
        assert!(s.is_row_refreshed_in(row, &w));
        assert!(w.start >= Nanos::from_ns(10));
        // A row's window is at most one full retention interval away.
        assert!(w.start <= Nanos::from_ns(10) + s.timings().retention());
    }

    #[test]
    fn window_utilization_tracks_per_rank_fractions() {
        let mut u = WindowUtilization::new(2);
        for _ in 0..10 {
            u.record_window(0, 7, 14);
        }
        u.record_window(1, 14, 14);
        assert!((u.fraction(0) - 0.5).abs() < 1e-9);
        assert!((u.fraction(1) - 1.0).abs() < 1e-9);
        assert_eq!(u.windows(0), 10);
        // Out-of-range rank is ignored, empty rank reads 0.
        u.record_window(9, 5, 14);
        assert_eq!(u.fraction(9), 0.0);
        assert_eq!(WindowUtilization::new(1).fraction(0), 0.0);
    }

    #[test]
    fn window_utilization_merge_is_rank_wise_and_saturating() {
        let mut a = WindowUtilization::new(1);
        a.record_window(0, u64::MAX / 2, u64::MAX / 2);
        let mut b = WindowUtilization::new(2);
        b.record_window(0, u64::MAX / 2 + 10, u64::MAX / 2 + 10);
        b.record_window(1, 1, 14);
        a.merge(&b);
        assert_eq!(a.ranks(), 2);
        assert!((a.fraction(0) - 1.0).abs() < 1e-9);
        assert!(a.fraction(1) > 0.0);
        // used clamps to budget per window.
        let mut c = WindowUtilization::new(1);
        c.record_window(0, 100, 14);
        assert!((c.fraction(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stolen_windows_count_but_do_not_dilute_utilization() {
        let mut u = WindowUtilization::new(1);
        u.record_window(0, 7, 14);
        u.record_stolen_window(0, 14);
        u.record_stolen_window(0, 14);
        // Three windows passed, two stolen; the fraction reflects only
        // the windows the NMA could actually use.
        assert_eq!(u.windows(0), 3);
        assert_eq!(u.stolen(0), 2);
        assert!((u.fraction(0) - 0.5).abs() < 1e-9);
        // Out-of-range ranks are ignored, and merge carries the count.
        u.record_stolen_window(9, 14);
        let mut other = WindowUtilization::new(1);
        other.record_stolen_window(0, 14);
        u.merge(&other);
        assert_eq!(u.stolen(0), 3);
    }
}
