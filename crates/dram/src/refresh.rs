//! Auto-refresh scheduling.
//!
//! The memory controller sends 8192 REF commands per 32 ms retention
//! interval — one every `tREFI` — and each REF locks the whole rank for
//! `tRFC` (paper §2.2). [`RefreshScheduler`] provides the deterministic
//! window calendar: when each window opens and closes and which rows each
//! bank refreshes inside it. XFM builds its entire side-channel on this
//! calendar, and [`RefreshAccessKind`] names the two ways an NMA access
//! can ride a window.

use xfm_types::{Nanos, RowId};

use crate::geometry::DeviceGeometry;
use crate::timing::{DramTimings, REFS_PER_RETENTION};

/// Classification of an NMA access performed during a refresh window.
///
/// The XFM modification (paper Fig. 7) adds a per-subarray row-decoder
/// latch and a local-bitline isolation latch, so a row in one subarray can
/// be accessed while rows in *other* subarrays of the same bank are being
/// refreshed. `xfm-core`'s window scheduler decides which kind each
/// access is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefreshAccessKind {
    /// Target row is in the set being refreshed this `tRFC`: the row is
    /// simply kept activated while its data is bursted out (paper §5).
    Conditional,
    /// Target row is in a subarray *not* being refreshed; served through
    /// the Fig. 7 latches while other subarrays refresh.
    Random,
}

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
        let rows = s.geometry().refreshed_rows(w.ref_index());
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
}
