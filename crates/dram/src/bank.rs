//! Per-bank state machine with XFM's subarray extensions.
//!
//! A bank models the open-row (open-page) policy: an access to the open
//! row is a *row hit*, an access to a precharged bank is a *row empty*
//! access, and an access to a different row is a *row conflict* that must
//! precharge first. Timing legality (`tRC`, `tRCD`, `tRP`, `tCL`) is
//! enforced against the simulated clock.
//!
//! The XFM modification (paper Fig. 7) adds a per-subarray row-decoder
//! latch and a local-bitline isolation latch, so a row in one subarray can
//! be accessed while rows in *other* subarrays of the same bank are being
//! refreshed. [`Bank::begin_refresh`] / [`Bank::end_refresh`] model the
//! all-bank refresh window, during which [`Bank::refresh_overlap_access`]
//! adjudicates conditional and random NMA accesses.

use xfm_types::{Error, Nanos, Result, RowId, SubarrayId};

use crate::geometry::DeviceGeometry;
use crate::timing::DramTimings;

/// The row-buffer status of a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// All rows closed; the bank is ready for an ACT.
    Precharged,
    /// A row is latched in a subarray-local row buffer.
    Active {
        /// The open row.
        row: RowId,
    },
}

/// How an access interacted with the row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// The target row was already open.
    RowHit,
    /// The bank was precharged; one activation was needed.
    RowEmpty,
    /// Another row was open; precharge + activate were needed.
    RowConflict,
}

/// Classification of an NMA access performed during a refresh window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefreshAccessKind {
    /// Target row is in the set being refreshed this `tRFC`: the row is
    /// simply kept activated while its data is bursted out (paper §5).
    Conditional,
    /// Target row is in a subarray *not* being refreshed; served through
    /// the Fig. 7 latches while other subarrays refresh.
    Random,
}

/// One DRAM bank.
///
/// # Examples
///
/// ```
/// use xfm_dram::{Bank, DramTimings};
/// use xfm_types::{Nanos, RowId};
///
/// let t = DramTimings::paper_emulator();
/// let mut bank = Bank::new();
/// let (ready, outcome) = bank.access(RowId::new(5), Nanos::ZERO, &t).unwrap();
/// // Row-empty access: tRCD + tCL elapse before data.
/// assert_eq!(ready, t.t_rcd + t.t_cl);
/// # let _ = outcome;
/// ```
#[derive(Debug, Clone)]
pub struct Bank {
    state: BankState,
    /// Earliest time the next ACT may issue (enforces tRC/tRP).
    next_act_at: Nanos,
    /// Earliest time a column command may issue (enforces tRCD).
    next_col_at: Nanos,
    /// Rows being refreshed during the current tRFC window, if any.
    refreshing: Option<Vec<RowId>>,
    /// Statistics: row hits / empties / conflicts.
    hits: u64,
    empties: u64,
    conflicts: u64,
}

impl Bank {
    /// Creates a precharged, idle bank.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: BankState::Precharged,
            next_act_at: Nanos::ZERO,
            next_col_at: Nanos::ZERO,
            refreshing: None,
            hits: 0,
            empties: 0,
            conflicts: 0,
        }
    }

    /// Current row-buffer state.
    #[must_use]
    pub fn state(&self) -> BankState {
        self.state
    }

    /// Row hit/empty/conflict counters accumulated so far.
    #[must_use]
    pub fn outcome_counts(&self) -> (u64, u64, u64) {
        (self.hits, self.empties, self.conflicts)
    }

    /// Performs a CPU-side access to `row` at time `now`, returning the
    /// time at which the first data beat is available and the row-buffer
    /// outcome. The caller (controller) accounts for data-bus occupancy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TimingViolation`] if the bank is inside a refresh
    /// window — the controller must never send CPU traffic during `tRFC`.
    pub fn access(
        &mut self,
        row: RowId,
        now: Nanos,
        t: &DramTimings,
    ) -> Result<(Nanos, AccessOutcome)> {
        if self.refreshing.is_some() {
            return Err(Error::TimingViolation(
                "CPU access issued during all-bank refresh".into(),
            ));
        }
        match self.state {
            BankState::Active { row: open } if open == row => {
                self.hits += 1;
                let data_at = now.max(self.next_col_at) + t.t_cl;
                Ok((data_at, AccessOutcome::RowHit))
            }
            BankState::Precharged => {
                self.empties += 1;
                let act_at = now.max(self.next_act_at);
                self.activate(row, act_at, t);
                Ok((self.next_col_at + t.t_cl, AccessOutcome::RowEmpty))
            }
            BankState::Active { .. } => {
                self.conflicts += 1;
                // Precharge, then activate the new row.
                let pre_at = now.max(self.next_act_at.saturating_sub(t.t_rc - t.t_rp));
                let act_at = (pre_at + t.t_rp).max(self.next_act_at);
                self.activate(row, act_at, t);
                Ok((self.next_col_at + t.t_cl, AccessOutcome::RowConflict))
            }
        }
    }

    fn activate(&mut self, row: RowId, at: Nanos, t: &DramTimings) {
        self.state = BankState::Active { row };
        self.next_act_at = at + t.t_rc;
        self.next_col_at = at + t.t_rcd;
    }

    /// Explicitly precharges the bank (used by the refresh path).
    pub fn precharge(&mut self, now: Nanos, t: &DramTimings) {
        self.state = BankState::Precharged;
        self.next_act_at = self.next_act_at.max(now + t.t_rp);
    }

    /// Enters an all-bank refresh window at `now`, refreshing `rows`
    /// (one per distinct subarray; see
    /// [`DeviceGeometry::refreshed_rows`]).
    ///
    /// Any open row is implicitly precharged first, as the auto-refresh
    /// command requires.
    pub fn begin_refresh(&mut self, rows: Vec<RowId>, now: Nanos, t: &DramTimings) {
        self.state = BankState::Precharged;
        self.refreshing = Some(rows);
        // The bank may not be activated again until the window ends.
        self.next_act_at = self.next_act_at.max(now + t.t_rfc);
    }

    /// Leaves the refresh window. All banks end precharged (paper §5: "at
    /// the end of each refresh cycle, all the DRAM banks are precharged and
    /// the CPU side memory controller starts fresh").
    pub fn end_refresh(&mut self) {
        self.refreshing = None;
        self.state = BankState::Precharged;
    }

    /// Returns `true` while the bank is inside a refresh window.
    #[must_use]
    pub fn is_refreshing(&self) -> bool {
        self.refreshing.is_some()
    }

    /// Classifies an NMA access to `row` during the current refresh
    /// window: [`RefreshAccessKind::Conditional`] if the row is in the
    /// refresh set, [`RefreshAccessKind::Random`] if it lives in a subarray
    /// not being refreshed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TimingViolation`] if no refresh window is active,
    /// or [`Error::Device`] if the row's subarray conflicts with a
    /// refreshing subarray (the scheduler should have reordered it away;
    /// see paper §5 on subarray-conflict reordering).
    pub fn refresh_overlap_access(
        &self,
        row: RowId,
        geometry: &DeviceGeometry,
    ) -> Result<RefreshAccessKind> {
        let Some(refreshing) = &self.refreshing else {
            return Err(Error::TimingViolation(
                "refresh-overlap access outside a refresh window".into(),
            ));
        };
        if refreshing.contains(&row) {
            return Ok(RefreshAccessKind::Conditional);
        }
        let target_sa = geometry.subarray_of(row);
        let conflict = refreshing
            .iter()
            .any(|&r| geometry.subarray_of(r) == target_sa);
        if conflict {
            Err(Error::Device(format!(
                "subarray conflict: {} is being refreshed",
                SubarrayId::new(target_sa.index())
            )))
        } else {
            Ok(RefreshAccessKind::Random)
        }
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTimings {
        DramTimings::paper_emulator()
    }

    #[test]
    fn row_hit_is_cheapest() {
        let t = t();
        let mut bank = Bank::new();
        let (first, o1) = bank.access(RowId::new(1), Nanos::ZERO, &t).unwrap();
        assert_eq!(o1, AccessOutcome::RowEmpty);
        let (second, o2) = bank.access(RowId::new(1), first, &t).unwrap();
        assert_eq!(o2, AccessOutcome::RowHit);
        assert!(second - first <= t.t_cl);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let t = t();
        let mut bank = Bank::new();
        let (ready1, _) = bank.access(RowId::new(1), Nanos::ZERO, &t).unwrap();
        let start = ready1 + t.t_burst;
        let (ready2, o) = bank.access(RowId::new(2), start, &t).unwrap();
        assert_eq!(o, AccessOutcome::RowConflict);
        // Conflict pays at least a precharge + activate + CAS beyond the
        // hit latency, and can never be faster than a fresh activate.
        assert!(ready2 - start >= t.t_rcd + t.t_cl);
        assert!(ready2 > ready1);
    }

    #[test]
    fn trc_enforced_between_activates() {
        let t = t();
        let mut bank = Bank::new();
        bank.access(RowId::new(1), Nanos::ZERO, &t).unwrap();
        // Immediately conflict-access another row: the second ACT cannot
        // start before tRC after the first.
        let (ready2, _) = bank.access(RowId::new(2), Nanos::from_ps(1), &t).unwrap();
        assert!(ready2 >= t.t_rc + t.t_rcd + t.t_cl - t.t_rcd); // >= tRC + tCL
    }

    #[test]
    fn cpu_access_during_refresh_is_a_violation() {
        let t = t();
        let mut bank = Bank::new();
        bank.begin_refresh(vec![RowId::new(0)], Nanos::ZERO, &t);
        assert!(matches!(
            bank.access(RowId::new(5), Nanos::from_ns(1), &t),
            Err(Error::TimingViolation(_))
        ));
        bank.end_refresh();
        assert!(bank.access(RowId::new(5), t.t_rfc, &t).is_ok());
    }

    #[test]
    fn refresh_precharges_open_row() {
        let t = t();
        let mut bank = Bank::new();
        bank.access(RowId::new(9), Nanos::ZERO, &t).unwrap();
        assert!(matches!(bank.state(), BankState::Active { .. }));
        bank.begin_refresh(vec![RowId::new(0)], Nanos::from_ns(100), &t);
        bank.end_refresh();
        assert_eq!(bank.state(), BankState::Precharged);
    }

    #[test]
    fn conditional_vs_random_classification() {
        let g = DeviceGeometry::ddr5_32gb();
        let t = t();
        let mut bank = Bank::new();
        let rows = g.refreshed_rows(0); // rows 0, 8192, 16384, ...
        bank.begin_refresh(rows.clone(), Nanos::ZERO, &t);

        // A refreshed row is conditional.
        assert_eq!(
            bank.refresh_overlap_access(rows[0], &g).unwrap(),
            RefreshAccessKind::Conditional
        );
        // A row in an idle subarray is random.
        assert_eq!(
            bank.refresh_overlap_access(RowId::new(600), &g).unwrap(),
            RefreshAccessKind::Random
        );
        // A different row in a *refreshing* subarray conflicts.
        assert!(bank.refresh_overlap_access(RowId::new(1), &g).is_err());
    }

    #[test]
    fn refresh_overlap_outside_window_rejected() {
        let g = DeviceGeometry::ddr5_32gb();
        let bank = Bank::new();
        assert!(bank.refresh_overlap_access(RowId::new(0), &g).is_err());
    }

    #[test]
    fn outcome_counters_accumulate() {
        let t = t();
        let mut bank = Bank::new();
        bank.access(RowId::new(1), Nanos::ZERO, &t).unwrap();
        bank.access(RowId::new(1), Nanos::from_us(1), &t).unwrap();
        bank.access(RowId::new(2), Nanos::from_us(2), &t).unwrap();
        assert_eq!(bank.outcome_counts(), (1, 1, 1));
    }
}
