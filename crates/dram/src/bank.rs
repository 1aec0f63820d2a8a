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
//! refreshed. The bank itself never sees a refresh window: the
//! controller keeps CPU traffic out of `tRFC` from its refresh calendar,
//! and `xfm-core`'s window scheduler decides which NMA accesses are
//! [`RefreshAccessKind::Conditional`] or [`RefreshAccessKind::Random`].

use xfm_types::{Nanos, RowId};

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
/// let (ready, outcome) = bank.access(RowId::new(5), Nanos::ZERO, &t);
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
}

impl Bank {
    /// Creates a precharged, idle bank.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: BankState::Precharged,
            next_act_at: Nanos::ZERO,
            next_col_at: Nanos::ZERO,
        }
    }

    /// Current row-buffer state.
    #[must_use]
    pub fn state(&self) -> BankState {
        self.state
    }

    /// Performs a CPU-side access to `row` at time `now`, returning the
    /// time at which the first data beat is available and the row-buffer
    /// outcome. The caller (controller) accounts for data-bus occupancy
    /// and never sends CPU traffic during `tRFC`.
    pub fn access(&mut self, row: RowId, now: Nanos, t: &DramTimings) -> (Nanos, AccessOutcome) {
        match self.state {
            BankState::Active { row: open } if open == row => {
                let data_at = now.max(self.next_col_at) + t.t_cl;
                (data_at, AccessOutcome::RowHit)
            }
            BankState::Precharged => {
                let act_at = now.max(self.next_act_at);
                self.activate(row, act_at, t);
                (self.next_col_at + t.t_cl, AccessOutcome::RowEmpty)
            }
            BankState::Active { .. } => {
                // Precharge, then activate the new row.
                let pre_at = now.max(self.next_act_at.saturating_sub(t.t_rc - t.t_rp));
                let act_at = (pre_at + t.t_rp).max(self.next_act_at);
                self.activate(row, act_at, t);
                (self.next_col_at + t.t_cl, AccessOutcome::RowConflict)
            }
        }
    }

    fn activate(&mut self, row: RowId, at: Nanos, t: &DramTimings) {
        self.state = BankState::Active { row };
        self.next_act_at = at + t.t_rc;
        self.next_col_at = at + t.t_rcd;
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
        let (first, o1) = bank.access(RowId::new(1), Nanos::ZERO, &t);
        assert_eq!(o1, AccessOutcome::RowEmpty);
        let (second, o2) = bank.access(RowId::new(1), first, &t);
        assert_eq!(o2, AccessOutcome::RowHit);
        assert!(second - first <= t.t_cl);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let t = t();
        let mut bank = Bank::new();
        let (ready1, _) = bank.access(RowId::new(1), Nanos::ZERO, &t);
        let start = ready1 + t.t_burst;
        let (ready2, o) = bank.access(RowId::new(2), start, &t);
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
        bank.access(RowId::new(1), Nanos::ZERO, &t);
        // Immediately conflict-access another row: the second ACT cannot
        // start before tRC after the first.
        let (ready2, _) = bank.access(RowId::new(2), Nanos::from_ps(1), &t);
        assert!(ready2 >= t.t_rc + t.t_rcd + t.t_cl - t.t_rcd); // >= tRC + tCL
    }
}
