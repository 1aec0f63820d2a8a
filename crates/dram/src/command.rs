//! DRAM command vocabulary.

use core::fmt;

use xfm_types::{ColId, RowId};

/// A command issued on the DRAM command/address bus.
///
/// The semantics of an auto-refresh command are equivalent to a series of
/// Activate and Precharge commands (paper §2.2), which is why [`DramCommand::Refresh`]
/// can be modeled as an internal batch of row cycles.
///
/// # Examples
///
/// ```
/// use xfm_dram::DramCommand;
/// use xfm_types::RowId;
///
/// let cmd = DramCommand::Activate { row: RowId::new(7) };
/// assert!(cmd.is_row_command());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramCommand {
    /// Open a row into the bank's (subarray-local) row buffer.
    Activate {
        /// Row to open.
        row: RowId,
    },
    /// Close the open row and restore the bank to the precharged state.
    Precharge,
    /// Read one burst from the open row.
    Read {
        /// Column (granule) to read.
        col: ColId,
    },
    /// Write one burst into the open row.
    Write {
        /// Column (granule) to write.
        col: ColId,
    },
    /// All-bank auto-refresh: every bank refreshes its scheduled row set.
    Refresh,
}

impl DramCommand {
    /// Returns `true` for commands that operate on rows (ACT/PRE/REF).
    #[must_use]
    pub fn is_row_command(&self) -> bool {
        matches!(
            self,
            DramCommand::Activate { .. } | DramCommand::Precharge | DramCommand::Refresh
        )
    }

    /// Returns `true` for data-transferring commands (RD/WR).
    #[must_use]
    pub fn is_column_command(&self) -> bool {
        matches!(self, DramCommand::Read { .. } | DramCommand::Write { .. })
    }
}

impl fmt::Display for DramCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramCommand::Activate { row } => write!(f, "ACT {row}"),
            DramCommand::Precharge => write!(f, "PRE"),
            DramCommand::Read { col } => write!(f, "RD {col}"),
            DramCommand::Write { col } => write!(f, "WR {col}"),
            DramCommand::Refresh => write!(f, "REF"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(DramCommand::Refresh.is_row_command());
        assert!(DramCommand::Precharge.is_row_command());
        assert!(DramCommand::Read { col: ColId::new(0) }.is_column_command());
        assert!(!DramCommand::Read { col: ColId::new(0) }.is_row_command());
    }

    #[test]
    fn display() {
        assert_eq!(
            DramCommand::Activate { row: RowId::new(3) }.to_string(),
            "ACT row3"
        );
        assert_eq!(DramCommand::Refresh.to_string(), "REF");
    }
}
