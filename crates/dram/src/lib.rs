//! The DDR4/DDR5 DRAM substrate of the XFM reproduction: the parts of a
//! DDR device that the paper's refresh-window side channel runs on.
//!
//! - datasheet timing parameter sets ([`timing`]), including the DDR5
//!   presets of the paper's Table 1 and the gem5-derived DDR4-2400
//!   parameters used by the paper's emulator;
//! - device geometry: banks, subarrays, rows, and the rows each REF
//!   command refreshes ([`geometry`]);
//! - the auto-refresh calendar: one REF per `tREFI`, all banks locked for
//!   `tRFC`, a deterministic refreshed-row schedule, and the
//!   conditional/random classification of an access inside a window
//!   ([`refresh`]);
//! - the SECDED code the NMA writes back with its output ([`ecc`]);
//! - a per-access energy model used for the paper's data-movement-energy
//!   claims ([`energy`]).
//!
//! The CPU-side channel term of Fig. 11 is not modeled here: it is
//! `xfm_sim::contention`'s queueing model.
//!
//! # Examples
//!
//! Compute the refresh-window capacity that XFM exploits (paper §5):
//!
//! ```
//! use xfm_dram::timing::DramTimings;
//!
//! let t = DramTimings::ddr5_3200_32gb();
//! // A 4 KiB conditional read takes tRCD + tCL + 32*tBURST = 110 ns...
//! assert_eq!(t.conditional_read_first().as_ns(), 110);
//! // ...and a 32 Gb device fits 4 conditional accesses in one tRFC.
//! assert_eq!(t.max_conditional_accesses(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ecc;
pub mod energy;
pub mod geometry;
pub mod refresh;
pub mod timing;

pub use energy::EnergyModel;
pub use geometry::DeviceGeometry;
pub use refresh::RefreshScheduler;
pub use timing::DramTimings;
