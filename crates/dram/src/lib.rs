//! Cycle-approximate DDR4/DDR5 DRAM timing model with refresh-window
//! side-channel support.
//!
//! This crate is the DRAM substrate of the XFM reproduction. It models the
//! five-dimensional DRAM hierarchy of the paper's §2.2 — channels, ranks,
//! banks, subarrays, rows — together with:
//!
//! - datasheet timing parameter sets ([`timing`]), including the DDR5
//!   presets of the paper's Table 1 and the gem5-derived DDR4-2400
//!   parameters used by the paper's emulator;
//! - device/system geometry and capacity math ([`geometry`]);
//! - a Skylake-style physical address mapping with 256 B channel and 128 B
//!   bank interleaving ([`mapping`]);
//! - per-bank state machines with the Fig. 7 subarray modifications (row
//!   decoder latch + local-bitline isolation) that allow refresh and access
//!   to proceed in parallel within one bank ([`bank`]);
//! - the auto-refresh machinery: one REF per `tREFI`, all banks locked for
//!   `tRFC`, a deterministic refreshed-row schedule ([`refresh`]);
//! - a request-driven CPU-side memory controller with FR-FCFS-lite
//!   scheduling, refresh blackouts and bandwidth accounting
//!   ([`controller`]);
//! - a per-access energy model used for the paper's data-movement-energy
//!   claims ([`energy`]).
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

pub mod bank;
pub mod controller;
pub mod ecc;
pub mod energy;
pub mod geometry;
pub mod mapping;
pub mod refresh;
pub mod stats;
pub mod timing;

pub use bank::{Bank, BankState};
pub use controller::{AccessSource, MemController, MemRequest, MemSystem, RequestKind};
pub use energy::EnergyModel;
pub use geometry::{DeviceGeometry, SystemGeometry};
pub use mapping::AddressMapping;
pub use refresh::RefreshScheduler;
pub use stats::ChannelStats;
pub use timing::DramTimings;
