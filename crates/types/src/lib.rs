//! Common foundation types for the XFM reproduction.
//!
//! This crate defines the strongly-typed vocabulary shared by every other
//! crate in the workspace: physical addresses and page numbers
//! ([`addr`]), byte capacities ([`capacity`]), simulated time and bandwidth
//! ([`time`]), DRAM coordinates ([`dram`]), the shared error type
//! ([`error`]), the structured swap-path error ([`swap_error`])
//! distinguishing transient from permanent failures, tier/plane
//! identity for the multi-backend swap fabric ([`plane`]), and tenant
//! identity plus per-operation context for multi-tenant serving
//! ([`tenant`]).
//!
//! All types are plain-old-data newtypes ([C-NEWTYPE]): they are `Copy`,
//! ordered, hashable, serializable, and cost nothing at runtime while
//! preventing the classic unit mix-ups (bytes vs pages, nanoseconds vs
//! cycles, channel index vs bank index) that plague simulator code.
//!
//! # Examples
//!
//! ```
//! use xfm_types::{ByteSize, Nanos, PageNumber, PAGE_SIZE};
//!
//! let sfm = ByteSize::from_gib(512);
//! assert_eq!(sfm.as_pages(), 512 * 1024 * 1024 / 4); // 4 KiB pages
//!
//! let trfc = Nanos::from_ns(410);
//! let trefi = Nanos::from_ns(3906);
//! assert!(trfc < trefi);
//!
//! let page = PageNumber::new(42);
//! assert_eq!(page.base_addr().as_u64(), 42 * PAGE_SIZE as u64);
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod capacity;
pub mod dram;
pub mod error;
pub mod plane;
pub mod swap_error;
pub mod tenant;
pub mod time;

pub use addr::{PageNumber, PhysAddr, PAGE_SIZE};
pub use capacity::ByteSize;
pub use dram::{BankId, ChannelId, ColId, DimmId, DramCoord, RankId, RowId, SubarrayId};
pub use error::{Error, Result};
pub use plane::{PlacementClass, PlaneId};
pub use swap_error::{SwapError, SwapResult, SwapSite};
pub use tenant::{OpContext, TenantId};
pub use time::{Bandwidth, Cycles, Hertz, Nanos};
