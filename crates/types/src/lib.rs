//! Common foundation types for the XFM reproduction.
//!
//! This crate defines the strongly-typed vocabulary shared by every other
//! crate in the workspace: physical addresses and page numbers
//! ([`addr`]), byte capacities ([`capacity`]), simulated time and bandwidth
//! ([`time`]), DRAM coordinates ([`dram`]), the shared error type
//! ([`error`]), the deterministic integer hasher of every index
//! ([`hash`]), the structured swap-path error ([`swap_error`])
//! distinguishing transient from permanent failures, tier/plane
//! identity for the multi-backend swap fabric ([`plane`]), tenant
//! identity plus per-operation context for multi-tenant serving
//! ([`tenant`]), and [`wire_enum!`], which declares an enum whose codes
//! and names telemetry exports once.
//!
//! All types are plain-old-data newtypes ([C-NEWTYPE]): they are `Copy`,
//! ordered, hashable, serializable, and cost nothing at runtime while
//! preventing the classic unit mix-ups (bytes vs pages, nanoseconds vs
//! cycles, row index vs subarray index) that plague simulator code.
//!
//! # Examples
//!
//! ```
//! use xfm_types::{ByteSize, Nanos, PageNumber};
//!
//! let sfm = ByteSize::from_gib(512);
//! assert_eq!(sfm.as_pages(), 512 * 1024 * 1024 / 4); // 4 KiB pages
//!
//! let trfc = Nanos::from_ns(410);
//! let trefi = Nanos::from_ns(3906);
//! assert!(trfc < trefi);
//!
//! let page = PageNumber::new(42);
//! assert_eq!(page.next().index(), 43);
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod capacity;
pub mod dram;
pub mod error;
pub mod hash;
pub mod plane;
pub mod swap_error;
pub mod tenant;
pub mod time;

pub use addr::{PageNumber, PhysAddr, PAGE_SIZE};
pub use capacity::ByteSize;
pub use dram::{RowId, SubarrayId};
pub use error::{Error, Result};
pub use plane::{PlacementClass, PlaneId};
pub use swap_error::{SwapError, SwapResult, SwapSite};
pub use tenant::{OpContext, TenantId};
pub use time::{Bandwidth, Cycles, Hertz, Nanos, CC_PER_GB};

/// Declares a fieldless enum whose variants each carry a stable
/// lowercase name, and derives from that one declaration-order list:
///
/// - `name(self) -> &'static str`;
/// - the wire code, `self` as its declaration index (`code` below);
/// - its inverse, `None` for a code no variant has (`from_code`).
///
/// The two code methods are named by the caller, so a mode can call
/// its code a `level`. Reordering or inserting a variant renumbers
/// every later code: each wire enum pins its codes in a test.
///
/// # Examples
///
/// ```
/// xfm_types::wire_enum! {
///     /// A traffic light.
///     #[derive(Debug, Clone, Copy, PartialEq, Eq)]
///     pub enum Light (code, from_code) {
///         /// Stop.
///         Red = "red",
///         /// Go.
///         Green = "green",
///     }
/// }
///
/// assert_eq!((Light::Green.code(), Light::Green.name()), (1, "green"));
/// assert_eq!(Light::from_code(0), Some(Light::Red));
/// assert_eq!(Light::from_code(2), None);
/// ```
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident ($code:ident, $from_code:ident) {
            $( $(#[$vmeta:meta])* $variant:ident = $wire:literal, )+
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// Every variant with its name, in declaration order.
            const TABLE: &'static [(Self, &'static str)] = &[$( (Self::$variant, $wire), )+];

            /// Stable lowercase name (exposition, JSON, Chrome export).
            #[must_use]
            pub fn name(self) -> &'static str {
                Self::TABLE[self as usize].1
            }

            /// Stable wire code: the variant's declaration index.
            #[must_use]
            pub fn $code(self) -> u8 {
                self as u8
            }

            /// Inverse of the wire code; `None` for a code no variant has.
            #[must_use]
            pub fn $from_code(code: u8) -> Option<Self> {
                Self::TABLE.get(usize::from(code)).map(|&(v, _)| v)
            }
        }
    };
}
