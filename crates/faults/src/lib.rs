//! `xfm-faults`: deterministic fault injection and graceful-degradation
//! policies for the XFM swap stack.
//!
//! XFM's operational promise (paper §5) is that the NMA path *fails
//! safely*: a missed refresh window, an exhausted scratchpad, or a full
//! request queue must degrade to the CPU path, never to lost or corrupt
//! pages. This crate makes those failure branches a first-class, testable
//! surface:
//!
//! - [`FaultSite`] — the named injection points (engine timeout, SPM
//!   exhaustion, refresh-window miss, queue full, bit corruption, zpool
//!   store failure);
//! - [`FaultPlan`] / [`SiteSpec`] — a seedable description of what goes
//!   wrong (per-site probability, burst length, fire caps, arming
//!   delays), buildable from code, a CLI string, or the
//!   `XFM_FAULT_PLAN` / `XFM_FAULT_SEED` environment;
//! - [`FaultInjector`] — the armed plan: independent per-site SplitMix64
//!   streams so replays are bit-exact regardless of how components
//!   interleave, plus per-site injection counters on a telemetry
//!   [`Registry`](xfm_telemetry::Registry);
//! - [`checksum()`] — XXH64 block checksums stored at swap-out and
//!   verified at swap-in, turning silent corruption into a retryable
//!   [`ChecksumMismatch`](xfm_types::Error::ChecksumMismatch);
//! - [`RetryPolicy`] — bounded exponential backoff for transient NMA
//!   rejects;
//! - [`DegradeController`] / [`DegradedMode`] — the sticky NMA → mixed →
//!   CPU-only → recovering state machine driven by a windowed
//!   failure-rate estimator.
//!
//! Hook sites across `xfm-core` and `xfm-sfm` hold an
//! `Option<Arc<FaultInjector>>`; with no injector attached (the
//! production configuration) each hook is a single pointer test, so the
//! zero-allocation and throughput guarantees of the hot path are
//! unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod degrade;
pub mod inject;
pub mod plan;
pub mod prng;
pub mod retry;
pub mod site;

pub use checksum::checksum;
pub use degrade::{DegradeController, DegradedMode};
pub use inject::FaultInjector;
pub use plan::{FaultPlan, SiteSpec};
pub use prng::SplitMix64;
pub use retry::RetryPolicy;
pub use site::FaultSite;
