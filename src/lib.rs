//! # XFM: Accelerated Software-Defined Far Memory — a Rust reproduction
//!
//! This workspace reproduces, from scratch, the complete system of
//! *XFM: Accelerated Software-Defined Far Memory* (Patel, Quinn,
//! Mamandipoor, Alian — MICRO 2023): a near-memory accelerator that
//! performs the (de)compression work of a software-defined far memory
//! (SFM) during DRAM **refresh windows**, when the rank is locked to the
//! CPU anyway — removing SFM swap traffic from the DDR channels and the
//! cache hierarchy at zero cost to host accesses.
//!
//! This facade crate re-exports the workspace members:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`types`] | Newtypes: addresses, capacities, time, DRAM coordinates |
//! | [`dram`] | DDR4/DDR5 timings, device geometry, refresh calendar, ECC, energy |
//! | [`compress`] | From-scratch `xdeflate` (LZ77+Huffman) page codec, 17 synthetic corpora |
//! | [`event`] | `ClockMirror`: the shared virtual time telemetry and the modeled planes read |
//! | [`faults`] | Seeded fault plans and injector, XXH64 checksums, retry policy, degraded-mode state machine |
//! | [`sfm`] | zsmalloc-style zpool, entry table, cold-page controller, `SwapPlane` trait, the sharded local plane (1 shard = CPU baseline), tiered planes, `FarMemory<T>` |
//! | [`core`] | **The paper's contribution**: SPM, MMIO regs, refresh-window scheduler, NMA, driver, XFM backend, multi-channel mode |
//! | [`cost`] | The §3 DFM-vs-SFM cost & carbon model (EQ1–EQ5) |
//! | [`sim`] | Co-run interference + fallback sensitivity engines; per-figure harnesses |
//! | [`telemetry`] | Unified counters, latency histograms, one lock-free swap-path event ring, JSON/Prometheus exposition |
//! | [`serve`] | Multi-tenant KV service plane: quotas, admission control |
//!
//! # Quickstart
//!
//! ```
//! use xfm::core::{XfmConfig, XfmSystem};
//! use xfm::sfm::SwapPlane;
//! use xfm::types::{Nanos, PageNumber};
//!
//! // Build an XFM system (one DIMM, 2 MiB SPM, DDR4 refresh calendar).
//! let mut sys = XfmSystem::new(XfmConfig::default());
//! sys.advance_to(Nanos::from_ms(1));
//!
//! // Demote a cold page: compression rides the refresh side channel.
//! let page = b"cold data ".repeat(410)[..4096].to_vec();
//! let out = sys.backend().swap_out(PageNumber::new(7), &page)?;
//! assert_eq!(out.ddr_bytes.as_bytes(), 0); // no DDR traffic!
//!
//! // Promote it back (prefetch path → NMA decompression).
//! let (restored, _) = sys.backend().swap_in(PageNumber::new(7), true)?;
//! assert_eq!(restored, page);
//! # Ok::<(), xfm::types::Error>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness that regenerates every table and figure in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use xfm_compress as compress;
pub use xfm_core as core;
pub use xfm_cost as cost;
pub use xfm_dram as dram;
pub use xfm_event as event;
pub use xfm_faults as faults;
pub use xfm_serve as serve;
pub use xfm_sfm as sfm;
pub use xfm_sim as sim;
pub use xfm_telemetry as telemetry;
pub use xfm_types as types;
