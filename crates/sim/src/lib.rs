//! System-level simulation and experiment harnesses for the XFM
//! reproduction.
//!
//! Where `xfm-core` models one DIMM in detail, this crate models the
//! *system around it* and regenerates every quantitative result in the
//! paper's evaluation:
//!
//! - [`workload`] — synthetic memory-intensive application kernels
//!   standing in for the licensed SPEC CPU 2017 suite (substitution
//!   documented in `DESIGN.md`);
//! - [`cache`] — a shared-LLC occupancy model with streaming-pollution
//!   injection (overhead **O4** of §3.2);
//! - [`contention`] — a memory-channel queueing model turning bandwidth
//!   load into effective-latency inflation (overhead **O3**);
//! - [`corun`] — the Fig. 11 co-run engine comparing Baseline-CPU,
//!   Host-Lockout-NMA, and XFM;
//! - [`fallback`] — the Fig. 12 driver offering `xfm-core`'s
//!   near-memory accelerator a bursty swap arrival process, swept over
//!   SPM size × accesses per `tRFC` × promotion rate;
//! - [`resource`] — the FPGA utilization/power model (Tables 2–3) and
//!   the CACTI-style DRAM modification overhead;
//! - [`figures`] — one typed-row generator per paper figure/table;
//! - [`report`] — plain-text table rendering for the `xfm-repro` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod cache;
pub mod contention;
pub mod corun;
pub mod fallback;
pub mod figures;
pub mod report;
pub mod resource;
pub mod workload;

pub use ablation::{predictor_study, prefetch_accuracy_sweep, random_budget_sweep};
pub use cache::SharedLlc;
pub use contention::MemoryChannelModel;
pub use corun::{CorunConfig, CorunOutcome, SfmMode};
pub use fallback::{FallbackConfig, FallbackReport};
pub use resource::{FpgaResourceModel, PowerBreakdown};
pub use workload::{JobMix, Workload, WorkloadKind};
