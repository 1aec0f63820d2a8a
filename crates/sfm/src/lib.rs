//! User-level software-defined far memory (SFM) stack.
//!
//! Re-creates the control plane the paper's §2.1/§6 describe — the part
//! that production systems build on Linux zswap — as a user-level library
//! (the same move the paper makes by integrating with AIFM):
//!
//! - [`zpool`] — a zsmalloc-like slab allocator that packs compressed
//!   pages into 4 KiB host pages using size classes, with explicit
//!   compaction (`memcpy`-cost accounted) to fight internal fragmentation;
//! - [`store`] — [`PageStore`], the one local compressed store: a zpool
//!   and the entry table over it (the paper's red-black tree), with the
//!   store / fetch-verified / consume steps that carry the checksum,
//!   region-full and per-tenant ledger invariants for every plane;
//! - [`backend`] — the [`SwapPlane`] trait, the one way to move a page
//!   through any plane: a plane implements `swap_out_ctx` /
//!   `swap_in_into_ctx` / `contains` / `compact` / `stats` /
//!   `pool_stats` behind `&self`, and the context-free and batch forms
//!   are provided on top of those, with per-operation accounting (CPU
//!   cycles, DRAM traffic) and structured
//!   [`SwapError`](xfm_types::SwapError) results;
//! - [`controller`] — cold-page scanning (120 s idle threshold by
//!   default, per the Google fleet data);
//! - [`sharded`] — [`ShardedSfm`], the one fault path over that store:
//!   N stores behind N locks sharing one region budget, the codec on
//!   the host with no lock held, batches compressed on `map_pages`
//!   workers and stored in submission order, and an [`OffloadHook`]
//!   a device hears every operation through. With `shards: 1` and no
//!   hook it is the paper's Baseline-CPU backend; `xfm-core`'s
//!   `XfmBackend` is one shard with its NMA device as the hook;
//! - [`predictor`] — [`StridePredictor`], the far-memory access
//!   predictor of the stack (region-tagged constant-stride detection);
//! - [`prefetch`] — the [`PrefetchEngine`]: owns a [`StridePredictor`],
//!   lands batched speculative swap-ins in a bounded staging cache the
//!   fault path consults before decompressing (hit = memcpy);
//! - [`modeled`] — latency/bandwidth-modeled SSD and remote-node swap
//!   planes on the shared `xfm-event` clock mirror, plus write-both/read-any
//!   replication with checksum-verified repair;
//! - [`tier`] — the [`TieredPlane`]: multiple [`SwapPlane`]s composed
//!   into a demotion hierarchy with per-tier capacity budgets,
//!   placement verdicts, and fault-driven promotion;
//! - [`far`] — the [`FarMemory<T>`](FarMemory) smart-pointer client
//!   API: deref faults pages in through any plane, drop writes back;
//! - [`trace`] — an AIFM-like synthetic swap-trace generator with
//!   Zipfian object popularity.
//!
//! # Examples
//!
//! ```
//! use xfm_sfm::{SfmConfig, ShardedSfm, ShardedSfmConfig, SwapPlane};
//! use xfm_types::{ByteSize, PageNumber};
//!
//! // The paper's Baseline-CPU backend: one shard, codec on the host.
//! let backend = ShardedSfm::new(ShardedSfmConfig {
//!     sfm: SfmConfig {
//!         region_capacity: ByteSize::from_mib(4),
//!     },
//!     shards: 1,
//! });
//! let page = vec![42u8; 4096];
//! backend.swap_out(PageNumber::new(7), &page)?;
//! let (restored, _) = backend.swap_in(PageNumber::new(7), false)?;
//! assert_eq!(restored, page);
//! # Ok::<(), xfm_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod controller;
pub mod far;
pub mod modeled;
pub mod predictor;
pub mod prefetch;
pub mod sharded;
pub mod store;
mod table;
pub mod tier;
pub mod trace;
pub mod zpool;

pub use backend::{BackendStats, ExecutedOn, SfmConfig, SwapOutcome, SwapPlane};
pub use controller::{ColdScanConfig, SfmController};
pub use far::{FarGuard, FarGuardMut, FarMemory, FarObject};
pub use modeled::{MediaModel, ModeledPlane, ReplicatedPlane};
pub use predictor::{PredictorStats, StridePredictor};
pub use prefetch::{PrefetchConfig, PrefetchEngine, PumpReport};
pub use sharded::{NoHook, OffloadHook, ShardedSfm, ShardedSfmConfig};
pub use store::{Owner, PageStore, RegionBudget};
pub use tier::{Placement, TierSpec, TierStats, TieredPlane};
pub use trace::{SwapEvent, SwapKind, TraceConfig, TraceGenerator};
pub use zpool::{CompactReport, Handle, Zpool, ZpoolStats};
