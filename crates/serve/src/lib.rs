//! Multi-tenant far-memory service plane.
//!
//! The lower crates answer *how* a page moves (codec, NMA offload,
//! refresh windows, tiering); this crate answers *who* may move one and
//! what happens when many workloads share the pool. It provides the
//! serving layer the paper's deployment section implies but never
//! spells out: a key-value front-end over any [`SwapPlane`], per-tenant
//! resident and compressed-byte quotas, and admission control coupled
//! to the degraded-mode state machine. It ships no load generator:
//! `benchmark/` drives it with its own seeded key streams.
//!
//! - [`service`] — [`service::FarKvService`]: the tenant-aware KV
//!   front-end. Hot values live in a bounded per-tenant cache that a
//!   hit reads under a shared lock; on pressure S3-FIFO victims are
//!   demoted through
//!   [`SwapPlane::swap_out_ctx`] so every compressed byte is billed to
//!   the owning tenant. Reads of demoted values fault them back with
//!   [`SwapPlane::swap_in_into_ctx`], crediting the bytes back.
//!
//! Accounting is exact by construction: the service ledger moves only
//! on plane outcomes (`compressed_len` on demotion and fault), so at
//! any quiescent point each tenant's ledger equals the plane's own
//! [`SwapPlane::tenant_usage`] entry and the sum equals the pool's
//! stored bytes — [`service::FarKvService::accounting`] checks both.
//!
//! [`SwapPlane`]: xfm_sfm::SwapPlane
//! [`SwapPlane::swap_out_ctx`]: xfm_sfm::SwapPlane::swap_out_ctx
//! [`SwapPlane::swap_in_into_ctx`]: xfm_sfm::SwapPlane::swap_in_into_ctx
//! [`SwapPlane::tenant_usage`]: xfm_sfm::SwapPlane::tenant_usage

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod service;

pub use service::{
    AccountingReport, FarKvService, GetOutcome, GetSource, PutResult, ServiceClass, ShedReason,
    TenantSnapshot, TenantSpec,
};
