//! The decorators the traced run interposes at the stack's public
//! trait seams: [`TracedPlane`] (a `SwapPlane` that forwards to the
//! plane it wraps), [`TracedCodec`] (a `Codec` that forwards to the
//! codec it wraps), and [`Recorder`], the [`Tracer`] that installs
//! them and opens a root span around every client call.
//!
//! They exist only in this binary: the end-to-end binary calls these
//! traits but never implements them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use xfm_benchmark::harness::{DynCodec, RootOp, Tracer};
use xfm_compress::{Codec, CodecKind, Scratch};
use xfm_sfm::zpool::{CompactReport, ZpoolStats};
use xfm_sfm::{BackendStats, SwapOutcome, SwapPlane, TieredPlane};
use xfm_types::{OpContext, PageNumber, Result, SwapResult, TenantId};

use crate::spans::within;

/// Plane seams, in name-table order.
pub const SEAMS: [&str; 7] = ["serve", "plane", "engine", "tier0", "tier1", "tier2", "xfm"];
/// Plane operations, in name-table order.
pub const PLANE_OPS: [&str; 4] = ["swap_out", "swap_in", "swap_out_batch", "swap_in_batch"];
/// Root span names, indexed by [`root_name`].
pub const ROOTS: [&str; 8] = [
    "root.kv_get",
    "root.kv_put",
    "root.swap_out_batch",
    "root.swap_in",
    "root.prefetch_fault",
    "root.prefetch_swap_out",
    "root.prefetch_pump",
    "root.xfm_advance",
];
/// Codec span names.
pub const CODEC_OPS: [&str; 3] = [
    "codec.compress",
    "codec.decompress",
    "codec.decompress_batch",
];

/// First name index of the plane spans.
pub const PLANE_BASE: u8 = ROOTS.len() as u8;
/// First name index of the codec spans.
pub const CODEC_BASE: u8 = PLANE_BASE + (SEAMS.len() * PLANE_OPS.len()) as u8;
/// Name index of `codec.compress`.
pub const COMPRESS: u8 = CODEC_BASE;
/// Name index of `codec.decompress`.
pub const DECOMPRESS: u8 = CODEC_BASE + 1;
/// Name index of `codec.decompress_batch`.
pub const DECOMPRESS_BATCH: u8 = CODEC_BASE + 2;
/// Plane operation offsets within a seam.
pub const OUT: u8 = 0;
/// See [`OUT`].
pub const IN: u8 = 1;
/// See [`OUT`].
pub const OUT_BATCH: u8 = 2;
/// See [`OUT`].
pub const IN_BATCH: u8 = 3;

/// Name index of root span `op`.
pub fn root_name(op: RootOp) -> u8 {
    match op {
        RootOp::KvGet => 0,
        RootOp::KvPut => 1,
        RootOp::SwapOutBatch => 2,
        RootOp::SwapIn => 3,
        RootOp::PrefetchFault => 4,
        RootOp::PrefetchSwapOut => 5,
        RootOp::PrefetchPump => 6,
        RootOp::XfmAdvance => 7,
    }
}

/// Name index of plane operation `op` at `seam`.
pub fn plane_name(seam: &str, op: u8) -> u8 {
    let at = SEAMS
        .iter()
        .position(|s| *s == seam)
        .unwrap_or_else(|| panic!("unknown seam {seam}"));
    PLANE_BASE + (at * PLANE_OPS.len()) as u8 + op
}

/// Every span name, indexed by `Span::name`.
pub fn name_table() -> Vec<String> {
    let mut names: Vec<String> = ROOTS.iter().map(|s| (*s).to_owned()).collect();
    for seam in SEAMS {
        names.extend(PLANE_OPS.iter().map(|op| format!("{seam}.{op}")));
    }
    names.extend(CODEC_OPS.iter().map(|s| (*s).to_owned()));
    names
}

/// A `SwapPlane` that records a span around every data-path call and
/// forwards it, unchanged, to the same method of the plane it wraps.
pub struct TracedPlane {
    inner: Arc<dyn SwapPlane>,
    base: u8,
}

impl TracedPlane {
    /// Wraps `inner`; its spans are named `<seam>.<operation>`.
    pub fn new(seam: &str, inner: Arc<dyn SwapPlane>) -> Self {
        Self {
            inner,
            base: plane_name(seam, 0),
        }
    }
}

impl SwapPlane for TracedPlane {
    fn swap_out(&self, page: PageNumber, data: &[u8]) -> SwapResult<SwapOutcome> {
        within(self.base + OUT, false, false, || {
            self.inner.swap_out(page, data)
        })
    }

    fn swap_in_into(
        &self,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        within(self.base + IN, false, false, || {
            self.inner.swap_in_into(page, do_offload, out)
        })
    }

    fn swap_out_batch(
        &self,
        batch: &[(PageNumber, Bytes)],
        threads: usize,
    ) -> SwapResult<Vec<SwapResult<SwapOutcome>>> {
        within(self.base + OUT_BATCH, false, true, || {
            self.inner.swap_out_batch(batch, threads)
        })
    }

    fn swap_in_batch_into(
        &self,
        pages: &[PageNumber],
        outs: &mut [Vec<u8>],
    ) -> Vec<SwapResult<SwapOutcome>> {
        within(self.base + IN_BATCH, false, true, || {
            self.inner.swap_in_batch_into(pages, outs)
        })
    }

    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome> {
        within(self.base + OUT, false, false, || {
            self.inner.swap_out_ctx(ctx, page, data)
        })
    }

    fn swap_in_into_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        within(self.base + IN, false, false, || {
            self.inner.swap_in_into_ctx(ctx, page, do_offload, out)
        })
    }

    fn swap_out_batch_ctx(
        &self,
        ctx: &OpContext,
        batch: &[(PageNumber, Bytes)],
        threads: usize,
    ) -> SwapResult<Vec<SwapResult<SwapOutcome>>> {
        within(self.base + OUT_BATCH, false, true, || {
            self.inner.swap_out_batch_ctx(ctx, batch, threads)
        })
    }

    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        self.inner.tenant_usage()
    }

    fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        self.inner.tenant_of(page)
    }

    fn contains(&self, page: PageNumber) -> bool {
        self.inner.contains(page)
    }

    fn compact(&self) -> CompactReport {
        self.inner.compact()
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn pool_stats(&self) -> ZpoolStats {
        self.inner.pool_stats()
    }
}

/// Uncompressed bytes the traced codecs were handed to compress.
pub static CODEC_BYTES_IN: AtomicU64 = AtomicU64::new(0);
/// Compressed bytes they produced.
pub static CODEC_BYTES_OUT: AtomicU64 = AtomicU64::new(0);

/// A `Codec` that records a span around every call and forwards it to
/// the same method of the codec it wraps.
pub struct TracedCodec {
    inner: DynCodec,
}

impl TracedCodec {
    fn compressing(&self, src: &[u8], run: impl FnOnce() -> Result<usize>) -> Result<usize> {
        let written = within(COMPRESS, false, false, run)?;
        if crate::spans::recording() {
            CODEC_BYTES_IN.fetch_add(src.len() as u64, Ordering::Relaxed);
            CODEC_BYTES_OUT.fetch_add(written as u64, Ordering::Relaxed);
        }
        Ok(written)
    }
}

impl Codec for TracedCodec {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> CodecKind {
        self.inner.kind()
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        self.compressing(src, || self.inner.compress(src, dst))
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        within(DECOMPRESS, false, false, || self.inner.decompress(src, dst))
    }

    fn compress_into(&self, src: &[u8], dst: &mut Vec<u8>, scratch: &mut Scratch) -> Result<usize> {
        self.compressing(src, || self.inner.compress_into(src, dst, scratch))
    }

    fn decompress_into(
        &self,
        src: &[u8],
        dst: &mut Vec<u8>,
        scratch: &mut Scratch,
    ) -> Result<usize> {
        within(DECOMPRESS, false, false, || {
            self.inner.decompress_into(src, dst, scratch)
        })
    }

    fn decompress_batch_into(
        &self,
        srcs: &[&[u8]],
        dsts: &mut [Vec<u8>],
        scratch: &mut Scratch,
    ) -> Result<()> {
        within(DECOMPRESS_BATCH, false, false, || {
            self.inner.decompress_batch_into(srcs, dsts, scratch)
        })
    }
}

/// The tracer of the traced pass: installs the decorators at every
/// seam and wraps each client call in a root span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recorder;

impl Tracer for Recorder {
    type EngineInner = TracedPlane;

    fn codec(&self, inner: DynCodec) -> DynCodec {
        Arc::new(TracedCodec { inner })
    }

    fn plane(&self, seam: &'static str, inner: Arc<dyn SwapPlane>) -> Arc<dyn SwapPlane> {
        Arc::new(TracedPlane::new(seam, inner))
    }

    fn engine_inner(&self, tiered: Arc<TieredPlane>) -> Arc<TracedPlane> {
        Arc::new(TracedPlane::new("engine", tiered))
    }

    #[inline]
    fn root<R>(&self, op: RootOp, f: impl FnOnce() -> R) -> R {
        within(root_name(op), true, false, f)
    }
}

/// Identity seams plus a telemetry registry on the plane under test:
/// prices `attach_telemetry` against the plain untraced pass.
pub struct WithTelemetry(pub xfm_telemetry::Registry);

impl Tracer for WithTelemetry {
    type EngineInner = TieredPlane;

    fn registry(&self) -> Option<&xfm_telemetry::Registry> {
        Some(&self.0)
    }

    fn engine_inner(&self, tiered: Arc<TieredPlane>) -> Arc<TieredPlane> {
        tiered
    }
}
