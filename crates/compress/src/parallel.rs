//! Multi-threaded page compression.
//!
//! Production SFM deployments run the compression daemon across several
//! cores (Google's `kreclaimd`; the paper's cost model provisions more
//! than three Xeon-class CPUs of cycles at a 100% promotion rate). This
//! module provides the corresponding data path: a work-stealing-free,
//! deterministic fan-out that compresses a batch of pages over a fixed
//! thread count.
//!
//! Inputs are [`bytes::Bytes`] slices so callers can carve pages out of
//! one large buffer without copying.

use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use parking_lot::Mutex;
use xfm_telemetry::Registry;
use xfm_types::{Error, Result};

use crate::codec::Codec;
use crate::scratch::Scratch;

/// Result of compressing one page in a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageResult {
    /// Index of the page within the submitted batch.
    pub index: usize,
    /// Compressed bytes.
    pub compressed: Vec<u8>,
}

/// Compresses `pages` with `threads` workers, returning per-page results
/// in submission order. Results are identical to a serial run — the
/// fan-out only changes wall-clock time, never output.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when `threads` is zero, or the first
/// codec failure encountered.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use xfm_compress::parallel::compress_pages;
/// use xfm_compress::{Corpus, XDeflate};
///
/// let buffer = Bytes::from(Corpus::Json.generate(1, 16 * 4096));
/// let pages: Vec<Bytes> = (0..16).map(|i| buffer.slice(i * 4096..(i + 1) * 4096)).collect();
/// let results = compress_pages(&XDeflate::default(), &pages, 4)?;
/// assert_eq!(results.len(), 16);
/// assert!(results.iter().all(|r| r.compressed.len() < 4096));
/// # Ok::<(), xfm_types::Error>(())
/// ```
pub fn compress_pages<C>(codec: &C, pages: &[Bytes], threads: usize) -> Result<Vec<PageResult>>
where
    C: Codec + Sync + ?Sized,
{
    compress_pages_inner(codec, pages, threads, None)
}

/// [`compress_pages`] with telemetry: each worker records its per-page
/// compression latency into `xfm_compress_latency_ns` and bumps
/// `xfm_parallel_pages_compressed_total` on `registry`, concurrently
/// from every thread (recording is lock-free). Output is identical to
/// the untraced call.
///
/// # Errors
///
/// Same conditions as [`compress_pages`].
pub fn compress_pages_traced<C>(
    codec: &C,
    pages: &[Bytes],
    threads: usize,
    registry: &Registry,
) -> Result<Vec<PageResult>>
where
    C: Codec + Sync + ?Sized,
{
    compress_pages_inner(codec, pages, threads, Some(registry))
}

/// Streaming variant of [`compress_pages`]: instead of collecting
/// results, each compressed page is handed to `sink` on the worker
/// thread that produced it, as soon as it is ready. This is the batched
/// swap-out handoff of the sharded data plane — the sink routes each
/// store-back to the owning shard, so no shard lock is ever held while
/// a page is being compressed.
///
/// `sink` runs concurrently from every worker; delivery order across
/// pages is unspecified (compressed bytes themselves are deterministic).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when `threads` is zero, or the first
/// codec failure encountered (pages already delivered stay delivered).
pub fn compress_pages_streamed<C>(
    codec: &C,
    pages: &[Bytes],
    threads: usize,
    sink: impl Fn(PageResult) + Sync,
) -> Result<()>
where
    C: Codec + Sync + ?Sized,
{
    compress_pages_streamed_inner(codec, pages, threads, None, sink)
}

/// [`compress_pages_streamed`] with per-page compression latency and
/// throughput recording on `registry` (same series as
/// [`compress_pages_traced`]).
///
/// # Errors
///
/// Same conditions as [`compress_pages_streamed`].
pub fn compress_pages_streamed_traced<C>(
    codec: &C,
    pages: &[Bytes],
    threads: usize,
    registry: &Registry,
    sink: impl Fn(PageResult) + Sync,
) -> Result<()>
where
    C: Codec + Sync + ?Sized,
{
    compress_pages_streamed_inner(codec, pages, threads, Some(registry), sink)
}

fn compress_pages_inner<C>(
    codec: &C,
    pages: &[Bytes],
    threads: usize,
    registry: Option<&Registry>,
) -> Result<Vec<PageResult>>
where
    C: Codec + Sync + ?Sized,
{
    let results: Mutex<Vec<Option<PageResult>>> = Mutex::new(vec![None; pages.len()]);
    compress_pages_streamed_inner(codec, pages, threads, registry, |r| {
        let index = r.index;
        results.lock()[index] = Some(r);
    })?;
    Ok(results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("every page compressed"))
        .collect())
}

fn compress_pages_streamed_inner<C>(
    codec: &C,
    pages: &[Bytes],
    threads: usize,
    registry: Option<&Registry>,
    sink: impl Fn(PageResult) + Sync,
) -> Result<()>
where
    C: Codec + Sync + ?Sized,
{
    let telemetry = registry.map(|r| {
        (
            r.histogram("xfm_compress_latency_ns"),
            r.counter("xfm_parallel_pages_compressed_total"),
        )
    });
    if threads == 0 {
        return Err(Error::InvalidConfig("threads must be non-zero".into()));
    }
    if pages.is_empty() {
        return Ok(());
    }
    let next = AtomicUsize::new(0);
    let first_error: Mutex<Option<Error>> = Mutex::new(None);

    crossbeam::thread::scope(|scope| {
        for _ in 0..threads.min(pages.len()) {
            scope.spawn(|_| {
                // One scratch per worker: the codec's hash chains, token
                // buffers, and entropy coders warm up on the first page
                // and are reused for every page the worker claims.
                let mut scratch = Scratch::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= pages.len() {
                        break;
                    }
                    let mut compressed = Vec::with_capacity(pages[index].len());
                    let start = telemetry.as_ref().map(|_| std::time::Instant::now());
                    match codec.compress_into(&pages[index], &mut compressed, &mut scratch) {
                        Ok(_) => {
                            if let (Some((hist, count)), Some(start)) = (&telemetry, start) {
                                hist.record(
                                    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                                );
                                count.inc();
                            }
                            sink(PageResult { index, compressed });
                        }
                        Err(e) => {
                            let mut slot = first_error.lock();
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            break;
                        }
                    }
                }
            });
        }
    })
    .expect("compression workers do not panic");

    if let Some(e) = first_error.into_inner() {
        return Err(e);
    }
    Ok(())
}

/// Blocks claimed per batch-decompress work unit: long enough for the
/// FSE codec's decode-table cache to pay off on runs of same-header
/// blocks, short enough to keep the tail balanced across workers.
const DECOMPRESS_CLAIM: usize = 8;

/// Decompresses `blocks` with `threads` workers, returning restored
/// pages in submission order. Workers claim runs of
/// [`DECOMPRESS_CLAIM`] blocks and feed each run through
/// [`Codec::decompress_batch_into`], so per-block setup (FSE decode
/// tables) is amortized exactly as on the
/// serial swap-in path. Output is identical to a serial run.
///
/// This is the prefetch-side counterpart of
/// [`compress_pages_streamed`]: swap-in readahead hands a batch of
/// compressed far-memory blocks here and gets pages back.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when `threads` is zero, or the
/// first corrupt block encountered.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use xfm_compress::parallel::{compress_pages, decompress_pages, split_pages};
/// use xfm_compress::{Corpus, XDeflateFse};
///
/// let codec = XDeflateFse::default();
/// let buffer = Bytes::from(Corpus::Json.generate(1, 16 * 4096));
/// let pages = split_pages(&buffer, 4096);
/// let blocks: Vec<Bytes> = compress_pages(&codec, &pages, 4)?
///     .into_iter()
///     .map(|r| Bytes::from(r.compressed))
///     .collect();
/// let restored = decompress_pages(&codec, &blocks, 4)?;
/// assert!(restored.iter().zip(&pages).all(|(r, p)| r == p.as_ref()));
/// # Ok::<(), xfm_types::Error>(())
/// ```
pub fn decompress_pages<C>(codec: &C, blocks: &[Bytes], threads: usize) -> Result<Vec<Vec<u8>>>
where
    C: Codec + Sync + ?Sized,
{
    if threads == 0 {
        return Err(Error::InvalidConfig("threads must be non-zero".into()));
    }
    if blocks.is_empty() {
        return Ok(Vec::new());
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Vec<u8>>>> = Mutex::new(vec![None; blocks.len()]);
    let first_error: Mutex<Option<Error>> = Mutex::new(None);

    crossbeam::thread::scope(|scope| {
        for _ in 0..threads.min(blocks.len().div_ceil(DECOMPRESS_CLAIM)) {
            scope.spawn(|_| {
                let mut scratch = Scratch::new();
                loop {
                    let start = next.fetch_add(DECOMPRESS_CLAIM, Ordering::Relaxed);
                    if start >= blocks.len() {
                        break;
                    }
                    let end = (start + DECOMPRESS_CLAIM).min(blocks.len());
                    let srcs: Vec<&[u8]> = blocks[start..end].iter().map(Bytes::as_ref).collect();
                    let mut dsts = vec![Vec::new(); end - start];
                    match codec.decompress_batch_into(&srcs, &mut dsts, &mut scratch) {
                        Ok(()) => {
                            let mut slots = results.lock();
                            for (slot, page) in slots[start..end].iter_mut().zip(dsts) {
                                *slot = Some(page);
                            }
                        }
                        Err(e) => {
                            let mut slot = first_error.lock();
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            break;
                        }
                    }
                }
            });
        }
    })
    .expect("decompression workers do not panic");

    if let Some(e) = first_error.into_inner() {
        return Err(e);
    }
    Ok(results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("every block decompressed"))
        .collect())
}

/// Runs an arbitrary per-page transform over a fixed worker pool,
/// returning results in submission order. Each worker owns a reusable
/// codec [`Scratch`], so scratch-aware transforms (multi-channel
/// `pack_page`, ratio probes) run allocation-free after warm-up. The
/// XFM backend uses this to compress whole demotion batches off the
/// serial path before scheduling them into refresh windows.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when `threads` is zero, or the first
/// transform failure encountered.
pub fn map_pages<R, F>(pages: &[Bytes], threads: usize, f: F) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(usize, &Bytes, &mut Scratch) -> Result<R> + Sync,
{
    if threads == 0 {
        return Err(Error::InvalidConfig("threads must be non-zero".into()));
    }
    if pages.is_empty() {
        return Ok(Vec::new());
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..pages.len()).map(|_| None).collect());
    let first_error: Mutex<Option<Error>> = Mutex::new(None);

    crossbeam::thread::scope(|scope| {
        for _ in 0..threads.min(pages.len()) {
            scope.spawn(|_| {
                let mut scratch = Scratch::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= pages.len() {
                        break;
                    }
                    match f(index, &pages[index], &mut scratch) {
                        Ok(r) => results.lock()[index] = Some(r),
                        Err(e) => {
                            let mut slot = first_error.lock();
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            break;
                        }
                    }
                }
            });
        }
    })
    .expect("map workers do not panic");

    if let Some(e) = first_error.into_inner() {
        return Err(e);
    }
    Ok(results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("every page mapped"))
        .collect())
}

/// Splits a buffer into page-sized [`Bytes`] slices (zero-copy).
///
/// The final slice may be shorter than `page_size`.
///
/// # Panics
///
/// Panics if `page_size` is zero.
#[must_use]
pub fn split_pages(buffer: &Bytes, page_size: usize) -> Vec<Bytes> {
    assert!(page_size > 0, "page_size must be non-zero");
    let mut out = Vec::with_capacity(buffer.len().div_ceil(page_size));
    let mut start = 0;
    while start < buffer.len() {
        let end = (start + page_size).min(buffer.len());
        out.push(buffer.slice(start..end));
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::xdeflate::XDeflate;

    fn pages() -> Vec<Bytes> {
        let buffer = Bytes::from(Corpus::LogLines.generate(3, 32 * 4096));
        split_pages(&buffer, 4096)
    }

    #[test]
    fn parallel_matches_serial_output() {
        let codec = XDeflate::default();
        let pages = pages();
        let serial = compress_pages(&codec, &pages, 1).unwrap();
        for threads in [2usize, 4, 8] {
            let parallel = compress_pages(&codec, &pages, threads).unwrap();
            assert_eq!(parallel, serial, "threads {threads}");
        }
    }

    #[test]
    fn results_arrive_in_submission_order() {
        let codec = XDeflate::default();
        let results = compress_pages(&codec, &pages(), 4).unwrap();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
        }
    }

    #[test]
    fn round_trips_decompress() {
        let codec = XDeflate::default();
        let pages = pages();
        let results = compress_pages(&codec, &pages, 4).unwrap();
        for (page, r) in pages.iter().zip(&results) {
            let mut out = Vec::new();
            codec.decompress(&r.compressed, &mut out).unwrap();
            assert_eq!(out, page.as_ref());
        }
    }

    #[test]
    fn traced_batch_records_from_every_worker() {
        let codec = XDeflate::default();
        let pages = pages();
        let registry = Registry::new();
        let traced = compress_pages_traced(&codec, &pages, 4, &registry).unwrap();
        assert_eq!(traced, compress_pages(&codec, &pages, 4).unwrap());
        let s = registry.snapshot();
        assert_eq!(
            s.counters["xfm_parallel_pages_compressed_total"],
            pages.len() as u64
        );
        let h = &s.histograms["xfm_compress_latency_ns"];
        assert_eq!(h.count, pages.len() as u64);
        assert!(h.p50 > 0);
    }

    #[test]
    fn batch_decompress_matches_serial_for_every_codec() {
        let pages = pages();
        let codecs: [&(dyn Codec + Sync); 3] = [
            &XDeflate::default(),
            &crate::XDeflateFse::default(),
            &crate::AutoCodec::default(),
        ];
        for codec in codecs {
            let blocks: Vec<Bytes> = compress_pages(codec, &pages, 4)
                .unwrap()
                .into_iter()
                .map(|r| Bytes::from(r.compressed))
                .collect();
            for threads in [1usize, 3, 8] {
                let restored = decompress_pages(codec, &blocks, threads).unwrap();
                assert_eq!(restored.len(), pages.len());
                for (r, p) in restored.iter().zip(&pages) {
                    assert_eq!(r, p.as_ref(), "{} threads {threads}", codec.name());
                }
            }
        }
    }

    #[test]
    fn batch_decompress_surfaces_corruption() {
        let codec = crate::XDeflateFse::default();
        let pages = pages();
        let mut blocks: Vec<Bytes> = compress_pages(&codec, &pages, 4)
            .unwrap()
            .into_iter()
            .map(|r| Bytes::from(r.compressed))
            .collect();
        blocks[17] = Bytes::from(vec![0xFF, 0xFE, 0xFD]);
        assert!(decompress_pages(&codec, &blocks, 4).is_err());
        assert!(decompress_pages(&codec, &[], 4).unwrap().is_empty());
    }

    #[test]
    fn zero_threads_rejected() {
        let codec = XDeflate::default();
        assert!(compress_pages(&codec, &pages(), 0).is_err());
        assert!(decompress_pages(&codec, &pages(), 0).is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        let codec = XDeflate::default();
        assert!(compress_pages(&codec, &[], 4).unwrap().is_empty());
    }

    #[test]
    fn more_threads_than_pages_is_fine() {
        let codec = XDeflate::default();
        let pages = pages()[..2].to_vec();
        assert_eq!(compress_pages(&codec, &pages, 16).unwrap().len(), 2);
    }

    #[test]
    fn split_pages_covers_buffer_exactly() {
        let buffer = Bytes::from(vec![7u8; 10_000]);
        let pages = split_pages(&buffer, 4096);
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[2].len(), 10_000 - 2 * 4096);
        let total: usize = pages.iter().map(Bytes::len).sum();
        assert_eq!(total, 10_000);
    }
}
