//! Multi-threaded per-page work.
//!
//! Production SFM deployments run the compression daemon across several
//! cores (Google's `kreclaimd`; the paper's cost model provisions more
//! than three Xeon-class CPUs of cycles at a 100% promotion rate). This
//! module is the corresponding fan-out, and the only one: [`map_pages`]
//! runs one closure per page over a fixed thread count. Both batched
//! swap-outs go through it — the sharded plane's closure compresses a
//! page and stores it under the owning shard's lock, the XFM backend's
//! packs a page for its DIMMs.
//!
//! Inputs are [`bytes::Bytes`] slices so callers can carve pages out of
//! one large buffer without copying.

use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use parking_lot::Mutex;
use xfm_types::{Error, Result};

/// Runs `f(index, page)` for every page on `threads` workers (never
/// more workers than pages), returning the results in submission order.
/// Workers claim pages one at a time from a shared counter, so which
/// worker runs which page — and in what order the calls happen — is
/// unspecified; `f` must not depend on it.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when `threads` is zero, or the first
/// failure `f` reports (a worker stops claiming once its call fails;
/// calls already made stay made).
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use xfm_compress::{map_pages, Codec, Corpus, XDeflate};
///
/// let codec = XDeflate::default();
/// let buffer = Bytes::from(Corpus::Json.generate(1, 16 * 4096));
/// let pages: Vec<Bytes> = (0..16).map(|i| buffer.slice(i * 4096..(i + 1) * 4096)).collect();
/// let lens = map_pages(&pages, 4, |_, page| {
///     let mut compressed = Vec::new();
///     codec.compress(page, &mut compressed)
/// })?;
/// assert_eq!(lens.len(), 16);
/// assert!(lens.iter().all(|&len| len < 4096));
/// # Ok::<(), xfm_types::Error>(())
/// ```
pub fn map_pages<R, F>(pages: &[Bytes], threads: usize, f: F) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(usize, &Bytes) -> Result<R> + Sync,
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

    // The scope joins every worker and re-raises a worker's panic.
    std::thread::scope(|scope| {
        for _ in 0..threads.min(pages.len()) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= pages.len() {
                    break;
                }
                match f(index, &pages[index]) {
                    Ok(r) => results.lock()[index] = Some(r),
                    Err(e) => {
                        first_error.lock().get_or_insert(e);
                        break;
                    }
                }
            });
        }
    });

    if let Some(e) = first_error.into_inner() {
        return Err(e);
    }
    Ok(results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("every page mapped"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use crate::corpus::Corpus;
    use crate::xdeflate::XDeflate;

    fn pages() -> Vec<Bytes> {
        let buffer = Bytes::from(Corpus::LogLines.generate(3, 32 * 4096));
        (0..32)
            .map(|i| buffer.slice(i * 4096..(i + 1) * 4096))
            .collect()
    }

    fn compress_all(pages: &[Bytes], threads: usize) -> Result<Vec<(usize, Vec<u8>)>> {
        let codec = XDeflate::default();
        map_pages(pages, threads, |index, page| {
            let mut compressed = Vec::new();
            codec.compress(page, &mut compressed)?;
            Ok((index, compressed))
        })
    }

    #[test]
    fn results_arrive_in_submission_order_at_any_thread_count() {
        let pages = pages();
        let serial = compress_all(&pages, 1).unwrap();
        for (i, (index, _)) in serial.iter().enumerate() {
            assert_eq!(*index, i);
        }
        for threads in [2usize, 4, 8] {
            assert_eq!(
                compress_all(&pages, threads).unwrap(),
                serial,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn zero_threads_rejected() {
        assert!(compress_all(&pages(), 0).is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(compress_all(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn more_threads_than_pages_is_fine() {
        assert_eq!(compress_all(&pages()[..2], 16).unwrap().len(), 2);
    }

    #[test]
    fn a_failed_page_fails_the_batch_with_its_error() {
        for threads in [1usize, 4] {
            let err = map_pages(&pages(), threads, |index, _| {
                if index == 17 {
                    Err(Error::Corrupt("page 17".into()))
                } else {
                    Ok(index)
                }
            })
            .unwrap_err();
            assert!(
                matches!(&err, Error::Corrupt(m) if m == "page 17"),
                "{err:?}"
            );
        }
    }
}
