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
/// The calling thread is one of the workers: `threads - 1` are spawned,
/// none at one thread. Workers claim pages one at a time from a shared
/// counter, so which worker runs which page — and in what order the
/// calls happen — is unspecified; `f` must not depend on it.
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

    let work = || loop {
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
    };
    // The scope joins every spawned worker and re-raises a worker's
    // panic; a panic on the calling thread unwinds through the scope,
    // which joins the others first.
    std::thread::scope(|scope| {
        for _ in 1..threads.min(pages.len()) {
            scope.spawn(work);
        }
        work();
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
    fn one_thread_runs_on_the_calling_thread() {
        // Each page takes a millisecond, long enough for any spawned
        // worker to start and claim pages of its own.
        let slow = |_, _: &Bytes| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            Ok(std::thread::current().id())
        };
        let caller = std::thread::current().id();
        let ran_on = map_pages(&pages(), 1, slow).unwrap();
        assert!(ran_on.iter().all(|&id| id == caller));
        // With more threads the caller is one of the workers.
        let ran_on = map_pages(&pages(), 2, slow).unwrap();
        assert!(ran_on.contains(&caller));
        assert!(ran_on.iter().any(|&id| id != caller));
    }

    #[test]
    fn a_panicking_page_panics_the_caller_at_any_thread_count() {
        for threads in [1usize, 2, 4, 8] {
            let outcome = std::panic::catch_unwind(|| {
                map_pages(&pages(), threads, |index, _| {
                    assert!(index != 9, "page 9");
                    Ok(index)
                })
            });
            assert!(outcome.is_err(), "threads {threads}");
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
