//! `xfm-testkit`: dev-only test support shared by the workspace.
//!
//! It holds the page fixtures the tests share ([`json_page`],
//! [`filled_page`], [`random_page`] and their mix [`mixed_page`]) and
//! the workspace's one counting allocator. A test binary that
//! uses anything from this crate runs on it (the crate installs itself
//! as the `#[global_allocator]`), and every zero-allocation gate asks
//! the same question the same way:
//!
//! ```
//! let allocs = xfm_testkit::count_allocs(|| {
//!     let v: Vec<u8> = Vec::with_capacity(64);
//!     drop(v);
//! });
//! assert_eq!(allocs, 1);
//! ```
//!
//! Counting is **per thread**: `cargo test` runs a file's tests on
//! sibling threads, and a process-wide counter would charge their
//! allocations to whichever test is measuring. The price is that work a
//! closure hands to *other* threads is not counted — every path the
//! gates measure runs on the calling thread.
//!
//! Never a dependency of product code: list it under
//! `[dev-dependencies]` only.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xfm_compress::Corpus;
use xfm_types::PAGE_SIZE;

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread. Const-initialized: the first access inside the allocator
    /// hook must not itself allocate.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread call count.
struct CountingAlloc;

fn note_alloc() {
    // `try_with`: the allocator is still called while a thread's TLS is
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Page `seed` of JSON text: it compresses well.
#[must_use]
pub fn json_page(seed: u64) -> Vec<u8> {
    Corpus::Json.generate(seed, PAGE_SIZE)
}

/// A page every byte of which is `byte`: the same-filled store path.
#[must_use]
pub fn filled_page(byte: u8) -> Vec<u8> {
    vec![byte; PAGE_SIZE]
}

/// Page `seed` of random bytes: it is stored raw.
#[must_use]
pub fn random_page(seed: u64) -> Vec<u8> {
    Corpus::RandomBytes.generate(seed, PAGE_SIZE)
}

/// Page `p` of a mix: every fourth one [`filled_page`], the rest JSON.
#[must_use]
pub fn mixed_page(p: u64) -> Vec<u8> {
    if p.is_multiple_of(4) {
        filled_page(p as u8)
    } else {
        json_page(p)
    }
}

/// Runs `f` and returns how many times the calling thread called the
/// allocator (`alloc`, `alloc_zeroed` or `realloc`) while it ran.
/// Frees are not counted.
pub fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[cfg(test)]
mod tests {
    use super::count_allocs;

    #[test]
    fn counts_this_threads_allocations_only() {
        assert_eq!(count_allocs(|| {}), 0);
        let mut v: Vec<u8> = Vec::new();
        // One `alloc`, then one `realloc` to grow.
        assert_eq!(
            count_allocs(|| {
                v.reserve_exact(16);
                v.reserve_exact(4096);
            }),
            2
        );
        // A sibling thread's allocations are not charged to this one;
        // only spawning it (closure box, join packet) is.
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            go_rx.recv().unwrap();
            let noise: Vec<Vec<u8>> = (0..64).map(|i| vec![0u8; 32 + i]).collect();
            std::hint::black_box(&noise);
            done_tx.send(()).unwrap();
        });
        let while_sibling_allocates = count_allocs(|| {
            go_tx.send(()).unwrap();
            done_rx.recv().unwrap();
        });
        worker.join().unwrap();
        assert!(
            while_sibling_allocates < 8,
            "sibling's 64 allocations leaked into this thread's count: {while_sibling_allocates}"
        );
    }
}
