//! Proves the steady-state codec hot path performs no heap allocation.
//!
//! The test warms a [`Scratch`] up (first pages size every internal
//! buffer), then counts this thread's allocator calls
//! (`xfm_testkit::count_allocs`) while it pushes more pages through
//! `compress_into`/`decompress_into` with pre-reserved output buffers:
//! the count must stay at zero. This pins the tentpole property — after
//! warm-up, tokenize + entropy encode + bitstream emit touch no heap.

use xfm_compress::ratio::{pack_page_into, unpack_page_into};
use xfm_compress::{Codec, Corpus, Scratch, XDeflate};
use xfm_testkit::count_allocs;

const PAGE: usize = 4096;

#[test]
fn steady_state_hot_path_does_not_allocate() {
    let codec = XDeflate::default();

    // Warm-up corpus includes a random page: it maximizes the token
    // count (all literals) and the bitstream length, so every internal
    // buffer reaches its worst-case 4 KiB-page capacity.
    let mut runs = vec![0u8; PAGE];
    runs[PAGE / 2..].fill(0xFF);
    let warmup: Vec<Vec<u8>> = vec![
        Corpus::RandomBytes.generate(7, PAGE),
        Corpus::Json.generate(1, PAGE),
        Corpus::EnglishText.generate(2, PAGE),
        runs.clone(),
    ];
    // Steady-state pages are distinct from the warm-up ones, and cover
    // the three block shapes: Huffman-coded, stored, two long runs.
    let mut steady: Vec<Vec<u8>> = (10..18u64)
        .map(|s| Corpus::Json.generate(s, PAGE))
        .collect();
    steady.push(Corpus::RandomBytes.generate(21, PAGE));
    steady.push(runs);

    let mut scratch = Scratch::new();
    // Output buffers sized for the worst case (the stored-block
    // fallback is src + header).
    let mut compressed = Vec::with_capacity(2 * PAGE);
    let mut restored = Vec::with_capacity(2 * PAGE);

    for page in &warmup {
        compressed.clear();
        codec
            .compress_into(page, &mut compressed, &mut scratch)
            .unwrap();
        restored.clear();
        codec
            .decompress_into(&compressed, &mut restored, &mut scratch)
            .unwrap();
        assert_eq!(&restored, page);
    }

    // Batch-decompress setup: blocks and slice-of-slices views are
    // built (and the per-page dsts pre-sized) before the counted window,
    // mirroring a swap-in prefetch batch reusing its buffers.
    let blocks: Vec<Vec<u8>> = steady
        .iter()
        .map(|p| {
            let mut b = Vec::with_capacity(2 * PAGE);
            codec.compress_into(p, &mut b, &mut scratch).unwrap();
            b
        })
        .collect();
    let srcs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
    let mut batch_dsts: Vec<Vec<u8>> = (0..steady.len())
        .map(|_| Vec::with_capacity(2 * PAGE))
        .collect();

    let mut wrong = 0;
    let allocs = count_allocs(|| {
        for page in &steady {
            compressed.clear();
            codec
                .compress_into(page, &mut compressed, &mut scratch)
                .unwrap();
            restored.clear();
            codec
                .decompress_into(&compressed, &mut restored, &mut scratch)
                .unwrap();
            wrong += usize::from(&restored != page);
        }
        codec
            .decompress_batch_into(&srcs, &mut batch_dsts, &mut scratch)
            .unwrap();
    });

    assert_eq!(wrong, 0, "round trips");
    // The batch is the loop: block `i` lands in `dsts[i]`.
    assert_eq!(batch_dsts, steady, "batch decompress round trip");
    assert_eq!(
        allocs, 0,
        "steady-state compress/decompress hot path allocated {allocs} times"
    );
}

/// The destination the planes pass has exactly a page of capacity: a
/// steady-state xdeflate decode into it must not allocate either — no
/// growth for bytes written ahead of the output, no staging buffer
/// sized per call.
#[test]
fn decode_into_an_exactly_page_sized_destination_does_not_allocate() {
    let codec = XDeflate::default();
    let mut scratch = Scratch::new();
    let families = [Corpus::Json, Corpus::EnglishText, Corpus::SparseRecords];
    let pages: Vec<Vec<u8>> = families
        .iter()
        .flat_map(|corpus| (30..34u64).map(|seed| corpus.generate(seed, PAGE)))
        .collect();
    let blocks: Vec<Vec<u8>> = pages
        .iter()
        .map(|page| {
            let mut block = Vec::new();
            codec.compress_into(page, &mut block, &mut scratch).unwrap();
            block
        })
        .collect();
    let mut restored = Vec::with_capacity(PAGE);
    let capacity = restored.capacity();
    assert_eq!(capacity, PAGE);
    // One decode sizes the decode tables and the output window.
    codec
        .decompress_into(&blocks[0], &mut restored, &mut scratch)
        .unwrap();

    let mut wrong = 0;
    let allocs = count_allocs(|| {
        for (block, page) in blocks.iter().zip(&pages) {
            restored.clear();
            codec
                .decompress_into(block, &mut restored, &mut scratch)
                .unwrap();
            wrong += usize::from(&restored != page);
        }
    });
    assert_eq!(wrong, 0, "round trips");
    assert_eq!(restored.capacity(), capacity);
    assert_eq!(allocs, 0, "exact-capacity decode allocated {allocs} times");
}

/// The multi-channel container packs and unpacks through the caller's
/// scratch alone: once a scratch and the two buffers have seen each
/// family's worst case (a random page stores every share raw), a page
/// packed and unpacked at 1, 2 and 4 DIMMs allocates nothing.
#[test]
fn warm_container_pack_and_unpack_do_not_allocate() {
    let codec = XDeflate::default();
    let mut scratch = Scratch::new();
    let mut container = Vec::with_capacity(2 * PAGE);
    let mut restored = Vec::with_capacity(2 * PAGE);
    let warmup = [
        Corpus::RandomBytes.generate(7, PAGE),
        Corpus::Json.generate(1, PAGE),
        Corpus::EnglishText.generate(2, PAGE),
        Corpus::StructDump.generate(3, PAGE),
    ];
    let steady: Vec<Vec<u8>> = [Corpus::Json, Corpus::RandomBytes, Corpus::StructDump]
        .iter()
        .flat_map(|corpus| (40..43u64).map(|seed| corpus.generate(seed, PAGE)))
        .collect();
    let mut round_trip = |page: &[u8], n: usize, scratch: &mut Scratch| {
        container.clear();
        pack_page_into(&codec, page, n, scratch, &mut container).unwrap();
        restored.clear();
        unpack_page_into(&codec, &container, scratch, &mut restored).unwrap();
        usize::from(restored != page)
    };
    for n in [1, 2, 4] {
        for page in &warmup {
            assert_eq!(round_trip(page, n, &mut scratch), 0);
        }
    }

    for n in [1, 2, 4] {
        let mut wrong = 0;
        let allocs = count_allocs(|| {
            for page in &steady {
                wrong += round_trip(page, n, &mut scratch);
            }
        });
        assert_eq!(wrong, 0, "round trips at {n} DIMMs");
        assert_eq!(
            allocs, 0,
            "warm container at {n} DIMMs allocated {allocs} times"
        );
    }
}
