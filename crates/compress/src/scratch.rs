//! Reusable codec scratch state for the zero-allocation hot path.
//!
//! A [`Scratch`] bundles every buffer the codec needs across a page:
//! the LZ77 hash-chain tables, the xdeflate token/frequency/entropy
//! buffers, and the Huffman length working set. One `Scratch` per worker
//! thread turns the per-page swap path into pure compute plus memcpys —
//! after a warm-up page, steady-state `compress_into`/`decompress_into`
//! calls perform no heap allocation.
//!
//! # Examples
//!
//! ```
//! use xfm_compress::{Codec, Scratch, XDeflate};
//!
//! let codec = XDeflate::default();
//! let mut scratch = Scratch::new();
//! let mut out = Vec::with_capacity(4096);
//! for page in [vec![7u8; 4096], vec![9u8; 4096]] {
//!     out.clear();
//!     codec.compress_into(&page, &mut out, &mut scratch)?;
//!     assert!(out.len() < 64);
//! }
//! # Ok::<(), xfm_types::Error>(())
//! ```

use crate::huffman::HuffScratch;
use crate::lz77::Lz77Scratch;
use crate::ratio::MAX_DIMMS;
use crate::xdeflate::{BlockWork, XdefScratch};

/// Per-thread reusable state for [`crate::Codec::compress_into`] and
/// [`crate::Codec::decompress_into`].
///
/// The sub-structs are separate fields (rather than one flat struct) so
/// codec internals can borrow the match-finder tables, the token
/// buffers, and the Huffman length working set disjointly.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// LZ77 hash-chain tables (24 KiB for a page) and the first-copy
    /// scan's 8 KiB filter; the head table and the filter are refilled
    /// per call.
    pub(crate) lz: Lz77Scratch,
    /// xdeflate token, frequency, entropy-coder, and bitstream buffers.
    pub(crate) xd: XdefScratch,
    /// Huffman tree, the leaf sort's two buffers (each sized for the
    /// whole alphabet on first use) and the package-merge working set.
    pub(crate) huff: HuffScratch,
    /// The multi-channel container's per-DIMM share buffers (packing
    /// gathers into the first; see [`crate::ratio`]).
    pub(crate) shares: [Vec<u8>; MAX_DIMMS],
}

impl Scratch {
    /// Creates empty scratch state; buffers are sized lazily on first
    /// use and retained afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The shape of the block the last `compress_into` through this
    /// scratch made (the last share's, after a multi-channel pack),
    /// read off what the scratch holds: counting costs the compress
    /// nothing. The match search's counts are
    /// [`crate::lz77::MatchFinder::search_work`].
    #[must_use]
    pub fn block_work(&self) -> BlockWork {
        self.xd.work()
    }

    /// Pre-warms this scratch for `codec` by compressing and
    /// decompressing representative pages through it.
    ///
    /// Lazy sizing means the first few real pages through a fresh
    /// scratch pay every buffer growth and table build — the documented
    /// ~6–12% fresh-vs-warm gap in `BENCH_codec.json`. Backends call
    /// this once at construction so the first *real* page already runs
    /// at steady-state speed. Three synthetic 4 KiB pages size the
    /// three block shapes: text-like (Huffman tables both ways and the
    /// decode window), one long run (the overlapping match copy), and
    /// high-entropy noise (the stored block).
    ///
    /// Returns the number of pages warmed through the codec (0 if any
    /// round-trip failed — warming is best-effort and must never sink a
    /// backend construction).
    pub fn warm(&mut self, codec: &dyn crate::codec::Codec) -> usize {
        const PAGE: usize = 4096;
        // Text-like: moderate entropy with match structure.
        let text: Vec<u8> = b"the quick brown fox jumps over the lazy dog 0123456789 "
            .iter()
            .copied()
            .cycle()
            .take(PAGE)
            .collect();
        // Near-zero page: one run plus a marker byte.
        let mut runs = vec![0u8; PAGE];
        runs[PAGE - 1] = 1;
        // High-entropy: xorshift noise, stored uncompressed.
        let mut noise = Vec::with_capacity(PAGE);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        while noise.len() < PAGE {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            noise.extend_from_slice(&state.to_le_bytes());
        }
        noise.truncate(PAGE);

        let mut compressed = Vec::with_capacity(PAGE + 64);
        let mut restored = Vec::with_capacity(PAGE);
        let mut warmed = 0usize;
        for page in [&text, &runs, &noise] {
            compressed.clear();
            restored.clear();
            if codec.compress_into(page, &mut compressed, self).is_err() {
                return warmed;
            }
            if codec
                .decompress_into(&compressed, &mut restored, self)
                .is_err()
                || &restored != page
            {
                return warmed;
            }
            warmed += 1;
        }
        warmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use crate::XDeflate;

    #[test]
    fn warm_round_trips_all_three_pages() {
        assert_eq!(Scratch::new().warm(&XDeflate::default()), 3);
    }

    #[test]
    fn warm_scratch_compresses_identically_to_fresh() {
        // Warming must not perturb subsequent output: the scratch
        // contract says compress_into output is independent of prior
        // scratch contents.
        let codec = XDeflate::default();
        let page: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let mut fresh = Scratch::new();
        let mut warmed = Scratch::new();
        warmed.warm(&codec);
        let mut out_fresh = Vec::new();
        let mut out_warm = Vec::new();
        codec
            .compress_into(&page, &mut out_fresh, &mut fresh)
            .unwrap();
        codec
            .compress_into(&page, &mut out_warm, &mut warmed)
            .unwrap();
        assert_eq!(out_fresh, out_warm);
    }
}
