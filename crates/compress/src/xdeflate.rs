//! `xdeflate`: an LZ77 + canonical-Huffman block codec.
//!
//! The format is DEFLATE-inspired but self-contained:
//!
//! ```text
//! stream  := block* ;  each block starts with
//!   final : 1 bit      (1 on the last block)
//!   type  : 1 bit      (0 = stored, 1 = compressed)
//! stored  := align; len:u16le; raw bytes
//! compressed :=
//!   lit_lens  : RLE-coded code-length vector for the 265-symbol
//!               literal/length alphabet (0..=255 literal, 256 EOB,
//!               257+k = match with bit_length(len - MIN_MATCH + 1) = k+1)
//!   dist_lens : RLE-coded lengths for the 17-symbol distance alphabet
//!               (symbol d = bit_length(dist) in 1..=16, d - 1 extra bits
//!               follow; symbol 0 is unused and never valid)
//!   tokens, terminated by EOB
//! ```
//!
//! Match lengths and distances are coded as `(bucket symbol, extra bits)`
//! where the bucket is the bit length of the value — a simple exponential
//! bucketing that keeps the alphabets small for page-sized inputs.
//!
//! # Encoding
//!
//! Four stages (see [`Stage`]; [`XDeflate::compress_staged`] reports
//! each as it ends). *Tokenize:* the tokenizer (`lz77`, zlib level 6's
//! search discipline) streams into the scratch, which counts symbol
//! frequencies as tokens arrive; the literals before the first token
//! are only counted, and the writer reads them from the input. A page
//! in which no 4-byte word repeats never reaches the match search, so a
//! random page costs a scan, a histogram and one code fit on its way to
//! the stored block. *Fit:* the two Huffman codes. *Price:* both length
//! vectors are walked once into the scratch's `(value, run)` pairs, and
//! the block's exact size is summed from them and the statistics. A
//! page whose price is not below its length plus the 4 bytes of a
//! stored header is stored as it is. *Write:* both codes are built over
//! their active symbols, with two per-block tables — one entry a token
//! names by its low bits (a literal's code, or a match length's bucket
//! code and extra bits), and per distance bucket the code with the
//! distance's top bit to cancel — and the header pairs, literal prefix,
//! tokens and end of block go out through one 64-bit accumulator stored
//! whole, 8 bytes, per put, into a buffer sized from the price. The
//! token loop branches on no token: the distance part is masked off for
//! a literal. `mod reference` (tests only) keeps the branchy writer and
//! the twice-walked header and price the block must equal.
//!
//! # Decoding
//!
//! A demand fault waits for exactly one codec call, this decoder, so it
//! is built around what a 4 KiB page costs: two table set-ups and about
//! a thousand tokens.
//!
//! *Tables.* The header's `(value:4, run:8)` pairs are read four to a
//! 64-bit load while the input allows, and the decoders are built from
//! the pairs themselves: no length vector is filled. [`Decoder`]'s
//! build counts the codes of each length and chains the runs of each
//! length in one pass over the pairs, then grows a lookup table of
//! `2^min(longest code, 10)` entries by doubling, placing each run's
//! codes as its length comes up — nothing is sorted, and a run of
//! absent symbols costs one pair. An entry packs what the token loop
//! needs: the code length, the bits the code and its extra bits take
//! together, and the literal byte or the bucket's base value (per
//! symbol from `LIT_ENTRIES` / `DIST_ENTRIES`, plus the length). Codes
//! longer than the table is wide (rare: they belong to the least
//! frequent symbols) are found by first-code arithmetic.
//!
//! *Tokens.* The output is decoded into a window kept in the scratch
//! and appended to the caller's buffer once, at the end, so the decoder
//! writes by index, always has room to write ahead, and neither its
//! speed nor its allocations depend on the capacity the caller passed
//! (a destination with room for the result is never reallocated; on an
//! error it is left untouched). `decode_tokens` runs a fast loop while
//! `FAST_OUT` window bytes lie ahead — one 64-bit load per token tops
//! the bit buffer up to 56 bits, enough for three literals or a length
//! and a distance, so no read in it is checked and nothing in it can
//! fail. It reads the input in place while 15 bytes of it lie ahead and
//! its last bytes from a zero-padded stack copy, where a pass that
//! consumed more bits than the stream holds is undone. Every token it
//! cannot finish (end of block, a long code, bits that are no code, a
//! distance before the output, a token cut off by the end of the input)
//! goes to a careful step that decodes one token through the checked
//! [`BitReader`] and is the only place a damaged stream turns into
//! [`Error::Corrupt`]; on a valid page that is the end of block alone.
//! Matches are copied in 16- and 8-byte blocks (`lz77::copy_match_at`).
//!
//! `mod reference` (tests only) also holds the same format read one bit
//! at a time; the two must agree on every stream, valid or damaged.

use xfm_types::{Error, Result};

use crate::bitio::{BitReader, WideBits};
use crate::codec::{Codec, CodecKind};
use crate::huffman::{
    code_lengths_into, Decoder, Encoder, ENTRY_LEN_MASK, ENTRY_PAYLOAD_SHIFT, MAX_CODE_LEN,
    PACKED_LEN_BITS,
};
use crate::lz77::{copy_match_at, MatchFinder, TokenSink, COPY_SLACK, MAX_MATCH, MIN_MATCH};
use crate::scratch::Scratch;

/// Literal/length alphabet size: 256 literals + EOB + 8 length buckets.
const LIT_SYMS: usize = 256 + 1 + 8;
/// End-of-block symbol.
const EOB: usize = 256;
/// Distance alphabet size: bit_length(dist) for dist in 1..=32768
/// (bit_length(32768) = 16, so symbols 1..=16 are valid).
const DIST_SYMS: usize = 17;
/// Distance buckets: symbols 1..=16.
const DIST_BUCKETS: usize = DIST_SYMS - 1;

/// The xdeflate codec.
///
/// # Examples
///
/// ```
/// use xfm_compress::{Codec, XDeflate};
///
/// let codec = XDeflate::default();
/// let page = vec![7u8; 4096];
/// let mut out = Vec::new();
/// codec.compress(&page, &mut out)?;
/// assert!(out.len() < 64); // a constant page compresses drastically
/// # Ok::<(), xfm_types::Error>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct XDeflate {
    finder: MatchFinder,
}

impl XDeflate {
    /// Creates the codec with a specific match-finder profile.
    #[must_use]
    pub fn with_finder(finder: MatchFinder) -> Self {
        Self { finder }
    }
}

/// Tag bit marking a packed token as a match.
const MATCH_BIT: u32 = 1 << 31;
/// A token's low bits: its entry in the block's literal/length table.
const ENTRY_BITS: u32 = 9;
/// Where a match token's distance bucket sits.
const BUCKET_SHIFT: u32 = ENTRY_BITS;
/// Where a match token's distance sits.
const DIST_SHIFT: u32 = BUCKET_SHIFT + 4;

/// The packed token of a match of `len` bytes at `dist`.
fn match_token(len: u32, dist: u32) -> u32 {
    let bucket = dist_bucket(dist).0 as u32 - 1;
    MATCH_BIT | dist << DIST_SHIFT | bucket << BUCKET_SHIFT | (256 + len - MIN_MATCH as u32)
}

/// Reusable xdeflate state: the packed token buffer, symbol statistics,
/// entropy coders, and the output bitstream writer.
///
/// Tokens pack into one `u32` each, laid out for the writer: the low
/// 9 bits are the token's entry in the block's literal/length table —
/// a literal's byte, or `256 + len - MIN_MATCH` — and a match also has
/// bit 31 set, its distance bucket `k` (`bit_length(dist) - 1`) in bits
/// 9..13 and its distance from bit 13 on. A literal token is its byte. The tokenizer feeds this
/// struct directly (it implements [`TokenSink`]), so frequency counting
/// happens while tokens stream in — no intermediate `Vec<Token>`. The
/// literals before the first token — all of an incompressible input —
/// are only counted: the writer takes them from the input.
#[derive(Debug, Clone)]
pub struct XdefScratch {
    tokens: Vec<u32>,
    /// Bytes at the start of the input that arrived as literals before
    /// any token.
    prefix: usize,
    lit_freq: [u64; LIT_SYMS],
    dist_freq: [u64; DIST_SYMS],
    lit_lens: Vec<u32>,
    dist_lens: Vec<u32>,
    /// The symbols each fitted code has a length for, in symbol order.
    lit_active: Vec<u32>,
    dist_active: Vec<u32>,
    /// The `(value, run)` pairs of both length vectors, literal/length
    /// first, each packed as the 12 bits it is sent as: what the price
    /// counts and the header writes.
    runs: Vec<u32>,
    codes: BlockCodes,
    /// Where a block is written: never shrunk, so it is sized once.
    block: Vec<u8>,
    /// The `(value, run)` pairs of the block being decoded, packed as
    /// in `runs`: literal/length first, then distance.
    header: Vec<u32>,
    lit_dec: Decoder,
    dist_dec: Decoder,
    /// Where a stream is decoded before it is appended to the caller's
    /// buffer: kept at its largest length, so the decoder writes by
    /// index and always has room to spare.
    window: Vec<u8>,
    /// Whether the last compress stored its input.
    stored: bool,
}

impl Default for XdefScratch {
    fn default() -> Self {
        Self {
            tokens: Vec::new(),
            prefix: 0,
            lit_freq: [0; LIT_SYMS],
            dist_freq: [0; DIST_SYMS],
            lit_lens: Vec::new(),
            dist_lens: Vec::new(),
            lit_active: Vec::new(),
            dist_active: Vec::new(),
            runs: Vec::new(),
            codes: BlockCodes::default(),
            block: Vec::new(),
            header: Vec::new(),
            lit_dec: Decoder::default(),
            dist_dec: Decoder::default(),
            window: Vec::new(),
            stored: false,
        }
    }
}

/// The block side of one compress, read off what the scratch holds
/// after it (see [`crate::Scratch::block_work`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockWork {
    /// Literal tokens, the literal prefix included.
    pub literals: u32,
    /// Match tokens.
    pub matches: u32,
    /// Symbols of the literal/length alphabet with a nonzero count
    /// (end of block included): the leaves of its code.
    pub active_literals: u32,
    /// `(value, run)` pairs the two code-length vectors take.
    pub header_runs: u32,
    /// Whether the input was stored rather than coded.
    pub stored: bool,
}

impl XdefScratch {
    /// What the last compress through this scratch did.
    pub(crate) fn work(&self) -> BlockWork {
        let count = |freqs: &[u64]| freqs.iter().sum::<u64>() as u32;
        BlockWork {
            literals: count(&self.lit_freq[..EOB]),
            matches: count(&self.lit_freq[EOB + 1..]),
            active_literals: self.lit_freq.iter().filter(|&&f| f > 0).count() as u32,
            header_runs: self.runs.len() as u32,
            stored: self.stored,
        }
    }

    fn reset(&mut self) {
        self.tokens.clear();
        self.prefix = 0;
        self.lit_freq = [0; LIT_SYMS];
        self.dist_freq = [0; DIST_SYMS];
    }
}

impl TokenSink for XdefScratch {
    fn literal(&mut self, byte: u8) {
        self.lit_freq[byte as usize] += 1;
        self.tokens.push(u32::from(byte));
    }

    fn emit_match(&mut self, len: u32, dist: u32) {
        self.lit_freq[length_bucket(len).0] += 1;
        self.dist_freq[dist_bucket(dist).0] += 1;
        self.tokens.push(match_token(len, dist));
    }

    /// The bytes before the first repeated word — all of an
    /// incompressible page — arrive here in one piece, and before any
    /// token: they are counted, and the writer reads them from the
    /// input. (The input's last few bytes arrive here too, after the
    /// tokens, and are stored as tokens.)
    fn literals(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lit_freq[usize::from(b)] += 1;
        }
        if self.tokens.is_empty() {
            self.prefix += bytes.len();
        } else {
            self.tokens.extend(bytes.iter().map(|&b| u32::from(b)));
        }
    }
}

fn length_bucket(len: u32) -> (usize, u32, u32) {
    // Value coded: len - MIN_MATCH + 1, in 1..=255.
    let v = len - MIN_MATCH as u32 + 1;
    let bits = 32 - v.leading_zeros(); // bit_length >= 1
    let extra_bits = bits - 1;
    let extra_val = v - (1 << extra_bits);
    (257 + (bits - 1) as usize, extra_val, extra_bits)
}

const fn length_unbucket(symbol: usize, extra: u32) -> u32 {
    let bits = (symbol - 257) as u32 + 1;
    let v = (1 << (bits - 1)) + extra;
    v + MIN_MATCH as u32 - 1
}

fn dist_bucket(dist: u32) -> (usize, u32, u32) {
    let bits = 32 - dist.leading_zeros();
    let extra_bits = bits - 1;
    let extra_val = dist - (1 << extra_bits);
    (bits as usize, extra_val, extra_bits)
}

const fn dist_unbucket(symbol: usize, extra: u32) -> u32 {
    let bits = symbol as u32;
    (1 << (bits - 1)) + extra
}

/// Bits per `(value:4, run:8)` pair of an RLE-coded length vector.
const RUN_BITS: u64 = 12;

/// Appends the `(value, run)` pairs `lens` is sent as — maximal runs of
/// equal lengths, split at 255 — to `runs`, each packed as its 12 bits,
/// `value | run << 4`.
fn push_runs(lens: &[u32], runs: &mut Vec<u32>) {
    let start = runs.len();
    // At most one pair a length.
    runs.resize(start + lens.len(), 0);
    let mut at = start;
    for run in lens.chunk_by(|a, b| a == b).flat_map(|run| run.chunks(255)) {
        runs[at] = run[0] | (run.len() as u32) << 4;
        at += 1;
    }
    runs.truncate(at);
}

/// Appends `src` as stored blocks. Each carries at most 64 KiB - 1
/// bytes, so large inputs chain blocks; an empty input is one empty
/// final block.
fn write_stored(dst: &mut Vec<u8>, src: &[u8]) {
    let mut chunks = src.chunks(0xffff).peekable();
    if src.is_empty() {
        dst.extend_from_slice(&[1, 0, 0]);
    }
    while let Some(chunk) = chunks.next() {
        // final:1 then type:1 = 0 (stored), padded to the byte.
        dst.push(u8::from(chunks.peek().is_none()));
        dst.extend_from_slice(&(chunk.len() as u16).to_le_bytes());
        dst.extend_from_slice(chunk);
    }
}

impl XdefScratch {
    /// Exact size in bytes of the compressed block that
    /// [`Self::write_compressed_block`] would emit for the current
    /// tokens and code lengths — summed from the symbol statistics, so
    /// the stored-or-compressed decision costs no bit writing. Walks both
    /// length vectors once, leaving the header's `(value, run)` pairs in
    /// `runs` for the writer.
    fn compressed_block_bytes(&mut self) -> usize {
        self.runs.clear();
        push_runs(&self.lit_lens, &mut self.runs);
        push_runs(&self.dist_lens, &mut self.runs);
        let header = 2 + RUN_BITS * self.runs.len() as u64;
        let cost = |freqs: &[u64], lens: &[u32]| -> u64 {
            freqs
                .iter()
                .zip(lens)
                .map(|(&f, &l)| f * u64::from(l))
                .sum()
        };
        let lit = cost(&self.lit_freq, &self.lit_lens);
        let dist = cost(&self.dist_freq, &self.dist_lens);
        // Length bucket 257 + k and distance bucket d carry k and d - 1
        // extra bits (see `length_bucket` / `dist_bucket`).
        let len_extra: u64 = (0u64..)
            .zip(&self.lit_freq[EOB + 1..])
            .map(|(k, &f)| f * k)
            .sum();
        let dist_extra: u64 = (0u64..)
            .zip(&self.dist_freq[1..])
            .map(|(k, &f)| f * k)
            .sum();
        (header + lit + len_extra + dist + dist_extra).div_ceil(8) as usize
    }

    /// Entropy-codes the block into `self.block` as one final
    /// compressed block, byte-aligned, and returns its length: the
    /// header's pairs, the literal prefix (read from `src`), the tokens
    /// and the end of block, all through one [`BlockOut`]. `block_bytes`
    /// is its price, [`Self::compressed_block_bytes`].
    fn write_compressed_block(&mut self, src: &[u8], block_bytes: usize) -> usize {
        let codes = &mut self.codes;
        codes.rebuild(
            (&self.lit_lens, &self.lit_active),
            (&self.dist_lens, &self.dist_active),
        );
        let mut out = BlockOut::new(&mut self.block, 0, 0, 0, block_bytes);
        out.put(0b11, 2); // final, compressed
        for &pair in &self.runs {
            out.put(u64::from(pair), RUN_BITS as u32);
        }
        for &byte in &src[..self.prefix] {
            out.put_code(codes.litlen[usize::from(byte)]);
        }
        let mut out = write_tokens(out, &self.tokens, codes);
        out.put_code(codes.lit.packed()[EOB]);
        out.align()
    }
}

/// A block's codes the way the token writer reads them, rebuilt per
/// block from the fitted lengths: both alphabets' packed code words
/// (see [`Encoder`]) and two tables that fold a match's bucket
/// arithmetic into a load.
#[derive(Debug, Clone)]
struct BlockCodes {
    lit: Encoder,
    dist: Encoder,
    /// Indexed by a token's low [`ENTRY_BITS`]: a literal's code word,
    /// or for `256 + len - MIN_MATCH` the code of the length's bucket
    /// with its extra bits above it, packed like a code word (the length
    /// field counts both). Only the active symbols' entries are written.
    litlen: Box<[u32; 1 << ENTRY_BITS]>,
    /// Per distance bucket `k` (bucket symbol `k + 1`, `k` extra bits):
    /// `(code ^ 1 << (bits + k), bits)` for its `bits`-bit code. A
    /// distance `d` of the bucket then codes as `xor ^ d << bits`: the
    /// top bit of `d` cancels, leaving the code with `d - 2^k` above it.
    dists: [(u32, u32); DIST_BUCKETS],
}

impl Default for BlockCodes {
    fn default() -> Self {
        Self {
            lit: Encoder::default(),
            dist: Encoder::default(),
            litlen: Box::new([0; 1 << ENTRY_BITS]),
            dists: [(0, 0); DIST_BUCKETS],
        }
    }
}

impl BlockCodes {
    /// Builds the codes from each alphabet's `(lengths, active symbols)`
    /// — a fitted code's, so valid by construction.
    fn rebuild(&mut self, (lit_lens, lit_active): (&[u32], &[u32]), dist: (&[u32], &[u32])) {
        self.lit.rebuild_active(lit_lens, lit_active);
        self.dist.rebuild_active(dist.0, dist.1);
        let packed = self.lit.packed();
        for &sym in lit_active {
            let sym = sym as usize;
            if sym < EOB {
                self.litlen[sym] = packed[sym];
            } else if sym > EOB {
                // Bucket k holds `len - MIN_MATCH + 1` in 2^k..2^(k+1).
                let k = (sym - 257) as u32;
                let (code, bits) = self.lit.code(sym);
                for value in 1u32 << k..(2u32 << k).min(256) {
                    let part = code | (value - (1 << k)) << bits;
                    self.litlen[255 + value as usize] = part << PACKED_LEN_BITS | (bits + k);
                }
            }
        }
        for (k, entry) in (0u32..).zip(&mut self.dists) {
            let (code, bits) = self.dist.code(k as usize + 1);
            *entry = (code ^ 1 << (bits + k), bits);
        }
    }
}

/// The block writer's output: whole bytes go straight into a buffer
/// with room for the block and 8 bytes more, and the fewer than 8 bits
/// after them wait in a 64-bit accumulator. Every put stores the
/// accumulator whole, 8 bytes, at the output's byte position, which
/// then moves by the whole bytes written: one unconditional store a
/// put, and nothing to test. The loops that put take it by value, so
/// its fields live in registers.
struct BlockOut<'a> {
    bytes: &'a mut [u8],
    at: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BlockOut<'a> {
    /// Writes into `buf` from byte `at` on, after the fewer than 32 bits
    /// `acc` holds, at most `room` bytes. `buf` only ever grows: every
    /// byte up to the end of the output is stored before it is read.
    fn new(buf: &'a mut Vec<u8>, at: usize, acc: u64, nbits: u32, room: usize) -> Self {
        if buf.len() < at + room + 8 {
            buf.resize(at + room + 8, 0);
        }
        let mut out = Self {
            bytes: buf,
            at,
            acc,
            nbits,
        };
        out.put(0, 0);
        out
    }

    /// Appends the low `bits` bits of `value`, at most 56.
    #[inline(always)]
    fn put(&mut self, value: u64, bits: u32) {
        self.acc |= value << self.nbits;
        self.nbits += bits;
        self.bytes[self.at..self.at + 8].copy_from_slice(&self.acc.to_le_bytes());
        let whole = self.nbits / 8;
        self.at += whole as usize;
        self.acc >>= 8 * whole;
        self.nbits %= 8;
    }

    /// Appends a packed code word's code.
    #[inline(always)]
    fn put_code(&mut self, packed: u32) {
        self.put(
            u64::from(packed >> PACKED_LEN_BITS),
            packed & ((1 << PACKED_LEN_BITS) - 1),
        );
    }

    /// Pads with zero bits to the next byte boundary and returns the
    /// output's length in bytes.
    fn align(mut self) -> usize {
        self.put(0, (8 - self.nbits) % 8);
        self.at
    }
}

/// Writes packed tokens (see [`XdefScratch`]) to `out`.
///
/// Nothing in the loop branches on a token. A token is two parts: its
/// literal/length code with the length's extra bits — one load, the
/// `litlen` entry the token's low bits name — and its distance code with
/// the distance's extra bits, from the `dists` entry of the bucket the
/// token carries. The distance part is computed for every token (a
/// literal's bucket and distance fields are zero) and masked off unless
/// the token is a match. The two parts (at most 22 + 30 bits) go out in
/// one put.
fn write_tokens<'a>(mut out: BlockOut<'a>, tokens: &[u32], codes: &BlockCodes) -> BlockOut<'a> {
    let (litlen, dists) = (&*codes.litlen, &codes.dists);
    for &t in tokens {
        let keep = u64::from(t >> 31).wrapping_neg();
        let word = litlen[(t % (1 << ENTRY_BITS)) as usize];
        let lit_bits = word & ((1 << PACKED_LEN_BITS) - 1);
        let k = t >> BUCKET_SHIFT & 0xf;
        let (xor, bits) = dists[k as usize];
        let d = t >> DIST_SHIFT & 0xffff;
        let dist_part = u64::from(xor ^ d << bits) & keep;
        let dist_bits = (bits + k) & keep as u32;
        out.put(
            u64::from(word >> PACKED_LEN_BITS) | dist_part << lit_bits,
            lit_bits + dist_bits,
        );
    }
    out
}

/// The stages of [`XDeflate::compress_staged`], in the order they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The match search: tokens into the scratch, symbol counts with
    /// them.
    Tokenize,
    /// Both Huffman codes fitted to the counts.
    Fit,
    /// The compressed block priced from the counts and code lengths.
    Price,
    /// The block written, or the input stored when its price says so.
    Write,
}

impl XDeflate {
    /// [`Codec::compress_into`], calling `lap(stage)` as each [`Stage`]
    /// ends — for a caller that times the stages; `compress_into` is
    /// this with a `lap` that does nothing. The block's shape is
    /// [`Scratch::block_work`] afterwards.
    ///
    /// # Errors
    ///
    /// As [`Codec::compress_into`].
    pub fn compress_staged(
        &self,
        src: &[u8],
        dst: &mut Vec<u8>,
        scratch: &mut Scratch,
        mut lap: impl FnMut(Stage),
    ) -> Result<usize> {
        let start = dst.len();
        self.tokenize(src, scratch);
        lap(Stage::Tokenize);
        fit_codes(scratch)?;
        lap(Stage::Fit);
        let xd = &mut scratch.xd;
        // Price, then write: when entropy coding does not beat a stored
        // block by its 4 bytes (the SFM stores incompressible pages
        // raw), nothing is encoded at all.
        let block_bytes = xd.compressed_block_bytes();
        lap(Stage::Price);
        xd.stored = block_bytes >= src.len() + 4;
        if xd.stored {
            write_stored(dst, src);
        } else {
            let len = xd.write_compressed_block(src, block_bytes);
            dst.extend_from_slice(&xd.block[..len]);
        }
        lap(Stage::Write);
        Ok(dst.len() - start)
    }

    /// Tokenizes `src` straight into the scratch, whose sink counts
    /// symbol frequencies as tokens stream in.
    fn tokenize(&self, src: &[u8], scratch: &mut Scratch) {
        let Scratch { lz, xd, .. } = scratch;
        xd.reset();
        self.finder.tokenize_into(src, lz, xd);
        xd.lit_freq[EOB] += 1;
    }
}

/// Fits the two Huffman codes to the counts, leaving everything
/// [`XdefScratch::compressed_block_bytes`] and
/// [`XdefScratch::write_compressed_block`] need.
fn fit_codes(scratch: &mut Scratch) -> Result<()> {
    let Scratch { xd, huff, .. } = scratch;
    code_lengths_into(&xd.lit_freq, MAX_CODE_LEN, huff, &mut xd.lit_lens)?;
    xd.lit_active.clear();
    xd.lit_active.extend_from_slice(huff.active());
    code_lengths_into(&xd.dist_freq, MAX_CODE_LEN, huff, &mut xd.dist_lens)?;
    xd.dist_active.clear();
    xd.dist_active.extend_from_slice(huff.active());
    Ok(())
}

/// Appends the `(value, run)` pairs of an `n`-symbol length vector,
/// each as its 12 bits (`value | run << 4`), to `runs`, which has room
/// for them; a run of 0 or past the alphabet's end is
/// [`Error::Corrupt`]. While eight input bytes lie ahead one load
/// serves four pairs; the last few are read checked.
fn read_runs(r: &mut BitReader<'_>, n: usize, runs: &mut Vec<u32>) -> Result<()> {
    fn take(pair: u32, at: &mut usize, n: usize, runs: &mut Vec<u32>) -> Result<()> {
        let run = (pair >> 4) as usize;
        if run == 0 || *at + run > n {
            return Err(Error::Corrupt("bad code-length run".into()));
        }
        debug_assert!(runs.len() < runs.capacity());
        runs.push(pair);
        *at += run;
        Ok(())
    }
    let mut at = 0;
    let mut w = r.wide();
    'wide: while at < n && w.has(8) {
        w.refill();
        for _ in 0..4 {
            take(w.bits() as u32 & 0xfff, &mut at, n, runs)?;
            w.skip(RUN_BITS as u32);
            if at == n {
                break 'wide;
            }
        }
    }
    r.resume(w);
    while at < n {
        take(r.read_bits(RUN_BITS as u32)?, &mut at, n, runs)?;
    }
    Ok(())
}

// Decode-table entries (see [`Decoder::rebuild_runs`]): above the code
// length, the bits the whole token part takes — the code and the extra
// bits that follow it — then a 16-bit base: the byte of a literal, the
// smallest value of a length or distance bucket.
const ENTRY_TOTAL_SHIFT: u32 = ENTRY_PAYLOAD_SHIFT;
const ENTRY_TOTAL_MASK: u32 = 0x1f;
const ENTRY_BASE_SHIFT: u32 = 13;
const ENTRY_BASE_MASK: u32 = 0xffff;
/// Entry of the end-of-block symbol.
const ENTRY_EOB: u32 = 1 << 29;
/// Entry of a length or distance bucket.
const ENTRY_BUCKET: u32 = 1 << 30;
/// Entry of a literal.
const ENTRY_LITERAL: u32 = 1 << 31;

const fn entry(kind: u32, base: u32, extra_bits: u32) -> u32 {
    kind | base << ENTRY_BASE_SHIFT | extra_bits << ENTRY_TOTAL_SHIFT
}

/// Reads a compressed block's header — the `(value, run)` pairs of both
/// length vectors — and builds both decoders from it.
fn read_codes(r: &mut BitReader<'_>, xd: &mut XdefScratch) -> Result<()> {
    // At most a pair a symbol, so the pushes never allocate.
    xd.header.clear();
    xd.header.reserve(LIT_SYMS + DIST_SYMS);
    read_runs(r, LIT_SYMS, &mut xd.header)?;
    let lit_pairs = xd.header.len();
    read_runs(r, DIST_SYMS, &mut xd.header)?;
    let (lit_runs, dist_runs) = xd.header.split_at(lit_pairs);
    xd.lit_dec.rebuild_runs(lit_runs, LIT_SYMS, |sym, len| {
        LIT_ENTRIES[sym] + (len << ENTRY_TOTAL_SHIFT)
    })?;
    xd.dist_dec.rebuild_runs(dist_runs, DIST_SYMS, |sym, len| {
        DIST_ENTRIES[sym] + (len << ENTRY_TOTAL_SHIFT)
    })
}

/// A symbol's entry without its code's length, which adds to the bits
/// the token takes: a literal's byte, the end of block, or a bucket's
/// base and extra bits.
const fn lit_entry(sym: usize) -> u32 {
    match sym {
        0..EOB => entry(ENTRY_LITERAL, sym as u32, 0),
        EOB => entry(ENTRY_EOB, 0, 0),
        _ => entry(ENTRY_BUCKET, length_unbucket(sym, 0), (sym - 257) as u32),
    }
}

/// Distance symbol 0 has no meaning; a stream that codes it gets an
/// entry that is no bucket.
const fn dist_entry(sym: usize) -> u32 {
    match sym {
        0 => entry(0, 0, 0),
        _ => entry(ENTRY_BUCKET, dist_unbucket(sym, 0), sym as u32 - 1),
    }
}

/// [`lit_entry`] and [`dist_entry`] of every symbol: a table build adds
/// the code length to the one it looks up.
static LIT_ENTRIES: [u32; LIT_SYMS] = {
    let mut table = [0; LIT_SYMS];
    let mut sym = 0;
    while sym < LIT_SYMS {
        table[sym] = lit_entry(sym);
        sym += 1;
    }
    table
};
static DIST_ENTRIES: [u32; DIST_SYMS] = {
    let mut table = [0; DIST_SYMS];
    let mut sym = 0;
    while sym < DIST_SYMS {
        table[sym] = dist_entry(sym);
        sym += 1;
    }
    table
};

// The largest length bucket ends exactly at MAX_MATCH and the smallest
// starts at MIN_MATCH, so a decoded length needs no range check.
const _: () = assert!(
    length_unbucket(257, 0) == MIN_MATCH as u32
        && length_unbucket(LIT_SYMS - 1, (1 << (LIT_SYMS - 1 - 257)) - 1) == MAX_MATCH as u32
);

#[inline(always)]
fn entry_base(entry: u32) -> u32 {
    (entry >> ENTRY_BASE_SHIFT) & ENTRY_BASE_MASK
}

#[inline(always)]
fn entry_total_bits(entry: u32) -> u32 {
    (entry >> ENTRY_TOTAL_SHIFT) & ENTRY_TOTAL_MASK
}

/// The value a bucket entry codes, given the bits that start with its
/// code: the base plus the extra bits after the code.
#[inline(always)]
fn bucket_value(entry: u32, bits: u64) -> usize {
    let len = entry & ENTRY_LEN_MASK;
    let extra = (bits >> len) as u32 & ((1 << (entry_total_bits(entry) - len)) - 1);
    (entry_base(entry) + extra) as usize
}

/// Most bits a length takes (its code and the extra bits of the widest
/// bucket), and most a distance takes.
const MAX_LENGTH_BITS: u32 = MAX_CODE_LEN + (LIT_SYMS as u32 - 258);
const MAX_DISTANCE_BITS: u32 = MAX_CODE_LEN + (DIST_SYMS as u32 - 2);
/// Bits a [`crate::bitio::WideBits::refill`] guarantees.
const REFILL_BITS: u32 = 56;

// What the fast loop decodes after one refill.
const _: () =
    assert!(3 * MAX_CODE_LEN <= REFILL_BITS && MAX_LENGTH_BITS + MAX_DISTANCE_BITS <= REFILL_BITS);

/// Input bytes a pass of the fast loop may load: two refills of at
/// most 7 whole bytes each, the second reading 8.
const FAST_IN: usize = 7 + 8;
/// Output bytes a pass of the fast loop may write: two literals and a
/// match (three literals are fewer) with what its copy writes past it.
const FAST_OUT: usize = 2 + MAX_MATCH + COPY_SLACK;

/// Makes `window` at least `need` bytes long, doubling so that a long
/// output is extended a logarithmic number of times.
#[inline]
fn ensure_window(window: &mut Vec<u8>, need: usize) {
    #[cold]
    fn grow(window: &mut Vec<u8>, need: usize) {
        window.resize(need.max(2 * window.len()), 0);
    }
    if window.len() < need {
        grow(window, need);
    }
}

/// Bytes of the zero-padded copy the fast loop decodes the input's last
/// bytes from: fewer than [`FAST_IN`] of them are left, and a pass that
/// starts with no bit overrun has loaded at most 7 bytes past them.
const TAIL_PAD: usize = (FAST_IN - 1) + 7 + FAST_IN;

/// The decode tables as the fast loop reads them: each with its index
/// mask.
#[derive(Clone, Copy)]
struct Tables<'t> {
    lit: &'t [u32],
    lit_mask: usize,
    dist: &'t [u32],
    dist_mask: usize,
}

/// One pass of the fast loop: up to three literals, or up to two and a
/// match, decoded off one or two refills and written to
/// `out[*produced..]`. Returns `false`, with the token it met left
/// unconsumed, on anything it does not finish — the end-of-block
/// symbol, a code longer than the table is wide, bits that are no code,
/// a distance that reaches before the output.
#[inline(always)]
fn fast_pass(w: &mut WideBits<'_>, out: &mut [u8], produced: &mut usize, t: Tables<'_>) -> bool {
    w.refill();
    let mut entry = t.lit[w.bits() as usize & t.lit_mask];
    if entry & ENTRY_LITERAL != 0 {
        out[*produced] = entry_base(entry) as u8;
        *produced += 1;
        w.skip(entry & ENTRY_LEN_MASK);
        entry = t.lit[w.bits() as usize & t.lit_mask];
        if entry & ENTRY_LITERAL != 0 {
            out[*produced] = entry_base(entry) as u8;
            *produced += 1;
            w.skip(entry & ENTRY_LEN_MASK);
            entry = t.lit[w.bits() as usize & t.lit_mask];
            if entry & ENTRY_LITERAL != 0 {
                out[*produced] = entry_base(entry) as u8;
                *produced += 1;
                w.skip(entry & ENTRY_LEN_MASK);
                return true;
            }
        }
        w.refill();
    }
    if entry & ENTRY_BUCKET == 0 {
        return false;
    }
    // The match is read off the bits as they stand and consumed only
    // once its distance checks out.
    let len_bits = entry_total_bits(entry);
    let len = bucket_value(entry, w.bits());
    let dist_bits = w.bits() >> len_bits;
    let dentry = t.dist[dist_bits as usize & t.dist_mask];
    let back = bucket_value(dentry, dist_bits);
    if dentry & ENTRY_BUCKET == 0 || back > *produced {
        return false;
    }
    w.skip(len_bits + entry_total_bits(dentry));
    copy_match_at(out, *produced, back, len);
    *produced += len;
    true
}

/// Decodes the tokens of one compressed block into `window[produced..]`
/// and returns the new `produced`; a distance may reach back to
/// `window[0]`, the first byte this call decoded.
///
/// The fast loop runs while [`FAST_OUT`] bytes of `window` lie ahead,
/// in passes of [`fast_pass`]. One 64-bit load tops the bit buffer up
/// to 56 bits, which covers three literals (3 × 15 bits) or a length
/// and a distance (22 + 30); symbols come out of the decode tables with
/// plain shifts, literals are stored by index and a match is copied in
/// whole 32- or 8-byte blocks, so nothing in it is checked per read and
/// nothing in it fails. It reads the input in place while [`FAST_IN`]
/// bytes lie ahead, and the last bytes from a zero-padded copy
/// ([`BitReader::padded`]), where a pass that consumed a padding bit is
/// undone. What it does not finish — the end-of-block symbol, a code
/// longer than the table is wide, bits that are no code, a distance
/// that reaches before the output, a token cut off by the end of the
/// input — it leaves unconsumed for the careful step below it, which
/// decodes one token through [`BitReader`] with every read checked and
/// is the only place [`Error::Corrupt`] is made.
#[inline(never)]
fn decode_tokens(
    r: &mut BitReader<'_>,
    lit: &Decoder,
    dist: &Decoder,
    window: &mut Vec<u8>,
    mut produced: usize,
) -> Result<usize> {
    let t = Tables {
        lit: lit.table(),
        lit_mask: lit.table().len().wrapping_sub(1),
        dist: dist.table(),
        dist_mask: dist.table().len().wrapping_sub(1),
    };
    loop {
        ensure_window(window, produced + FAST_OUT);
        let out = window.as_mut_slice();
        let mut w = r.wide();
        let mut open = true;
        while w.has(FAST_IN) && out.len() - produced >= FAST_OUT {
            open = fast_pass(&mut w, out, &mut produced, t);
            if !open {
                break;
            }
        }
        r.resume(w);
        if open && out.len() - produced >= FAST_OUT {
            let mut pad = [0u8; TAIL_PAD];
            let mut w = r.padded(&mut pad);
            while w.has(FAST_IN) && out.len() - produced >= FAST_OUT {
                let (before, at) = (w.clone(), produced);
                let open = fast_pass(&mut w, out, &mut produced, t);
                if w.overran() {
                    (w, produced) = (before, at);
                    break;
                }
                if !open {
                    break;
                }
            }
            r.resume_padded(w);
        }

        ensure_window(window, produced + FAST_OUT);
        let entry = lit.decode_entry(r)?;
        if entry & ENTRY_LITERAL != 0 {
            window[produced] = entry_base(entry) as u8;
            produced += 1;
        } else if entry & ENTRY_EOB != 0 {
            return Ok(produced);
        } else {
            let extra_bits = entry_total_bits(entry) - (entry & ENTRY_LEN_MASK);
            let len = (entry_base(entry) + r.read_bits(extra_bits)?) as usize;
            let entry = dist.decode_entry(r)?;
            if entry & ENTRY_BUCKET == 0 {
                return Err(Error::Corrupt("bad distance symbol".into()));
            }
            let extra_bits = entry_total_bits(entry) - (entry & ENTRY_LEN_MASK);
            let back = (entry_base(entry) + r.read_bits(extra_bits)?) as usize;
            if back > produced {
                return Err(Error::Corrupt(format!(
                    "distance {back} exceeds output {produced}"
                )));
            }
            copy_match_at(window, produced, back, len);
            produced += len;
        }
    }
}

impl Codec for XDeflate {
    fn name(&self) -> &'static str {
        "xdeflate"
    }

    fn kind(&self) -> CodecKind {
        CodecKind::XDeflate
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        self.compress_into(src, dst, &mut Scratch::new())
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        self.decompress_into(src, dst, &mut Scratch::new())
    }

    fn compress_into(&self, src: &[u8], dst: &mut Vec<u8>, scratch: &mut Scratch) -> Result<usize> {
        self.compress_staged(src, dst, scratch, |_| {})
    }

    fn decompress_into(
        &self,
        src: &[u8],
        dst: &mut Vec<u8>,
        scratch: &mut Scratch,
    ) -> Result<usize> {
        let xd = &mut scratch.xd;
        let mut r = BitReader::new(src);
        let mut produced = 0;
        loop {
            let is_final = r.read_bit()? == 1;
            let block_type = r.read_bit()?;
            if block_type == 0 {
                r.align_byte();
                let len = r.read_bits(16)? as usize;
                r.align_byte();
                let raw = r.read_bytes(len)?;
                if is_final && produced == 0 {
                    // An incompressible input is this one block: no
                    // match can refer to it, so it skips the window.
                    dst.extend_from_slice(raw);
                    return Ok(len);
                }
                ensure_window(&mut xd.window, produced + len);
                xd.window[produced..produced + len].copy_from_slice(raw);
                produced += len;
            } else {
                read_codes(&mut r, xd)?;
                produced =
                    decode_tokens(&mut r, &xd.lit_dec, &xd.dist_dec, &mut xd.window, produced)?;
            }
            if is_final {
                break;
            }
        }
        // One append of exactly the decoded bytes: `dst` grows only if
        // it lacks the capacity, and is left as it came on an error.
        dst.extend_from_slice(&xd.window[..produced]);
        Ok(produced)
    }
}

/// What the codec is checked against.
///
/// `decompress` is the decoder [`XDeflate::decompress_into`] must agree
/// with: the same format read the plain way — one bit at a time off the
/// input, codes matched by first-code arithmetic as each bit arrives,
/// the canonical order found by a pass per length, matches copied byte
/// by byte — with no regard for speed and nothing shared with the
/// production decoder but the format constants. The two must agree on
/// every input: the same bytes and count for a stream both accept, and
/// [`Error::Corrupt`] from both for one either rejects.
///
/// `write_tokens` writes what the branch-free token writer must, the
/// plain way — a branch per token kind and a flush test per code.
///
/// `length_runs`, `write_lengths` and `block_bytes` are the header and
/// the price the way they were first written: the runs walked once to
/// price the block and again to write them, and every symbol of both
/// alphabets summed.
#[cfg(test)]
mod reference {
    use super::{
        dist_bucket, length_bucket, Error, Result, DIST_SHIFT, DIST_SYMS, ENTRY_BITS, EOB,
        LIT_SYMS, MATCH_BIT, RUN_BITS,
    };
    use crate::bitio::{put_bits, BitWriter};
    use crate::huffman::{Encoder, MAX_CODE_LEN};
    use crate::lz77::MIN_MATCH;

    /// The `(len, dist)` a match token holds.
    pub(super) fn unpack_match(t: u32) -> (u32, u32) {
        let len = (t & ((1 << ENTRY_BITS) - 1)) - 256 + MIN_MATCH as u32;
        (len, t >> DIST_SHIFT & 0xffff)
    }

    /// The `(value, run)` pairs a code-length vector is transmitted as:
    /// maximal runs of equal lengths, split at 255.
    pub(super) fn length_runs(lens: &[u32]) -> impl Iterator<Item = (u32, u32)> + '_ {
        lens.chunk_by(|a, b| a == b)
            .flat_map(|run| run.chunks(255))
            .map(|run| (run[0], run.len() as u32))
    }

    /// RLE-encodes a code-length vector: `(value:4 bits, run:8 bits)*`,
    /// terminated implicitly by the known alphabet size.
    pub(super) fn write_lengths(w: &mut BitWriter, lens: &[u32]) {
        for (v, run) in length_runs(lens) {
            w.write_bits(v | (run << 4), RUN_BITS as u32);
        }
    }

    /// Size in bytes of the compressed block for these statistics and
    /// code lengths.
    pub(super) fn block_bytes(
        lit_freq: &[u64],
        lit_lens: &[u32],
        dist_freq: &[u64],
        dist_lens: &[u32],
    ) -> usize {
        let header =
            2 + RUN_BITS * (length_runs(lit_lens).count() + length_runs(dist_lens).count()) as u64;
        let lit: u64 = lit_freq
            .iter()
            .zip(lit_lens)
            .map(|(&f, &l)| f * u64::from(l))
            .sum();
        let len_extra: u64 = (0u64..)
            .zip(&lit_freq[EOB + 1..])
            .map(|(k, &f)| f * k)
            .sum();
        let dist: u64 = (0u64..)
            .zip(dist_freq.iter().zip(dist_lens))
            .map(|(d, (&f, &l))| f * (u64::from(l) + d.saturating_sub(1)))
            .sum();
        (header + lit + len_extra + dist).div_ceil(8) as usize
    }

    /// Writes packed tokens to `w`: per token, the literal or length
    /// code with its extra bits, then for a match the distance code
    /// with its extra bits, each through [`put_bits`], which moves a
    /// whole 32-bit word out once one is held.
    pub(super) fn write_tokens(w: &mut BitWriter, tokens: &[u32], lit: &Encoder, dist: &Encoder) {
        let (bytes, mut acc, mut nbits) = w.split();
        let mut put = |value, n| put_bits(bytes, &mut acc, &mut nbits, value, n);
        for &t in tokens {
            if t & MATCH_BIT != 0 {
                let (len, distance) = unpack_match(t);
                let (sym, extra, ebits) = length_bucket(len);
                let (code, bits) = lit.code(sym);
                put(code | extra << bits, bits + ebits);
                let (dsym, dextra, debits) = dist_bucket(distance);
                let (code, bits) = dist.code(dsym);
                put(code | dextra << bits, bits + debits);
            } else {
                let (code, bits) = lit.code(t as usize);
                put(code, bits);
            }
        }
        w.join(acc, nbits);
    }

    fn corrupt<T>(what: &str) -> Result<T> {
        Err(Error::Corrupt(what.into()))
    }

    struct Bits<'a> {
        src: &'a [u8],
        /// Index of the next bit, bit 0 of byte 0 first.
        at: usize,
    }

    impl Bits<'_> {
        fn bit(&mut self) -> Result<u32> {
            let Some(byte) = self.src.get(self.at / 8) else {
                return corrupt("stream ended");
            };
            let bit = (byte >> (self.at % 8)) & 1;
            self.at += 1;
            Ok(u32::from(bit))
        }

        /// `n` bits, the first read the least significant.
        fn bits(&mut self, n: u32) -> Result<u32> {
            let mut value = 0;
            for i in 0..n {
                value |= self.bit()? << i;
            }
            Ok(value)
        }

        fn align(&mut self) {
            self.at = self.at.div_ceil(8) * 8;
        }
    }

    /// A canonical code: per length the first code, the number of
    /// codes and where its symbols start in `symbols`.
    struct Code {
        first: Vec<u32>,
        count: Vec<u32>,
        offset: Vec<u32>,
        symbols: Vec<usize>,
    }

    fn lengths(r: &mut Bits<'_>, n: usize) -> Result<Vec<u32>> {
        let mut lens = Vec::new();
        while lens.len() < n {
            let value = r.bits(4)?;
            let run = r.bits(8)? as usize;
            if run == 0 || lens.len() + run > n {
                return corrupt("bad code-length run");
            }
            lens.extend(std::iter::repeat_n(value, run));
        }
        Ok(lens)
    }

    fn code(lens: &[u32]) -> Result<Code> {
        let max = MAX_CODE_LEN as usize;
        let mut count = vec![0u32; max + 1];
        let mut kraft = 0u64;
        for &l in lens.iter().filter(|&&l| l > 0) {
            count[l as usize] += 1;
            kraft += 1 << (MAX_CODE_LEN - l);
        }
        if kraft > 1 << MAX_CODE_LEN {
            return corrupt("over-subscribed code");
        }
        let (mut first, mut offset) = (vec![0u32; max + 1], vec![0u32; max + 1]);
        for len in 1..=max {
            first[len] = (first[len - 1] + count[len - 1]) << 1;
            offset[len] = offset[len - 1] + count[len - 1];
        }
        let symbols = (1..=MAX_CODE_LEN)
            .flat_map(|len| (0..lens.len()).filter(move |&sym| lens[sym] == len))
            .collect();
        Ok(Code {
            first,
            count,
            offset,
            symbols,
        })
    }

    fn symbol(code: &Code, r: &mut Bits<'_>) -> Result<usize> {
        let mut bits = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            bits = (bits << 1) | r.bit()?;
            let rank = bits.wrapping_sub(code.first[len]);
            if rank < code.count[len] {
                return Ok(code.symbols[(code.offset[len] + rank) as usize]);
            }
        }
        corrupt("no such code")
    }

    /// Appends the decoded stream to `dst` (which keeps what was
    /// decoded before an error) and returns the number of bytes.
    pub(super) fn decompress(src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        let start = dst.len();
        let mut r = Bits { src, at: 0 };
        loop {
            let is_final = r.bit()? == 1;
            if r.bit()? == 0 {
                r.align();
                let len = r.bits(16)? as usize;
                let Some(raw) = src.get(r.at / 8..r.at / 8 + len) else {
                    return corrupt("stored block truncated");
                };
                dst.extend_from_slice(raw);
                r.at += 8 * len;
            } else {
                let lit = code(&lengths(&mut r, LIT_SYMS)?)?;
                let dist = code(&lengths(&mut r, DIST_SYMS)?)?;
                loop {
                    let sym = symbol(&lit, &mut r)?;
                    if sym < EOB {
                        dst.push(sym as u8);
                        continue;
                    }
                    if sym == EOB {
                        break;
                    }
                    let extra_bits = (sym - EOB - 1) as u32;
                    let len = (1 << extra_bits) + r.bits(extra_bits)? as usize + MIN_MATCH - 1;
                    let dsym = symbol(&dist, &mut r)? as u32;
                    if dsym == 0 {
                        return corrupt("distance symbol 0");
                    }
                    let back = (1 << (dsym - 1)) + r.bits(dsym - 1)? as usize;
                    if back > dst.len() - start {
                        return corrupt("distance before the output");
                    }
                    for _ in 0..len {
                        dst.push(dst[dst.len() - back]);
                    }
                }
            }
            if is_final {
                return Ok(dst.len() - start);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;
    use crate::corpus::Corpus;
    use crate::huffman::code_lengths;
    use crate::lz77::Token;
    use proptest::prelude::*;

    /// Decodes `stream` with the production decoder and with
    /// [`reference::decompress`] and checks that they agree: the same
    /// count and bytes, or [`Error::Corrupt`] from both. Returns the
    /// decoded bytes of a stream both accept.
    fn decode_both_ways(stream: &[u8], scratch: &mut Scratch, what: &str) -> Option<Vec<u8>> {
        let mut decoded = Vec::with_capacity(4096);
        let got = XDeflate::default().decompress_into(stream, &mut decoded, scratch);
        let mut expected = Vec::new();
        match (got, reference::decompress(stream, &mut expected)) {
            (Ok(n), Ok(m)) => {
                assert_eq!(n, m, "{what}: byte count");
                assert!(decoded == expected, "{what}: decoded bytes differ");
                Some(decoded)
            }
            (Err(Error::Corrupt(_)), Err(Error::Corrupt(_))) => {
                assert!(
                    decoded.is_empty(),
                    "{what}: output left behind by a failed decode"
                );
                None
            }
            (got, expected) => panic!("{what}: decoder {got:?}, reference {expected:?}"),
        }
    }

    fn compressed(codec: &XDeflate, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        codec.compress(data, &mut out).unwrap();
        out
    }

    #[test]
    fn decoder_agrees_with_reference_on_every_corpus() {
        let mut scratch = Scratch::new();
        let sizes = [
            (0, 4096),
            (1, 4096),
            (2, 4096),
            (3, 4096),
            (4, 4096),
            (5, 1),
            (6, 3),
        ];
        for codec in [
            XDeflate::default(),
            XDeflate::with_finder(MatchFinder::fast()),
        ] {
            for corpus in Corpus::all() {
                for (seed, len) in sizes.into_iter().chain([(7, 70_000)]) {
                    let data = corpus.generate(seed, len);
                    let what = format!("{} seed {seed} len {len}", corpus.name());
                    let decoded = decode_both_ways(&compressed(&codec, &data), &mut scratch, &what);
                    assert!(decoded.as_deref() == Some(&data[..]), "{what}: round trip");
                }
            }
        }
    }

    /// One compressed block holding `tokens` (a literal, or a
    /// `(len, dist)` match), coded the way the compressor would.
    fn write_block(
        w: &mut BitWriter,
        is_final: bool,
        tokens: &[std::result::Result<u8, (u32, u32)>],
    ) {
        let (mut lit_freq, mut dist_freq) = ([0u64; LIT_SYMS], [0u64; DIST_SYMS]);
        lit_freq[EOB] = 1;
        for token in tokens {
            match *token {
                Ok(byte) => lit_freq[byte as usize] += 1,
                Err((len, dist)) => {
                    lit_freq[length_bucket(len).0] += 1;
                    dist_freq[dist_bucket(dist).0] += 1;
                }
            }
        }
        let lit_lens = code_lengths(&lit_freq, MAX_CODE_LEN).unwrap();
        let dist_lens = code_lengths(&dist_freq, MAX_CODE_LEN).unwrap();
        let lit_enc = Encoder::from_lengths(&lit_lens).unwrap();
        let dist_enc = Encoder::from_lengths(&dist_lens).unwrap();
        w.write_bits(u32::from(is_final), 1);
        w.write_bits(1, 1);
        reference::write_lengths(w, &lit_lens);
        reference::write_lengths(w, &dist_lens);
        for token in tokens {
            match *token {
                Ok(byte) => lit_enc.encode(w, byte as usize),
                Err((len, dist)) => {
                    let (sym, extra, extra_bits) = length_bucket(len);
                    lit_enc.encode(w, sym);
                    w.write_bits(extra, extra_bits);
                    let (sym, extra, extra_bits) = dist_bucket(dist);
                    dist_enc.encode(w, sym);
                    w.write_bits(extra, extra_bits);
                }
            }
        }
        lit_enc.encode(w, EOB);
    }

    #[test]
    fn distances_reach_into_earlier_blocks_of_the_same_stream() {
        // A compressed block, a stored one, then a compressed block
        // whose matches reach back through both — the second starts
        // mid-byte, right behind the first one's end-of-block code.
        let mut first: Vec<_> = b"far memory, near memory; "
            .iter()
            .map(|&b| Ok(b))
            .collect();
        first.push(Err((20, 13)));
        first.push(Err((258, 1)));
        let stored = b"0123456789";
        let last = [
            Err((40, 300)),
            Ok(b'!'),
            Err((4, 1)),
            Err((258, 313)),
            Err((9, 8)),
        ];
        let mut w = BitWriter::new();
        write_block(&mut w, false, &first);
        w.write_bits(0, 2);
        w.align_byte();
        w.write_bits(stored.len() as u32, 16);
        w.write_bytes(stored);
        write_block(&mut w, true, &last);
        let stream = w.finish();

        let mut scratch = Scratch::new();
        let decoded = decode_both_ways(&stream, &mut scratch, "three blocks").unwrap();
        assert_eq!(decoded.len(), 25 + 20 + 258 + 10 + 40 + 1 + 4 + 258 + 9);
        assert_eq!(&decoded[303..313], stored);
        assert_eq!(&decoded[313..353], &decoded[13..53]);

        // The first byte the call decodes is as far back as a distance
        // goes, whatever `dst` held before it.
        let mut w = BitWriter::new();
        write_block(&mut w, true, &[Ok(b'a'), Ok(b'b'), Err((4, 3))]);
        let stream = w.finish();
        let mut dst = b"xyz".to_vec();
        let r = XDeflate::default().decompress_into(&stream, &mut dst, &mut scratch);
        assert!(matches!(r, Err(Error::Corrupt(_))), "{r:?}");
        assert_eq!(dst, b"xyz");
        assert!(decode_both_ways(&stream, &mut scratch, "distance before the start").is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn decoder_agrees_with_reference_on_noise_and_motifs(
            noise in prop::collection::vec(any::<u8>(), 0..3000),
            motif in prop::collection::vec(any::<u8>(), 1..40),
            reps in 0usize..300,
            thorough in any::<bool>(),
        ) {
            let finder = if thorough { MatchFinder::thorough() } else { MatchFinder::fast() };
            let codec = XDeflate::with_finder(finder);
            let mut scratch = Scratch::new();
            let mut mixed = noise.clone();
            mixed.extend(motif.iter().cycle().take(motif.len() * reps));
            mixed.extend_from_slice(&noise[..noise.len() / 3]);
            for data in [&noise, &mixed] {
                let decoded = decode_both_ways(&compressed(&codec, data), &mut scratch, "proptest");
                prop_assert!(decoded.as_ref() == Some(data));
            }
        }
    }

    #[test]
    fn damaged_streams_get_the_reference_verdict() {
        let mut scratch = Scratch::new();
        let codec = XDeflate::default();
        let pages = [
            Corpus::EnglishText.generate(11, 4096),
            Corpus::Json.generate(12, 4096),
            Corpus::LogLines.generate(13, 4096),
            Corpus::Csv.generate(14, 70_000),
        ];
        let streams: Vec<Vec<u8>> = pages.iter().map(|p| compressed(&codec, p)).collect();

        // Every truncation point of a page stream.
        for cut in 0..streams[0].len() {
            decode_both_ways(&streams[0][..cut], &mut scratch, &format!("cut at {cut}"));
        }

        // 2 000 seeded cases of one to three bit flips, half of them in
        // the first 64 bytes where the code-length tables sit.
        let mut state = 0x5EED_F11Bu64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        for case in 0..2000 {
            let mut stream = streams[case % streams.len()].clone();
            for _ in 0..=next(3) {
                let span = if next(2) == 0 {
                    stream.len().min(64)
                } else {
                    stream.len()
                };
                stream[next(span)] ^= 1 << next(8);
            }
            decode_both_ways(&stream, &mut scratch, &format!("bit-flip case {case}"));
        }

        // Whatever the damage left in the scratch, valid streams decode.
        for (page, stream) in pages.iter().zip(&streams) {
            let decoded = decode_both_ways(stream, &mut scratch, "valid after damage");
            assert!(decoded.as_deref() == Some(&page[..]));
        }
    }

    /// A splitmix64 stream: the header cases below derive every choice
    /// from one seed, so a failing case reruns from its seed alone.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    /// A length vector of `n` symbols, of one of five shapes (`kind`).
    fn header_lengths(kind: usize, n: usize, rng: &mut Mix) -> Vec<u32> {
        let fitted = |rng: &mut Mix, deep: bool| {
            let mut freqs = vec![0u64; n];
            let (mut a, mut b) = (1u64, 1u64);
            let symbols = if deep {
                2 + rng.below(38)
            } else {
                1 + rng.below(n)
            };
            for _ in 0..symbols {
                // Fibonacci weights make codes of 11 to 15 bits, on
                // both sides of the table width.
                let w = if deep {
                    (a, b) = (b, a + b);
                    a
                } else {
                    1 + rng.below(1000) as u64
                };
                freqs[rng.below(n)] += w;
            }
            if n > EOB {
                freqs[EOB] += 1;
            }
            code_lengths(&freqs, MAX_CODE_LEN).unwrap()
        };
        match kind {
            0 => fitted(rng, false),
            1 => fitted(rng, true),
            // Any lengths at all: mostly an over-subscribed code.
            2 => (0..n).map(|_| rng.below(16) as u32).collect(),
            // A fitted code with symbols taken out: incomplete.
            3 => {
                let deep = rng.below(2) == 0;
                let mut lens = fitted(rng, deep);
                for l in &mut lens {
                    if rng.below(3) == 0 {
                        *l = 0;
                    }
                }
                lens
            }
            // One symbol, of any length.
            _ => {
                let mut lens = vec![0; n];
                lens[rng.below(n)] = 1 + rng.below(MAX_CODE_LEN as usize) as u32;
                if n > EOB && rng.below(2) == 0 {
                    lens[EOB] = 1;
                }
                lens
            }
        }
    }

    /// A one-block stream whose header sends the length vectors of
    /// `kind` as runs, then, when both codes exist, tokens coded with
    /// them (matches that stay inside the output) and end of block,
    /// then sometimes a few random bytes.
    fn header_case(kind: usize, seed: u64) -> Vec<u8> {
        let mut rng = Mix(seed);
        let lit = header_lengths(kind, LIT_SYMS, &mut rng);
        let dist = header_lengths(rng.below(5), DIST_SYMS, &mut rng);
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(1, 1);
        reference::write_lengths(&mut w, &lit);
        reference::write_lengths(&mut w, &dist);
        if let (Ok(lit_enc), Ok(dist_enc)) =
            (Encoder::from_lengths(&lit), Encoder::from_lengths(&dist))
        {
            let coded =
                |lens: &[u32]| -> Vec<usize> { (0..lens.len()).filter(|&s| lens[s] > 0).collect() };
            let (lit_syms, dist_syms) = (coded(&lit), coded(&dist));
            let mut produced = 0usize;
            for _ in 0..rng.below(400) {
                let Some(&sym) = lit_syms.get(rng.below(lit_syms.len().max(1))) else {
                    break;
                };
                if sym < EOB {
                    lit_enc.encode(&mut w, sym);
                    produced += 1;
                    continue;
                }
                // A match whose distance stays inside the output.
                let reach: Vec<usize> = dist_syms
                    .iter()
                    .copied()
                    .filter(|&d| d > 0 && 1 << (d - 1) <= produced)
                    .collect();
                let (Some(&d), true) = (reach.get(rng.below(reach.len().max(1))), sym > EOB) else {
                    continue;
                };
                let extra_bits = (sym - 257) as u32;
                let extra = rng.below(1 << extra_bits) as u32;
                lit_enc.encode(&mut w, sym);
                w.write_bits(extra, extra_bits);
                let base = 1usize << (d - 1);
                let back = base + rng.below(base.min(produced + 1 - base));
                dist_enc.encode(&mut w, d);
                w.write_bits((back - base) as u32, d as u32 - 1);
                produced += length_unbucket(sym, extra) as usize;
            }
            if lit[EOB] > 0 {
                lit_enc.encode(&mut w, EOB);
            }
        }
        let mut stream = w.finish();
        for _ in 0..rng.below(3) * rng.below(24) {
            stream.push(rng.below(256) as u8);
        }
        stream
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Tables built from header runs decode what the bit-at-a-time
        /// reference decodes: valid, over-subscribed, incomplete and
        /// single-symbol codes, and codes of 11 to 15 bits.
        #[test]
        fn header_runs_get_the_reference_verdict(kind in 0usize..5, seed in any::<u64>()) {
            let stream = header_case(kind, seed);
            let mut scratch = Scratch::new();
            decode_both_ways(&stream, &mut scratch, &format!("header case {kind} seed {seed:#x}"));
        }
    }

    #[test]
    fn header_cases_cover_every_verdict() {
        // The generator's shapes reach both verdicts and codes longer
        // than the decode table is wide, so the property above tests
        // them.
        let mut scratch = Scratch::new();
        let (mut accepted, mut rejected, mut long) = (0, 0, 0);
        for kind in 0..5 {
            for seed in 0..64 {
                let stream = header_case(kind, seed);
                match decode_both_ways(&stream, &mut scratch, "coverage") {
                    Some(_) => accepted += 1,
                    None => rejected += 1,
                }
                let lit = header_lengths(kind, LIT_SYMS, &mut Mix(seed));
                long += usize::from(lit.iter().any(|&l| l > 10));
            }
        }
        assert!(
            accepted > 64 && rejected > 64,
            "{accepted} accepted, {rejected} rejected"
        );
        assert!(long > 0);
    }

    #[test]
    fn the_stream_tail_gets_the_reference_verdict() {
        // The fast loop decodes the last bytes from a zero-padded copy:
        // every truncation of the last 32 bytes, and every bit flip in
        // the last 16, of json, text and binary-record page streams must
        // get the reference's verdict.
        let codec = XDeflate::default();
        let mut scratch = Scratch::new();
        for corpus in [Corpus::Json, Corpus::EnglishText, Corpus::StructDump] {
            for seed in 0..4 {
                let page = corpus.generate(seed, 4096);
                let stream = compressed(&codec, &page);
                let n = stream.len();
                for cut in n.saturating_sub(32)..n {
                    let what = format!("{} seed {seed} cut at {cut}", corpus.name());
                    decode_both_ways(&stream[..cut], &mut scratch, &what);
                }
                for at in n.saturating_sub(16)..n {
                    for bit in 0..8 {
                        let mut damaged = stream.clone();
                        damaged[at] ^= 1 << bit;
                        let what = format!("{} seed {seed} flip {at}.{bit}", corpus.name());
                        decode_both_ways(&damaged, &mut scratch, &what);
                    }
                }
                let decoded = decode_both_ways(&stream, &mut scratch, corpus.name());
                assert!(decoded.as_deref() == Some(&page[..]));
            }
        }
    }

    #[test]
    fn destination_capacity_changes_nothing_but_who_allocates() {
        let codec = XDeflate::default();
        let mut scratch = Scratch::new();
        for page in [
            Corpus::Json.generate(3, 4096),
            Corpus::EnglishText.generate(4, 700),
        ] {
            let stream = compressed(&codec, &page);
            let n = page.len();
            let capacities = [
                0,
                n - 1,
                n,
                n + 1,
                n + 3,
                n + 7,
                n + 8,
                n + 265,
                n + 266,
                2 * n,
            ];
            for capacity in capacities {
                let mut dst = Vec::with_capacity(capacity);
                dst.extend_from_slice(b"xyz");
                let (ptr, cap) = (dst.as_ptr(), dst.capacity());
                let got = codec
                    .decompress_into(&stream, &mut dst, &mut scratch)
                    .unwrap();
                assert_eq!(got, n, "capacity {capacity}");
                assert_eq!(dst.len(), 3 + n, "capacity {capacity}");
                assert_eq!(&dst[..3], b"xyz", "capacity {capacity}");
                assert!(dst[3..] == page[..], "capacity {capacity}");
                if cap >= 3 + n {
                    assert_eq!(
                        (dst.as_ptr(), dst.capacity()),
                        (ptr, cap),
                        "capacity {capacity}"
                    );
                }
            }
        }
    }

    /// The symbols `lens` has a code for.
    fn active(lens: &[u32]) -> Vec<u32> {
        (0u32..)
            .zip(lens)
            .filter(|&(_, &l)| l > 0)
            .map(|(sym, _)| sym)
            .collect()
    }

    /// A packed token: a literal, or a match of `len` bytes at `dist`,
    /// with the longest length and the farthest distance drawn often.
    fn arb_token() -> impl Strategy<Value = u32> {
        let pack = |(len, dist): (u32, u32)| match_token(len, dist);
        let (min, max) = (MIN_MATCH as u32, MAX_MATCH as u32);
        prop_oneof![
            any::<u8>().prop_map(u32::from),
            (min..=max, 1u32..=32_768).prop_map(pack),
            (
                prop::sample::select(vec![min, max - 1, max]),
                prop::sample::select(vec![1u32, 2, 32_767, 32_768]),
            )
                .prop_map(pack),
        ]
    }

    /// Symbol weights under which every symbol a code exists for is
    /// `F(k)`-heavy, `F` the Fibonacci numbers and `k` falling with the
    /// symbol: the highest symbols — length 258, distance 32 768 — get
    /// the limit's 15-bit codes.
    fn deep_weights(symbols: usize) -> Vec<u64> {
        let mut fib = vec![1u64, 1];
        while fib.len() <= 60 {
            fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
        }
        (0..symbols)
            .map(|s| fib[(symbols - 1 - s).min(60)])
            .collect()
    }

    /// Writes `tokens` after `lead` header bits with `write_tokens` and
    /// with the reference writer, under codes fitted to the weights
    /// (raised to 1 for every symbol a token uses), checks that the
    /// bytes are equal and returns the longest literal/length and
    /// distance codes.
    fn writers_agree(
        tokens: &[u32],
        mut lit_weights: Vec<u64>,
        mut dist_weights: Vec<u64>,
        lead: (u64, u32),
    ) -> (u32, u32) {
        for &t in tokens {
            if t & MATCH_BIT != 0 {
                let (len, dist) = reference::unpack_match(t);
                let sym = length_bucket(len).0;
                lit_weights[sym] = lit_weights[sym].max(1);
                let dsym = dist_bucket(dist).0;
                dist_weights[dsym] = dist_weights[dsym].max(1);
            } else {
                lit_weights[t as usize] = lit_weights[t as usize].max(1);
            }
        }
        let lit_lens = code_lengths(&lit_weights, MAX_CODE_LEN).unwrap();
        let dist_lens = code_lengths(&dist_weights, MAX_CODE_LEN).unwrap();
        let lit = Encoder::from_lengths(&lit_lens).unwrap();
        let dist = Encoder::from_lengths(&dist_lens).unwrap();
        let mut codes = BlockCodes::default();
        codes.rebuild(
            (&lit_lens, &active(&lit_lens)),
            (&dist_lens, &active(&dist_lens)),
        );
        let header = |w: &mut BitWriter| {
            let (value, bits) = lead;
            let low = bits.min(32);
            w.write_bits((value & ((1 << low) - 1)) as u32, low);
            w.write_bits(
                (value >> low & ((1 << (bits - low)) - 1)) as u32,
                bits - low,
            );
        };
        let mut want = BitWriter::new();
        header(&mut want);
        reference::write_tokens(&mut want, tokens, &lit, &dist);
        let want = want.finish();
        let mut got = BitWriter::new();
        header(&mut got);
        // Sized to the bytes the tokens end in, as a block's price is.
        let (bytes, acc, nbits) = got.split();
        let at = bytes.len();
        let out = write_tokens(
            BlockOut::new(bytes, at, acc, nbits, want.len()),
            tokens,
            &codes,
        );
        let (at, acc, nbits) = (out.at, out.acc, out.nbits);
        bytes.truncate(at);
        got.join(acc, nbits);
        assert!(
            got.finish() == want,
            "{} tokens after {} bits",
            tokens.len(),
            lead.1
        );
        (
            lit_lens.iter().copied().max().unwrap_or(0),
            dist_lens.iter().copied().max().unwrap_or(0),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The token writer writes the reference writer's bytes, for any
        /// tokens under any codes, after any number of header bits.
        #[test]
        fn token_writer_equals_reference_writer(
            tokens in prop::collection::vec(arb_token(), 0..3000),
            lit_weights in prop::collection::vec(prop_oneof![Just(0u64), 1u64..4, 1u64..5000], LIT_SYMS),
            dist_weights in prop::collection::vec(prop_oneof![Just(0u64), 1u64..4, 1u64..5000], DIST_SYMS),
            deep in any::<bool>(),
            lead in (any::<u64>(), 0u32..=63),
        ) {
            let (lit_weights, dist_weights) = if deep {
                (deep_weights(LIT_SYMS), deep_weights(DIST_SYMS))
            } else {
                (lit_weights, dist_weights)
            };
            writers_agree(&tokens, lit_weights, dist_weights, lead);
        }
    }

    #[test]
    fn token_writer_equals_reference_writer_on_15_bit_codes() {
        // The rarest symbols of deep weights, each in every header phase.
        let longest = match_token(MAX_MATCH as u32, 32_768);
        let tokens: Vec<u32> = [longest, 0xff, longest, 0, longest]
            .into_iter()
            .cycle()
            .take(61)
            .collect();
        for bits in 0..=63 {
            let longest_codes = writers_agree(
                &tokens,
                deep_weights(LIT_SYMS),
                deep_weights(DIST_SYMS),
                (0xdead_beef_f00d_cafe, bits),
            );
            assert_eq!(longest_codes, (MAX_CODE_LEN, MAX_CODE_LEN));
        }
    }

    /// Prices the block for `data`, then writes it regardless of what
    /// the stored rule would decide: `(priced, written)` bytes. The
    /// written block must also decode to `data`.
    fn priced_and_written(codec: &XDeflate, data: &[u8], scratch: &mut Scratch) -> (usize, usize) {
        codec.tokenize(data, scratch);
        fit_codes(scratch).unwrap();
        let priced = scratch.xd.compressed_block_bytes();
        let len = scratch.xd.write_compressed_block(data, priced);
        let block = scratch.xd.block[..len].to_vec();
        let mut back = Vec::new();
        reference::decompress(&block, &mut back).unwrap();
        assert!(back == data, "the written block decodes to the input");
        (priced, block.len())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The price computed from the statistics is the size the bit
        /// writer ends up at — on compressible and incompressible input
        /// alike, so the stored decision is the one writing would make.
        #[test]
        fn priced_size_equals_written_size(
            noise in prop::collection::vec(any::<u8>(), 0..3000),
            motif in prop::collection::vec(any::<u8>(), 1..40),
            reps in 0usize..300,
            thorough in any::<bool>(),
        ) {
            let finder = if thorough { MatchFinder::thorough() } else { MatchFinder::fast() };
            let codec = XDeflate::with_finder(finder);
            let mut scratch = Scratch::new();
            let mut mixed = noise.clone();
            mixed.extend(motif.iter().cycle().take(motif.len() * reps));
            mixed.extend_from_slice(&noise[..noise.len() / 3]);
            for data in [&noise, &mixed] {
                let (priced, written) = priced_and_written(&codec, data, &mut scratch);
                prop_assert_eq!(priced, written, "{} input bytes", data.len());
            }
        }
    }

    #[test]
    fn priced_size_equals_written_size_on_every_corpus() {
        let codec = XDeflate::default();
        let mut scratch = Scratch::new();
        for corpus in Corpus::all() {
            for (seed, len) in [(0, 4096), (1, 4096), (2, 70_000)] {
                let data = corpus.generate(seed, len);
                let (priced, written) = priced_and_written(&codec, &data, &mut scratch);
                assert_eq!(priced, written, "{} seed {seed} len {len}", corpus.name());
            }
        }
    }

    /// A 4 KiB page in which no 4-byte word repeats (a de Bruijn-like
    /// walk over distinct words would do; distinct `u32` counters
    /// scrambled by an odd multiplier are simpler), so its literal
    /// prefix is all of it.
    fn no_repeated_word() -> Vec<u8> {
        let page: Vec<u8> = (0..1024u32)
            .flat_map(|i| i.wrapping_mul(0x9E37_79B1).rotate_left(7).to_le_bytes())
            .collect();
        let mut words = std::collections::HashSet::new();
        assert!(page.windows(MIN_MATCH).all(|w| words.insert(w)));
        page
    }

    #[test]
    fn priced_size_equals_written_size_at_every_literal_prefix() {
        // The prefix is written straight from the input, the tokens after
        // it: a prefix of nothing (an empty input), of one byte (a page
        // of one byte value), of all but the last word (whose word is
        // the first's) and of the whole page.
        let page = no_repeated_word();
        let mut last_word_repeats = page.clone();
        last_word_repeats.copy_within(0..4, 4092);
        let mut scratch = Scratch::new();
        for (data, prefix) in [
            (Vec::new(), 0),
            (vec![7u8; 4096], 1),
            (last_word_repeats, 4092),
            (page, 4096),
        ] {
            let (priced, written) = priced_and_written(&XDeflate::default(), &data, &mut scratch);
            assert_eq!(scratch.xd.prefix, prefix, "{} bytes", data.len());
            assert_eq!(priced, written, "prefix {prefix}");
        }
    }

    #[test]
    fn priced_size_equals_written_size_on_multi_channel_shares() {
        // The 1 KiB and 2 KiB shares `ratio::pack_page_into` compresses
        // at 4 and 2 DIMMs: every 256-byte granule `i mod n` of a page.
        let mut scratch = Scratch::new();
        for corpus in Corpus::all() {
            let page = corpus.generate(5, 4096);
            for n in [2usize, 4] {
                for i in 0..n {
                    let share: Vec<u8> = page
                        .chunks(256)
                        .skip(i)
                        .step_by(n)
                        .flatten()
                        .copied()
                        .collect();
                    assert_eq!(share.len(), 4096 / n);
                    let (priced, written) =
                        priced_and_written(&XDeflate::default(), &share, &mut scratch);
                    assert_eq!(priced, written, "{} share {i} of {n}", corpus.name());
                }
            }
        }
    }

    /// Statistics for the price and header properties: a literal/length
    /// and a distance alphabet with the given numbers of symbols in use,
    /// at random places, weights small and tied or wide.
    fn arb_block_stats() -> impl Strategy<Value = ([u64; LIT_SYMS], [u64; DIST_SYMS])> {
        let alphabet = |size: usize, actives: Vec<usize>| {
            (
                prop::sample::select(actives),
                prop_oneof![Just(4u64), Just(5000u64)],
                prop::collection::vec(any::<prop::sample::Index>(), size),
                prop::collection::vec(any::<u64>(), size),
            )
                .prop_map(move |(active, bound, order, raw)| {
                    let mut symbols: Vec<usize> = (0..size).collect();
                    symbols.sort_by_key(|&s| order[s].index(1 << 20));
                    let mut freqs = vec![0u64; size];
                    for (&sym, &w) in symbols.iter().zip(&raw).take(active) {
                        freqs[sym] = 1 + w % bound;
                    }
                    freqs
                })
        };
        (
            alphabet(LIT_SYMS, vec![1, 2, 17, 257, 265]),
            alphabet(DIST_SYMS, vec![0, 1, 2, 16, 17]),
        )
            .prop_map(|(lit, dist)| {
                (
                    lit.try_into().expect("LIT_SYMS weights"),
                    dist.try_into().expect("DIST_SYMS weights"),
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The runs taken once, into the scratch, are the pairs the runs
        /// walked twice were; the price summed from them is the
        /// reference price; and the header written from them through the
        /// block writer's accumulator is the bytes `write_lengths` wrote,
        /// after any number of bits.
        #[test]
        fn price_and_header_equal_the_twice_walked_runs(
            stats in arb_block_stats(),
            lead in (any::<u32>(), 0u32..32),
        ) {
            let (lit_freq, dist_freq) = stats;
            let mut scratch = Scratch::new();
            let xd = &mut scratch.xd;
            (xd.lit_freq, xd.dist_freq) = (lit_freq, dist_freq);
            fit_codes(&mut scratch).unwrap();
            let xd = &mut scratch.xd;
            let priced = xd.compressed_block_bytes();
            prop_assert_eq!(
                priced,
                reference::block_bytes(&xd.lit_freq, &xd.lit_lens, &xd.dist_freq, &xd.dist_lens)
            );
            let want_runs: Vec<u32> = reference::length_runs(&xd.lit_lens)
                .chain(reference::length_runs(&xd.dist_lens))
                .map(|(v, run)| v | run << 4)
                .collect();
            prop_assert_eq!(&xd.runs, &want_runs);

            let (value, bits) = lead;
            let value = value & ((1u64 << bits) - 1) as u32;
            let mut want = BitWriter::new();
            want.write_bits(value, bits);
            reference::write_lengths(&mut want, &xd.lit_lens);
            reference::write_lengths(&mut want, &xd.dist_lens);
            let mut got = Vec::new();
            let mut out = BlockOut::new(&mut got, 0, u64::from(value), bits, 512);
            for &pair in &xd.runs {
                out.put(u64::from(pair), RUN_BITS as u32);
            }
            let len = out.align();
            prop_assert_eq!(&got[..len], &want.finish()[..]);
        }
    }

    /// The block price of `data` tokenized by `lz77::reference`, which
    /// has no first-copy scan: what the stored decision must rest on.
    fn reference_price(data: &[u8]) -> usize {
        let (mut lit_freq, mut dist_freq) = ([0u64; LIT_SYMS], [0u64; DIST_SYMS]);
        lit_freq[EOB] = 1;
        for token in crate::lz77::reference::tokenize(&MatchFinder::default(), data) {
            match token {
                Token::Literal(byte) => lit_freq[usize::from(byte)] += 1,
                Token::Match { len, dist } => {
                    lit_freq[length_bucket(len).0] += 1;
                    dist_freq[dist_bucket(dist).0] += 1;
                }
            }
        }
        let lit_lens = code_lengths(&lit_freq, MAX_CODE_LEN).unwrap();
        let dist_lens = code_lengths(&dist_freq, MAX_CODE_LEN).unwrap();
        reference::block_bytes(&lit_freq, &lit_lens, &dist_freq, &dist_lens)
    }

    /// Whether a scan that skipped the finder (`data` handed over whole
    /// as literals) skipped it exactly when no 4-byte word repeats, and
    /// whether the codec stored `data` exactly when its reference price
    /// is `len + 4` or more. Returns `(skipped, stored)`.
    fn check_scan_and_store(data: &[u8], what: &str) -> (bool, bool) {
        let mut words = std::collections::HashSet::new();
        let repeats = !data.windows(MIN_MATCH).all(|w| words.insert(w));
        let skipped = crate::lz77::literal_prefix(data) == data.len();
        assert_eq!(skipped, !repeats, "{what}: the scan skips the finder");
        let stream = compressed(&XDeflate::default(), data);
        let stored = stream[0] & 2 == 0;
        let priced = reference_price(data);
        assert_eq!(stored, priced >= data.len() + 4, "{what}: priced {priced}");
        let mut back = Vec::new();
        XDeflate::default().decompress(&stream, &mut back).unwrap();
        assert!(back == data, "{what}: round trip");
        (skipped, stored)
    }

    #[test]
    fn every_corpus_is_stored_exactly_when_its_reference_price_says_so() {
        for corpus in Corpus::all() {
            for (seed, len) in [(0, 4096), (1, 4096), (2, 4096), (3, 70_000)] {
                let data = corpus.generate(seed, len);
                let what = format!("{} seed {seed} len {len}", corpus.name());
                let (skipped, stored) = check_scan_and_store(&data, &what);
                if corpus == Corpus::RandomBytes {
                    assert!(
                        skipped && stored,
                        "{what}: skipped {skipped}, stored {stored}"
                    );
                }
            }
        }
    }

    /// The scan costs a compressible page next to nothing: it hands the
    /// page to the finder within its first 128 bytes (at most 71 on
    /// these corpora), where the finder would have emitted literals
    /// anyway.
    #[test]
    fn a_compressible_page_reaches_the_finder_within_128_bytes() {
        let mut compressible = 0;
        for corpus in Corpus::all() {
            for seed in 0..8 {
                let page = corpus.generate(seed, 4096);
                if compressed(&XDeflate::default(), &page).len() > page.len() / 2 {
                    continue;
                }
                compressible += 1;
                let handed_over = crate::lz77::literal_prefix(&page);
                assert!(
                    handed_over <= 128,
                    "{} seed {seed}: {handed_over}",
                    corpus.name()
                );
            }
        }
        assert!(compressible >= 8 * 12, "{compressible} compressible pages");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Noise of every kind — uniform, drawn from a small alphabet,
        /// skewed toward zero, and uniform with a short copy planted at
        /// every offset mod 8 — is stored exactly when the reference
        /// tokens price it at `len + 4` or more, skipping the finder or
        /// not. (A 4 KiB page of 64 symbols can have no repeated word and
        /// still compress: that is pricing's call, not the scan's.)
        #[test]
        fn noise_is_stored_exactly_when_its_reference_price_says_so(
            noise in prop::collection::vec(any::<u8>(), 4096),
            alphabet_bits in 4u32..=7,
            copy_len in 4usize..24,
            from in any::<prop::sample::Index>(),
            to in any::<prop::sample::Index>(),
        ) {
            let (skipped, stored) = check_scan_and_store(&noise, "uniform");
            prop_assert!(stored, "uniform noise stored (skipped {})", skipped);
            let small: Vec<u8> = noise.iter().map(|&b| b >> (8 - alphabet_bits)).collect();
            check_scan_and_store(&small, &format!("{alphabet_bits}-bit alphabet"));
            let skewed: Vec<u8> = noise.windows(2).map(|w| w[0].min(w[1])).collect();
            check_scan_and_store(&skewed, "skewed");
            for residue in 0..8 {
                let to = copy_len.next_multiple_of(8) + (to.index(4032) & !7) + residue;
                let from = from.index(to - copy_len + 1);
                let mut planted = noise.clone();
                planted.copy_within(from..from + copy_len, to);
                let what = format!("{copy_len} bytes from {from} to {to}");
                let (skipped, _) = check_scan_and_store(&planted, &what);
                prop_assert!(!skipped, "{}: the copy is found", what);
            }
        }
    }

    fn round_trip(data: &[u8]) -> usize {
        let codec = XDeflate::default();
        let mut compressed = Vec::new();
        codec.compress(data, &mut compressed).unwrap();
        let mut restored = Vec::new();
        codec.decompress(&compressed, &mut restored).unwrap();
        assert_eq!(restored, data);
        compressed.len()
    }

    #[test]
    fn empty_input() {
        assert!(round_trip(b"") > 0);
    }

    #[test]
    fn reused_scratch_output_is_byte_identical() {
        let codec = XDeflate::default();
        let inputs: Vec<Vec<u8>> = vec![
            b"far memory far memory far memory".repeat(16),
            vec![0u8; 4096],
            (0..1024u32)
                .flat_map(|i| i.wrapping_mul(2654435761).to_le_bytes())
                .collect(),
            Vec::new(),
            b"x".to_vec(),
        ];
        let mut scratch = Scratch::new();
        for data in &inputs {
            let mut fresh = Vec::new();
            codec.compress(data, &mut fresh).unwrap();
            let mut reused = Vec::new();
            codec
                .compress_into(data, &mut reused, &mut scratch)
                .unwrap();
            assert_eq!(
                fresh,
                reused,
                "compress_into diverged on {} bytes",
                data.len()
            );
            let mut back = Vec::new();
            codec
                .decompress_into(&reused, &mut back, &mut scratch)
                .unwrap();
            assert_eq!(&back, data);
        }
    }

    #[test]
    fn single_byte() {
        round_trip(b"x");
    }

    #[test]
    fn text_round_trips_and_compresses() {
        let data = b"software-defined far memory compresses cold pages \
                     into a zpool; software-defined far memory promotes \
                     pages out of the zpool when they become hot again. "
            .repeat(8);
        let c = round_trip(&data);
        assert!(c < data.len() / 2, "compressed {c} of {}", data.len());
    }

    #[test]
    fn constant_page_compresses_drastically() {
        let page = vec![0u8; 4096];
        let c = round_trip(&page);
        assert!(c < 64, "zero page compressed to {c}");
    }

    #[test]
    fn random_bytes_stored_raw() {
        // Keyed LCG bytes are incompressible: stored block ≈ input + 4.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let c = round_trip(&data);
        assert!(c <= data.len() + 8, "stored fallback too large: {c}");
    }

    #[test]
    fn length_bucket_round_trips_all_lengths() {
        for len in MIN_MATCH as u32..=MAX_MATCH as u32 {
            let (sym, extra, ebits) = length_bucket(len);
            assert!((257..LIT_SYMS).contains(&sym), "len {len} -> sym {sym}");
            assert!(extra < (1 << ebits) || ebits == 0);
            assert_eq!(length_unbucket(sym, extra), len);
        }
    }

    #[test]
    fn dist_bucket_round_trips_all_distances() {
        for dist in 1u32..=32768 {
            let (sym, extra, _) = dist_bucket(dist);
            assert!((1..DIST_SYMS).contains(&sym), "dist {dist} -> sym {sym}");
            assert_eq!(dist_unbucket(sym, extra), dist);
        }
    }

    #[test]
    fn truncated_stream_is_corrupt_not_panic() {
        let codec = XDeflate::default();
        let data = b"hello hello hello hello hello hello".repeat(4);
        let mut compressed = Vec::new();
        codec.compress(&data, &mut compressed).unwrap();
        for cut in [1, compressed.len() / 2, compressed.len() - 1] {
            let mut out = Vec::new();
            let r = codec.decompress(&compressed[..cut], &mut out);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn garbage_input_is_corrupt_not_panic() {
        let codec = XDeflate::default();
        let garbage: Vec<u8> = (0..200).map(|i| (i * 37 % 256) as u8).collect();
        let mut out = Vec::new();
        // Either an error or garbage output is fine; a panic is not.
        let _ = codec.decompress(&garbage, &mut out);
    }

    #[test]
    fn fast_profile_round_trips() {
        let codec = XDeflate::with_finder(MatchFinder::fast());
        let data = b"fast path fast path fast path fast path".repeat(16);
        let mut c = Vec::new();
        codec.compress(&data, &mut c).unwrap();
        let mut d = Vec::new();
        codec.decompress(&c, &mut d).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn appends_to_existing_destination() {
        let codec = XDeflate::default();
        let mut dst = vec![9u8; 3];
        let n = codec.compress(b"abcabcabcabc", &mut dst).unwrap();
        assert_eq!(dst.len(), 3 + n);
        assert_eq!(&dst[..3], &[9, 9, 9]);
    }
}
