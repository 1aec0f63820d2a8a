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
//!   dist_lens : RLE-coded lengths for the 15-symbol distance alphabet
//!               (symbol d = bit_length(dist), extra bits follow)
//!   tokens, terminated by EOB
//! ```
//!
//! Match lengths and distances are coded as `(bucket symbol, extra bits)`
//! where the bucket is the bit length of the value — a simple exponential
//! bucketing that keeps the alphabets small for page-sized inputs.

use xfm_types::{Error, Result};

use crate::bitio::{BitReader, BitWriter};
use crate::codec::{Codec, CodecKind};
use crate::huffman::{code_lengths_into, Decoder, Encoder, MAX_CODE_LEN};
use crate::lz77::{MatchFinder, TokenSink, MAX_MATCH, MIN_MATCH};
use crate::scratch::Scratch;

/// Literal/length alphabet size: 256 literals + EOB + 8 length buckets.
pub(crate) const LIT_SYMS: usize = 256 + 1 + 8;
/// End-of-block symbol.
pub(crate) const EOB: usize = 256;
/// Distance alphabet size: bit_length(dist) for dist in 1..=32768
/// (bit_length(32768) = 16, so symbols 1..=16 are valid).
pub(crate) const DIST_SYMS: usize = 17;

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

    /// A fast profile (models the lzo speed class on the CPU path).
    #[must_use]
    pub fn fast() -> Self {
        Self::with_finder(MatchFinder::fast())
    }
}

/// Tag bit marking a packed token as a match.
pub(crate) const MATCH_BIT: u32 = 1 << 31;

/// Reusable xdeflate state: the packed token buffer, symbol statistics,
/// entropy coders, and the output bitstream writer.
///
/// Tokens pack into one `u32` each: bit 31 set means a match with the
/// distance in bits 0..16 and `len - MIN_MATCH` in bits 16..24;
/// otherwise the value is the literal byte. The tokenizer feeds this
/// struct directly (it implements [`TokenSink`]), so frequency counting
/// happens while tokens stream in — no intermediate `Vec<Token>`.
#[derive(Debug, Clone)]
pub struct XdefScratch {
    pub(crate) tokens: Vec<u32>,
    pub(crate) lit_freq: [u64; LIT_SYMS],
    pub(crate) dist_freq: [u64; DIST_SYMS],
    lit_lens: Vec<u32>,
    dist_lens: Vec<u32>,
    lit_enc: Encoder,
    dist_enc: Encoder,
    lit_dec: Decoder,
    dist_dec: Decoder,
    writer: BitWriter,
}

impl Default for XdefScratch {
    fn default() -> Self {
        Self {
            tokens: Vec::new(),
            lit_freq: [0; LIT_SYMS],
            dist_freq: [0; DIST_SYMS],
            lit_lens: Vec::new(),
            dist_lens: Vec::new(),
            lit_enc: Encoder::default(),
            dist_enc: Encoder::default(),
            lit_dec: Decoder::default(),
            dist_dec: Decoder::default(),
            writer: BitWriter::new(),
        }
    }
}

impl XdefScratch {
    pub(crate) fn reset(&mut self) {
        self.tokens.clear();
        self.lit_freq = [0; LIT_SYMS];
        self.dist_freq = [0; DIST_SYMS];
    }
}

impl TokenSink for XdefScratch {
    fn literal(&mut self, _pos: usize, byte: u8) {
        self.lit_freq[byte as usize] += 1;
        self.tokens.push(u32::from(byte));
    }

    fn emit_match(&mut self, len: u32, dist: u32) {
        self.lit_freq[length_bucket(len).0] += 1;
        self.dist_freq[dist_bucket(dist).0] += 1;
        self.tokens
            .push(MATCH_BIT | ((len - MIN_MATCH as u32) << 16) | dist);
    }
}

pub(crate) fn length_bucket(len: u32) -> (usize, u32, u32) {
    // Value coded: len - MIN_MATCH + 1, in 1..=255.
    let v = len - MIN_MATCH as u32 + 1;
    let bits = 32 - v.leading_zeros(); // bit_length >= 1
    let extra_bits = bits - 1;
    let extra_val = v - (1 << extra_bits);
    (257 + (bits - 1) as usize, extra_val, extra_bits)
}

pub(crate) fn length_unbucket(symbol: usize, extra: u32) -> u32 {
    let bits = (symbol - 257) as u32 + 1;
    let v = (1 << (bits - 1)) + extra;
    v + MIN_MATCH as u32 - 1
}

pub(crate) fn dist_bucket(dist: u32) -> (usize, u32, u32) {
    let bits = 32 - dist.leading_zeros();
    let extra_bits = bits - 1;
    let extra_val = dist - (1 << extra_bits);
    (bits as usize, extra_val, extra_bits)
}

pub(crate) fn dist_unbucket(symbol: usize, extra: u32) -> u32 {
    let bits = symbol as u32;
    (1 << (bits - 1)) + extra
}

/// Bits per `(value:4, run:8)` pair of an RLE-coded length vector.
const RUN_BITS: u64 = 12;

/// The `(value, run)` pairs a code-length vector is transmitted as:
/// maximal runs of equal lengths, split at 255.
fn length_runs(lens: &[u32]) -> impl Iterator<Item = (u32, u32)> + '_ {
    lens.chunk_by(|a, b| a == b)
        .flat_map(|run| run.chunks(255))
        .map(|run| (run[0], run.len() as u32))
}

/// RLE-encodes a code-length vector: `(value:4 bits, run:8 bits)*`,
/// terminated implicitly by the known alphabet size.
fn write_lengths(w: &mut BitWriter, lens: &[u32]) {
    for (v, run) in length_runs(lens) {
        w.write_bits(v | (run << 4), RUN_BITS as u32);
    }
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
    /// the stored-or-compressed decision costs no bit writing.
    fn compressed_block_bytes(&self) -> usize {
        let header = 2 + RUN_BITS
            * (length_runs(&self.lit_lens).count() + length_runs(&self.dist_lens).count()) as u64;
        let lit: u64 = self
            .lit_freq
            .iter()
            .zip(&self.lit_lens)
            .map(|(&f, &l)| f * u64::from(l))
            .sum();
        // Length bucket 257 + k and distance bucket d carry k and d - 1
        // extra bits (see `length_bucket` / `dist_bucket`).
        let len_extra: u64 = (0u64..)
            .zip(&self.lit_freq[EOB + 1..])
            .map(|(k, &f)| f * k)
            .sum();
        let dist: u64 = (0u64..)
            .zip(self.dist_freq.iter().zip(&self.dist_lens))
            .map(|(d, (&f, &l))| f * (u64::from(l) + d.saturating_sub(1)))
            .sum();
        (header + lit + len_extra + dist).div_ceil(8) as usize
    }

    /// Entropy-codes the tokens into `self.writer` as one final
    /// compressed block, byte-aligned.
    fn write_compressed_block(&mut self) -> Result<()> {
        self.lit_enc.rebuild(&self.lit_lens)?;
        self.dist_enc.rebuild(&self.dist_lens)?;
        let Self {
            tokens,
            lit_lens,
            dist_lens,
            lit_enc,
            dist_enc,
            writer: w,
            ..
        } = self;
        w.clear();
        w.write_bits(1, 1); // final
        w.write_bits(1, 1); // compressed
        write_lengths(w, lit_lens);
        write_lengths(w, dist_lens);
        for &t in tokens.iter() {
            if t & MATCH_BIT != 0 {
                let len = ((t >> 16) & 0xff) + MIN_MATCH as u32;
                let dist = t & 0xffff;
                let (sym, extra, ebits) = length_bucket(len);
                lit_enc.encode(w, sym);
                w.write_bits(extra, ebits);
                let (dsym, dextra, debits) = dist_bucket(dist);
                dist_enc.encode(w, dsym);
                w.write_bits(dextra, debits);
            } else {
                lit_enc.encode(w, t as usize);
            }
        }
        lit_enc.encode(w, EOB);
        w.align_byte();
        Ok(())
    }
}

impl XDeflate {
    /// Tokenizes `src` into `scratch` and fits the two Huffman codes,
    /// leaving everything [`XdefScratch::compressed_block_bytes`] and
    /// [`XdefScratch::write_compressed_block`] need.
    fn model_block(&self, src: &[u8], scratch: &mut Scratch) -> Result<()> {
        let Scratch { lz, xd, huff, .. } = scratch;
        xd.reset();
        // Tokenize straight into the scratch: the sink counts symbol
        // frequencies as tokens stream in.
        self.finder.tokenize_into(src, lz, xd);
        xd.lit_freq[EOB] += 1;
        code_lengths_into(&xd.lit_freq, MAX_CODE_LEN, huff, &mut xd.lit_lens)?;
        code_lengths_into(&xd.dist_freq, MAX_CODE_LEN, huff, &mut xd.dist_lens)
    }
}

fn read_lengths_into(r: &mut BitReader<'_>, n: usize, lens: &mut Vec<u32>) -> Result<()> {
    lens.clear();
    while lens.len() < n {
        let v = r.read_bits(4)?;
        let run = r.read_bits(8)? as usize;
        if run == 0 || lens.len() + run > n {
            return Err(Error::Corrupt("bad code-length run".into()));
        }
        lens.extend(std::iter::repeat_n(v, run));
    }
    Ok(())
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
        let start = dst.len();
        self.model_block(src, scratch)?;
        let xd = &mut scratch.xd;
        // Price, then write: when entropy coding does not beat a stored
        // block by its 4 bytes (the SFM stores incompressible pages
        // raw), nothing is encoded at all.
        if xd.compressed_block_bytes() >= src.len() + 4 {
            write_stored(dst, src);
        } else {
            xd.write_compressed_block()?;
            dst.extend_from_slice(xd.writer.bytes());
        }
        Ok(dst.len() - start)
    }

    fn decompress_into(
        &self,
        src: &[u8],
        dst: &mut Vec<u8>,
        scratch: &mut Scratch,
    ) -> Result<usize> {
        let start = dst.len();
        let xd = &mut scratch.xd;
        let mut r = BitReader::new(src);
        loop {
            let is_final = r.read_bit()? == 1;
            let block_type = r.read_bit()?;
            if block_type == 0 {
                r.align_byte();
                let len = r.read_bits(16)? as usize;
                r.align_byte();
                let raw = r.read_bytes(len)?;
                dst.extend_from_slice(raw);
            } else {
                read_lengths_into(&mut r, LIT_SYMS, &mut xd.lit_lens)?;
                read_lengths_into(&mut r, DIST_SYMS, &mut xd.dist_lens)?;
                xd.lit_dec.rebuild(&xd.lit_lens)?;
                xd.dist_dec.rebuild(&xd.dist_lens)?;
                loop {
                    let sym = xd.lit_dec.decode(&mut r)? as usize;
                    if sym < 256 {
                        dst.push(sym as u8);
                    } else if sym == EOB {
                        break;
                    } else {
                        let ebits = (sym - 257) as u32;
                        let extra = r.read_bits(ebits)?;
                        let len = length_unbucket(sym, extra);
                        if !(MIN_MATCH as u32..=MAX_MATCH as u32).contains(&len) {
                            return Err(Error::Corrupt(format!("match length {len}")));
                        }
                        let dsym = xd.dist_dec.decode(&mut r)? as usize;
                        if dsym == 0 || dsym >= DIST_SYMS {
                            return Err(Error::Corrupt("bad distance symbol".into()));
                        }
                        let dextra = r.read_bits((dsym - 1) as u32)?;
                        let dist = dist_unbucket(dsym, dextra) as usize;
                        let produced = dst.len() - start;
                        if dist == 0 || dist > produced {
                            return Err(Error::Corrupt(format!(
                                "distance {dist} exceeds output {produced}"
                            )));
                        }
                        crate::lz77::copy_match(dst, dist, len as usize);
                    }
                }
            }
            if is_final {
                break;
            }
        }
        Ok(dst.len() - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use proptest::prelude::*;

    /// Prices the block for `data`, then writes it regardless of what
    /// the stored rule would decide: `(priced, written)` bytes.
    fn priced_and_written(codec: &XDeflate, data: &[u8], scratch: &mut Scratch) -> (usize, usize) {
        codec.model_block(data, scratch).unwrap();
        let priced = scratch.xd.compressed_block_bytes();
        scratch.xd.write_compressed_block().unwrap();
        (priced, scratch.xd.writer.byte_len())
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
            let codec = if thorough { XDeflate::default() } else { XDeflate::fast() };
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
        let codec = XDeflate::fast();
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
