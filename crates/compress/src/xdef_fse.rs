//! The LZ77 + FSE/tANS throughput codec (`xdef-fse`).
//!
//! Same token model as [`crate::xdeflate`] (literals, length buckets,
//! distance buckets) but the entropy stage is the [`crate::fse`] coder
//! instead of canonical Huffman: no code-length pass, no per-symbol
//! tree walk, and fractional-bit coding of the literal distribution.
//! Combined with the `turbo` match-finder profile this is the
//! paper-motivated answer to compression being the critical path of the
//! swap-out pipeline.
//!
//! Table sizes are tuned for 4 KiB pages, where per-block table builds
//! are the dominant fixed cost: literals use 512 states (`LOG = 9`, the
//! minimum that fits the 265-symbol alphabet) and distances 64 states
//! (`LOG = 6` for 17 symbols).
//!
//! # Block format
//!
//! One block per `compress` call, LSB-first bits:
//!
//! ```text
//! mode:1           1 = FSE block, 0 = stored
//! -- stored --
//! align, len:32, bytes
//! -- FSE --
//! n_tokens:32
//! lit_norm         write_norm over the 265-symbol literal alphabet
//! has_dist:1
//! [dist_norm]      present when the block has any match
//! pad:3, align     pad = leading zero bits of the FSE body
//! FSE body bytes   states then token bits, as laid out below
//! ```
//!
//! The FSE body reads forward as: `state_a:9`, `state_b:9`,
//! `[state_d:6]`, then per token the literal/length symbol bits, length
//! extra bits, distance symbol bits, and distance extra bits. It is
//! *produced* backwards — ANS encodes in reverse — by pushing those
//! fields in reverse order into a [`BackwardBitWriter`], so emission is
//! single-pass with no staging buffer.
//!
//! Literal/length symbols alternate between two FSE states (A for even
//! token indices, B for odd) sharing one table, giving the decoder two
//! independent dependency chains.

use xfm_types::{Error, Result};

use crate::bitio::{BackwardBitWriter, BitReader, BitWriter};
use crate::codec::{Codec, CodecKind};
use crate::fse::{normalize_freqs, read_norm, write_norm, FseDecoder, FseEncoder};
use crate::lz77::{copy_match, MatchFinder, MAX_MATCH, MIN_MATCH};
use crate::scratch::Scratch;
use crate::xdeflate::{
    dist_bucket, dist_unbucket, length_bucket, length_unbucket, DIST_SYMS, EOB, LIT_SYMS, MATCH_BIT,
};

/// Literal/length table log: 512 states for the 265-symbol alphabet.
pub(crate) const LIT_LOG: u32 = 9;
/// Distance table log: 64 states for the 17 distance buckets.
pub(crate) const DIST_LOG: u32 = 6;

/// Reusable FSE codec state: normalized tables, entropy coders, and the
/// two bitstream writers (forward header, backward FSE body).
///
/// The decoder side keeps the norm vectors it last built tables for
/// (`lit_built`/`dist_built`); when a batch of blocks shares a frequency
/// header — pages from one application usually do — the rebuild is
/// skipped entirely.
#[derive(Debug, Clone, Default)]
pub struct FseScratch {
    lit_norm: Vec<u16>,
    dist_norm: Vec<u16>,
    lit_enc: FseEncoder<LIT_LOG>,
    dist_enc: FseEncoder<DIST_LOG>,
    lit_dec: FseDecoder<LIT_LOG>,
    dist_dec: FseDecoder<DIST_LOG>,
    /// Norms the decoders were last rebuilt for; empty = never built.
    lit_built: Vec<u16>,
    dist_built: Vec<u16>,
    back: BackwardBitWriter,
    writer: BitWriter,
}

/// The xdeflate+FSE throughput codec.
///
/// # Examples
///
/// ```
/// use xfm_compress::{Codec, XDeflateFse};
///
/// let codec = XDeflateFse::default();
/// let data = b"far memory far memory far memory far memory".repeat(10);
/// let mut compressed = Vec::new();
/// codec.compress(&data, &mut compressed)?;
/// assert!(compressed.len() < data.len());
///
/// let mut restored = Vec::new();
/// codec.decompress(&compressed, &mut restored)?;
/// assert_eq!(restored, data);
/// # Ok::<(), xfm_types::Error>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct XDeflateFse {
    finder: MatchFinder,
}

impl XDeflateFse {
    /// Creates the codec with a specific match-finder profile.
    #[must_use]
    pub fn with_finder(finder: MatchFinder) -> Self {
        Self { finder }
    }
}

impl Default for XDeflateFse {
    /// Defaults to the turbo finder — this codec exists for throughput.
    fn default() -> Self {
        Self::with_finder(MatchFinder::turbo())
    }
}

/// Encodes one packed token backwards: the decoder-read-order fields
/// are pushed in reverse, with the distance symbol+extra and the
/// length symbol+extra each merged into a single push.
#[inline]
fn emit_token(
    t: u32,
    lit_enc: &FseEncoder<LIT_LOG>,
    dist_enc: &FseEncoder<DIST_LOG>,
    lit_state: &mut u32,
    state_d: &mut u32,
    bw: &mut BackwardBitWriter,
) {
    if t & MATCH_BIT != 0 {
        let len = ((t >> 16) & 0xff) + MIN_MATCH as u32;
        let dist = t & 0xffff;
        let (dsym, dextra, debits) = dist_bucket(dist);
        let (db, dnb) = dist_enc.encode_raw(dsym, state_d);
        bw.push((dextra << dnb) | db, dnb + debits);
        let (sym, extra, ebits) = length_bucket(len);
        let (lb, lnb) = lit_enc.encode_raw(sym, lit_state);
        bw.push((extra << lnb) | lb, lnb + ebits);
    } else {
        lit_enc.encode(t as usize, lit_state, bw);
    }
}

/// Writes `src` as a stored block (mode bit already not written).
fn write_stored(w: &mut BitWriter, src: &[u8]) {
    w.clear();
    w.write_bits(0, 1); // mode = stored
    w.align_byte();
    w.write_bits(src.len() as u32, 32);
    w.write_bytes(src);
}

impl Codec for XDeflateFse {
    fn name(&self) -> &'static str {
        "xdef-fse"
    }

    fn kind(&self) -> CodecKind {
        CodecKind::XDeflateFse
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        self.compress_into(src, dst, &mut Scratch::new())
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        self.decompress_into(src, dst, &mut Scratch::new())
    }

    fn compress_into(&self, src: &[u8], dst: &mut Vec<u8>, scratch: &mut Scratch) -> Result<usize> {
        let start = dst.len();
        let Scratch { lz, xd, fse, .. } = scratch;
        xd.reset();
        self.finder.tokenize_into(src, lz, xd);

        let w = &mut fse.writer;
        if xd.tokens.is_empty() {
            write_stored(w, src);
            dst.extend_from_slice(w.bytes());
            return Ok(dst.len() - start);
        }

        normalize_freqs(&xd.lit_freq, &mut fse.lit_norm, LIT_LOG);
        let has_dist = normalize_freqs(&xd.dist_freq, &mut fse.dist_norm, DIST_LOG) > 0;
        fse.lit_enc.rebuild(&fse.lit_norm)?;
        if has_dist {
            fse.dist_enc.rebuild(&fse.dist_norm)?;
        }

        // Backward pass: walk tokens in reverse, pushing bit fields in
        // reverse of the decoder's read order (within each token:
        // dist-extra, dist-state, len-extra, lit-state; after all
        // tokens the three initial states, read back first). Worst
        // case is bounded by ~2 bits of entropy overhead per input
        // byte plus the states, far under `2 * len + 64`.
        let bw = &mut fse.back;
        bw.begin(2 * src.len() + 64);
        // Walk tokens backwards two at a time so the even/odd state
        // alternation is resolved statically instead of per token, and
        // the chunked iteration carries no per-token bounds checks.
        // Pairs are aligned so every chunk's high index has the same
        // parity (odd exactly when the count is even); an odd count
        // leaves token 0 (state A) for last. `s_hi`/`s_lo` are plain
        // locals so the states live in registers through the loop.
        let toks = xd.tokens.as_slice();
        let (head, pairs) = toks.split_at(toks.len() % 2);
        let hi_is_odd = toks.len() % 2 == 0;
        let mut s_hi = FseEncoder::<LIT_LOG>::INITIAL_STATE;
        let mut s_lo = FseEncoder::<LIT_LOG>::INITIAL_STATE;
        let mut state_d = FseEncoder::<DIST_LOG>::INITIAL_STATE;
        for pair in pairs.rchunks_exact(2) {
            let (lo, hi) = (pair[0], pair[1]);
            if (lo | hi) & MATCH_BIT == 0 {
                // Both literals (the common case): two independent
                // state steps, one merged push. The low token is read
                // first, so its bits sit at the bottom.
                let (hb, hn) = fse.lit_enc.encode_raw(hi as usize, &mut s_hi);
                let (lb, ln) = fse.lit_enc.encode_raw(lo as usize, &mut s_lo);
                bw.push((hb << ln) | lb, hn + ln);
            } else {
                emit_token(hi, &fse.lit_enc, &fse.dist_enc, &mut s_hi, &mut state_d, bw);
                emit_token(lo, &fse.lit_enc, &fse.dist_enc, &mut s_lo, &mut state_d, bw);
            }
        }
        let (mut state_a, state_b) = if hi_is_odd {
            (s_lo, s_hi)
        } else {
            (s_hi, s_lo)
        };
        if let [first] = *head {
            emit_token(
                first,
                &fse.lit_enc,
                &fse.dist_enc,
                &mut state_a,
                &mut state_d,
                bw,
            );
        }
        if has_dist {
            bw.push(state_d - FseEncoder::<DIST_LOG>::INITIAL_STATE, DIST_LOG);
        }
        bw.push(state_b - FseEncoder::<LIT_LOG>::INITIAL_STATE, LIT_LOG);
        bw.push(state_a - FseEncoder::<LIT_LOG>::INITIAL_STATE, LIT_LOG);
        let (pad, body) = bw.finish();

        w.clear();
        w.write_bits(1, 1); // mode = FSE
        w.write_bits(xd.tokens.len() as u32, 32);
        write_norm(w, &fse.lit_norm, LIT_LOG);
        w.write_bits(u32::from(has_dist), 1);
        if has_dist {
            write_norm(w, &fse.dist_norm, DIST_LOG);
        }
        w.write_bits(pad, 3);
        w.align_byte();

        // Stored fallback when entropy coding does not pay (stored
        // overhead is 5 bytes: mode byte plus the 32-bit length). The
        // FSE body is appended straight to `dst` — never staged through
        // the forward writer — so the hot path copies it exactly once.
        if w.byte_len() + body.len() >= src.len() + 5 {
            write_stored(w, src);
            dst.extend_from_slice(w.bytes());
        } else {
            dst.extend_from_slice(w.bytes());
            dst.extend_from_slice(body);
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
        let fse = &mut scratch.fse;
        let mut r = BitReader::new(src);
        if r.read_bit()? == 0 {
            r.align_byte();
            let len = r.read_bits(32)? as usize;
            dst.extend_from_slice(r.read_bytes(len)?);
            return Ok(dst.len() - start);
        }

        let n = r.read_bits(32)? as usize;
        // Every token costs at least its state-table share on average;
        // a stream claiming far more tokens than it has bits is corrupt
        // (this also bounds output growth on malicious input).
        if n > 8 * src.len() + 64 {
            return Err(Error::Corrupt(format!(
                "token count {n} impossible for {} input bytes",
                src.len()
            )));
        }
        read_norm(&mut r, LIT_SYMS, &mut fse.lit_norm, LIT_LOG)?;
        if fse.lit_built != fse.lit_norm {
            fse.lit_dec.rebuild(&fse.lit_norm)?;
            fse.lit_built.clone_from(&fse.lit_norm);
        }
        let has_dist = r.read_bit()? == 1;
        if has_dist {
            read_norm(&mut r, DIST_SYMS, &mut fse.dist_norm, DIST_LOG)?;
            if fse.dist_built != fse.dist_norm {
                fse.dist_dec.rebuild(&fse.dist_norm)?;
                fse.dist_built.clone_from(&fse.dist_norm);
            }
        }
        let pad = r.read_bits(3)?;
        r.align_byte();
        r.read_bits(pad)?;
        let mut state_a = r.read_bits(LIT_LOG)?;
        let mut state_b = r.read_bits(LIT_LOG)?;
        let mut state_d = if has_dist { r.read_bits(DIST_LOG)? } else { 0 };

        let lit_view = fse.lit_dec.view();
        for i in 0..n {
            let lit_state = if i % 2 == 0 {
                &mut state_a
            } else {
                &mut state_b
            };
            let sym = lit_view.step(lit_state, &mut r)? as usize;
            if sym < 256 {
                dst.push(sym as u8);
            } else if sym == EOB {
                return Err(Error::Corrupt("EOB symbol in counted stream".into()));
            } else {
                let ebits = (sym - 257) as u32;
                let extra = r.read_bits(ebits)?;
                let len = length_unbucket(sym, extra);
                if !(MIN_MATCH as u32..=MAX_MATCH as u32).contains(&len) {
                    return Err(Error::Corrupt(format!("match length {len}")));
                }
                if !has_dist {
                    return Err(Error::Corrupt("match token without distance table".into()));
                }
                let dsym = fse.dist_dec.view().step(&mut state_d, &mut r)? as usize;
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
                copy_match(dst, dist, len as usize);
            }
        }
        Ok(dst.len() - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;

    fn round_trip(data: &[u8]) -> usize {
        let codec = XDeflateFse::default();
        let mut compressed = Vec::new();
        codec.compress(data, &mut compressed).unwrap();
        let mut restored = Vec::new();
        codec.decompress(&compressed, &mut restored).unwrap();
        assert_eq!(restored, data, "round-trip mismatch");
        compressed.len()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for data in [&b""[..], b"a", b"ab", b"abc", b"abcd"] {
            round_trip(data);
        }
    }

    #[test]
    fn repetitive_page_compresses_hard() {
        let data = b"swap out swap in swap out swap in ".repeat(120);
        let n = round_trip(&data);
        assert!(n < data.len() / 8, "{n} bytes for {}", data.len());
    }

    #[test]
    fn constant_page_is_tiny() {
        let n = round_trip(&vec![0x5au8; 4096]);
        assert!(n < 64, "constant page took {n} bytes");
    }

    #[test]
    fn incompressible_data_stored_with_bounded_overhead() {
        let data: Vec<u8> = (0..4096u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u8)
            .collect();
        let n = round_trip(&data);
        assert!(n <= data.len() + 5, "{n} bytes for {}", data.len());
    }

    #[test]
    fn all_corpora_round_trip() {
        for corpus in Corpus::all() {
            for seed in 0..3u64 {
                let page = corpus.generate(seed, 4096);
                round_trip(&page);
            }
        }
    }

    #[test]
    fn scratch_reuse_is_byte_identical_across_mixed_pages() {
        let pages: Vec<Vec<u8>> = vec![
            Corpus::Json.generate(1, 4096),
            vec![0u8; 4096],
            Corpus::RandomBytes.generate(2, 4096),
            Corpus::EnglishText.generate(3, 4096),
            b"x".repeat(17),
            Vec::new(),
        ];
        let codec = XDeflateFse::default();
        let mut scratch = Scratch::new();
        for page in &pages {
            let mut fresh = Vec::new();
            codec.compress(page, &mut fresh).unwrap();
            let mut warm = Vec::new();
            codec.compress_into(page, &mut warm, &mut scratch).unwrap();
            assert_eq!(fresh, warm, "scratch reuse changed the stream");
            let mut restored = Vec::new();
            codec
                .decompress_into(&warm, &mut restored, &mut scratch)
                .unwrap();
            assert_eq!(&restored, page);
        }
    }

    #[test]
    fn batch_decompress_matches_single_and_caches_tables() {
        let codec = XDeflateFse::default();
        // Same corpus → likely identical headers are NOT guaranteed, so
        // correctness must not depend on the cache hitting.
        let pages: Vec<Vec<u8>> = (0..8).map(|i| Corpus::Json.generate(i, 4096)).collect();
        let blocks: Vec<Vec<u8>> = pages
            .iter()
            .map(|p| {
                let mut c = Vec::new();
                codec.compress(p, &mut c).unwrap();
                c
            })
            .collect();
        let srcs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        let mut dsts: Vec<Vec<u8>> = vec![Vec::new(); srcs.len()];
        let mut scratch = Scratch::new();
        codec
            .decompress_batch_into(&srcs, &mut dsts, &mut scratch)
            .unwrap();
        assert_eq!(dsts, pages);
    }

    #[test]
    fn truncated_and_garbage_streams_are_rejected() {
        let codec = XDeflateFse::default();
        let mut compressed = Vec::new();
        codec
            .compress(&Corpus::Json.generate(7, 4096), &mut compressed)
            .unwrap();
        for cut in [1, compressed.len() / 2, compressed.len() - 1] {
            let mut out = Vec::new();
            assert!(
                codec.decompress(&compressed[..cut], &mut out).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // Bit salad must never panic; errors are fine.
        let garbage: Vec<u8> = (0..256u32).map(|i| (i * 193 % 251) as u8).collect();
        let mut out = Vec::new();
        let _ = codec.decompress(&garbage, &mut out);
    }

    #[test]
    fn absurd_token_count_rejected() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(u32::MAX, 32);
        let bytes = w.finish();
        let mut out = Vec::new();
        assert!(XDeflateFse::default().decompress(&bytes, &mut out).is_err());
    }
}
