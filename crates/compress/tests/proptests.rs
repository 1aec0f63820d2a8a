//! Property-based tests for the compression codec.

use proptest::prelude::*;
use xfm_compress::lz77::{expand, MatchFinder};
use xfm_compress::ratio::{gather_interleaved, split_interleaved};
use xfm_compress::{Codec, Scratch, XDeflate};
use xfm_types::Error;

/// Byte-string strategies that mix compressible structure with noise.
fn arb_data() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Raw random bytes.
        prop::collection::vec(any::<u8>(), 0..6000),
        // Repeated motif with noise in between.
        (
            prop::collection::vec(any::<u8>(), 1..24),
            1usize..200,
            any::<u8>()
        )
            .prop_map(|(motif, reps, sep)| {
                let mut out = Vec::new();
                for i in 0..reps {
                    out.extend_from_slice(&motif);
                    if i % 3 == 0 {
                        out.push(sep);
                    }
                }
                out
            }),
        // Low-entropy alphabet.
        prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c', 0u8]), 0..5000),
    ]
}

/// Where [`decode_damaged`] damages a stream: the byte (within the
/// first 64, where the block header and the code-length tables sit) and
/// bit to flip, the length to truncate to — also the head the splice
/// keeps — and the offset in the second stream where the spliced tail
/// starts. The last two are reduced modulo the stream they index.
type Damage = (usize, u32, usize, usize);

fn arb_damage() -> impl Strategy<Value = Damage> {
    (0usize..64, 0u32..8, any::<usize>(), any::<usize>())
}

/// Compresses `data` and `other`, damages the stream of `data` three
/// ways — one bit flipped near the front, truncation, and its head
/// spliced to a tail of the valid stream of `other` — and decodes each
/// through one reused scratch. The decoder may answer with
/// `Error::Corrupt` or with bytes (the planes' checksum over the stored
/// stream catches those); it may not panic, which in this
/// `forbid(unsafe_code)` crate is also what reading past the input
/// would be, and the valid stream must still decode afterwards.
fn decode_damaged(data: &[u8], other: &[u8], (flip, bit, cut, join): Damage) -> Result<(), String> {
    let codec = XDeflate::default();
    let mut stream = Vec::new();
    codec.compress(data, &mut stream).unwrap();
    let mut tail = Vec::new();
    codec.compress(other, &mut tail).unwrap();

    let mut spliced = stream[..cut % (stream.len() + 1)].to_vec();
    spliced.extend_from_slice(&tail[join % (tail.len() + 1)..]);
    let mut damaged = vec![spliced];
    if !stream.is_empty() {
        let mut flipped = stream.clone();
        flipped[flip % stream.len()] ^= 1 << bit;
        damaged.push(flipped);
        damaged.push(stream[..cut % stream.len()].to_vec());
    }

    let mut scratch = Scratch::new();
    let mut out = Vec::new();
    for bad in &damaged {
        out.clear();
        match codec.decompress_into(bad, &mut out, &mut scratch) {
            Ok(_) | Err(Error::Corrupt(_)) => {}
            Err(e) => prop_assert!(false, "{e:?}, not Error::Corrupt"),
        }
    }
    out.clear();
    codec
        .decompress_into(&stream, &mut out, &mut scratch)
        .unwrap();
    prop_assert_eq!(&out[..], data);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// xdeflate round-trips arbitrary inputs byte-exactly.
    #[test]
    fn xdeflate_round_trip(data in arb_data()) {
        let codec = XDeflate::default();
        let mut c = Vec::new();
        codec.compress(&data, &mut c).unwrap();
        let mut d = Vec::new();
        codec.decompress(&c, &mut d).unwrap();
        prop_assert_eq!(d, data);
    }

    /// The LZ77 tokenizer is lossless for every finder profile.
    #[test]
    fn lz77_tokenize_expand_identity(data in arb_data()) {
        for mf in [MatchFinder::fast(), MatchFinder::thorough()] {
            prop_assert_eq!(expand(&mf.tokenize(&data)), data.clone());
        }
    }

    /// Interleaved split/gather is the identity for any DIMM count.
    #[test]
    fn split_gather_identity(data in prop::collection::vec(any::<u8>(), 0..9000),
                             n in 1usize..8) {
        let shares = split_interleaved(&data, n);
        prop_assert_eq!(gather_interleaved(&shares), data);
    }

    /// Decoding damaged xdeflate streams of arbitrary inputs (empty,
    /// shorter than `MIN_MATCH`, stored-only, not page-sized) never
    /// panics.
    #[test]
    fn xdeflate_corruption_never_panics(data in arb_data(), other in arb_data(), d in arb_damage()) {
        decode_damaged(&data, &other, d)?;
    }

    /// Reused scratch state never changes codec output: compressing a
    /// sequence of inputs through one `Scratch` yields byte-identical
    /// streams to fresh-state `compress`, and the scratch decompress
    /// path restores the original bytes.
    #[test]
    fn scratch_reuse_is_byte_identical(inputs in prop::collection::vec(arb_data(), 1..5)) {
        let codec = XDeflate::default();
        let mut scratch = Scratch::new();
        for data in &inputs {
            let mut fresh = Vec::new();
            codec.compress(data, &mut fresh).unwrap();
            let mut reused = Vec::new();
            codec.compress_into(data, &mut reused, &mut scratch).unwrap();
            prop_assert_eq!(&fresh, &reused, "diverged with reused scratch");
            let mut back = Vec::new();
            codec.decompress_into(&reused, &mut back, &mut scratch).unwrap();
            prop_assert_eq!(&back, data);
        }
    }
}
