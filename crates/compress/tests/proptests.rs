//! Property-based tests for the compression codec.

use proptest::prelude::*;
use xfm_compress::lz77::{expand, MatchFinder};
use xfm_compress::ratio::{pack_page_into, unpack_page_into};
use xfm_compress::{Codec, Corpus, Scratch, XDeflate};
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

/// The multi-channel container's DIMM counts.
const DIMMS: [usize; 3] = [1, 2, 4];

/// One damaged container: the DIMM count (an index into [`DIMMS`]), the
/// seed of the page packed (its corpus family is `seed % 17`), the
/// header byte and the slot byte to flip (each reduced modulo its
/// region), the mask they are XORed with, and the length to truncate to
/// (modulo the container's).
type ContainerDamage = (usize, u64, usize, usize, u8, usize);

/// Packs the page `damage` names, damages the container three ways — a
/// header byte flipped, a slot byte flipped, the container truncated —
/// and unpacks each through one reused scratch into an `out` holding a
/// prefix. Each must answer `Ok` (the planes' checksum over the stored
/// block catches wrong bytes) or `Error::Corrupt` with `out` exactly
/// the prefix; none may panic. The valid container must still unpack
/// afterwards.
fn unpack_damaged(
    (n, seed, header_at, slot_at, mask, cut): ContainerDamage,
    scratch: &mut Scratch,
) -> Result<(), String> {
    let codec = XDeflate::default();
    let n = DIMMS[n];
    let page = Corpus::all()[(seed % 17) as usize].generate(seed, 4096);
    let mut container = Vec::new();
    pack_page_into(&codec, &page, n, scratch, &mut container).unwrap();
    let header = 1 + 3 * n;

    let mut damaged = vec![container.clone(), container.clone()];
    damaged[0][header_at % header] ^= mask;
    let body = container.len() - header;
    if body > 0 {
        damaged[1][header + slot_at % body] ^= mask;
    }
    damaged.push(container[..cut % container.len()].to_vec());

    let prefix = b"prefix".to_vec();
    let mut out = prefix.clone();
    for bad in &damaged {
        out.clone_from(&prefix);
        match unpack_page_into(&codec, bad, scratch, &mut out) {
            Ok(()) => {}
            Err(Error::Corrupt(_)) => prop_assert_eq!(&out, &prefix, "half-written"),
            Err(e) => prop_assert!(false, "{e:?}, not Error::Corrupt"),
        }
    }
    out.clone_from(&prefix);
    unpack_page_into(&codec, &container, scratch, &mut out).unwrap();
    prop_assert_eq!(&out[prefix.len()..], &page[..]);
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

    /// Striping into the multi-channel container and gathering back out
    /// is the identity for any input, at every DIMM count, through one
    /// reused scratch.
    #[test]
    fn split_gather_identity(data in arb_data(), n in 0usize..3) {
        let codec = XDeflate::default();
        let mut scratch = Scratch::new();
        let mut container = Vec::new();
        pack_page_into(&codec, &data, DIMMS[n], &mut scratch, &mut container).unwrap();
        let mut back = Vec::new();
        unpack_page_into(&codec, &container, &mut scratch, &mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    /// Damaged multi-channel containers never panic and never
    /// half-write `out`.
    #[test]
    fn damaged_containers_never_panic_or_half_write(
        cases in prop::collection::vec(
            (0usize..3, 0u64..1024, 0usize..13, 0usize..4200, 1u8..=255, 0usize..4200),
            1..6,
        )
    ) {
        let mut scratch = Scratch::new();
        for damage in cases {
            unpack_damaged(damage, &mut scratch)?;
        }
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
