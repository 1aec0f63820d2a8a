//! Golden digests of the compressed streams: the byte-level format of
//! the codec is pinned, so a kernel change that alters even one output
//! bit (a different tie-break in the Huffman lengths, a different match
//! choice, a moved stored/compressed threshold) fails here by name.
//!
//! The table was recorded before the match finder, the Huffman length
//! routine and the entropy stage were reworked for speed; those changes
//! had to pass it unmodified. It was regenerated once, on purpose, when
//! the lazy search took zlib level 6's `max_lazy` and `good_length`
//! rules: eleven corpora changed their tokens, and the six whose pages
//! the rules never touch (random bytes, zero pages, base64 among them)
//! kept their digests. Regenerate it only for a deliberate change of
//! the tokens or the format:
//! `cargo test -p xfm-compress --test golden -- --ignored --nocapture`.

use xfm_compress::{Codec, Corpus, Scratch, XDeflate};

/// Per corpus: five 4 KiB pages (the SFM unit) and one 70 000-byte
/// input, which crosses the 65 535-byte boundary where the match
/// finder's position tables widen and stored blocks start to chain.
const PAGE_SEEDS: std::ops::Range<u64> = 0..5;
const LONG_SEED: u64 = 9;
const LONG_LEN: usize = 70_000;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over `len:u64le ‖ stream` of every input, through one reused
/// scratch (the way the planes call the codec).
fn digest(corpus: Corpus) -> u64 {
    let codec = XDeflate::default();
    let mut scratch = Scratch::new();
    let mut out = Vec::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let inputs = PAGE_SEEDS
        .map(|seed| corpus.generate(seed, 4096))
        .chain(std::iter::once(corpus.generate(LONG_SEED, LONG_LEN)));
    for input in inputs {
        out.clear();
        codec.compress_into(&input, &mut out, &mut scratch).unwrap();
        fnv1a(&mut hash, &(out.len() as u64).to_le_bytes());
        fnv1a(&mut hash, &out);
    }
    hash
}

/// `(corpus, xdeflate digest)`.
const GOLDEN: &[(&str, u64)] = &[
    ("english-text", 0x861708e16f80b076),
    ("html", 0x3b9f6ce59dd70bed),
    ("json", 0x8c95ebc8e01d6b51),
    ("csv", 0x34f0045b240b92a0),
    ("source-code", 0xe2a4c0a2cc4659c7),
    ("log-lines", 0x4592eecf5ea33747),
    ("numeric-f64", 0x0aa794e605cf5a22),
    ("delta-integers", 0x12bae784a30aa31a),
    ("base64", 0x4ba48913d263603f),
    ("zero-page", 0x1cd7264cc28e9e48),
    ("sparse-records", 0x778e385938154f46),
    ("random-bytes", 0x1899f8fd10357fa1),
    ("dna", 0x8f297a555fc8589f),
    ("url-list", 0xbe65845e9dbfe2fc),
    ("key-value", 0x6fa0146f9b6f13f5),
    ("time-series", 0xdfb6a70674f2f207),
    ("struct-dump", 0xadba13565623501b),
];

#[test]
fn compressed_streams_match_golden_digests() {
    assert_eq!(GOLDEN.len(), Corpus::all().len());
    for (corpus, &(name, want)) in Corpus::all().iter().zip(GOLDEN) {
        assert_eq!(corpus.name(), name, "golden table out of corpus order");
        let got = digest(*corpus);
        assert_eq!(
            got, want,
            "xdeflate changed its output bytes on {name}: {got:#018x}"
        );
    }
}

/// Prints the table in source form.
#[test]
#[ignore = "regenerates the golden table; run only for a deliberate format change"]
fn print_golden_table() {
    for corpus in Corpus::all() {
        println!("    (\"{}\", {:#018x}),", corpus.name(), digest(corpus));
    }
}
