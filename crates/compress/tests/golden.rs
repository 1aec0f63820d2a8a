//! Golden digests of the compressed streams: the byte-level format of
//! every codec is pinned, so a kernel change that alters even one output
//! bit (a different tie-break in the Huffman lengths, a different match
//! choice, a moved stored/compressed threshold) fails here by name.
//!
//! The table was recorded from the commit *before* the match finder,
//! the Huffman length routine and the entropy stage were reworked for
//! speed; those changes had to pass it unmodified. Regenerate it only
//! for a deliberate format change:
//! `cargo test -p xfm-compress --test golden -- --ignored --nocapture`.

use xfm_compress::{AutoCodec, Codec, Corpus, Scratch, XDeflate, XDeflateFse, Xlz};

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
/// scratch (the way the planes call the codecs).
fn digest(codec: &dyn Codec, corpus: Corpus) -> u64 {
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

fn codecs() -> [Box<dyn Codec>; 4] {
    [
        Box::new(XDeflate::default()),
        Box::new(Xlz::default()),
        Box::new(XDeflateFse::default()),
        Box::new(AutoCodec::default()),
    ]
}

/// `(corpus, [xdeflate, xlz, xdef-fse, auto])`.
#[rustfmt::skip]
const GOLDEN: &[(&str, [u64; 4])] = &[
    ("english-text", [0xc59dcf7b0b8f8fc6, 0x554f72d1e952a409, 0x616b216e0ae40677, 0x973c3be8f4b9a627]),
    ("html", [0x7a26ccfad614381b, 0xfefa54c92f82f1a7, 0xa241018f1f38ff7d, 0x172db369439efc53]),
    ("json", [0x52b173aa0d3ad8a9, 0xee3dd7b1841f1bff, 0xc73b63744522650b, 0x08dd00715548c665]),
    ("csv", [0xe6e12f1e5ac7ed65, 0xe6232f1ef1f83784, 0x9353c639b2497a16, 0x2967b0cd9ec05cd0]),
    ("source-code", [0x5b7b9c7c348ae138, 0x43d8e35eeb10c918, 0x973e9b6fb1910a80, 0xdcdbbb3ceead6858]),
    ("log-lines", [0x013dfc843728094e, 0xa64e6d4b368cdf09, 0x7d044ca4c1b5ec69, 0xdf44428039eb5039]),
    ("numeric-f64", [0x0aa794e605cf5a22, 0xf49e4d96a361059a, 0x4bb69ca43a1c0407, 0x295f911a51812775]),
    ("delta-integers", [0x12bae784a30aa31a, 0x3ffa4a40699ea569, 0x3129df4f0e54b3ca, 0x233afd0a7c1f6338]),
    ("base64", [0x4ba48913d263603f, 0xc0fb9491f8e01139, 0xca60facd40e1e1be, 0xff4c7ae71d864984]),
    ("zero-page", [0x1cd7264cc28e9e48, 0xb3f0fe7c22c9481d, 0x5cc8f088ed0a5e59, 0x93f4ccc5e9ad0db7]),
    ("sparse-records", [0xdf82a555d820a9e8, 0xed04b8094b1e08de, 0x57e9444fc906e8f9, 0x5a778140701ac35a]),
    ("random-bytes", [0x1899f8fd10357fa1, 0x948141af98d84265, 0xdc111e979695f2f2, 0xfa4626439b76f6d8]),
    ("dna", [0xbd1c1f782f4d5162, 0xb8c1dee8f6a0b3b1, 0xd15b12a634124c16, 0x1947aa069c7f8866]),
    ("url-list", [0x8e45cf0c86d0395e, 0xed3732bf04c41e16, 0x2013f13af5ed5edb, 0x22af3ceba41c186f]),
    ("key-value", [0xcd8ad44e42da77ee, 0x4ede7bbd16fb4c35, 0x0b4b5626b055191a, 0x56aa8ca00693e566]),
    ("time-series", [0xdfb6a70674f2f207, 0xe0862ea984241202, 0x16d67ed17af035ba, 0xe347088f8e2488ab]),
    ("struct-dump", [0xdd8f2f21e6cb66a7, 0x826b1f7be455c861, 0xdeec35e0a062f08f, 0x3138e89ac191c3eb]),
];

#[test]
fn compressed_streams_match_golden_digests() {
    let codecs = codecs();
    assert_eq!(
        codecs.iter().map(|c| c.name()).collect::<Vec<_>>(),
        ["xdeflate", "xlz", "xdef-fse", "auto"]
    );
    assert_eq!(GOLDEN.len(), Corpus::all().len());
    for (corpus, &(name, want)) in Corpus::all().iter().zip(GOLDEN) {
        assert_eq!(corpus.name(), name, "golden table out of corpus order");
        for (codec, want) in codecs.iter().zip(want) {
            let got = digest(codec.as_ref(), *corpus);
            assert_eq!(
                got,
                want,
                "{} changed its output bytes on {name}: {got:#018x}",
                codec.name()
            );
        }
    }
}

/// Prints the table in source form.
#[test]
#[ignore = "regenerates the golden table; run only for a deliberate format change"]
fn print_golden_table() {
    let codecs = codecs();
    for corpus in Corpus::all() {
        let row: Vec<String> = codecs
            .iter()
            .map(|c| format!("{:#018x}", digest(c.as_ref(), corpus)))
            .collect();
        println!("    (\"{}\", [{}]),", corpus.name(), row.join(", "));
    }
}
