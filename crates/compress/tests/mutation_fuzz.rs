//! Mutation fuzz over the decoder.
//!
//! Valid streams of every [`Corpus`] — whole pages and, one case in
//! four, a shorter input of 1..4096 bytes — are damaged three ways — bit
//! flips, half of them in the first 64 bytes where the header and the
//! code-length tables sit, truncation, and a splice of two valid
//! streams — and fed to `decompress_into`, once into an empty
//! destination and once into one with a page of capacity, through a
//! scratch that is then reused for a valid stream. The decoder may
//! answer a damaged stream only with [`Error::Corrupt`], or with bytes
//! for a stream whose checksum no longer matches the one the plane
//! recorded at store time
//! (the planes verify `xfm_faults::checksum` over the stored bytes
//! before they decode, so such output never reaches a caller). It may
//! not panic — which in this `forbid(unsafe_code)` crate is also what
//! reading past the input would be — and it may not leave state behind
//! that makes the next, valid, stream decode wrongly.
//!
//! Every case is a pure function of its seed; a failure names the seed,
//! the corpus and the mutation.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xfm_compress::{Codec, Corpus, Scratch, XDeflate};
use xfm_faults::checksum;
use xfm_types::Error;

const BASE_SEED: u64 = 0x00C0_DEC5_EED5;
/// Cases per (corpus, mutation).
const REPS: u64 = 12;
const PAGE: usize = 4096;

#[derive(Debug, Clone, Copy)]
enum Mutation {
    Flip,
    Truncate,
    Splice,
}

/// Damages `stream`; `other` is a second valid stream to splice with.
fn mutate(kind: Mutation, rng: &mut StdRng, stream: &[u8], other: &[u8]) -> Vec<u8> {
    match kind {
        Mutation::Flip => {
            let mut out = stream.to_vec();
            for _ in 0..rng.gen_range(1..4usize) {
                let span = if rng.gen_bool(0.5) {
                    out.len().min(64)
                } else {
                    out.len()
                };
                let at = rng.gen_range(0..span);
                out[at] ^= 1 << rng.gen_range(0..8u32);
            }
            out
        }
        Mutation::Truncate => stream[..rng.gen_range(0..stream.len())].to_vec(),
        Mutation::Splice => {
            let mut out = stream[..rng.gen_range(0..stream.len() + 1)].to_vec();
            out.extend_from_slice(&other[rng.gen_range(0..other.len() + 1)..]);
            out
        }
    }
}

fn compress(page: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    XDeflate::default().compress(page, &mut out).unwrap();
    out
}

/// One case; `Err` describes what the decoder did wrong.
fn run_case(
    corpus: Corpus,
    kind: Mutation,
    seed: u64,
    scratch: &mut Scratch,
) -> Result<(), String> {
    let codec = XDeflate::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let len = if rng.gen_ratio(1, 4) {
        rng.gen_range(1..PAGE)
    } else {
        PAGE
    };
    let page = corpus.generate(rng.gen_range(0..1u64 << 32), len);
    let stream = compress(&page);
    let other_corpus = Corpus::all()[rng.gen_range(0..Corpus::all().len())];
    let other = compress(&other_corpus.generate(seed, PAGE));
    let damaged = mutate(kind, &mut rng, &stream, &other);

    // Twice: into an empty destination, and into one with a page of
    // capacity, which is what the planes pass — a decoder may take a
    // different path when it has room to write ahead.
    for mut out in [Vec::new(), Vec::with_capacity(PAGE)] {
        let decoded = catch_unwind(AssertUnwindSafe(|| {
            codec.decompress_into(&damaged, &mut out, scratch)
        }))
        .map_err(|_| format!("panicked on a {}-byte damaged stream", damaged.len()))?;
        match decoded {
            Err(Error::Corrupt(_)) => {}
            Err(other) => return Err(format!("failed with {other:?}, not Error::Corrupt")),
            Ok(_) if damaged == stream => {
                if out != page {
                    return Err("undamaged stream decoded to different bytes".into());
                }
            }
            Ok(_) => {
                if checksum(&damaged) == checksum(&stream) {
                    return Err("accepted a damaged stream the checksum would let through".into());
                }
            }
        }
    }

    // Whatever the damaged stream left in the scratch, the valid one
    // still decodes.
    let mut out = Vec::new();
    codec
        .decompress_into(&stream, &mut out, scratch)
        .map_err(|e| format!("valid stream rejected after a damaged one: {e:?}"))?;
    if out != page {
        return Err("valid stream decoded wrongly after a damaged one".into());
    }
    Ok(())
}

#[test]
fn damaged_streams_never_panic_and_never_pass_for_valid() {
    let mut seed = BASE_SEED;
    let mut scratch = Scratch::new();
    for corpus in Corpus::all() {
        for kind in [Mutation::Flip, Mutation::Truncate, Mutation::Splice] {
            for _ in 0..REPS {
                seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                if let Err(what) = run_case(corpus, kind, seed, &mut scratch) {
                    panic!(
                        "mutation fuzz: {} with {kind:?}, seed {seed:#x}: {what}",
                        corpus.name()
                    );
                }
            }
        }
    }
}
