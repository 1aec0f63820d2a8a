//! Benchmark-owned 4 KiB page generator.
//!
//! A page's *family* is fixed by a hash of its id alone, so every seed
//! sees the same mix (40 % json records, 25 % word text, 20 % binary
//! struct dump, 10 % random bytes, 5 % zero page); its *bytes* depend
//! on `(seed, id)`. Random pages take the plane's raw-store path, zero
//! pages its same-filled path, the rest a real compress.

use std::fmt::Write as _;

use crate::rng::{mix, Rng};

/// Bytes per page (the repo's `PAGE_SIZE`).
pub const PAGE: usize = 4096;

/// Content family of a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// JSON / key-value records.
    Json,
    /// Space-separated words from a small vocabulary.
    Text,
    /// An array of 64-byte binary records.
    Struct,
    /// Incompressible bytes (raw-store path).
    Random,
    /// All zeroes (same-filled path).
    Zero,
}

/// The family of page `id`: by key hash, independent of the seed.
#[must_use]
pub fn family_of(id: u64) -> Family {
    match mix(id ^ 0xFA31_17E5) % 100 {
        0..=39 => Family::Json,
        40..=64 => Family::Text,
        65..=84 => Family::Struct,
        85..=94 => Family::Random,
        _ => Family::Zero,
    }
}

#[rustfmt::skip]
const WORDS: [&str; 64] = [
    "the", "of", "memory", "page", "far", "and", "swap", "to", "in", "cold", "a", "is", "that",
    "for", "refresh", "it", "as", "was", "with", "be", "by", "on", "not", "window", "this", "are",
    "or", "compress", "from", "at", "which", "but", "have", "an", "had", "they", "you", "were",
    "their", "one", "all", "we", "can", "bandwidth", "has", "there", "been", "if", "more", "when",
    "will", "would", "who", "so", "no", "channel", "latency", "tenant", "accelerator", "dram",
    "offload", "scheduler", "capacity", "fallback",
];
const NAMES: [&str; 8] = [
    "alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi",
];
const STATES: [&str; 4] = ["active", "idle", "suspended", "closed"];

fn json_page(rng: &mut Rng, out: &mut String) {
    let base = rng.below(1 << 30);
    let mut i = 0u64;
    while out.len() < PAGE {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"user\":\"{}_{}\",\"state\":\"{}\",\"score\":{}.{:02},\"visits\":{},\"tags\":[\"t{}\",\"t{}\"]}},",
            base + i,
            NAMES[rng.below(8) as usize],
            rng.below(100),
            STATES[rng.below(4) as usize],
            rng.below(100),
            rng.below(100),
            rng.below(5000),
            rng.below(16),
            rng.below(16),
        );
        i += 1;
    }
}

fn text_page(rng: &mut Rng, out: &mut String) {
    while out.len() < PAGE {
        // min of two draws skews toward the front of the vocabulary.
        let w = rng.below(64).min(rng.below(64));
        out.push_str(WORDS[w as usize]);
        out.push(if rng.below(12) == 0 { '\n' } else { ' ' });
    }
}

fn struct_page(rng: &mut Rng, out: &mut Vec<u8>) {
    let id0 = rng.below(1 << 40);
    let ts0 = 1_700_000_000_000 + rng.below(1 << 30);
    let heap = 0x7F3A_0000_0000u64 | (rng.below(1 << 12) << 24);
    for i in 0..(PAGE / 64) as u64 {
        out.extend_from_slice(&(id0 + i).to_le_bytes());
        out.extend_from_slice(&(heap | (rng.below(1 << 16) << 4)).to_le_bytes());
        out.extend_from_slice(&(ts0 + i * 250 + rng.below(16)).to_le_bytes());
        out.extend_from_slice(&(rng.below(9) as u32 * 64).to_le_bytes());
        out.extend_from_slice(&[1u16, 2, 4, 0x80][rng.below(4) as usize].to_le_bytes());
        out.extend_from_slice(&(rng.below(6) as u16).to_le_bytes());
        out.extend_from_slice(&[0.0f64, 0.5, 1.0, 100.0][rng.below(4) as usize].to_le_bytes());
        out.extend_from_slice(&[0u8; 24]);
    }
}

/// Generates page `id` for `seed`: exactly [`PAGE`] bytes.
#[must_use]
pub fn page(seed: u64, id: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed, id.wrapping_add(1));
    let mut bytes = match family_of(id) {
        family @ (Family::Json | Family::Text) => {
            let mut s = String::with_capacity(PAGE + 128);
            match family {
                Family::Json => json_page(&mut rng, &mut s),
                _ => text_page(&mut rng, &mut s),
            }
            s.into_bytes()
        }
        Family::Struct => {
            let mut v = Vec::with_capacity(PAGE);
            struct_page(&mut rng, &mut v);
            v
        }
        Family::Random => {
            let mut v = Vec::with_capacity(PAGE);
            while v.len() < PAGE {
                v.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            v
        }
        Family::Zero => vec![0u8; PAGE],
    };
    bytes.truncate(PAGE);
    bytes
}

/// Pages `0..count` for `seed`.
#[must_use]
pub fn pages(seed: u64, count: u64) -> Vec<Vec<u8>> {
    (0..count).map(|id| page(seed, id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfm_compress::{Codec, XDeflate};

    fn share(f: Family, n: u64) -> f64 {
        (0..n).filter(|&i| family_of(i) == f).count() as f64 / n as f64
    }

    #[test]
    fn family_mix_is_40_25_20_10_5() {
        let n = 20_000;
        for (f, want) in [
            (Family::Json, 0.40),
            (Family::Text, 0.25),
            (Family::Struct, 0.20),
            (Family::Random, 0.10),
            (Family::Zero, 0.05),
        ] {
            let got = share(f, n);
            assert!((got - want).abs() < 0.015, "{f:?}: {got} vs {want}");
        }
    }

    #[test]
    fn pages_are_4k_reproducible_and_seeded() {
        for id in 0..200 {
            let a = page(1, id);
            assert_eq!(a.len(), PAGE);
            assert_eq!(a, page(1, id));
            if !matches!(family_of(id), Family::Zero) {
                assert_ne!(a, page(2, id), "page {id} ignores the seed");
            }
        }
    }

    #[test]
    fn families_land_in_their_compressibility_bands() {
        let codec = XDeflate::default();
        let mut seen = [false; 5];
        for id in 0..400u64 {
            let p = page(9, id);
            let mut out = Vec::new();
            let len = codec.compress(&p, &mut out).unwrap() as f64 / PAGE as f64;
            let (slot, lo, hi) = match family_of(id) {
                Family::Json => (0, 0.10, 0.45),
                Family::Text => (1, 0.25, 0.60),
                Family::Struct => (2, 0.10, 0.50),
                // Above the plane's 0.95 reject threshold: stored raw.
                Family::Random => (3, 0.96, 1.10),
                Family::Zero => {
                    assert!(p.iter().all(|&b| b == 0), "zero page must be same-filled");
                    (4, 0.0, 0.05)
                }
            };
            seen[slot] = true;
            assert!(
                (lo..=hi).contains(&len),
                "{:?} page {id}: ratio {len}",
                family_of(id)
            );
        }
        assert_eq!(seen, [true; 5]);
    }
}
