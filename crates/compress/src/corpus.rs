//! Synthetic compression corpora.
//!
//! The paper's Fig. 8 measures compression ratios over 16 corpus files.
//! Those exact files are not shipped with the artifact, so this module
//! provides deterministic synthetic generators whose compressibility
//! spans the same range — from all-zero pages (hundreds-to-one) through
//! natural-language text, structured records, and binary struct dumps
//! (2–6x) down to random bytes (1x). Every generator is seeded and
//! reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One synthetic corpus class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Corpus {
    /// English-like word salad with Zipfian word frequencies.
    EnglishText,
    /// Nested HTML markup with repeated tags.
    Html,
    /// JSON records sharing a fixed schema.
    Json,
    /// Comma-separated numeric/text table.
    Csv,
    /// C-like source code.
    SourceCode,
    /// Timestamped server log lines.
    LogLines,
    /// Raw little-endian `f64` samples (nearly incompressible).
    NumericF64,
    /// Sorted integers stored as `u64` (high-byte redundancy).
    DeltaIntegers,
    /// Base64 text of random bytes (6 bits of entropy per byte).
    Base64,
    /// All-zero pages (the best case for SFM).
    ZeroPage,
    /// Sparse records: mostly zero bytes with occasional structs.
    SparseRecords,
    /// Uniform random bytes (the worst case; stored raw).
    RandomBytes,
    /// DNA-like ACGT sequence (2 bits of entropy per byte).
    Dna,
    /// URL list with long shared prefixes.
    UrlList,
    /// `key = value` configuration lines.
    KeyValue,
    /// Slowly-varying 16-bit time-series samples.
    TimeSeries,
    /// Binary struct dumps: fixed-layout C-style records mixing small
    /// integers, enum bytes, pointers sharing a heap base, and zero
    /// padding — the in-memory shape of pointer-rich application heaps.
    StructDump,
}

impl Corpus {
    /// All corpora, in display order (matches Fig. 8's x-axis role: a
    /// spread of compressibility classes, plus the binary struct-dump
    /// class used by the codec-selection study).
    #[must_use]
    pub fn all() -> [Corpus; 17] {
        [
            Corpus::EnglishText,
            Corpus::Html,
            Corpus::Json,
            Corpus::Csv,
            Corpus::SourceCode,
            Corpus::LogLines,
            Corpus::NumericF64,
            Corpus::DeltaIntegers,
            Corpus::Base64,
            Corpus::ZeroPage,
            Corpus::SparseRecords,
            Corpus::RandomBytes,
            Corpus::Dna,
            Corpus::UrlList,
            Corpus::KeyValue,
            Corpus::TimeSeries,
            Corpus::StructDump,
        ]
    }

    /// Stable display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Corpus::EnglishText => "english-text",
            Corpus::Html => "html",
            Corpus::Json => "json",
            Corpus::Csv => "csv",
            Corpus::SourceCode => "source-code",
            Corpus::LogLines => "log-lines",
            Corpus::NumericF64 => "numeric-f64",
            Corpus::DeltaIntegers => "delta-integers",
            Corpus::Base64 => "base64",
            Corpus::ZeroPage => "zero-page",
            Corpus::SparseRecords => "sparse-records",
            Corpus::RandomBytes => "random-bytes",
            Corpus::Dna => "dna",
            Corpus::UrlList => "url-list",
            Corpus::KeyValue => "key-value",
            Corpus::TimeSeries => "time-series",
            Corpus::StructDump => "struct-dump",
        }
    }

    /// Generates exactly `len` bytes of this corpus, deterministically
    /// from `seed`.
    #[must_use]
    pub fn generate(&self, seed: u64, len: usize) -> Vec<u8> {
        // Mix the corpus discriminant into the seed so different corpora
        // never share random streams.
        let mixed = seed ^ (self.name().bytes().map(u64::from).sum::<u64>() << 32);
        let mut rng = StdRng::seed_from_u64(mixed);
        let mut out = Vec::with_capacity(len + 128);
        while out.len() < len {
            self.extend(&mut rng, &mut out);
        }
        out.truncate(len);
        out
    }

    fn extend(&self, rng: &mut StdRng, out: &mut Vec<u8>) {
        match self {
            Corpus::EnglishText => {
                let word = WORDS[zipf(rng, WORDS.len())];
                out.extend_from_slice(word.as_bytes());
                out.push(b' ');
                if rng.gen_ratio(1, 12) {
                    out.truncate(out.len() - 1);
                    out.extend_from_slice(b". ");
                }
            }
            Corpus::Html => {
                let tag = ["div", "span", "p", "li", "td", "a", "h2"][zipf(rng, 7)];
                let class = ["row", "col", "item", "nav", "hero"][zipf(rng, 5)];
                out.extend_from_slice(
                    format!(
                        "<{tag} class=\"{class}\">{}</{tag}>\n",
                        WORDS[zipf(rng, WORDS.len())]
                    )
                    .as_bytes(),
                );
            }
            Corpus::Json => {
                let id: u32 = rng.gen_range(0..1_000_000);
                let name = WORDS[zipf(rng, WORDS.len())];
                let flag = rng.gen_bool(0.5);
                out.extend_from_slice(
                    format!(
                        "{{\"id\":{id},\"name\":\"{name}\",\"active\":{flag},\"score\":{:.2}}},\n",
                        rng.gen_range(0.0..100.0)
                    )
                    .as_bytes(),
                );
            }
            Corpus::Csv => {
                out.extend_from_slice(
                    format!(
                        "{},{},{:.3},{}\n",
                        rng.gen_range(0..10_000),
                        WORDS[zipf(rng, WORDS.len())],
                        rng.gen_range(-1.0..1.0),
                        ["OK", "WARN", "FAIL"][zipf(rng, 3)]
                    )
                    .as_bytes(),
                );
            }
            Corpus::SourceCode => {
                let kw = ["if", "for", "while", "return", "int", "void"][zipf(rng, 6)];
                let var = ["count", "index", "buffer", "result", "state"][zipf(rng, 5)];
                out.extend_from_slice(
                    format!(
                        "    {kw} ({var} < {}) {{ {var} += 1; }}\n",
                        rng.gen_range(1..256)
                    )
                    .as_bytes(),
                );
            }
            Corpus::LogLines => {
                out.extend_from_slice(
                    format!(
                        "2026-07-{:02}T{:02}:{:02}:{:02}Z [{}] service={} latency_ms={}\n",
                        rng.gen_range(1..29),
                        rng.gen_range(0..24),
                        rng.gen_range(0..60),
                        rng.gen_range(0..60),
                        ["INFO", "INFO", "INFO", "WARN", "ERROR"][zipf(rng, 5)],
                        ["frontend", "cache", "db", "auth"][zipf(rng, 4)],
                        rng.gen_range(1..500)
                    )
                    .as_bytes(),
                );
            }
            Corpus::NumericF64 => {
                let v: f64 = rng.gen_range(-1e6..1e6);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Corpus::DeltaIntegers => {
                // Monotone sequence: the top bytes repeat heavily.
                let base = out.len() as u64 * 3;
                let v = base + rng.gen_range(0..16);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Corpus::Base64 => {
                const B64: &[u8] =
                    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
                for _ in 0..64 {
                    out.push(B64[rng.gen_range(0..64)]);
                }
                out.push(b'\n');
            }
            Corpus::ZeroPage => {
                out.extend(std::iter::repeat_n(0u8, 512));
            }
            Corpus::SparseRecords => {
                out.extend(std::iter::repeat_n(0u8, rng.gen_range(48..160)));
                out.extend_from_slice(&rng.gen::<u32>().to_le_bytes());
                out.extend_from_slice(b"REC");
                out.push(rng.gen_range(0..8));
            }
            Corpus::RandomBytes => {
                let mut chunk = [0u8; 64];
                rng.fill(&mut chunk);
                out.extend_from_slice(&chunk);
            }
            Corpus::Dna => {
                const ACGT: &[u8] = b"ACGT";
                for _ in 0..64 {
                    out.push(ACGT[rng.gen_range(0..4)]);
                }
            }
            Corpus::UrlList => {
                out.extend_from_slice(
                    format!(
                        "https://cdn.example.com/assets/{}/{}/{}.{}\n",
                        ["img", "js", "css"][zipf(rng, 3)],
                        WORDS[zipf(rng, WORDS.len())],
                        rng.gen_range(0..100_000),
                        ["png", "js", "css", "webp"][zipf(rng, 4)]
                    )
                    .as_bytes(),
                );
            }
            Corpus::KeyValue => {
                out.extend_from_slice(
                    format!(
                        "{}.{}.enabled = {}\n",
                        ["cache", "net", "disk", "cpu"][zipf(rng, 4)],
                        WORDS[zipf(rng, WORDS.len())],
                        rng.gen_bool(0.7)
                    )
                    .as_bytes(),
                );
            }
            Corpus::TimeSeries => {
                // Random walk of u16 samples: small deltas, repetitive
                // high bytes.
                let last = out
                    .len()
                    .checked_sub(2)
                    .map(|i| u16::from_le_bytes([out[i], out[i + 1]]))
                    .unwrap_or(30_000);
                let next = last.wrapping_add(rng.gen_range(0..8)).wrapping_sub(3);
                out.extend_from_slice(&next.to_le_bytes());
            }
            Corpus::StructDump => {
                // One 48-byte record: { u32 id; u16 kind; u16 flags;
                // u64 ptr_a; u64 ptr_b; u32 len; u8 state; pad[3];
                // u64 checksum; pad[8] } — pointers cluster around a
                // shared heap base, most numeric fields are small, and
                // padding is zero, like a real allocator dump.
                const HEAP_BASE: u64 = 0x7F3A_0000_0000;
                out.extend_from_slice(&rng.gen_range(0..100_000u32).to_le_bytes());
                out.extend_from_slice(&rng.gen_range(0..12u16).to_le_bytes());
                out.extend_from_slice(&[0u8, rng.gen_range(0..4u8)]);
                let ptr_a = HEAP_BASE + u64::from(rng.gen_range(0..1_000_000u32)) * 64;
                out.extend_from_slice(&ptr_a.to_le_bytes());
                let ptr_b = if rng.gen_bool(0.3) {
                    0
                } else {
                    HEAP_BASE + u64::from(rng.gen_range(0..1_000_000u32)) * 64
                };
                out.extend_from_slice(&ptr_b.to_le_bytes());
                out.extend_from_slice(&rng.gen_range(0..4096u32).to_le_bytes());
                out.push(rng.gen_range(0..5));
                out.extend_from_slice(&[0u8; 3]);
                out.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
                out.extend_from_slice(&[0u8; 8]);
            }
        }
    }
}

/// Zipf-ish index sampler: index 0 is most likely.
fn zipf(rng: &mut StdRng, n: usize) -> usize {
    let u: f64 = rng.gen_range(0.0f64..1.0);
    let idx = (n as f64 * u * u) as usize;
    idx.min(n - 1)
}

const WORDS: [&str; 64] = [
    "the",
    "memory",
    "of",
    "and",
    "page",
    "to",
    "data",
    "in",
    "cache",
    "is",
    "far",
    "cold",
    "swap",
    "system",
    "with",
    "compression",
    "rate",
    "access",
    "bandwidth",
    "latency",
    "that",
    "for",
    "refresh",
    "bank",
    "row",
    "dram",
    "channel",
    "control",
    "software",
    "defined",
    "near",
    "accelerator",
    "cost",
    "model",
    "server",
    "capacity",
    "application",
    "workload",
    "performance",
    "energy",
    "carbon",
    "pool",
    "tier",
    "hot",
    "promote",
    "demote",
    "scan",
    "table",
    "entry",
    "queue",
    "buffer",
    "region",
    "address",
    "virtual",
    "physical",
    "kernel",
    "driver",
    "device",
    "register",
    "offload",
    "engine",
    "window",
    "cycle",
    "interval",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use crate::xdeflate::XDeflate;

    #[test]
    fn generation_is_deterministic() {
        for corpus in Corpus::all() {
            let a = corpus.generate(42, 8192);
            let b = corpus.generate(42, 8192);
            assert_eq!(a, b, "{} not deterministic", corpus.name());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Corpus::Json.generate(1, 4096);
        let b = Corpus::Json.generate(2, 4096);
        assert_ne!(a, b);
    }

    #[test]
    fn exact_length_honored() {
        for corpus in Corpus::all() {
            for len in [0usize, 1, 100, 4096, 10_000] {
                assert_eq!(corpus.generate(7, len).len(), len, "{}", corpus.name());
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Corpus::all().iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 17);
    }

    #[test]
    fn compressibility_spans_expected_range() {
        let codec = XDeflate::default();
        let ratio = |corpus: Corpus| {
            let data = corpus.generate(3, 16 * 1024);
            let mut c = Vec::new();
            codec.compress(&data, &mut c).unwrap();
            data.len() as f64 / c.len() as f64
        };
        // Zero pages compress drastically.
        assert!(ratio(Corpus::ZeroPage) > 50.0);
        // Random bytes do not compress (stored raw, ratio ~1).
        let r = ratio(Corpus::RandomBytes);
        assert!(r > 0.95 && r < 1.05, "random ratio {r}");
        // Text-like corpora land in between.
        for corpus in [Corpus::EnglishText, Corpus::Json, Corpus::LogLines] {
            let r = ratio(corpus);
            assert!(r > 1.8 && r < 20.0, "{} ratio {r}", corpus.name());
        }
        // DNA approaches the 2-bit entropy bound but not below 1.
        let dna = ratio(Corpus::Dna);
        assert!(dna > 2.0 && dna < 6.0, "dna ratio {dna}");
        // Struct dumps: zero padding plus shared pointer high bytes.
        let sd = ratio(Corpus::StructDump);
        assert!(sd > 1.8 && sd < 8.0, "struct-dump ratio {sd}");
    }
}
