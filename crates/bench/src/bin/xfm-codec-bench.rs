//! Measures `XDeflate`'s throughput in pages/sec on 4 KiB corpus pages
//! and emits machine-readable `BENCH_codec.json`.
//!
//! Two paths are timed per corpus: the fresh-state `compress`/
//! `decompress` API (a new internal state per page) and the scratch-
//! reusing `compress_into`/`decompress_into` hot path with a
//! pre-reserved output buffer (the zero-allocation swap path), and
//! `XfmBackend`'s per-swap-out `pack_page_into` the same warm way at 1,
//! 2 and 4 DIMMs. Every measured block is also round-tripped and checked
//! byte-exact before timing starts, so a silently corrupting codec fails
//! the bench instead of posting a number.
//!
//! `ratio` is a function of the corpus seeds and sits at the top level
//! of the report; every pages/sec figure is the host's and sits under
//! `wall`.
//!
//! Run with `cargo run --release -p xfm-bench --bin xfm-codec-bench`;
//! `--out-dir <dir>` writes the report somewhere other than the
//! working directory.

use std::time::Instant;
use xfm_bench::report::{self, rounded, Args};
use xfm_compress::ratio::pack_page_into;
use xfm_compress::{Codec, Corpus, Scratch, XDeflate};
use xfm_telemetry::json::JsonValue;

const PAGE: usize = 4096;
const PAGES_PER_CORPUS: usize = 256;
const ROUNDS: usize = 15;

fn corpus_pages(corpus: Corpus) -> Vec<Vec<u8>> {
    (0..PAGES_PER_CORPUS)
        .map(|i| corpus.generate(0x5EED_0000 + i as u64, PAGE))
        .collect()
}

/// Best-of-[`ROUNDS`] pages/sec for `f` applied to every page.
fn pages_per_sec(mut f: impl FnMut()) -> f64 {
    // Warm-up pass.
    f();
    let mut best = f64::MAX;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    PAGES_PER_CORPUS as f64 / best
}

struct Row {
    codec: &'static str,
    corpus: &'static str,
    compress_fresh: f64,
    compress_scratch: f64,
    decompress_fresh: f64,
    decompress_scratch: f64,
    /// Warm `pack_page_into` pages/sec at 1, 2 and 4 DIMMs.
    pack: [f64; 3],
    ratio: f64,
}

fn measure(codec: &dyn Codec, corpus: Corpus) -> Row {
    let pages = corpus_pages(corpus);
    let compressed: Vec<Vec<u8>> = pages
        .iter()
        .map(|p| {
            let mut out = Vec::new();
            codec.compress(p, &mut out).unwrap();
            out
        })
        .collect();

    // Correctness gate before any timing: every block must restore its
    // page byte-exactly.
    for (p, c) in pages.iter().zip(&compressed) {
        let mut restored = Vec::new();
        codec.decompress(c, &mut restored).unwrap();
        assert_eq!(
            &restored,
            p,
            "{} corrupted a {} page",
            codec.name(),
            corpus.name()
        );
    }

    let in_bytes: usize = pages.iter().map(Vec::len).sum();
    let out_bytes: usize = compressed.iter().map(Vec::len).sum();
    let ratio = in_bytes as f64 / out_bytes as f64;

    let compress_fresh = pages_per_sec(|| {
        for p in &pages {
            let mut out = Vec::new();
            codec.compress(std::hint::black_box(p), &mut out).unwrap();
            std::hint::black_box(&out);
        }
    });
    let decompress_fresh = pages_per_sec(|| {
        for c in &compressed {
            let mut out = Vec::new();
            codec.decompress(std::hint::black_box(c), &mut out).unwrap();
            std::hint::black_box(&out);
        }
    });

    let mut scratch = Scratch::new();
    let mut out = Vec::with_capacity(2 * PAGE);
    let compress_scratch = pages_per_sec(|| {
        for p in &pages {
            out.clear();
            codec
                .compress_into(std::hint::black_box(p), &mut out, &mut scratch)
                .unwrap();
            std::hint::black_box(&out);
        }
    });
    let decompress_scratch = pages_per_sec(|| {
        for c in &compressed {
            out.clear();
            codec
                .decompress_into(std::hint::black_box(c), &mut out, &mut scratch)
                .unwrap();
            std::hint::black_box(&out);
        }
    });

    let pack = [1, 2, 4].map(|n| {
        pages_per_sec(|| {
            for p in &pages {
                out.clear();
                pack_page_into(codec, std::hint::black_box(p), n, &mut scratch, &mut out).unwrap();
                std::hint::black_box(&out);
            }
        })
    });

    Row {
        codec: codec.name(),
        corpus: corpus.name(),
        compress_fresh,
        compress_scratch,
        decompress_fresh,
        decompress_scratch,
        pack,
        ratio,
    }
}

fn report(rows: &[Row]) -> JsonValue {
    let ids = |r: &Row| [("codec", r.codec.into()), ("corpus", r.corpus.into())];
    JsonValue::object([
        ("page_size", PAGE.into()),
        ("pages_per_corpus", PAGES_PER_CORPUS.into()),
        ("rounds", ROUNDS.into()),
        (
            "rows",
            rows.iter()
                .map(|r| {
                    let [codec, corpus] = ids(r);
                    JsonValue::object([codec, corpus, ("ratio", rounded(r.ratio, 3))])
                })
                .collect(),
        ),
        (
            "wall",
            report::wall([(
                "rows",
                rows.iter()
                    .map(|r| {
                        let [codec, corpus] = ids(r);
                        JsonValue::object([
                            codec,
                            corpus,
                            ("compress_pages_per_sec", r.compress_scratch.round().into()),
                            (
                                "decompress_pages_per_sec",
                                r.decompress_scratch.round().into(),
                            ),
                            (
                                "compress_fresh_pages_per_sec",
                                r.compress_fresh.round().into(),
                            ),
                            (
                                "decompress_fresh_pages_per_sec",
                                r.decompress_fresh.round().into(),
                            ),
                            ("pack_1dimm_pages_per_sec", r.pack[0].round().into()),
                            ("pack_2dimm_pages_per_sec", r.pack[1].round().into()),
                            ("pack_4dimm_pages_per_sec", r.pack[2].round().into()),
                        ])
                    })
                    .collect(),
            )]),
        ),
    ])
}

fn main() {
    let mut args = Args::from_env();
    let out_dir = args.out_dir();
    args.done();
    let corpora = [
        Corpus::Json,
        Corpus::EnglishText,
        Corpus::RandomBytes,
        Corpus::ZeroPage,
        Corpus::StructDump,
    ];
    let codec = XDeflate::default();

    println!(
        "codec      corpus             c fresh    c scratch      d fresh    d scratch   \
         pack x1   pack x2   pack x4   ratio"
    );
    let rows: Vec<Row> = corpora.map(|corpus| measure(&codec, corpus)).into();
    for row in &rows {
        println!(
            "{:<10} {:<13} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>9.0} {:>9.0} {:>9.0} {:>7.3}",
            row.codec,
            row.corpus,
            row.compress_fresh,
            row.compress_scratch,
            row.decompress_fresh,
            row.decompress_scratch,
            row.pack[0],
            row.pack[1],
            row.pack[2],
            row.ratio,
        );
    }

    report::write(&out_dir, "BENCH_codec.json", &report(&rows));
}
