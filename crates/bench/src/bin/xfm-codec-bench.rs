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
//! Each corpus also gets a stage row: the µs a page spends in each of
//! `compress_into`'s four stages (tokenize, fit, price, write), timed
//! between the stages by `XDeflate::compress_staged` — the function
//! `compress_into` is, with a lap that does nothing — and the work a
//! page takes: the match search's trip counts (searches, lazy searches,
//! chain links, inserts, from `MatchFinder::search_work`) and the
//! block's shape (literal and match tokens, active literal/length
//! symbols, header runs, stored verdicts, from `Scratch::block_work`).
//!
//! `ratio` and the work counts are functions of the corpus seeds and
//! sit at the top level of the report; every pages/sec and µs figure is
//! the host's and sits under `wall`.
//!
//! Run with `cargo run --release -p xfm-bench --bin xfm-codec-bench`;
//! `--out-dir <dir>` writes the report somewhere other than the
//! working directory.

use std::time::Instant;
use xfm_bench::report::{self, rounded, Args};
use xfm_compress::lz77::{Lz77Scratch, MatchFinder};
use xfm_compress::ratio::pack_page_into;
use xfm_compress::xdeflate::Stage;
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
    /// Best-of-[`ROUNDS`] µs a page in each [`Stage`], in order.
    stages: [f64; 4],
    /// Per page: searches, lazy searches, chain links, inserts, literal
    /// tokens, match tokens, active literal/length symbols, header runs;
    /// then the pages stored.
    work: [f64; WORK.len()],
    ratio: f64,
}

/// The work counts' names, in [`Row::work`]'s order.
const WORK: [&str; 9] = [
    "searches",
    "lazy_searches",
    "chain_links",
    "inserts",
    "literals",
    "matches",
    "active_literals",
    "header_runs",
    "stored_pages",
];

/// What compressing every page takes: the mean work counts a page
/// (stored pages as a total), from the same codec and a counting run of
/// its match search.
fn work(codec: &XDeflate, pages: &[Vec<u8>]) -> [f64; WORK.len()] {
    let (mut scratch, mut lz) = (Scratch::new(), Lz77Scratch::new());
    let mut total = [0u64; WORK.len()];
    let mut out = Vec::with_capacity(2 * PAGE);
    for p in pages {
        out.clear();
        codec.compress_into(p, &mut out, &mut scratch).unwrap();
        let s = MatchFinder::default().search_work(p, &mut lz);
        let b = scratch.block_work();
        let counts = [
            s.searches,
            s.lazy_searches,
            s.chain_links,
            s.inserts,
            b.literals,
            b.matches,
            b.active_literals,
            b.header_runs,
            u32::from(b.stored),
        ];
        for (t, c) in total.iter_mut().zip(counts) {
            *t += u64::from(c);
        }
    }
    let per_page = |t: u64| t as f64 / pages.len() as f64;
    let mut work = total.map(per_page);
    work[WORK.len() - 1] = total[WORK.len() - 1] as f64;
    work
}

/// Best-of-[`ROUNDS`] mean µs a page spends in each stage of
/// `compress_staged`, through one warm scratch.
fn stage_us(codec: &XDeflate, pages: &[Vec<u8>]) -> [f64; 4] {
    let mut scratch = Scratch::new();
    let mut out = Vec::with_capacity(2 * PAGE);
    let mut best = [f64::MAX; 4];
    for round in 0..=ROUNDS {
        let mut sum = [0f64; 4];
        for p in pages {
            out.clear();
            let mut last = Instant::now();
            codec
                .compress_staged(std::hint::black_box(p), &mut out, &mut scratch, |stage| {
                    let now = Instant::now();
                    let i = match stage {
                        Stage::Tokenize => 0,
                        Stage::Fit => 1,
                        Stage::Price => 2,
                        Stage::Write => 3,
                    };
                    sum[i] += (now - last).as_secs_f64();
                    last = now;
                })
                .unwrap();
        }
        // The first round warms up.
        if round > 0 {
            for (b, s) in best.iter_mut().zip(sum) {
                *b = b.min(s * 1e6 / pages.len() as f64);
            }
        }
    }
    best
}

fn measure(codec: &XDeflate, corpus: Corpus) -> Row {
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
        stages: stage_us(codec, &pages),
        work: work(codec, &pages),
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
            "work",
            rows.iter()
                .map(|r| {
                    let [codec, corpus] = ids(r);
                    let counts = WORK.iter().zip(r.work).map(|(&k, v)| (k, rounded(v, 1)));
                    let members = [codec, corpus].into_iter().chain(counts);
                    JsonValue::Object(members.map(|(k, v)| (k.into(), v)).collect())
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
                            ("tokenize_us", rounded(r.stages[0], 2)),
                            ("fit_us", rounded(r.stages[1], 2)),
                            ("price_us", rounded(r.stages[2], 2)),
                            ("write_us", rounded(r.stages[3], 2)),
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

    println!("\ncorpus        µs a page: tokenize    fit  price  write");
    for row in &rows {
        let [t, f, p, w] = row.stages;
        println!(
            "{:<13} {:>20.2} {:>6.2} {:>6.2} {:>6.2}",
            row.corpus, t, f, p, w
        );
    }
    println!(
        "\ncorpus        a page: searches   lazy   links  inserts literals matches active runs | stored pages"
    );
    for row in &rows {
        let w = row.work;
        println!(
            "{:<13} {:>17.1} {:>6.1} {:>7.1} {:>8.1} {:>8.1} {:>7.1} {:>6.1} {:>4.1} | {:>4}",
            row.corpus, w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8]
        );
    }

    report::write(&out_dir, "BENCH_codec.json", &report(&rows));
}
