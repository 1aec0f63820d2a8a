//! Demand-fault latency benchmark for the prefetch pipeline, emitting
//! machine-readable `BENCH_prefetch.json`.
//!
//! Four fault traces are replayed twice each — prefetching **on**
//! (pump after every fault, exactly what a background prefetcher
//! thread interleaves) and **off** (the engine disabled, every fault
//! pays the decompress) — and only the `swap_in_into` call is timed.
//! The pump, the re-swap-out that keeps the working set cold, and all
//! verification run off the clock, so the numbers isolate what the
//! fault path itself sees:
//!
//! - `scan` — a sequential sweep (stride 1);
//! - `stride` — a strided matrix walk (stride 3);
//! - `zipf-objects` — Zipfian popularity over large objects whose
//!   pages are touched sequentially (the AIFM-style far-memory shape);
//! - `pointer-chase` — a seeded random walk with no exploitable
//!   structure, included to show the precision gate refusing to
//!   speculate rather than thrashing the staging cache.
//!
//! What the traces decide — `precision`, `hit_rate`, the issue and
//! write-back counts — sits at the top level of the report and repeats
//! exactly; every latency and `p99_reduction` is the host's and sits
//! under `wall`. The floors are counted in faults, never in
//! microseconds, so they hold on any host: on the three predictable
//! traces a `precision` under 60 % or a `hit_rate` under 98 % (faults
//! served from staging) exits nonzero, and so does `pointer-chase`
//! staging more than 64 pages: the gate goes quiet instead of
//! thrashing.
//!
//! Run with `cargo run --release -p xfm-bench --bin xfm-prefetch-bench`;
//! `--out-dir <dir>` writes the report somewhere other than the
//! working directory.

use std::sync::Arc;
use std::time::Instant;

use xfm_bench::report::{self, quantile, rounded, Args};
use xfm_compress::Corpus;
use xfm_sfm::{PrefetchConfig, PrefetchEngine, SfmConfig, ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm_telemetry::json::JsonValue;
use xfm_telemetry::Registry;
use xfm_types::{ByteSize, PageNumber, PAGE_SIZE};

/// Pages per trace universe.
const PAGES: u64 = 4096;
/// Pages per Zipfian object (sequentially accessed).
const OBJECT_PAGES: u64 = 384;
/// Timed faults per trace.
const FAULTS: usize = 8192;
/// Untimed warm-up faults before measurement starts.
const WARMUP: usize = 1024;

/// Floors the three predictable traces must clear.
const MIN_PRECISION: f64 = 0.60;
const MIN_HIT_RATE: f64 = 0.98;
/// Most pages `pointer-chase` may stage before the gate closes.
const MAX_CHASE_ISSUED: u64 = 64;

/// Compressible page contents only: the off arm must pay a real
/// decompress per fault, exactly as a production fault stream of heap
/// pages would (same-filled and raw-stored pages are near-free either
/// way and would only flatter the comparison).
fn page_contents(page: u64) -> Vec<u8> {
    match page % 3 {
        0 => Corpus::Json.generate(page, PAGE_SIZE),
        1 => Corpus::KeyValue.generate(page, PAGE_SIZE),
        _ => Corpus::LogLines.generate(page, PAGE_SIZE),
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Zipfian(s≈1) object index in `[0, objects)` via inverse-CDF over
/// precomputed cumulative weights.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(objects: usize) -> Self {
        let mut cdf = Vec::with_capacity(objects);
        let mut acc = 0.0;
        for i in 0..objects {
            acc += 1.0 / (i as f64 + 1.0);
            cdf.push(acc);
        }
        let total = acc;
        for w in &mut cdf {
            *w /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut u64) -> usize {
        let u = (xorshift(rng) >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The four fault traces, as explicit page sequences.
fn build_trace(name: &str) -> Vec<u64> {
    let total = WARMUP + FAULTS;
    let mut trace = Vec::with_capacity(total);
    match name {
        "scan" => {
            for i in 0..total as u64 {
                trace.push(i % PAGES);
            }
        }
        "stride" => {
            for i in 0..total as u64 {
                trace.push((i * 3) % PAGES);
            }
        }
        "zipf-objects" => {
            let objects = (PAGES / OBJECT_PAGES).max(1) as usize;
            let zipf = Zipf::new(objects);
            let mut rng = 0x00D1_5EA5_EDB0_0B5Eu64;
            while trace.len() < total {
                let o = zipf.sample(&mut rng) as u64;
                for p in 0..OBJECT_PAGES {
                    trace.push(o * OBJECT_PAGES + p);
                    if trace.len() == total {
                        break;
                    }
                }
            }
        }
        "pointer-chase" => {
            let mut rng = 0xDEAD_BEEF_CAFE_F00Du64;
            for _ in 0..total {
                trace.push(xorshift(&mut rng) % PAGES);
            }
        }
        _ => unreachable!("unknown trace {name}"),
    }
    trace
}

fn engine(registry: &Registry, prefetch_on: bool) -> PrefetchEngine {
    let mut inner = ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(64),
        },
        ..ShardedSfmConfig::default()
    });
    inner.attach_telemetry(registry);
    let mut e = PrefetchEngine::new(
        Arc::new(inner),
        PrefetchConfig {
            staging_capacity: 512,
            auto_pump: false,
            ..PrefetchConfig::default()
        },
    );
    e.attach_telemetry(registry);
    e.set_enabled(prefetch_on);
    e
}

/// Replays `trace` against a fresh engine. Timed section is the
/// `swap_in_into` alone; the pump (background prefetcher stand-in) and
/// the re-swap-out that keeps pages cold for their next visit run off
/// the clock. Returns per-fault latencies (ns) for the measured window.
struct TraceRun {
    latencies_ns: Vec<u64>,
    precision: f64,
    hit_rate: f64,
    gated: bool,
    issued: u64,
    throttled: u64,
    writebacks: u64,
}

fn run_trace(trace: &[u64], prefetch_on: bool) -> TraceRun {
    let registry = Registry::new();
    let e = engine(&registry, prefetch_on);
    let contents: Vec<Vec<u8>> = (0..PAGES).map(page_contents).collect();
    for p in 0..PAGES {
        e.swap_out(PageNumber::new(p), &contents[p as usize])
            .expect("populate");
    }

    let mut buf = Vec::with_capacity(PAGE_SIZE);
    let mut latencies_ns = Vec::with_capacity(FAULTS);
    let hits = registry.counter("xfm_prefetch_hits_total");
    let mut hits_at_window = 0u64;
    for (i, &p) in trace.iter().enumerate() {
        if i == WARMUP {
            hits_at_window = hits.get();
        }
        let pn = PageNumber::new(p);
        let start = Instant::now();
        e.swap_in_into(pn, false, &mut buf).expect("fault");
        let ns = start.elapsed().as_nanos() as u64;
        if i >= WARMUP {
            latencies_ns.push(ns);
        }
        assert_eq!(buf.len(), PAGE_SIZE, "page {p} truncated");
        assert_eq!(buf[..16], contents[p as usize][..16], "page {p} corrupted");
        // Off the clock: make the page cold again and let the
        // "background" prefetcher catch up with the stream.
        e.swap_out(pn, &contents[p as usize]).expect("re-swap-out");
        if prefetch_on {
            e.pump();
        }
    }

    let window_hits = hits.get() - hits_at_window;
    TraceRun {
        hit_rate: window_hits as f64 / latencies_ns.len() as f64,
        latencies_ns,
        precision: e.precision(),
        gated: e.is_gated(),
        issued: registry.counter("xfm_prefetch_issued_total").get(),
        throttled: registry.counter("xfm_prefetch_throttled_total").get(),
        writebacks: registry.counter("xfm_prefetch_writebacks_total").get(),
    }
}

struct TraceResult {
    name: &'static str,
    faults: usize,
    p50_off_ns: u64,
    p99_off_ns: u64,
    p50_on_ns: u64,
    p99_on_ns: u64,
    p99_reduction: f64,
    precision: f64,
    hit_rate: f64,
    gated: bool,
    issued: u64,
    throttled: u64,
    writebacks: u64,
}

fn run_pair(name: &'static str) -> TraceResult {
    let trace = build_trace(name);
    let off = run_trace(&trace, false);
    let on = run_trace(&trace, true);
    let mut off_sorted = off.latencies_ns;
    let mut on_sorted = on.latencies_ns;
    off_sorted.sort_unstable();
    on_sorted.sort_unstable();
    let p99_off = quantile(&off_sorted, 0.99);
    let p99_on = quantile(&on_sorted, 0.99);
    TraceResult {
        name,
        faults: on_sorted.len(),
        p50_off_ns: quantile(&off_sorted, 0.50),
        p99_off_ns: p99_off,
        p50_on_ns: quantile(&on_sorted, 0.50),
        p99_on_ns: p99_on,
        p99_reduction: 1.0 - p99_on as f64 / p99_off.max(1) as f64,
        precision: on.precision,
        hit_rate: on.hit_rate,
        gated: on.gated,
        issued: on.issued,
        throttled: on.throttled,
        writebacks: on.writebacks,
    }
}

const METHODOLOGY: &str = "Each trace replays twice (prefetch on/off); only swap_in_into is \
    timed. The pump and re-swap-out model a background prefetcher thread and run off the clock. \
    p99_reduction = 1 - p99_on/p99_off over the post-warmup window.";

fn report(results: &[TraceResult]) -> JsonValue {
    JsonValue::object([
        ("page_size", PAGE_SIZE.into()),
        ("pages", PAGES.into()),
        ("object_pages", OBJECT_PAGES.into()),
        ("warmup_faults", WARMUP.into()),
        ("methodology", METHODOLOGY.into()),
        (
            "traces",
            results
                .iter()
                .map(|r| {
                    JsonValue::object([
                        ("name", r.name.into()),
                        ("faults", r.faults.into()),
                        ("precision", rounded(r.precision, 3)),
                        ("hit_rate", rounded(r.hit_rate, 3)),
                        ("gated", r.gated.into()),
                        ("issued", r.issued.into()),
                        ("throttled", r.throttled.into()),
                        ("writebacks", r.writebacks.into()),
                    ])
                })
                .collect(),
        ),
        (
            "wall",
            report::wall([(
                "traces",
                results
                    .iter()
                    .map(|r| {
                        JsonValue::object([
                            ("name", r.name.into()),
                            ("p50_off_ns", r.p50_off_ns.into()),
                            ("p99_off_ns", r.p99_off_ns.into()),
                            ("p50_on_ns", r.p50_on_ns.into()),
                            ("p99_on_ns", r.p99_on_ns.into()),
                            ("p99_reduction", rounded(r.p99_reduction, 3)),
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

    println!(
        "{:<14} {:>8} {:>12} {:>12} {:>10} {:>10} {:>9} {:>6} {:>7} {:>9} {:>6}",
        "trace",
        "faults",
        "p99 off ns",
        "p99 on ns",
        "reduction",
        "precision",
        "hit rate",
        "gated",
        "issued",
        "throttled",
        "wbacks",
    );
    let results: Vec<TraceResult> = ["scan", "stride", "zipf-objects", "pointer-chase"]
        .into_iter()
        .map(|name| {
            let r = run_pair(name);
            println!(
                "{:<14} {:>8} {:>12} {:>12} {:>9.1}% {:>10.3} {:>9.3} {:>6} {:>7} {:>9} {:>6}",
                r.name,
                r.faults,
                r.p99_off_ns,
                r.p99_on_ns,
                r.p99_reduction * 100.0,
                r.precision,
                r.hit_rate,
                r.gated,
                r.issued,
                r.throttled,
                r.writebacks,
            );
            if name == "pointer-chase" {
                assert!(
                    r.issued <= MAX_CHASE_ISSUED,
                    "{name}: {} pages staged, over the {MAX_CHASE_ISSUED} cap",
                    r.issued
                );
            } else {
                assert!(
                    r.precision >= MIN_PRECISION,
                    "{name}: precision {:.3} under the {MIN_PRECISION} floor",
                    r.precision
                );
                assert!(
                    r.hit_rate >= MIN_HIT_RATE,
                    "{name}: hit rate {:.3} under the {MIN_HIT_RATE} floor",
                    r.hit_rate
                );
            }
            r
        })
        .collect();

    report::write(&out_dir, "BENCH_prefetch.json", &report(&results));
}
