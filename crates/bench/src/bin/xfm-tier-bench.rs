//! Tiered-swap-plane benchmark, emitting machine-readable
//! `BENCH_tier.json`: per-tier fault-latency distributions,
//! demotion/promotion rates, and degraded-replica throughput.
//!
//! The harness composes the three-tier hierarchy the tier plane was
//! built for — compressed local zpool → modeled SSD → replicated
//! remote pair, all on one shared virtual clock — then:
//!
//! 1. **fill**: demotes `pages` cold pages through the budgeted
//!    hierarchy, cascading the coldest down to SSD and remote;
//! 2. **fault**: faults every page back in, timing the wall-clock
//!    fault path per originating tier and collecting the *virtual*
//!    (modeled, machine-independent) media latencies per device;
//! 3. **degraded**: writes a replicated working set, scrubs, kills one
//!    replica, and measures read-back throughput plus the zero-loss
//!    invariant on the survivor — once on a quiet plane and once under
//!    an injected replica-drop storm.
//!
//! Wall-clock figures are the host's and sit under `wall`; virtual
//! latencies and all demotion/promotion/replica counters are
//! deterministic for the fixed seed and compared exactly by the
//! sentinel. A lost page, or a kill that no read had to route around,
//! exits nonzero here.
//!
//! Run with `cargo run --release -p xfm-bench --bin xfm-tier-bench`;
//! `--out-dir <dir>` writes the report somewhere other than the
//! working directory.

use std::sync::Arc;
use std::time::Instant;

use xfm_bench::report::{self, quantile, rounded, Args};
use xfm_compress::Corpus;
use xfm_event::ClockMirror;
use xfm_faults::{FaultInjector, FaultPlan, FaultSite, SiteSpec};
use xfm_sfm::{
    MediaModel, ModeledPlane, ReplicatedPlane, SfmConfig, ShardedSfm, ShardedSfmConfig, SwapPlane,
    TierSpec, TierStats, TieredPlane,
};
use xfm_telemetry::json::JsonValue;
use xfm_types::{ByteSize, PageNumber, PlacementClass, PlaneId, PAGE_SIZE};

const SEED: u64 = 0x7137_D00D;

/// Pages demoted through the hierarchy.
const PAGES: u64 = 768;
/// Tier-0 (compressed local) resident budget.
const LOCAL_BUDGET: u64 = 128;
/// Tier-1 (modeled SSD) resident budget.
const SSD_BUDGET: u64 = 256;
/// Pages in the degraded-replica working set.
const REPLICA_PAGES: u64 = 384;

/// Compressible page contents (heap-page shapes) so the local tier
/// stores real compressed objects.
fn page_contents(page: u64) -> Vec<u8> {
    match page % 3 {
        0 => Corpus::Json.generate(page ^ SEED, PAGE_SIZE),
        1 => Corpus::KeyValue.generate(page ^ SEED, PAGE_SIZE),
        _ => Corpus::LogLines.generate(page ^ SEED, PAGE_SIZE),
    }
}

/// The composed hierarchy plus handles to the modeled devices.
struct Hierarchy {
    tiered: TieredPlane,
    ssd: Arc<ModeledPlane>,
    remote: Arc<ReplicatedPlane>,
}

fn build_hierarchy() -> Hierarchy {
    let clock = ClockMirror::new();
    let local = Arc::new(ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(16),
        },
        ..ShardedSfmConfig::default()
    }));
    let ssd = Arc::new(ModeledPlane::new(
        "ssd",
        MediaModel::ssd(),
        0,
        clock.clone(),
    ));
    let remote = Arc::new(ReplicatedPlane::new(
        "remote",
        MediaModel::remote(),
        0,
        clock.clone(),
    ));
    let tiered = TieredPlane::new(vec![
        TierSpec::new(local, PlaneId::new(0), PlacementClass::CompressedLocal)
            .with_capacity_pages(LOCAL_BUDGET),
        TierSpec::new(ssd.clone(), PlaneId::new(1), PlacementClass::Ssd)
            .with_capacity_pages(SSD_BUDGET),
        TierSpec::new(remote.clone(), PlaneId::new(2), PlacementClass::Remote),
    ])
    .expect("valid hierarchy");
    Hierarchy {
        tiered,
        ssd,
        remote,
    }
}

/// Per-tier fault measurements: wall-clock latencies grouped by the
/// tier the page resided on when the fault hit.
struct TierRow {
    stats: TierStats,
    faults: u64,
    fault_p50_ns: u64,
    fault_p99_ns: u64,
}

struct TierRun {
    rows: Vec<TierRow>,
    swap_outs: u64,
    demotions: u64,
    faults: u64,
    promotions: u64,
    /// Virtual (modeled) media latencies, exact-checkable.
    ssd_read_p50_ns: u64,
    ssd_read_p99_ns: u64,
    ssd_write_p50_ns: u64,
    ssd_write_p99_ns: u64,
    remote_read_p50_ns: u64,
    remote_write_p50_ns: u64,
}

fn run_tiers() -> TierRun {
    let h = build_hierarchy();

    // Phase 1: fill. Budget pressure cascades cold pages down.
    for p in 0..PAGES {
        h.tiered
            .swap_out(PageNumber::new(p), &page_contents(p))
            .expect("demote");
    }
    let fill_stats = h.tiered.tier_stats();

    // Phase 2: fault every page back, attributing the wall latency to
    // the tier that held the page.
    let mut per_tier: Vec<Vec<u64>> = vec![Vec::new(); fill_stats.len()];
    let mut buf = Vec::with_capacity(PAGE_SIZE);
    for p in 0..PAGES {
        let pn = PageNumber::new(p);
        let tier = h
            .tiered
            .placement_of(pn)
            .map_or(0, |pl| pl.plane.as_u32() as usize);
        let start = Instant::now();
        h.tiered.swap_in_into(pn, true, &mut buf).expect("fault");
        let ns = start.elapsed().as_nanos() as u64;
        assert_eq!(buf, page_contents(p), "page {p} corrupted in the hierarchy");
        per_tier[tier].push(ns);
    }
    let final_stats = h.tiered.tier_stats();

    let rows: Vec<TierRow> = final_stats
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut lat = per_tier[i].clone();
            lat.sort_unstable();
            TierRow {
                stats: TierStats {
                    // Resident counts are meaningful after the fill,
                    // before the consuming faults drained the tiers.
                    resident_pages: fill_stats[i].resident_pages,
                    ..s.clone()
                },
                faults: lat.len() as u64,
                fault_p50_ns: quantile(&lat, 0.50),
                fault_p99_ns: quantile(&lat, 0.99),
            }
        })
        .collect();

    let demotions: u64 = rows.iter().map(|r| r.stats.demoted_in).sum();
    let promotions: u64 = rows.iter().map(|r| r.stats.promoted).sum();
    TierRun {
        rows,
        swap_outs: PAGES,
        demotions,
        faults: PAGES,
        promotions,
        ssd_read_p50_ns: h.ssd.read_latency().quantile(0.50),
        ssd_read_p99_ns: h.ssd.read_latency().quantile(0.99),
        ssd_write_p50_ns: h.ssd.write_latency().quantile(0.50),
        ssd_write_p99_ns: h.ssd.write_latency().quantile(0.99),
        remote_read_p50_ns: h.remote.replica(0).read_latency().quantile(0.50),
        remote_write_p50_ns: h.remote.replica(0).write_latency().quantile(0.50),
    }
}

struct ReplicaRun {
    pages: u64,
    degraded_reads: u64,
    repairs: u64,
    dropped_writes: u64,
    lost_pages: u64,
    degraded_pages_per_sec: f64,
}

/// Phase 3: write a replicated working set (under an injected
/// replica-drop `storm` or not), scrub, kill one replica, read
/// everything back off the survivor under the clock.
fn run_degraded(storm: bool) -> ReplicaRun {
    let mut plane = ReplicatedPlane::new("remote", MediaModel::remote(), 0, ClockMirror::new());
    if storm {
        let plan = FaultPlan::new(SEED).with_site(
            FaultSite::ReplicaLoss,
            SiteSpec::with_probability(0.3).max_fires(REPLICA_PAGES / 4),
        );
        plane.attach_faults(Arc::new(FaultInjector::new(&plan)));
    }
    for p in 0..REPLICA_PAGES {
        plane
            .swap_out(PageNumber::new(p), &page_contents(p))
            .expect("replicated write");
    }
    // Anti-entropy restores two-copy redundancy before the kill.
    plane.scrub();
    plane.kill(0);

    let mut lost = 0u64;
    let mut buf = Vec::with_capacity(PAGE_SIZE);
    let start = Instant::now();
    for p in 0..REPLICA_PAGES {
        match plane.swap_in_into(PageNumber::new(p), true, &mut buf) {
            Ok(_) if buf == page_contents(p) => {}
            _ => lost += 1,
        }
    }
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(lost, 0, "replica kill lost {lost} pages");
    assert!(
        plane.degraded_reads() > 0,
        "the kill never exercised the degraded read path"
    );
    ReplicaRun {
        pages: REPLICA_PAGES,
        degraded_reads: plane.degraded_reads(),
        repairs: plane.repairs(),
        dropped_writes: plane.dropped_writes(),
        lost_pages: lost,
        degraded_pages_per_sec: REPLICA_PAGES as f64 / secs.max(1e-9),
    }
}

const METHODOLOGY: &str = "Pages demote through compressed-local -> modeled-SSD -> \
    replicated-remote under per-tier budgets, then fault back in. wall.tiers[].fault_p50/p99_ns \
    are wall-clock per originating tier (the modeled media charge virtual time, so they mostly \
    show the decompress/memcpy cost). The 'virtual' section carries the deterministic modeled \
    media latencies. The 'replica' section writes a replicated set, scrubs, kills replica 0, \
    and reads everything off the survivor; 'replica_storm' does the same with a quarter of the \
    writes to one replica dropped by an injected fault; lost_pages must be 0 in both.";

fn replica_json(rep: &ReplicaRun) -> JsonValue {
    JsonValue::object([
        ("pages", rep.pages.into()),
        ("degraded_reads", rep.degraded_reads.into()),
        ("repairs", rep.repairs.into()),
        ("dropped_writes", rep.dropped_writes.into()),
        ("lost_pages", rep.lost_pages.into()),
    ])
}

fn report(run: &TierRun, rep: &ReplicaRun, storm: &ReplicaRun) -> JsonValue {
    let ids = |r: &TierRow| {
        [
            ("id", r.stats.id.as_u32().into()),
            ("class", r.stats.class.name().into()),
        ]
    };
    JsonValue::object([
        ("page_size", PAGE_SIZE.into()),
        ("pages", PAGES.into()),
        ("seed", SEED.into()),
        ("methodology", METHODOLOGY.into()),
        (
            "tiers",
            run.rows
                .iter()
                .map(|r| {
                    let [id, class] = ids(r);
                    JsonValue::object([
                        id,
                        class,
                        ("resident_after_fill", r.stats.resident_pages.into()),
                        ("budget_pages", r.stats.capacity_pages.into()),
                        ("demoted_in", r.stats.demoted_in.into()),
                        ("demoted_out", r.stats.demoted_out.into()),
                        ("promoted", r.stats.promoted.into()),
                        ("faults", r.faults.into()),
                    ])
                })
                .collect(),
        ),
        (
            "virtual",
            JsonValue::object([
                ("ssd_read_p50_ns", run.ssd_read_p50_ns.into()),
                ("ssd_read_p99_ns", run.ssd_read_p99_ns.into()),
                ("ssd_write_p50_ns", run.ssd_write_p50_ns.into()),
                ("ssd_write_p99_ns", run.ssd_write_p99_ns.into()),
                ("remote_read_p50_ns", run.remote_read_p50_ns.into()),
                ("remote_write_p50_ns", run.remote_write_p50_ns.into()),
            ]),
        ),
        (
            "rates",
            JsonValue::object([
                ("swap_outs", run.swap_outs.into()),
                ("demotions", run.demotions.into()),
                (
                    "demotion_rate",
                    rounded(run.demotions as f64 / run.swap_outs as f64, 4),
                ),
                ("faults", run.faults.into()),
                ("promotions", run.promotions.into()),
                (
                    "promotion_rate",
                    rounded(run.promotions as f64 / run.faults as f64, 4),
                ),
            ]),
        ),
        ("replica", replica_json(rep)),
        ("replica_storm", replica_json(storm)),
        (
            "wall",
            report::wall([
                (
                    "tiers",
                    run.rows
                        .iter()
                        .map(|r| {
                            let [id, class] = ids(r);
                            JsonValue::object([
                                id,
                                class,
                                ("fault_p50_ns", r.fault_p50_ns.into()),
                                ("fault_p99_ns", r.fault_p99_ns.into()),
                            ])
                        })
                        .collect(),
                ),
                (
                    "degraded_pages_per_sec",
                    rep.degraded_pages_per_sec.round().into(),
                ),
            ]),
        ),
    ])
}

fn main() {
    let mut args = Args::from_env();
    let out_dir = args.out_dir();
    args.done();

    let run = run_tiers();
    println!(
        "{:<18} {:>9} {:>8} {:>8} {:>8} {:>9} {:>12} {:>12}",
        "tier", "resident", "budget", "dem.in", "dem.out", "faults", "p50 ns", "p99 ns",
    );
    for r in &run.rows {
        println!(
            "{:<18} {:>9} {:>8} {:>8} {:>8} {:>9} {:>12} {:>12}",
            format!("{} [{}]", r.stats.id, r.stats.class.name()),
            r.stats.resident_pages,
            r.stats.capacity_pages,
            r.stats.demoted_in,
            r.stats.demoted_out,
            r.faults,
            r.fault_p50_ns,
            r.fault_p99_ns,
        );
    }
    println!(
        "demotions: {} ({:.2}/swap-out), promotions: {} ({:.2}/fault)",
        run.demotions,
        run.demotions as f64 / run.swap_outs.max(1) as f64,
        run.promotions,
        run.promotions as f64 / run.faults.max(1) as f64,
    );
    println!(
        "virtual media: ssd read p50 {} ns / p99 {} ns, write p50 {} ns; \
         remote read p50 {} ns, write p50 {} ns",
        run.ssd_read_p50_ns,
        run.ssd_read_p99_ns,
        run.ssd_write_p50_ns,
        run.remote_read_p50_ns,
        run.remote_write_p50_ns,
    );

    let rep = run_degraded(false);
    println!(
        "degraded replica: {} pages off one survivor at {:.0} pages/s \
         ({} degraded reads, 0 lost)",
        rep.pages, rep.degraded_pages_per_sec, rep.degraded_reads,
    );
    let storm = run_degraded(true);
    assert!(
        storm.dropped_writes > 0,
        "the replica-drop storm never fired"
    );
    println!(
        "replica storm: {} pages survived replica loss ({} degraded reads, \
         {} dropped writes repaired by scrub, 0 lost)",
        storm.pages, storm.degraded_reads, storm.dropped_writes,
    );

    report::write(&out_dir, "BENCH_tier.json", &report(&run, &rep, &storm));
}
