//! Chaos harness: drives the full XFM swap stack under a seeded fault
//! plan and proves the graceful-degradation story end to end —
//!
//! - **zero data loss**: every page demoted under chaos is restored
//!   byte-exact, however many injected timeouts, rejects, corruptions,
//!   and store failures the plan lands;
//! - **no deadlock**: every retry loop is bounded; exceeding the bound
//!   is a hard failure, so a hang can never pass;
//! - **monotone degradation**: sustained device faults drive the
//!   backend down the `Nma → Mixed → CpuOnly` ladder (visible in the
//!   printed transition count), never corrupt data on the way.
//!
//! The plan comes from `XFM_FAULT_PLAN`/`XFM_FAULT_SEED` (see
//! `xfm_faults::FaultPlan::parse`) or defaults to an all-sites storm
//! with the two host-side sites bounded (an always-corrupting channel
//! has no remedy; a bounded one must be survived).
//!
//! Run with `cargo run --release -p xfm-bench --bin xfm-fault-bench`.
//! The `BENCH_faults.json` survival record (seeded and virtually
//! clocked, so every field but `wall` repeats exactly) goes to
//! `--out-dir <dir>`, by default the working directory;
//! `--metrics-out <path>` writes the telemetry snapshot (`.prom`/`.txt`
//! → Prometheus exposition, else JSON) exactly like `xfm-repro`, and
//! `--dump-dir <dir>` attaches the flight recorder so every
//! degraded-mode transition and retry exhaustion leaves a validated
//! post-mortem file.

use std::path::PathBuf;
use std::sync::Arc;

use xfm_bench::report::{self, Args};
use xfm_compress::Corpus;
use xfm_core::backend::{XfmBackend, XfmBackendConfig};
use xfm_faults::{DegradedMode, FaultInjector, FaultPlan, FaultSite, RetryPolicy, SiteSpec};
use xfm_sfm::backend::{SfmConfig, SwapPlane};
use xfm_telemetry::json::JsonValue;
use xfm_telemetry::{flight, FlightRecorder, Registry};
use xfm_types::{ByteSize, Nanos, PageNumber, PAGE_SIZE};

/// Any single swap op must land within this many attempts; more means
/// the fault plan and retry logic have livelocked.
const MAX_ATTEMPTS: u32 = 256;

/// The default storm when `XFM_FAULT_PLAN` is unset: every device-side
/// site hot enough to force visible degradation, host-side corruption
/// and store failures bounded so forward progress stays possible.
fn default_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_site(FaultSite::NmaEngineTimeout, SiteSpec::with_probability(0.5))
        .with_site(
            FaultSite::SpmExhaustion,
            SiteSpec::with_probability(0.5).burst(4),
        )
        .with_site(FaultSite::QueueFull, SiteSpec::with_probability(0.5))
        .with_site(
            FaultSite::RefreshWindowMiss,
            SiteSpec::with_probability(0.75),
        )
        .with_site(
            FaultSite::BitCorruption,
            SiteSpec::with_probability(0.25).max_fires(32),
        )
        .with_site(
            FaultSite::ZpoolStoreFailure,
            SiteSpec::with_probability(0.25).max_fires(32),
        )
}

fn main() {
    let mut args = Args::from_env();
    let out_dir = args.out_dir();
    let metrics_out = args.value("--metrics-out").map(PathBuf::from);
    let dump_dir = args.value("--dump-dir").map(PathBuf::from);
    args.done();
    let pages: u64 = 512;
    let rounds: u64 = 4;

    let seed: u64 = std::env::var("XFM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00C0_FFEE);
    let plan = FaultPlan::from_env()
        .expect("XFM_FAULT_PLAN must parse")
        .unwrap_or_else(|| default_plan(seed));

    let registry = Registry::new();
    let mut injector = FaultInjector::new(&plan);
    injector.attach_telemetry(&registry);
    let injector = Arc::new(injector);

    let recorder = dump_dir.as_ref().map(|dir| {
        std::fs::create_dir_all(dir).expect("create dump dir");
        Arc::new(FlightRecorder::new(&registry, dir.clone()))
    });

    let mut builder = XfmBackend::builder()
        .config(XfmBackendConfig {
            sfm: SfmConfig {
                region_capacity: ByteSize::from_mib(16),
            },
            ..XfmBackendConfig::default()
        })
        .telemetry(&registry)
        .faults(Arc::clone(&injector))
        .retry_policy(RetryPolicy::default());
    if let Some(recorder) = &recorder {
        builder = builder.flight_recorder(Arc::clone(recorder));
    }
    let backend = builder.build().expect("valid chaos backend configuration");

    println!(
        "chaos plan (seed {}): {}",
        injector.seed(),
        plan.sites()
            .map(|(s, spec)| format!("{}:{:.2}", s.name(), spec.probability))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut now = Nanos::from_ms(1);
    backend.advance_to(now);
    let mut swap_outs = 0u64;
    let mut swap_ins = 0u64;
    let mut store_retries = 0u64;
    let mut corrupt_retries = 0u64;
    // Virtual nanoseconds spent in any non-Nma mode: measured on the
    // simulated clock, so it is deterministic for a fixed plan+seed.
    let mut degraded_dwell_ns = 0u64;

    for round in 0..rounds {
        for i in 0..pages {
            let page = PageNumber::new(i);
            let data = Corpus::all()[(i % 16) as usize].generate(i ^ round, PAGE_SIZE);
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                assert!(
                    attempts <= MAX_ATTEMPTS,
                    "swap_out of page {i} livelocked after {MAX_ATTEMPTS} attempts"
                );
                match backend.swap_out(page, &data) {
                    Ok(_) => break,
                    // An injected store failure surfaces as a capacity
                    // verdict; the entry was never recorded, so retry.
                    Err(e) if e.is_capacity() => store_retries += 1,
                    Err(e) => panic!("unexpected swap_out error: {e}"),
                }
            }
            swap_outs += 1;
            let step = Nanos::from_us(20);
            if backend.degraded_mode() != DegradedMode::Nma {
                degraded_dwell_ns += step.as_ns();
            }
            now += step;
            backend.advance_to(now);
        }

        // Let the refresh calendar drain whatever the chaos let through.
        let step = Nanos::from_ms(40);
        if backend.degraded_mode() != DegradedMode::Nma {
            degraded_dwell_ns += step.as_ns();
        }
        now += step;
        backend.advance_to(now);

        let mut lost = 0u64;
        for i in 0..pages {
            let page = PageNumber::new(i);
            let expected = Corpus::all()[(i % 16) as usize].generate(i ^ round, PAGE_SIZE);
            let mut attempts = 0u32;
            let restored = loop {
                attempts += 1;
                assert!(
                    attempts <= MAX_ATTEMPTS,
                    "swap_in of page {i} livelocked after {MAX_ATTEMPTS} attempts"
                );
                match backend.swap_in(page, i % 2 == 0) {
                    Ok((data, _)) => break data,
                    // Checksum caught an injected flip before the entry
                    // was consumed: the stored copy is intact, retry.
                    Err(e) if e.is_corruption() && e.is_retryable() => corrupt_retries += 1,
                    Err(e) => panic!("unexpected swap_in error: {e}"),
                }
            };
            if restored != expected {
                lost += 1;
            }
            swap_ins += 1;
        }
        assert_eq!(lost, 0, "round {round}: {lost} pages corrupted or lost");
        println!(
            "round {round}: {pages} pages out+in, mode {} ({} transitions so far)",
            backend.degraded_mode().name(),
            backend.degrade_transitions()
        );
    }

    let stats = backend.stats();
    let nma = backend.nma_stats();
    println!("\n== survival ==");
    println!(
        "swap-outs: {swap_outs} ({} on the NMA), swap-ins: {swap_ins}, lost pages: 0",
        stats.nma_executions
    );
    println!(
        "injected-store retries: {store_retries}, corruption retries: {corrupt_retries}, \
         NMA rejects: {}, CPU fallback share: {:.1}%",
        nma.rejected,
        backend.cpu_fallback_fraction() * 100.0
    );
    println!(
        "degraded mode: {} after {} transitions",
        backend.degraded_mode().name(),
        backend.degrade_transitions()
    );

    println!("\n== injected faults per site ==");
    for site in FaultSite::ALL {
        println!(
            "{:<22} {:>8} fires / {:>8} ops",
            site.name(),
            injector.fires(site),
            injector.ops(site)
        );
    }
    let fired: u64 = FaultSite::ALL.iter().map(|&s| injector.fires(s)).sum();
    assert!(fired > 0, "the chaos plan never fired — nothing was tested");

    let snap = registry.snapshot();
    let telemetry_fired: u64 = FaultSite::ALL
        .iter()
        .map(|s| {
            snap.counters
                .get(&format!(
                    "xfm_fault_injected_total{{site=\"{}\"}}",
                    s.name()
                ))
                .copied()
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(
        telemetry_fired, fired,
        "telemetry counters must agree with the injector"
    );
    println!(
        "\nchaos OK: {} faults injected, every page byte-exact, no deadlock",
        fired
    );

    let doc = JsonValue::object([
        ("pages", pages.into()),
        ("rounds", rounds.into()),
        ("seed", injector.seed().into()),
        (
            "injected",
            JsonValue::Object(
                FaultSite::ALL
                    .iter()
                    .map(|&s| (s.name().to_string(), injector.fires(s).into()))
                    .collect(),
            ),
        ),
        ("total_injected", fired.into()),
        ("store_retries", store_retries.into()),
        ("corrupt_retries", corrupt_retries.into()),
        ("degrade_transitions", backend.degrade_transitions().into()),
        ("degraded_dwell_ns", degraded_dwell_ns.into()),
        ("final_mode", backend.degraded_mode().name().into()),
        ("lost_pages", 0u64.into()),
        ("wall", report::wall([])),
    ]);
    report::write(&out_dir, "BENCH_faults.json", &doc);

    if let Some(path) = &metrics_out {
        let prometheus = path.extension().is_some_and(|e| e == "prom" || e == "txt");
        let rendered = if prometheus {
            snap.to_prometheus()
        } else {
            snap.to_json()
        };
        std::fs::write(path, rendered).expect("write metrics snapshot");
        println!(
            "telemetry snapshot written to {} ({} counters, {} histograms)",
            path.display(),
            snap.counters.len(),
            snap.histograms.len()
        );
    }

    if let Some(dir) = &dump_dir {
        let recorder = recorder.as_ref().expect("recorder attached with dump dir");
        let mut dumps: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("read dump dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("xfm-postmortem-"))
            })
            .collect();
        dumps.sort();
        assert_eq!(
            dumps.len() as u64,
            recorder.dumps(),
            "dump files on disk must match the recorder's count"
        );
        let mut explained = 0;
        for path in &dumps {
            let text = std::fs::read_to_string(path).expect("read dump");
            let summary = flight::validate_dump(&text)
                .unwrap_or_else(|e| panic!("invalid post-mortem {}: {e}", path.display()));
            explained += usize::from(summary.path_steps.is_some());
            println!(
                "post-mortem {}: reason={} events={} page={:?} path_steps={:?}",
                path.display(),
                summary.reason,
                summary.events,
                summary.page,
                summary.path_steps
            );
        }
        if backend.degrade_transitions() > 0 {
            assert!(
                !dumps.is_empty(),
                "degraded-mode transitions occurred but no post-mortem was dumped"
            );
        }
        println!(
            "flight recorder: {} incidents, {} dumps, all parseable, {explained} with the page's critical path",
            recorder.incidents(),
            recorder.dumps()
        );
    }
}
