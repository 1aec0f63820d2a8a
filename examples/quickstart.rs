//! Quickstart: swap cold pages through an XFM-backed far memory.
//!
//! Run with: `cargo run --example quickstart`

use xfm::compress::Corpus;
use xfm::core::{XfmConfig, XfmSystem};
use xfm::sfm::backend::{ExecutedOn, SwapPlane};
use xfm::telemetry::Registry;
use xfm::types::{Nanos, PageNumber, PAGE_SIZE};

fn main() -> xfm::types::Result<()> {
    // An XFM system: one DIMM with a 2 MiB scratchpad, a DDR4 refresh
    // calendar (tREFI = 3.9 us, tRFC = 410 ns), and the default window
    // scheduler (3 accesses per tRFC, 1 of them random), with telemetry
    // attached so every swap below is counted, timed, and traced.
    let registry = Registry::new();
    let mut sys = XfmSystem::new(XfmConfig::default());
    sys.attach_telemetry(&registry);
    let mut now = Nanos::from_ms(1);
    sys.advance_to(now);

    println!("== swap out 32 cold pages of varying compressibility ==");
    let corpora = Corpus::all();
    for i in 0..32u64 {
        let corpus = corpora[(i % 16) as usize];
        let page = corpus.generate(i, PAGE_SIZE);
        let out = sys.backend().swap_out(PageNumber::new(i), &page)?;
        println!(
            "page {i:2} ({:>14}): {:4} B compressed, executed on {:?}, DDR traffic {} B",
            corpus.name(),
            out.compressed_len,
            out.executed_on,
            out.ddr_bytes.as_bytes()
        );
        now += Nanos::from_us(50);
        sys.advance_to(now);
    }

    // Let the refresh windows drain the offload pipeline.
    now += Nanos::from_ms(64);
    sys.advance_to(now);

    println!("\n== far-memory state ==");
    let pool = sys.backend().pool_stats();
    println!(
        "entries: {}, pool pages: {}, stored: {}, utilization: {:.1}%",
        sys.backend().table_len(),
        pool.host_pages,
        pool.stored_bytes,
        pool.utilization() * 100.0
    );

    println!("\n== swap pages back in (verifying every byte) ==");
    let mut nma_ops = 0;
    let mut cpu_ops = 0;
    for i in 0..32u64 {
        let corpus = corpora[(i % 16) as usize];
        let expected = corpus.generate(i, PAGE_SIZE);
        // Even pages: prefetch path (NMA offload); odd: demand faults.
        let (restored, outcome) = sys.backend().swap_in(PageNumber::new(i), i % 2 == 0)?;
        assert_eq!(restored, expected, "data corruption on page {i}");
        match outcome.executed_on {
            ExecutedOn::Nma => nma_ops += 1,
            ExecutedOn::Cpu => cpu_ops += 1,
        }
    }
    println!("all 32 pages verified byte-exact ({nma_ops} on the NMA, {cpu_ops} on the CPU)");

    let nma = sys.nma_stats();
    println!("\n== accelerator statistics ==");
    println!(
        "offloads: {} submitted, {} completed, {} fallbacks; \
         accesses: {} conditional / {} random; SPM peak {}",
        nma.submitted,
        nma.completed,
        nma.fallbacks,
        nma.sched.conditional,
        nma.sched.random,
        nma.spm_high_water
    );
    println!(
        "side-channel traffic: {} (DDR-channel traffic avoided)",
        nma.sched.side_channel_bytes
    );

    let snap = registry.snapshot();
    println!("\n== telemetry snapshot ==");
    for name in ["xfm_swap_out_latency_ns", "xfm_swap_in_latency_ns"] {
        let h = &snap.histograms[name];
        println!(
            "{name}: count {} p50 {} ns p99 {} ns max {} ns",
            h.count, h.p50, h.p99, h.max
        );
    }
    let util = snap.gauges[r#"xfm_refresh_window_utilization{rank="0"}"#];
    println!("refresh-window utilization (rank 0): {:.4}%", util * 100.0);
    if let Some(event) = snap.events.last() {
        println!(
            "last lifecycle event: stage {} page {} cause {} ({} events retained)",
            event.stage.name(),
            event.page,
            event.cause.name(),
            snap.events.len()
        );
    }
    println!("(full registry: snapshot().to_json() / to_prometheus())");
    Ok(())
}
