//! `xfm-repro`: regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! xfm-repro [--metrics-out <path>] [--trace-out <path>] [--dump-dir <dir>] [--replay-out <path>] [experiment...]
//! ```
//!
//! With no arguments, every experiment runs. Experiment names: `fig1`,
//! `fig3`, `fig8`, `fig11`, `fig12`, `table1`, `table2`, `table3`,
//! `timing`, `energy`, `antagonist`, `ablation` and `latency`. Fig. 12,
//! the §8 energy figures and the ablations drive the near-memory
//! accelerator `XfmBackend` runs (`xfm_sim::fallback`). Any other name
//! exits with status 2 and lists these.
//!
//! `--metrics-out <path>` drives the instrumented stack (swap path,
//! refresh-window gauges, DRAM model, fallback and co-run simulators)
//! against one telemetry registry and writes the snapshot to `path` —
//! Prometheus text exposition when the path ends in `.prom` or `.txt`,
//! JSON otherwise. When no experiment names accompany the flag, only the
//! metrics pass runs.
//!
//! `--trace-out <path>` additionally exports the page-lifecycle audit
//! trail captured during that metrics pass as Chrome `trace_event` JSON
//! (open in Perfetto / `chrome://tracing`). Implies the metrics pass;
//! validate with `xfm-sentinel validate-trace <path>`.
//!
//! The metrics pass prints the critical path of its last traced fault
//! (`LifecycleTrace::explain`: fetch and checksum against decode), and
//! with `--dump-dir <dir>` leaves that fault's page as a flight-recorder
//! post-mortem in `dir` (reason `traced-fault`), the path included;
//! validate with `xfm-sentinel validate-dump <file>`.
//!
//! `--replay-out <path>` writes the deterministic full-stack replay
//! export (`xfm_bench::replay::replay` at seed `0x0f0f_1234`: the
//! Fig. 12 driver with its telemetry, a DRAM trace and an NMA run)
//! as JSON. It holds simulated values only, so two runs are
//! byte-identical; `ci.sh`'s determinism gate diffs two of them. Like
//! the metrics pass, it runs alone when no experiment names accompany it.

use xfm_bench::replay::replay;
use xfm_bench::report::Args;
use xfm_bench::{
    render_energy, render_fig1, render_fig11, render_fig12, render_fig3, render_fig8,
    render_table1, render_tables23, render_timing,
};
use xfm_sim::corun::{antagonist_study, CorunConfig};
use xfm_sim::figures;
use xfm_types::Nanos;

/// Every experiment name, in the order the experiments print.
const EXPERIMENTS: [&str; 13] = [
    "fig1",
    "fig3",
    "fig8",
    "fig11",
    "fig12",
    "energy",
    "table1",
    "table2",
    "table3",
    "timing",
    "antagonist",
    "ablation",
    "latency",
];

/// The seed `--replay-out` replays.
const REPLAY_SEED: u64 = 0x0f0f_1234;

/// Prints the critical path of the last fault on `registry`'s trail and,
/// given `dump_dir`, leaves it there as a post-mortem.
fn explain_last_fault(registry: &xfm_telemetry::Registry, dump_dir: Option<&str>) {
    use xfm_telemetry::{FlightRecorder, LifecycleStage};
    let trail = registry.lifecycle();
    let fault = trail
        .snapshot()
        .into_iter()
        .rev()
        .find(|e| matches!(e.stage, LifecycleStage::Fault | LifecycleStage::Load));
    let Some(path) = fault.and_then(|e| trail.explain(e.page)) else {
        return;
    };
    println!("critical path of the last traced fault: {path}\n");
    if let Some(dir) = dump_dir {
        std::fs::create_dir_all(dir).expect("create dump dir");
        let detail = "the metrics pass's last traced fault";
        let dump = FlightRecorder::new(registry, dir)
            .incident("traced-fault", detail, Some(path.page))
            .expect("write the post-mortem");
        println!("post-mortem of that fault written to {}\n", dump.display());
    }
}

fn main() {
    let mut args = Args::from_env();
    let metrics_out = args.value("--metrics-out");
    let trace_out = args.value("--trace-out");
    let dump_dir = args.value("--dump-dir");
    let replay_out = args.value("--replay-out");
    let args = args.rest();
    if let Some(unknown) = args.iter().find(|a| !EXPERIMENTS.contains(&a.as_str())) {
        eprintln!(
            "unknown experiment {unknown:?}; valid names: {}",
            EXPERIMENTS.join(" ")
        );
        std::process::exit(2);
    }
    let all =
        args.is_empty() && metrics_out.is_none() && trace_out.is_none() && replay_out.is_none();
    let want = |name: &str| all || args.iter().any(|a| a == name);

    println!("XFM reproduction — regenerating the paper's tables and figures\n");

    if metrics_out.is_some() || trace_out.is_some() {
        let registry = xfm_telemetry::Registry::new();
        let snapshot = xfm_bench::metrics::collect(&registry).expect("metrics collection");
        explain_last_fault(&registry, dump_dir.as_deref());
        if let Some(path) = &trace_out {
            let events = registry.lifecycle().snapshot();
            let trace = xfm_telemetry::chrome::to_chrome_trace(&events);
            std::fs::write(path, trace).expect("write chrome trace");
            println!(
                "lifecycle trace written to {path}: {} events ({} recorded, {} dropped)\n",
                events.len(),
                registry.lifecycle().recorded(),
                registry.lifecycle().dropped()
            );
        }
        if let Some(path) = &metrics_out {
            let rendered = if path.ends_with(".prom") || path.ends_with(".txt") {
                snapshot.to_prometheus()
            } else {
                snapshot.to_json()
            };
            std::fs::write(path, rendered).expect("write metrics snapshot");
            let outs = &snapshot.histograms["xfm_swap_out_latency_ns"];
            let ins = &snapshot.histograms["xfm_swap_in_latency_ns"];
            println!(
                "telemetry snapshot written to {path}: {} swap-outs (p50 {} ns, p99 {} ns), \
                 {} swap-ins (p50 {} ns, p99 {} ns), {} events\n",
                outs.count,
                outs.p50,
                outs.p99,
                ins.count,
                ins.p50,
                ins.p99,
                snapshot.events.len()
            );
        }
    }

    if let Some(path) = &replay_out {
        std::fs::write(path, replay(REPLAY_SEED).to_json()).expect("write replay export");
        println!("replay export written to {path}\n");
    }

    if want("fig1") {
        for pr in [0.14, 1.0] {
            println!("{}", render_fig1(&figures::fig1_bandwidth(pr)));
        }
        let cap = figures::xfm_max_sfm_capacity(0.5, 8, 3, 2.5);
        println!(
            "XFM side-channel headroom: supports SFM capacities up to {cap} \
             (8 ranks, 3 accesses/tRFC, 50% promotion) — abstract claim: ~1 TB\n"
        );
    }
    if want("fig3") {
        println!("{}", render_fig3(&figures::fig3_cost()));
        let model = xfm_cost::FarMemoryModel::default();
        if let Some(years) = model.cost_breakeven_years(xfm_cost::FarMemoryKind::DfmDram, 1.0) {
            println!(
                "cost break-even vs DRAM-DFM @100% promotion: {years:.1} years (paper: 8.5)\n"
            );
        }
        println!(
            "accelerated-SFM usefulness threshold: {:.1}% promotion rate (paper: ~6%)\n",
            model.accelerator_breakeven_promotion_rate() * 100.0
        );
    }
    if want("fig8") {
        let rows = figures::fig8_ratios(256 * 1024).expect("fig8");
        println!("{}", render_fig8(&rows));
    }
    if want("fig11") {
        println!("{}", render_fig11(&figures::fig11_interference()));
    }
    if want("fig12") || want("energy") {
        let rows = figures::fig12_fallbacks(Nanos::from_ms(200));
        if want("fig12") {
            println!("{}", render_fig12(&rows));
        }
        if want("energy") {
            println!("{}", render_energy(&rows));
        }
    }
    if want("table1") {
        println!("{}", render_table1(&figures::table1_devices()));
    }
    if want("table2") || want("table3") {
        println!("{}", render_tables23());
    }
    if want("timing") {
        println!("{}", render_timing(&figures::timing_summary()));
    }
    if want("antagonist") {
        let (app_hit, sfm_hit) = antagonist_study(&CorunConfig::default());
        println!(
            "Section 3.2 antagonist study: worst application slowdown {:.1}% \
             (paper: up to 7.5%), antagonist throughput degradation {:.1}% \
             (paper: >5.0%)\n",
            app_hit * 100.0,
            sfm_hit * 100.0
        );
    }
    if want("ablation") {
        println!(
            "{}",
            xfm_bench::render_ablations(
                &xfm_sim::ablation::prefetch_accuracy_sweep(Nanos::from_ms(100)),
                &xfm_sim::ablation::random_budget_sweep(Nanos::from_ms(100)),
                &xfm_sim::ablation::offload_granularity_sweep(256 * 1024).expect("granularity"),
                &xfm_sim::ablation::refresh_mode_compare(),
                &xfm_sim::ablation::predictor_study(5000, 17),
            )
        );
    }
    if want("latency") {
        // Drive one offload through a real NMA device and report the
        // measured end-to-end latency (Fig. 10's 2 x tREFI minimum).
        use xfm_core::nma::{NearMemoryAccelerator, NmaConfig, NmaEvent};
        let mut nma = NearMemoryAccelerator::new(NmaConfig::default());
        let page = vec![0x5au8; 4096];
        let share = xfm_bench::replay::compress_share(
            &page,
            &mut xfm_compress::Scratch::new(),
            &mut Vec::new(),
        );
        let (page, row) = (xfm_types::PageNumber::new(1), xfm_types::RowId::new(1));
        nma.submit(
            xfm_core::OffloadKind::Compress,
            page,
            share,
            row,
            Nanos::ZERO,
            true,
        )
        .expect("submit");
        let events = nma.advance_to(Nanos::from_ms(64));
        if let Some(NmaEvent::Completed {
            submitted_at,
            completed_at,
            ..
        }) = events.first()
        {
            let trefi = NmaConfig::default().timings.t_refi;
            println!(
                "Figure 10 latency check: offload completed in {} \
                 (minimum 2 x tREFI = {})\n",
                *completed_at - *submitted_at,
                trefi * 2
            );
        }
    }
}
