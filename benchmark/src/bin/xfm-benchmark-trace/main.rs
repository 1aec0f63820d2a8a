//! Per-layer run: each workload rerun with spans recorded, by this
//! binary's own decorators, at the stack's public trait seams.
//!
//! ```text
//! xfm-benchmark-trace --workload <name> [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! A run spends a quarter of `--seconds` on each of: an untraced
//! reference pass, a one-client pass (for the `scaling_2c` figures),
//! the traced pass, and — on `plane-swap` — a pass with a telemetry
//! registry attached. End-to-end metrics are never taken from here;
//! the traced and the reference pass differ by `trace.overhead_share`.
//! The last line is the result object with every per-layer metric; a
//! layer the workload bypasses reports 0.

mod decorators;
mod probes;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::Ordering;

use decorators::{
    name_table, plane_name, root_name, Recorder, WithTelemetry, CODEC_BYTES_IN, CODEC_BYTES_OUT,
    COMPRESS, DECOMPRESS, DECOMPRESS_BATCH, IN, OUT, OUT_BATCH, PLANE_BASE,
};
use spans::{self_times, SelfTimes, Span};
use xfm_benchmark::cli::{config, flag, require_release, OUT_DIR};
use xfm_benchmark::harness::{Budget, Pass, RootOp, Untraced, SWAP_IN, SWAP_OUT};
use xfm_benchmark::host::Host;
use xfm_benchmark::keygen::Segment;
use xfm_benchmark::report::Run;
use xfm_benchmark::spec::PER_LAYER;
use xfm_benchmark::stats::median;
use xfm_benchmark::workloads::kv::KvWorld;
use xfm_benchmark::workloads::plane_swap::PlaneSwapWorld;
use xfm_benchmark::workloads::tier_prefetch::{seg_class, TierPrefetchWorld};
use xfm_benchmark::workloads::xfm_offload::XfmOffloadWorld;
use xfm_benchmark::workloads::{Config, World, NAMES};
use xfm_sfm::BackendStats;

/// Spans per recording thread written to the trace file.
const FILE_SPANS_PER_THREAD: usize = 20_000;
/// Traced epochs of the single-client workloads: fixed work, so every
/// count they report repeats exactly.
const TRACED_CYCLES: usize = 4;

/// Per-layer values by metric name; anything never set reports 0.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Host seconds the XFM model itself took (plane self time plus
    /// clock advances), for the share table.
    xfm_model_s: f64,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not declared in spec::PER_LAYER"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Spans of the traced pass with their self times.
struct Trace {
    threads: Vec<(u16, Vec<Span>)>,
    st: SelfTimes,
    /// Per span: bit `n` set when its operation contains a span named `n`.
    op_names: Vec<Vec<u64>>,
    dropped: u64,
}

/// Durations and self times of a selection of spans.
#[derive(Default)]
struct Sel {
    durs: Vec<u64>,
    selfs: Vec<u64>,
}

impl Sel {
    fn count(&self) -> f64 {
        self.durs.len() as f64
    }

    fn busy_s(&self) -> f64 {
        self.durs.iter().sum::<u64>() as f64 / 1e9
    }

    fn self_s(&self) -> f64 {
        self.selfs.iter().sum::<u64>() as f64 / 1e9
    }

    fn quantile(values: &[u64], q: f64) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let mut v = values.to_vec();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
        *v.select_nth_unstable(rank).1 as f64
    }

    fn p50_ns(&self) -> f64 {
        Self::quantile(&self.durs, 0.5)
    }

    fn p99_ns(&self) -> f64 {
        Self::quantile(&self.durs, 0.99)
    }

    fn self_p50_ns(&self) -> f64 {
        Self::quantile(&self.selfs, 0.5)
    }
}

impl Trace {
    fn take() -> Self {
        let (threads, dropped) = spans::take();
        let st = self_times(&threads);
        let mut op_names: Vec<Vec<u64>> = threads.iter().map(|(_, s)| vec![0; s.len()]).collect();
        let locate = spans::locator(&threads);
        for (_, spans) in &threads {
            for s in spans {
                if let Some((t, i)) = locate(s.op) {
                    op_names[t][i] |= 1u64 << s.name;
                }
            }
        }
        // Spread each root's mask to the spans of its operation.
        for t in 0..threads.len() {
            for i in 0..threads[t].1.len() {
                let op = threads[t].1[i].op;
                if let Some((rt, ri)) = locate(op) {
                    op_names[t][i] = op_names[rt][ri];
                }
            }
        }
        Self {
            threads,
            st,
            op_names,
            dropped,
        }
    }

    fn total(&self) -> usize {
        self.threads.iter().map(|(_, s)| s.len()).sum()
    }

    /// Spans whose name is in `names` and whose operation satisfies
    /// `op_has` (a predicate on the names present in the operation).
    fn select(&self, names: &[u8], op_has: impl Fn(u64) -> bool) -> Sel {
        let mut sel = Sel::default();
        for (t, (_, spans)) in self.threads.iter().enumerate() {
            for (i, s) in spans.iter().enumerate() {
                if names.contains(&s.name) && op_has(self.op_names[t][i]) {
                    sel.durs.push(s.dur());
                    sel.selfs.push(self.st.self_ns[t][i]);
                }
            }
        }
        sel
    }

    fn named(&self, names: &[u8]) -> Sel {
        self.select(names, |_| true)
    }

    fn write_file(&self, workload: &str, cfg: &Config) -> std::io::Result<String> {
        let path = format!("{OUT_DIR}/trace-{workload}.json");
        std::fs::create_dir_all(OUT_DIR)?;
        let mut s = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {}, \"total_spans\": {}, \"dropped_ops\": {},\n \"names\": {:?},\n \"spans\": [\n",
            cfg.seed,
            self.total(),
            self.dropped,
            name_table()
        );
        let mut first = true;
        for (slot, spans) in &self.threads {
            for (i, sp) in spans.iter().take(FILE_SPANS_PER_THREAD).enumerate() {
                let sep = if first { "" } else { ",\n" };
                first = false;
                let _ = write!(
                    s,
                    "{sep}  {{\"id\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                    (u64::from(*slot) << 32) | i as u64,
                    sp.name,
                    sp.start,
                    sp.end,
                    sp.parent,
                    sp.op
                );
            }
        }
        s.push_str("\n ]}\n");
        std::fs::write(&path, s)?;
        Ok(path)
    }
}

fn has(name: u8) -> impl Fn(u64) -> bool {
    move |mask| mask & (1 << name) != 0
}

fn lacks(name: u8) -> impl Fn(u64) -> bool {
    move |mask| mask & (1 << name) == 0
}

/// The passes every workload's traced run is made of.
struct Passes<W> {
    /// Untraced, full client count: the reference.
    reference: Pass,
    /// Untraced, one client (multi-client workloads only).
    one_client: Option<Pass>,
    /// Traced.
    traced: Pass,
    trace: Trace,
    /// The traced world, quiescent, for public statistics.
    world: W,
    attempted: u64,
    failed: u64,
}

/// Runs the reference and one-client passes on an untraced world `A`,
/// then the traced pass on world `B` (the same workload built through
/// the recorder's seams); `snapshot` reads `B`'s public statistics
/// right before its traced pass.
fn passes<A, B, V>(workload: &str, cfg: &Config, snapshot: impl Fn(&B) -> V) -> (Passes<B>, V)
where
    A: World<Untraced>,
    B: World<Recorder>,
{
    let quarter = Budget::Seconds(cfg.seconds / 4.0);

    let mut plain = A::setup(workload, cfg, &Untraced);
    plain.measure(&Untraced, A::CLIENTS, Budget::Epochs(1));
    let reference = plain.measure(&Untraced, A::CLIENTS, quarter);
    let one_client = (A::CLIENTS > 1).then(|| plain.measure(&Untraced, 1, quarter));
    let (swept_a, lost_a) = plain.sweep();
    drop(plain);

    let mut world = B::setup(workload, cfg, &Recorder);
    world.measure(&Recorder, B::CLIENTS, Budget::Epochs(1));
    let before = snapshot(&world);
    CODEC_BYTES_IN.store(0, Ordering::Relaxed);
    CODEC_BYTES_OUT.store(0, Ordering::Relaxed);
    spans::set_recording(true);
    let budget = if B::DETERMINISTIC {
        Budget::Epochs(TRACED_CYCLES)
    } else {
        quarter
    };
    let traced = world.measure(&Recorder, B::CLIENTS, budget);
    spans::set_recording(false);
    let trace = Trace::take();
    match trace.write_file(workload, cfg) {
        Ok(path) => println!(
            "wrote {path} ({} spans, {} operations dropped, {} roots partition exactly)",
            trace.total(),
            trace.dropped,
            trace.st.partitioned_roots
        ),
        Err(e) => eprintln!("trace file not written: {e}"),
    }
    assert_eq!(
        trace.st.partition_violations, 0,
        "self times do not partition their root spans"
    );

    let failed =
        reference.failed + one_client.as_ref().map_or(0, |p| p.failed) + traced.failed + lost_a;
    let attempted = reference.ops + one_client.as_ref().map_or(0, |p| p.ops) + traced.ops + swept_a;
    (
        Passes {
            reference,
            one_client,
            traced,
            trace,
            world,
            attempted,
            failed,
        },
        before,
    )
}

/// Metrics every workload reports: the generator's own share, the
/// tracing overhead, the codec layer, and the isolated probes.
fn common<W>(l: &mut Layers, p: &Passes<W>, cfg: &Config) {
    let t = &p.trace;
    let roots: Vec<u8> = (0..PLANE_BASE).collect();
    l.set(
        "loadgen.self_share",
        1.0 - t.named(&roots).busy_s() / p.traced.client_s.max(1e-9),
    );
    l.set(
        "trace.overhead_share",
        1.0 - p.traced.ops_per_s() / p.reference.ops_per_s().max(1e-9),
    );
    l.set("trace.spans.count", t.total() as f64);

    let (c, d) = (
        t.named(&[COMPRESS]),
        t.named(&[DECOMPRESS, DECOMPRESS_BATCH]),
    );
    l.set("codec.compress.count", c.count());
    l.set("codec.compress.p50_us", c.p50_ns() / 1e3);
    l.set("codec.compress.p99_us", c.p99_ns() / 1e3);
    l.set("codec.compress.busy_s", c.busy_s());
    l.set("codec.decompress.count", d.count());
    l.set("codec.decompress.p50_us", d.p50_ns() / 1e3);
    l.set("codec.decompress.p99_us", d.p99_ns() / 1e3);
    l.set("codec.decompress.busy_s", d.busy_s());
    let bytes_in = CODEC_BYTES_IN.load(Ordering::Relaxed) as f64;
    let bytes_out = CODEC_BYTES_OUT.load(Ordering::Relaxed) as f64;
    l.set("codec.bytes_in", bytes_in);
    l.set("codec.bytes_out", bytes_out);
    l.set("codec.ratio", bytes_in / bytes_out);

    let probe = probes::run(cfg.seed);
    l.set("zpool.alloc_probe_ns", probe.alloc_ns);
    l.set("zpool.get_probe_ns", probe.get_ns);
    l.set("zpool.free_probe_ns", probe.free_ns);
    l.set("zpool.compact_s", probe.compact_s);
    l.set("zpool.compact_moved_bytes", probe.compact_moved_bytes);
    l.set("checksum.probe_ns_per_block", probe.checksum_ns);
    l.set("checksum.gb_per_s", probe.checksum_gb_per_s);
}

/// The `sharded` and `zpool` statistics of a `ShardedSfm` reached
/// through `seam`, over the traced pass.
fn sharded(
    l: &mut Layers,
    t: &Trace,
    seam: &str,
    sfm: &xfm_sfm::ShardedSfm,
    before: &BackendStats,
) {
    let (ins, outs) = (
        t.named(&[plane_name(seam, IN)]),
        t.named(&[plane_name(seam, OUT)]),
    );
    let batches = t.named(&[plane_name(seam, OUT_BATCH)]);
    let now = sfm.stats();
    let swap_outs = (now.swap_outs - before.swap_outs) as f64;
    l.set(
        "sharded.swap_in.count",
        (now.swap_ins - before.swap_ins) as f64,
    );
    l.set("sharded.swap_in.p50_us", ins.p50_ns() / 1e3);
    l.set("sharded.swap_in.self_p50_us", ins.self_p50_ns() / 1e3);
    l.set("sharded.swap_out.count", swap_outs);
    l.set("sharded.swap_out.p50_us", outs.p50_ns() / 1e3);
    l.set("sharded.swap_out.self_p50_us", outs.self_p50_ns() / 1e3);
    l.set(
        "sharded.busy_s",
        ins.self_s() + outs.self_s() + batches.self_s(),
    );
    l.set(
        "sharded.stored_raw_share",
        (now.stored_raw - before.stored_raw) as f64 / swap_outs,
    );
    l.set(
        "sharded.rejected_full.count",
        (now.rejected_full - before.rejected_full) as f64,
    );
    let entries = sfm.shard_entries();
    let mean = entries.iter().sum::<u64>() as f64 / entries.len() as f64;
    l.set(
        "sharded.shard_imbalance",
        entries.iter().copied().max().unwrap_or(0) as f64 / mean,
    );
    let pool = sfm.pool_stats();
    l.set("zpool.stored_bytes", pool.stored_bytes.as_bytes() as f64);
    l.set(
        "zpool.slot_overhead_bytes",
        pool.slot_overhead.as_bytes() as f64,
    );
    l.set("zpool.host_pages", pool.host_pages as f64);
    l.set("zpool.utilization", pool.utilization());
}

fn scaling(p: &Pass, one: &Option<Pass>) -> f64 {
    one.as_ref()
        .map_or(0.0, |one| p.ops_per_s() / one.ops_per_s().max(1e-9))
}

fn kv(workload: &str, cfg: &Config) -> (Layers, u64, u64) {
    let (mut p, before) =
        passes::<KvWorld, KvWorld, _>(workload, cfg, |w| (w.svc.snapshots(), w.sfm.stats()));
    let mut l = Layers::default();
    common(&mut l, &p, cfg);
    let t = &p.trace;
    let (get, put) = (root_name(RootOp::KvGet), root_name(RootOp::KvPut));
    let (serve_in, serve_out) = (plane_name("serve", IN), plane_name("serve", OUT));

    let delta = |f: fn(&xfm_serve::TenantSnapshot) -> u64| {
        let sum = |s: &[xfm_serve::TenantSnapshot]| s.iter().map(f).sum::<u64>();
        (sum(&p.world.svc.snapshots()) - sum(&before.0)) as f64
    };
    let (hits, faults) = (delta(|s| s.hits), delta(|s| s.faults));
    l.set("serve.get_hit.count", hits);
    l.set("serve.get_fault.count", faults);
    l.set("serve.put.count", delta(|s| s.puts));
    l.set("serve.demotions.count", delta(|s| s.demotions));
    l.set("serve.sheds.count", delta(|s| s.sheds));
    l.set("serve.overflows.count", delta(|s| s.overflows));
    l.set("serve.hit_ratio", hits / delta(|s| s.gets));
    l.set("serve.demotions_per_fault", delta(|s| s.demotions) / faults);

    let hit_gets = t.select(&[get], lacks(serve_in));
    let fault_gets = t.select(&[get], has(serve_in));
    let puts = t.named(&[put]);
    l.set("serve.get_hit.p50_ns", hit_gets.p50_ns());
    l.set(
        "serve.get_fault.self_p50_us",
        fault_gets.self_p50_ns() / 1e3,
    );
    l.set("serve.put.self_p50_us", puts.self_p50_ns() / 1e3);
    l.set(
        "serve.busy_s",
        hit_gets.self_s() + fault_gets.self_s() + puts.self_s(),
    );
    l.set("serve.scaling_2c", scaling(&p.reference, &p.one_client));
    sharded(&mut l, t, "serve", &p.world.sfm, &before.1);

    if faults > 0.0 {
        // The fault budget: a faulting get is the serve layer's own
        // time, one sharded swap-in with its decompress, and (when the
        // hot cache is full) one demotion with its compress.
        let in_get = |name| t.select(&[name], |m| m & (1 << get) != 0 && m & (1 << serve_in) != 0);
        let parts = [
            ("serve self", fault_gets.self_p50_ns()),
            ("sharded.swap_in self", in_get(serve_in).self_p50_ns()),
            ("codec.decompress", in_get(DECOMPRESS).p50_ns()),
            ("sharded.swap_out self", in_get(serve_out).self_p50_ns()),
            ("codec.compress", in_get(COMPRESS).p50_ns()),
        ];
        let budget: f64 = parts.iter().map(|(_, ns)| ns).sum();
        let traced = fault_gets.p50_ns();
        println!("fault budget on {workload} (medians, us):");
        for (part, ns) in parts {
            println!("  {part:<24} {:>9.2}", ns / 1e3);
        }
        println!(
            "  {:<24} {:>9.2}  vs traced faulting-get p50 {:.2} (sum/p50 = {:.3})",
            "sum",
            budget / 1e3,
            traced / 1e3,
            budget / traced
        );
    }
    let (swept, lost) = World::<Recorder>::sweep(&mut p.world);
    (l, p.attempted + swept, p.failed + lost)
}

fn plane(workload: &str, cfg: &Config) -> (Layers, u64, u64) {
    let (mut p, before) =
        passes::<PlaneSwapWorld, PlaneSwapWorld, _>(workload, cfg, |w| w.sfm.stats());
    let mut l = Layers::default();
    common(&mut l, &p, cfg);
    sharded(&mut l, &p.trace, "plane", &p.world.sfm, &before);
    let med = |slot: usize| median(&p.reference.phase_pages_per_s[slot]).unwrap_or(0.0);
    l.set("sharded.swap_out_batch.pages_per_s", med(SWAP_OUT));
    l.set("sharded.swap_in_batch.pages_per_s", med(SWAP_IN));
    l.set("sharded.scaling_2c", scaling(&p.reference, &p.one_client));

    // One more untraced pass, with a telemetry registry attached.
    let with = WithTelemetry(xfm_telemetry::Registry::new());
    let mut attached = <PlaneSwapWorld as World<WithTelemetry>>::setup(workload, cfg, &with);
    let clients = <PlaneSwapWorld as World<WithTelemetry>>::CLIENTS;
    attached.measure(&with, clients, Budget::Epochs(1));
    let pass = attached.measure(&with, clients, Budget::Seconds(cfg.seconds / 4.0));
    l.set(
        "telemetry.attach_overhead_share",
        1.0 - pass.ops_per_s() / p.reference.ops_per_s().max(1e-9),
    );
    let (swept_t, lost_t) = World::<WithTelemetry>::sweep(&mut attached);
    let (swept, lost) = World::<Recorder>::sweep(&mut p.world);
    (
        l,
        p.attempted + pass.ops + swept + swept_t,
        p.failed + pass.failed + lost + lost_t,
    )
}

fn tier(workload: &str, cfg: &Config) -> (Layers, u64, u64) {
    let (mut p, before) =
        passes::<TierPrefetchWorld<Untraced>, TierPrefetchWorld<Recorder>, _>(workload, cfg, |w| {
            (w.tiered.tier_stats(), w.pumped)
        });
    let mut l = Layers::default();
    common(&mut l, &p, cfg);
    let (t, w) = (&p.trace, &p.world);
    let engine_in = plane_name("engine", IN);
    let fault = root_name(RootOp::PrefetchFault);

    let now = w.tiered.tier_stats();
    let delta = |k: usize, f: fn(&xfm_sfm::TierStats) -> u64| (f(&now[k]) - f(&before.0[k])) as f64;
    l.set(
        "tier.demotions.count",
        (0..now.len()).map(|k| delta(k, |s| s.demoted_in)).sum(),
    );
    l.set(
        "tier.promotions.count",
        (0..now.len()).map(|k| delta(k, |s| s.promoted)).sum(),
    );
    for (k, (faults, p50)) in [
        ("tier.t0.faults", "tier.t0.swap_in.p50_us"),
        ("tier.t1.faults", "tier.t1.swap_in.p50_us"),
        ("tier.t2.faults", "tier.t2.swap_in.p50_us"),
    ]
    .into_iter()
    .enumerate()
    {
        l.set(faults, delta(k, |s| s.promoted));
        let seam = ["tier0", "tier1", "tier2"][k];
        l.set(p50, t.named(&[plane_name(seam, IN)]).p50_ns() / 1e3);
    }
    let engine_seam: Vec<u8> = (0..4).map(|op| plane_name("engine", op)).collect();
    l.set(
        "tier.self_p50_us",
        t.named(&[engine_in]).self_p50_ns() / 1e3,
    );
    l.set("tier.busy_s", t.named(&engine_seam).self_s());

    l.set(
        "modeled.ssd.read_virtual_p50_ns",
        w.ssd.read_latency().quantile(0.5) as f64,
    );
    l.set(
        "modeled.ssd.write_virtual_p50_ns",
        w.ssd.write_latency().quantile(0.5) as f64,
    );
    l.set(
        "modeled.remote.read_virtual_p50_ns",
        w.remote.replica(0).read_latency().quantile(0.5) as f64,
    );
    l.set(
        "modeled.replicated.degraded_reads",
        w.remote.degraded_reads() as f64,
    );
    l.set("modeled.replicated.repairs", w.remote.repairs() as f64);
    l.set(
        "modeled.replicated.dropped_writes",
        w.remote.dropped_writes() as f64,
    );

    let hits = t.select(&[fault], lacks(engine_in));
    let misses = t.select(&[fault], has(engine_in));
    l.set(
        "prefetch.hit_ratio",
        hits.count() / (hits.count() + misses.count()),
    );
    l.set("prefetch.precision", w.engine.precision());
    l.set(
        "prefetch.issued.count",
        (w.pumped.issued - before.1.issued) as f64,
    );
    l.set(
        "prefetch.throttled.count",
        (w.pumped.throttled - before.1.throttled) as f64,
    );
    l.set(
        "prefetch.writebacks.count",
        (w.pumped.written_back - before.1.written_back) as f64,
    );
    l.set("prefetch.hit.p50_ns", hits.p50_ns());
    l.set("prefetch.miss.p50_us", misses.p50_ns() / 1e3);
    l.set(
        "prefetch.pump.busy_s",
        t.named(&[root_name(RootOp::PrefetchPump)]).busy_s(),
    );
    for (seg, name) in [
        "prefetch.seg.scan.fault_p50_us",
        "prefetch.seg.stride.fault_p50_us",
        "prefetch.seg.zipf.fault_p50_us",
        "prefetch.seg.chase.fault_p50_us",
    ]
    .into_iter()
    .enumerate()
    {
        debug_assert!(name.contains(Segment::ALL[seg].name()));
        l.set(
            name,
            p.traced.lat[seg_class(seg)].p50_ns().unwrap_or(0.0) / 1e3,
        );
    }

    // Hit ratio per segment: faults are recorded in stream order, so
    // the k-th fault root of the client thread is fault k of the pass.
    let per_cycle = (p.traced.ops as usize / p.traced.epochs.max(1)).max(4);
    let mut seg_hits = [(0u64, 0u64); 4];
    for (ti, (_, spans)) in t.threads.iter().enumerate() {
        let mut k = 0usize;
        for (i, s) in spans.iter().enumerate() {
            if s.name == fault {
                let seg = (k % per_cycle) / (per_cycle / 4);
                seg_hits[seg.min(3)].1 += 1;
                seg_hits[seg.min(3)].0 += u64::from(t.op_names[ti][i] & (1 << engine_in) == 0);
                k += 1;
            }
        }
    }
    println!("prefetch hit ratio by segment:");
    for (seg, (hit, all)) in Segment::ALL.iter().zip(seg_hits) {
        println!(
            "  {:<8} {:.4} ({hit} of {all})",
            seg.name(),
            hit as f64 / all.max(1) as f64
        );
    }
    let (swept, lost) = World::<Recorder>::sweep(&mut p.world);
    (l, p.attempted + swept, p.failed + lost)
}

fn xfm(workload: &str, cfg: &Config) -> (Layers, u64, u64) {
    let (mut p, before) = passes::<XfmOffloadWorld, XfmOffloadWorld, _>(workload, cfg, |w| {
        (
            w.backend.stats(),
            w.backend.nma_stats(),
            w.backend.now(),
            (w.swaps, w.nma_swaps),
            w.backend.late_fallbacks(),
        )
    });
    let mut l = Layers::default();
    common(&mut l, &p, cfg);
    let (t, w) = (&p.trace, &p.world);
    let (stats, nma) = (w.backend.stats(), w.backend.nma_stats());
    let swaps = (w.swaps - before.3 .0) as f64;

    l.set(
        "xfm.nma.submitted",
        (nma.submitted - before.1.submitted) as f64,
    );
    l.set(
        "xfm.nma.completed",
        (nma.completed - before.1.completed) as f64,
    );
    l.set(
        "xfm.nma.fallbacks",
        (nma.fallbacks - before.1.fallbacks) as f64,
    );
    l.set(
        "xfm.nma.rejected",
        (nma.rejected - before.1.rejected) as f64,
    );
    l.set("xfm.cpu_fallback_share", w.backend.cpu_fallback_fraction());
    l.set(
        "xfm.late_fallbacks",
        (w.backend.late_fallbacks() - before.4) as f64,
    );
    l.set(
        "xfm.spm_high_water_bytes",
        nma.spm_high_water.as_bytes() as f64,
    );
    l.set(
        "xfm.sched.conditional",
        (nma.sched.conditional - before.1.sched.conditional) as f64,
    );
    l.set(
        "xfm.sched.random",
        (nma.sched.random - before.1.sched.random) as f64,
    );
    l.set(
        "xfm.nma.mean_latency_virtual_ns",
        nma.mean_latency().as_ns() as f64,
    );
    l.set(
        "xfm.sim_ns_per_page",
        (w.backend.now().as_ns() - before.2.as_ns()) as f64 / swaps,
    );
    l.set(
        "xfm.degrade_transitions",
        w.backend.degrade_transitions() as f64,
    );
    l.set(
        "xfm.sim_offload_share",
        (w.nma_swaps - before.3 .1) as f64 / swaps,
    );
    l.set(
        "xfm.sim_ddr_bytes_per_page",
        (stats.ddr_bytes.as_bytes() - before.0.ddr_bytes.as_bytes()) as f64 / swaps,
    );

    let ins = t.named(&[plane_name("xfm", IN)]);
    let out_batches = t.named(&[plane_name("xfm", OUT_BATCH)]);
    let advances = t.named(&[root_name(RootOp::XfmAdvance)]);
    l.set("xfm.swap_in.host_p50_us", ins.p50_ns() / 1e3);
    // Batches are 64 pages: host time per page of the median batch.
    l.set(
        "xfm.swap_out.host_p50_us",
        out_batches.p50_ns() / 64.0 / 1e3,
    );
    l.xfm_model_s = ins.self_s() + out_batches.self_s() + advances.busy_s();
    l.set(
        "xfm.model_self_host_us_per_page",
        l.xfm_model_s * 1e6 / swaps,
    );
    let med = |slot: usize| median(&p.reference.phase_pages_per_s[slot]).unwrap_or(0.0);
    l.set("xfm.swap_out.pages_per_s", med(SWAP_OUT));
    l.set("xfm.swap_in.pages_per_s", med(SWAP_IN));
    let pool = w.backend.pool_stats();
    l.set("zpool.stored_bytes", pool.stored_bytes.as_bytes() as f64);
    l.set(
        "zpool.slot_overhead_bytes",
        pool.slot_overhead.as_bytes() as f64,
    );
    l.set("zpool.host_pages", pool.host_pages as f64);
    l.set("zpool.utilization", pool.utilization());

    let (swept, lost) = World::<Recorder>::sweep(&mut p.world);
    (l, p.attempted + swept, p.failed + lost)
}

fn run(args: &[String]) -> Result<bool, String> {
    require_release()?;
    let cfg = config(args)?;
    let workload =
        flag(args, "--workload").ok_or("usage: --workload <name> [--seed N] [--seconds S]")?;
    println!("host {}", Host::probe().json());
    println!(
        "workload {workload} seed {} seconds {} smoke {} (traced)",
        cfg.seed, cfg.seconds, cfg.smoke
    );
    let (layers, attempted, failed) = match workload {
        "kv-hot" | "kv-churn" => kv(workload, &cfg),
        "plane-swap" => plane(workload, &cfg),
        "tier-prefetch" => tier(workload, &cfg),
        "xfm-offload" => xfm(workload, &cfg),
        _ => return Err(format!("unknown workload {workload}; one of {NAMES:?}")),
    };
    // Where the client time went: the workload-separation figures.
    let client_s = layers.get("serve.busy_s")
        + layers.get("sharded.busy_s")
        + layers.get("codec.compress.busy_s")
        + layers.get("codec.decompress.busy_s")
        + layers.get("tier.busy_s")
        + layers.xfm_model_s;
    println!("share of traced in-stack time:");
    for (layer, s) in [
        ("serve", layers.get("serve.busy_s")),
        ("sharded", layers.get("sharded.busy_s")),
        ("tier", layers.get("tier.busy_s")),
        ("xfm", layers.xfm_model_s),
        (
            "codec",
            layers.get("codec.compress.busy_s") + layers.get("codec.decompress.busy_s"),
        ),
    ] {
        println!("  {layer:<8} {:>7.4}", s / client_s.max(1e-12));
    }
    let values: Vec<f64> = PER_LAYER.iter().map(|m| layers.get(m.name)).collect();
    let run = Run::new(workload, cfg.seed, attempted, failed, &PER_LAYER, &values);
    for (name, value, unit) in run.metrics.iter().filter(|m| m.1 != 0.0) {
        println!("  {name:<38} {value:>18.4} {unit}");
    }
    println!("{}", run.result_line());
    Ok(run.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("xfm-benchmark-trace: {message}");
            ExitCode::from(2)
        }
    }
}
