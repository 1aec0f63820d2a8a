//! `tier-prefetch`: one client faulting through a `PrefetchEngine`
//! over a three-tier `TieredPlane` (compressed local → modeled SSD →
//! replicated remote).
//!
//! One epoch is one cycle of four equal fault segments — scan,
//! stride-4, Zipf-over-objects, pointer chase. After each fault the
//! page is swapped out again and the engine pumped, as a background
//! prefetcher would between faults. Three segments are predictable
//! (a staged hit is a memcpy); `chase` is not, and is the bypass
//! inside the workload. A single client makes every count repeat.

use std::sync::Arc;
use std::time::Instant;

use xfm_compress::{CostModel, XDeflate};
use xfm_event::ClockMirror;
use xfm_sfm::{
    MediaModel, ModeledPlane, PrefetchConfig, PrefetchEngine, PumpReport, ReplicatedPlane,
    ShardedSfm, ShardedSfmConfig, SwapPlane, TierSpec, TieredPlane,
};
use xfm_types::{PageNumber, PlacementClass, PlaneId};

use super::{Config, World};
use crate::harness::{run_epochs, Budget, EpochPart, Pass, Plan, RootOp, Tracer};
use crate::keygen::{FaultCycles, Segment};
use crate::pagegen::{self, PAGE};

/// Latency class of every fault in a cycle.
pub const FAULT: usize = 0;
/// Latency class of the faults of segment `seg` (position in
/// [`Segment::ALL`]).
#[must_use]
pub const fn seg_class(seg: usize) -> usize {
    1 + seg
}

/// Faults per segment at full scale: long enough that the 400-500
/// faults the precision gate needs to reopen after `chase` (paid by
/// the segment that follows it, `scan`) do not swamp that segment.
const SEG_LEN: u64 = 2048;

/// The engine, its tiers, and the generated inputs.
pub struct TierPrefetchWorld<T: Tracer> {
    /// The engine under test.
    pub engine: PrefetchEngine<T::EngineInner>,
    /// The hierarchy under it (for `tier_stats`).
    pub tiered: Arc<TieredPlane>,
    /// Tier 1.
    pub ssd: Arc<ModeledPlane>,
    /// Tier 2.
    pub remote: Arc<ReplicatedPlane>,
    /// Sum of every pump's report.
    pub pumped: PumpReport,
    pages: Vec<Vec<u8>>,
    cycles: FaultCycles,
    cycle: Vec<u32>,
    buf: Vec<u8>,
    mem_ratio: f64,
}

impl<T: Tracer> World<T> for TierPrefetchWorld<T> {
    const CLIENTS: usize = 1;
    const DETERMINISTIC: bool = true;

    fn setup(_: &str, cfg: &Config, tracer: &T) -> Self {
        let n = cfg.scaled(8192, 1024);
        let seg_len = cfg.scaled(SEG_LEN, 256) as usize;
        let pages = pagegen::pages(cfg.seed, n);

        let clock = ClockMirror::new();
        let local: Arc<dyn SwapPlane> = Arc::new(ShardedSfm::with_codec(
            ShardedSfmConfig::default(),
            tracer.codec(Arc::new(XDeflate::default())),
            CostModel::paper_average(),
        ));
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
            clock,
        ));
        let tiered = Arc::new(
            TieredPlane::new(vec![
                TierSpec::new(
                    tracer.plane("tier0", local),
                    PlaneId::new(0),
                    PlacementClass::CompressedLocal,
                )
                .with_capacity_pages(n / 8),
                TierSpec::new(
                    tracer.plane("tier1", ssd.clone()),
                    PlaneId::new(1),
                    PlacementClass::Ssd,
                )
                .with_capacity_pages(n / 4),
                TierSpec::new(
                    tracer.plane("tier2", remote.clone()),
                    PlaneId::new(2),
                    PlacementClass::Remote,
                ),
            ])
            .expect("three distinct tiers"),
        );
        let engine = PrefetchEngine::new(
            tracer.engine_inner(tiered.clone()),
            PrefetchConfig {
                auto_pump: false,
                ..PrefetchConfig::default()
            },
        );
        for (p, page) in pages.iter().enumerate() {
            engine
                .swap_out(PageNumber::new(p as u64), page)
                .expect("populate");
        }
        let held = tiered.pool_stats().pool_bytes().as_bytes();
        Self {
            mem_ratio: held as f64 / (n * PAGE as u64) as f64,
            engine,
            tiered,
            ssd,
            remote,
            pumped: PumpReport::default(),
            pages,
            cycles: FaultCycles::new(cfg.seed, n, seg_len),
            cycle: Vec::with_capacity(4 * seg_len),
            buf: Vec::with_capacity(PAGE),
        }
    }

    fn mem_bytes_per_user_byte(&self) -> f64 {
        self.mem_ratio
    }

    fn measure(&mut self, tracer: &T, _: usize, budget: Budget) -> Pass {
        let cycle_len = self.cycle.capacity();
        let plan = Plan {
            budget,
            epoch_s: 0.0,
            samples: [cycle_len; 5],
        };
        run_epochs(plan, std::slice::from_mut(self), |_, w, meter| {
            w.cycle.clear();
            w.cycles.next_cycle(&mut w.cycle);
            let seg_len = w.cycle.len() / Segment::ALL.len();
            let mut part = EpochPart::default();
            let began = Instant::now();
            for (seg, faults) in w.cycle.chunks(seg_len).enumerate() {
                for &p in faults {
                    let (page, expected) = (PageNumber::new(u64::from(p)), &w.pages[p as usize]);
                    let t0 = Instant::now();
                    let r = tracer.root(RootOp::PrefetchFault, || {
                        w.engine.swap_in_into(page, false, &mut w.buf)
                    });
                    let ns = meter.lap(t0);
                    meter.push(FAULT, ns);
                    meter.push(seg_class(seg), ns);
                    part.failed += u64::from(r.is_err() || w.buf != *expected);
                    // Make the page cold again, then let the prefetcher
                    // catch up with the stream: both are part of the op.
                    let out = tracer.root(RootOp::PrefetchSwapOut, || {
                        w.engine.swap_out(page, expected)
                    });
                    part.failed += u64::from(out.is_err());
                    let report = tracer.root(RootOp::PrefetchPump, || w.engine.pump());
                    w.pumped.issued += report.issued;
                    w.pumped.throttled += report.throttled;
                    w.pumped.written_back += report.written_back;
                }
            }
            part.elapsed = began.elapsed();
            part.ops = w.cycle.len() as u64;
            part
        })
    }

    fn fingerprint(&self) -> Vec<u64> {
        let mut print = vec![
            self.pumped.issued as u64,
            self.pumped.throttled as u64,
            self.pumped.written_back as u64,
            self.engine.staged_pages() as u64,
            self.ssd.read_latency().quantile(0.5),
            self.ssd.write_latency().quantile(0.5),
            self.remote.replica(0).read_latency().quantile(0.5),
            self.remote.degraded_reads(),
            self.remote.repairs(),
            self.remote.dropped_writes(),
        ];
        for t in self.tiered.tier_stats() {
            print.extend([
                t.resident_pages,
                t.demoted_in,
                t.demoted_out,
                t.promoted,
                t.backend.swap_ins,
                t.backend.swap_outs,
                t.pool.stored_bytes.as_bytes(),
            ]);
        }
        print
    }

    fn sweep(&mut self) -> (u64, u64) {
        let mut failed = 0;
        for (p, expected) in self.pages.iter().enumerate() {
            let r = self
                .engine
                .swap_in_into(PageNumber::new(p as u64), false, &mut self.buf);
            failed += u64::from(r.is_err() || self.buf != *expected);
        }
        (self.pages.len() as u64, failed)
    }
}
