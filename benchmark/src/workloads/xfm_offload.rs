//! `xfm-offload`: the paper's own path. One client drives an
//! `XfmBackend` built from `PlaneBuilder` defaults on its virtual
//! clock: NMA offload, SPM, refresh-window scheduler, CPU fallback.
//!
//! The world starts with every page far. One epoch is one round: every
//! page swapped in (even pages as prefetches that may offload, odd
//! pages as demand faults), then demoted again through
//! `swap_out_batch_ctx` in batches of 64, the clock advanced by one
//! tREFI per page after each batch, and the refresh windows drained.
//! Host speed of the simulator is a wall-clock figure; everything
//! simulated must repeat bit for bit.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use xfm_compress::XDeflate;
use xfm_core::XfmBackend;
use xfm_sfm::{ExecutedOn, SwapPlane};
use xfm_types::{Nanos, OpContext, PageNumber, TenantId};

use super::{Config, World};
use crate::harness::{self, run_epochs, Budget, EpochPart, Meter, Pass, Plan, RootOp, Tracer};
use crate::pagegen::{self, PAGE};

/// Latency class of `swap_in_into_ctx`.
pub const FAULT: usize = 0;

/// Pages per `swap_out_batch_ctx` call.
const BATCH: usize = 64;
/// Refresh intervals (tREFI) of virtual time per page, in both
/// directions. A conditional access waits for its row's refresh, half a
/// retention period on average, and pages wait in the scratchpad
/// meanwhile: at one page per 64 tREFI the default 2 MiB scratchpad
/// never fills, so every eligible page takes the offload path and the
/// degrade ladder stays at rest (at 32 the first rejects appear, at 1
/// nineteen pages in twenty fall back to the CPU).
const PACE: u64 = 64;
/// Virtual time allowed for in-flight offloads to drain.
const DRAIN: Nanos = Nanos::from_ms(40);
const CTX: OpContext = OpContext::for_tenant(TenantId::new(1));

/// The backend and the generated pages.
pub struct XfmOffloadWorld {
    /// The backend (for the clock and its statistics).
    pub backend: Arc<XfmBackend>,
    /// The same backend as callers hold it.
    pub plane: Arc<dyn SwapPlane>,
    /// Swaps that reported `ExecutedOn::Nma`, and all swaps.
    pub nma_swaps: u64,
    /// All swaps issued (both directions).
    pub swaps: u64,
    pages: Vec<(PageNumber, Bytes)>,
    t_refi: Nanos,
    now: Nanos,
    buf: Vec<u8>,
    mem_ratio: f64,
}

impl XfmOffloadWorld {
    fn advance<T: Tracer>(&mut self, tracer: &T, by: Nanos) {
        self.now += by;
        tracer.root(RootOp::XfmAdvance, || self.backend.advance_to(self.now));
    }

    /// Demotes every page, paced; returns the failures.
    fn swap_out_all<T: Tracer>(&mut self, tracer: &T, mut meter: Option<&mut Meter>) -> u64 {
        let mut failed = 0;
        for at in (0..self.pages.len()).step_by(BATCH) {
            let batch = &self.pages[at..(at + BATCH).min(self.pages.len())];
            let t0 = Instant::now();
            let results = tracer.root(RootOp::SwapOutBatch, || {
                self.plane.swap_out_batch_ctx(&CTX, batch, 1)
            });
            match results {
                Ok(results) => {
                    for r in &results {
                        match r {
                            Ok(o) => self.nma_swaps += u64::from(o.executed_on == ExecutedOn::Nma),
                            Err(_) => failed += 1,
                        }
                    }
                }
                Err(_) => failed += batch.len() as u64,
            }
            self.swaps += batch.len() as u64;
            self.advance(tracer, self.t_refi * (PACE * batch.len() as u64));
            if let Some(meter) = meter.as_deref_mut() {
                meter.lap(t0);
            }
        }
        self.advance(tracer, DRAIN);
        failed
    }
}

impl<T: Tracer> World<T> for XfmOffloadWorld {
    const CLIENTS: usize = 1;
    const DETERMINISTIC: bool = true;

    fn setup(_: &str, cfg: &Config, tracer: &T) -> Self {
        let n = cfg.scaled(2048, 1024);
        let pages = (0..n)
            .map(|p| (PageNumber::new(p), Bytes::from(pagegen::page(cfg.seed, p))))
            .collect();
        let backend = Arc::new(
            XfmBackend::builder()
                .codec(tracer.codec(Arc::new(XDeflate::default())))
                .build()
                .expect("default backend configuration"),
        );
        let plane: Arc<dyn SwapPlane> = backend.clone();
        let mut world = Self {
            t_refi: backend.config().nma.timings.t_refi,
            plane: tracer.plane("xfm", plane),
            backend,
            nma_swaps: 0,
            swaps: 0,
            pages,
            now: Nanos::ZERO,
            buf: Vec::with_capacity(PAGE),
            mem_ratio: 0.0,
        };
        world.advance(tracer, Nanos::from_ms(1));
        let failed = world.swap_out_all(tracer, None);
        assert_eq!(failed, 0, "populate: {failed} pages refused");
        let held = world.backend.pool_stats().pool_bytes().as_bytes();
        world.mem_ratio = held as f64 / (n * PAGE as u64) as f64;
        world
    }

    fn mem_bytes_per_user_byte(&self) -> f64 {
        self.mem_ratio
    }

    fn measure(&mut self, tracer: &T, _: usize, budget: Budget) -> Pass {
        let plan = Plan {
            budget,
            epoch_s: 0.0,
            samples: [self.pages.len(), 0, 0, 0, 0],
        };
        run_epochs(plan, std::slice::from_mut(self), |_, w, meter| {
            let mut part = EpochPart::default();
            let began = Instant::now();
            for i in 0..w.pages.len() {
                let (page, expected) = &w.pages[i];
                let t0 = Instant::now();
                let r = tracer.root(RootOp::SwapIn, || {
                    w.plane
                        .swap_in_into_ctx(&CTX, *page, i % 2 == 0, &mut w.buf)
                });
                let ns = meter.lap(t0);
                meter.push(FAULT, ns);
                match r {
                    Ok(o) if w.buf == expected.as_ref() => {
                        w.nma_swaps += u64::from(o.executed_on == ExecutedOn::Nma);
                    }
                    _ => part.failed += 1,
                }
                if (i + 1) % BATCH == 0 {
                    w.advance(tracer, w.t_refi * (PACE * BATCH as u64));
                }
            }
            w.advance(tracer, DRAIN);
            w.swaps += w.pages.len() as u64;
            let in_s = began.elapsed().as_secs_f64();
            let t0 = Instant::now();
            part.failed += w.swap_out_all(tracer, Some(meter));
            let out_s = t0.elapsed().as_secs_f64();
            part.elapsed = began.elapsed();
            part.ops = 2 * w.pages.len() as u64;
            part.phase_pages_per_s[harness::SWAP_OUT] = w.pages.len() as f64 / out_s;
            part.phase_pages_per_s[harness::SWAP_IN] = w.pages.len() as f64 / in_s;
            part
        })
    }

    fn fingerprint(&self) -> Vec<u64> {
        let (s, n) = (self.backend.stats(), self.backend.nma_stats());
        vec![
            self.nma_swaps,
            self.swaps,
            s.swap_outs,
            s.swap_ins,
            s.nma_executions,
            s.cpu_executions,
            s.ddr_bytes.as_bytes(),
            s.stored_raw,
            n.submitted,
            n.completed,
            n.fallbacks,
            n.rejected,
            n.sched.conditional,
            n.sched.random,
            n.spm_high_water.as_bytes(),
            n.total_latency.as_ns(),
            self.backend.late_fallbacks(),
            self.backend.degrade_transitions(),
            self.backend.now().as_ns(),
            self.backend.pool_stats().stored_bytes.as_bytes(),
        ]
    }

    fn sweep(&mut self) -> (u64, u64) {
        let mut failed = 0;
        for (page, expected) in &self.pages {
            let r = self
                .plane
                .swap_in_into_ctx(&CTX, *page, false, &mut self.buf);
            failed += u64::from(r.is_err() || self.buf != expected.as_ref());
        }
        (self.pages.len() as u64, failed)
    }
}
