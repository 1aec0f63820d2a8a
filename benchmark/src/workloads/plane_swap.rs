//! `plane-swap`: a bare 8-shard `ShardedSfm` with no serve layer.
//!
//! The world starts with every page far. One epoch is one round: all
//! pages faulted back in shuffled order through `swap_in_into_ctx`,
//! split over the clients, then one `swap_out_batch_ctx` of all pages
//! with as many codec workers as clients. The two directions are
//! timed apart, so a change that helps one at the other's cost shows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use bytes::Bytes;
use xfm_compress::{CostModel, XDeflate};
use xfm_sfm::{ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm_types::{OpContext, PageNumber, TenantId};

use super::{Config, World};
use crate::harness::{self, run_epochs, Budget, EpochPart, Meter, Pass, Plan, RootOp, Tracer};
use crate::pagegen::{self, PAGE};
use crate::rng::Rng;

/// Latency class of `swap_in_into_ctx`.
pub const FAULT: usize = 0;

const CTX: OpContext = OpContext::for_tenant(TenantId::new(1));

/// Pages per `swap_out_batch_ctx` call: a round's swap-out is a few
/// batches, with a host-speed slice between them.
const BATCH: usize = 512;

/// The plane and the generated pages.
pub struct PlaneSwapWorld {
    /// The plane, as callers hold it.
    pub plane: Arc<dyn SwapPlane>,
    /// The same plane, for shard and pool statistics.
    pub sfm: Arc<ShardedSfm>,
    batch: Vec<(PageNumber, Bytes)>,
    /// Page indices in the (fixed, seeded) order they are faulted.
    order: Vec<u32>,
    bufs: Vec<Vec<u8>>,
    mem_ratio: f64,
}

impl PlaneSwapWorld {
    /// Swaps every page out, [`BATCH`] pages per call on `threads`
    /// codec workers; returns the failures.
    fn swap_out_all<T: Tracer>(
        &self,
        tracer: &T,
        threads: usize,
        meter: Option<&mut Meter>,
    ) -> u64 {
        let mut meter = meter;
        let mut failed = 0;
        for batch in self.batch.chunks(BATCH) {
            let t0 = Instant::now();
            let results = tracer.root(RootOp::SwapOutBatch, || {
                self.plane.swap_out_batch_ctx(&CTX, batch, threads)
            });
            failed += match results {
                Ok(results) => results.iter().filter(|r| r.is_err()).count(),
                Err(_) => batch.len(),
            } as u64;
            if let Some(meter) = meter.as_deref_mut() {
                meter.lap(t0);
            }
        }
        failed
    }
}

impl<T: Tracer> World<T> for PlaneSwapWorld {
    const CLIENTS: usize = crate::host::CLIENTS;

    fn setup(_: &str, cfg: &Config, tracer: &T) -> Self {
        let pages = cfg.scaled(4096, 1024);
        let batch: Vec<(PageNumber, Bytes)> = (0..pages)
            .map(|p| (PageNumber::new(p), Bytes::from(pagegen::page(cfg.seed, p))))
            .collect();
        let mut order: Vec<u32> = (0..pages as u32).collect();
        Rng::new(cfg.seed, 0x4100).shuffle(&mut order);
        let mut sfm = ShardedSfm::with_codec(
            ShardedSfmConfig {
                shards: 8,
                ..ShardedSfmConfig::default()
            },
            tracer.codec(Arc::new(XDeflate::default())),
            CostModel::paper_average(),
        );
        if let Some(registry) = tracer.registry() {
            sfm.attach_telemetry(registry);
        }
        let sfm = Arc::new(sfm);
        let plane: Arc<dyn SwapPlane> = sfm.clone();
        let mut world = Self {
            plane: tracer.plane("plane", plane),
            sfm,
            batch,
            order,
            bufs: (0..crate::host::CLIENTS)
                .map(|_| Vec::with_capacity(PAGE))
                .collect(),
            mem_ratio: 0.0,
        };
        let failed = world.swap_out_all(tracer, crate::host::CLIENTS, None);
        assert_eq!(failed, 0, "populate: {failed} pages refused");
        let held = world.sfm.pool_stats().pool_bytes().as_bytes();
        world.mem_ratio = held as f64 / (pages * PAGE as u64) as f64;
        world
    }

    fn mem_bytes_per_user_byte(&self) -> f64 {
        self.mem_ratio
    }

    fn measure(&mut self, tracer: &T, clients: usize, budget: Budget) -> Pass {
        let mut bufs = std::mem::take(&mut self.bufs);
        let world = &*self;
        let rendezvous = Barrier::new(clients);
        let slowest_in_ns = AtomicU64::new(0);
        let plan = Plan {
            budget,
            epoch_s: 0.0,
            samples: [world.batch.len(), 0, 0, 0, 0],
        };
        let pass = run_epochs(plan, &mut bufs[..clients], |client, buf, meter| {
            let began = Instant::now();
            let mut part = EpochPart::default();
            let share = world.order.len().div_ceil(clients);
            for &i in world.order.chunks(share).nth(client).unwrap_or(&[]) {
                let (page, expected) = &world.batch[i as usize];
                let t0 = Instant::now();
                let r = tracer.root(RootOp::SwapIn, || {
                    world.plane.swap_in_into_ctx(&CTX, *page, false, buf)
                });
                let ns = meter.lap(t0);
                meter.push(FAULT, ns);
                part.failed += u64::from(r.is_err() || *buf != expected.as_ref());
            }
            slowest_in_ns.fetch_max(began.elapsed().as_nanos() as u64, Ordering::AcqRel);
            rendezvous.wait();
            if client == 0 {
                let in_s = slowest_in_ns.swap(0, Ordering::AcqRel) as f64 / 1e9;
                let t0 = Instant::now();
                part.failed += world.swap_out_all(tracer, clients, Some(meter));
                let out_s = t0.elapsed().as_secs_f64();
                // The round is charged to client 0: both directions of
                // every page, over the round's wall time.
                part.ops = 2 * world.batch.len() as u64;
                part.phase_pages_per_s[harness::SWAP_OUT] = world.batch.len() as f64 / out_s;
                part.phase_pages_per_s[harness::SWAP_IN] = world.batch.len() as f64 / in_s;
            }
            rendezvous.wait();
            part.elapsed = began.elapsed();
            part
        });
        self.bufs = bufs;
        pass
    }

    fn sweep(&mut self) -> (u64, u64) {
        let mut buf = Vec::with_capacity(PAGE);
        let mut failed = 0;
        for (page, expected) in &self.batch {
            let r = self.plane.swap_in_into_ctx(&CTX, *page, false, &mut buf);
            failed += u64::from(r.is_err() || buf != expected.as_ref());
        }
        (self.batch.len() as u64, failed)
    }
}
