//! `kv-hot` and `kv-churn`: `FarKvService` over an 8-shard
//! `ShardedSfm`, two closed-loop clients, Zipf(0.99) keys.
//!
//! `kv-hot` keeps every key resident, so only the serve layer works;
//! `kv-churn` holds a quarter of the working set hot, so every miss is
//! a fault plus a quota-driven demotion under the tenant lock.

use std::sync::Arc;
use std::time::Instant;

use xfm_compress::{CostModel, XDeflate};
use xfm_serve::{FarKvService, GetSource, PutResult, ServiceClass, TenantSpec};
use xfm_sfm::{ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm_types::{ByteSize, TenantId};

use super::{Config, World};
use crate::harness::{run_epochs, Budget, EpochPart, Pass, Plan, RootOp, Tracer};
use crate::keygen::{kv_stream, KvOp, Zipf};
use crate::pagegen::{self, PAGE};
use crate::rng::Rng;
use crate::stats::LatencySeries;

/// Latency class of gets served by a fault.
pub const GET_FAULT: usize = 0;
/// Latency class of gets served from the hot cache.
pub const GET_HIT: usize = 1;
/// Latency class of puts.
pub const PUT: usize = 2;

/// Seconds per epoch of the measured pass.
const EPOCH_S: f64 = 0.25;

/// Epochs of the one-client pass that measures `kv-hot`'s latency
/// floor, and the length of each. Many short ones: a hot get is a
/// sub-microsecond 4 KiB copy whose tail is the state of the host's
/// shared cache, and a neighbour that spoils a quarter-second epoch
/// leaves most ten-millisecond ones alone.
const FLOOR_EPOCHS: u64 = 300;
const FLOOR_EPOCH_S: f64 = 0.01;

/// Pre-generated ops per client (a power of two; the stream wraps).
const STREAM_LEN: usize = 1 << 20;

struct Shape {
    /// Service class per tenant (ids are 1-based positions).
    classes: &'static [ServiceClass],
    keys: u64,
    resident_pages: u64,
    put_share: f64,
}

const HOT: Shape = Shape {
    classes: &[ServiceClass::Guaranteed, ServiceClass::Guaranteed],
    keys: 2048,
    resident_pages: 4096,
    put_share: 0.05,
};
const CHURN: Shape = Shape {
    classes: &[
        ServiceClass::Guaranteed,
        ServiceClass::Guaranteed,
        ServiceClass::BestEffort,
    ],
    keys: 8192,
    resident_pages: 2048,
    put_share: 0.30,
};

/// One closed-loop client: its op stream, cursor and read buffer.
struct Client {
    stream: Vec<KvOp>,
    at: usize,
    buf: Vec<u8>,
}

/// The service, its plane, and the generated inputs.
pub struct KvWorld {
    /// The service under test.
    pub svc: FarKvService,
    /// The plane under it (for shard and pool statistics).
    pub sfm: Arc<ShardedSfm>,
    tenants: Vec<TenantId>,
    /// `pages[tenant][key]`: the one value every put of that key writes
    /// and every get must return.
    pages: Vec<Vec<Vec<u8>>>,
    clients: Vec<Client>,
    mem_ratio: f64,
    all_hot: bool,
    floor_epochs: usize,
}

impl KvWorld {
    fn lookup(&self, op: KvOp) -> (TenantId, u64, &[u8]) {
        (
            self.tenants[op.tenant as usize],
            u64::from(op.key),
            &self.pages[op.tenant as usize][op.key as usize],
        )
    }

    /// Closed-loop epochs of `epoch_s` seconds on `clients` threads.
    fn run<T: Tracer>(&mut self, tracer: &T, clients: usize, budget: Budget, epoch_s: f64) -> Pass {
        let mut states = std::mem::take(&mut self.clients);
        let world = &*self;
        let plan = Plan {
            budget,
            epoch_s,
            // Gets that fault, gets that hit, puts: room for two
            // million operations per client and second.
            samples: [1 << 18, 1 << 20, 1 << 18, 0, 0],
        };
        let pass = run_epochs(plan, &mut states[..clients], |_, c, meter| {
            let began = Instant::now();
            let mut part = EpochPart::default();
            part.elapsed = loop {
                let op = c.stream[c.at];
                let (tenant, key, page) = world.lookup(op);
                let t0 = Instant::now();
                if t0 >= meter.deadline {
                    break t0 - began;
                }
                c.at = (c.at + 1) & (STREAM_LEN - 1);
                part.ops += 1;
                if op.put {
                    let r = tracer.root(RootOp::KvPut, || world.svc.put(tenant, key, page));
                    let ns = meter.lap(t0);
                    meter.push(PUT, ns);
                    part.failed += u64::from(!matches!(r, Ok(PutResult::Stored { .. })));
                } else {
                    let r = tracer.root(RootOp::KvGet, || world.svc.get(tenant, key, &mut c.buf));
                    let ns = meter.lap(t0);
                    match r {
                        Ok(Some(got)) => {
                            let class = match got.source {
                                GetSource::Fault => GET_FAULT,
                                GetSource::Hot => GET_HIT,
                            };
                            meter.push(class, ns);
                            part.failed += u64::from(c.buf != page);
                        }
                        _ => part.failed += 1,
                    }
                }
            };
            part
        });
        self.clients = states;
        pass
    }
}

impl<T: Tracer> World<T> for KvWorld {
    const CLIENTS: usize = crate::host::CLIENTS;

    fn setup(workload: &str, cfg: &Config, tracer: &T) -> Self {
        let shape = if workload == "kv-hot" { &HOT } else { &CHURN };
        let keys = cfg.scaled(shape.keys, 64);
        let resident = cfg.scaled(shape.resident_pages, 16);
        let n = shape.classes.len();

        let pages: Vec<Vec<Vec<u8>>> = (0..n as u64)
            .map(|t| {
                (0..keys)
                    .map(|k| pagegen::page(cfg.seed, (t << 32) | k))
                    .collect()
            })
            .collect();
        let zipfs: Vec<Zipf> = (0..n as u64)
            .map(|t| Zipf::new(keys as u32, 0.99, &mut Rng::new(cfg.seed, 0x2100 + t)))
            .collect();
        let clients = (0..crate::host::CLIENTS as u64)
            .map(|c| Client {
                stream: kv_stream(cfg.seed, c, STREAM_LEN, &zipfs, shape.put_share),
                at: 0,
                buf: Vec::with_capacity(PAGE),
            })
            .collect();

        let sfm = Arc::new(ShardedSfm::with_codec(
            ShardedSfmConfig {
                shards: 8,
                ..ShardedSfmConfig::default()
            },
            tracer.codec(Arc::new(XDeflate::default())),
            CostModel::paper_average(),
        ));
        let tenants: Vec<TenantId> = (1..=n as u16).map(TenantId::new).collect();
        let specs = tenants
            .iter()
            .zip(shape.classes)
            .map(|(&t, &class)| {
                // Compressed quota: room for every key stored raw, so
                // admission never sheds.
                TenantSpec::new(
                    t,
                    ByteSize::from_pages(resident),
                    ByteSize::from_pages(2 * keys),
                )
                .with_class(class)
            })
            .collect();
        let plane: Arc<dyn SwapPlane> = sfm.clone();
        let svc = FarKvService::new(tracer.plane("serve", plane), specs);

        // Populate coldest key first, so the hot cache starts out
        // holding the most popular keys: the steady state, not a cold
        // start the warm-up would have to work off.
        for (t, zipf) in zipfs.iter().enumerate() {
            for key in zipf.keys_coldest_first() {
                let stored = svc.put(tenants[t], u64::from(key), &pages[t][key as usize]);
                assert!(
                    matches!(stored, Ok(PutResult::Stored { .. })),
                    "populate: {stored:?}"
                );
            }
        }
        let resident_bytes: u64 = svc.snapshots().iter().map(|s| s.resident_bytes).sum();
        let held = resident_bytes + sfm.pool_stats().pool_bytes().as_bytes();
        let mem_ratio = held as f64 / (n as u64 * keys * PAGE as u64) as f64;

        Self {
            svc,
            sfm,
            tenants,
            pages,
            clients,
            mem_ratio,
            all_hot: resident >= keys,
            floor_epochs: cfg.scaled(FLOOR_EPOCHS, 50) as usize,
        }
    }

    fn mem_bytes_per_user_byte(&self) -> f64 {
        self.mem_ratio
    }

    fn fault_latency(&mut self, tracer: &T, pass: &Pass) -> LatencySeries {
        if !self.all_hot {
            return pass.lat[GET_FAULT].clone();
        }
        // With every key resident nothing faults. Report the floor a
        // fault is compared with: hot gets of one client running alone.
        // (Under two clients the tail of a sub-microsecond get is the
        // wake-up latency of a contended lock on this host, which does
        // not repeat; that contention shows in `ops_per_s`.)
        let alone = self.run(tracer, 1, Budget::Epochs(self.floor_epochs), FLOOR_EPOCH_S);
        alone.lat[GET_HIT].clone()
    }

    fn measure(&mut self, tracer: &T, clients: usize, budget: Budget) -> Pass {
        self.run(tracer, clients, budget, EPOCH_S)
    }

    fn sweep(&mut self) -> (u64, u64) {
        let mut buf = Vec::with_capacity(PAGE);
        let (mut attempted, mut failed) = (0, 0);
        for (t, pages) in self.pages.iter().enumerate() {
            for (key, page) in pages.iter().enumerate() {
                attempted += 1;
                let got = self.svc.get(self.tenants[t], key as u64, &mut buf);
                failed += u64::from(!matches!(got, Ok(Some(_))) || buf != *page);
            }
        }
        // Quotas are sized for zero sheds; the ledgers must reconcile.
        let sheds: u64 = self.svc.snapshots().iter().map(|s| s.sheds).sum();
        failed += sheds + u64::from(!self.svc.accounting().balanced);
        (attempted, failed)
    }
}
