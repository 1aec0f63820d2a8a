//! Exactness gate for the paper's own path: every simulated statistic
//! of an `XfmBackend` run is a pure function of the script, so a change
//! meant only to speed the simulator up must leave all of them
//! identical.
//!
//! The script is `benchmark/`'s `xfm-offload` workload in small: 256
//! pages of its family mix from a generator this file owns, populated
//! through `swap_out_batch_ctx` in batches of 64 at 64 tREFI a page
//! with 40 ms drains, two rounds of swap-ins (even pages as prefetches
//! that may offload, odd pages as demand faults) and re-demotions, and
//! one round at 1 tREFI a page with a second set of 256 pages whose
//! rows collide four to a refresh slot, so device rejects and
//! degraded-mode transitions occur. A co-runner steals one refresh
//! window in 64 throughout (the `refresh_window_miss` fault site), and
//! the flexible work of a stolen window's slot is the one the scheduler
//! spills, so scheduler spills and late fallbacks occur too. It runs on
//! 1, 2 and 4 DIMMs.
//!
//! [`EXPECTED`] was recorded when the refresh-window scheduler took
//! the Fig. 12 driver's rules (byte-counted windows, SPM reserved at read
//! service, re-alignment of missed flexible work, write-backs placed
//! within the lookahead) and the engine's compressor and decompressor
//! became separate units; the window-stealing co-runner was added to the
//! script then, because a flexible op now spills only from a stolen
//! window. A change meant only to speed the simulator up must reproduce
//! every value.

use std::sync::Arc;

use bytes::Bytes;
use xfm::compress::Corpus;
use xfm::core::backend::{XfmBackend, XfmBackendConfig};
use xfm::faults::{FaultInjector, FaultPlan, FaultSite, SiteSpec, SplitMix64};
use xfm::sfm::{ExecutedOn, SwapPlane};
use xfm::telemetry::Registry;
use xfm::types::{Nanos, OpContext, PageNumber, TenantId, PAGE_SIZE};

const PAGES: u64 = 256;
const BATCH: usize = 64;
const DRAIN: Nanos = Nanos::from_ms(40);
const CTX: OpContext = OpContext::for_tenant(TenantId::new(1));

/// Page `id`'s bytes: 40 % JSON, 25 % text, 20 % struct dumps, 10 %
/// random (stored raw), 5 % zero (same-filled) — the benchmark's mix.
fn page(id: u64) -> Bytes {
    let pick = SplitMix64::new(id ^ 0xFA31_17E5).next_u64() % 100;
    let corpus = match pick {
        0..=39 => Corpus::Json,
        40..=64 => Corpus::EnglishText,
        65..=84 => Corpus::StructDump,
        85..=94 => Corpus::RandomBytes,
        _ => Corpus::ZeroPage,
    };
    Bytes::from(corpus.generate(id, PAGE_SIZE))
}

struct World {
    backend: Arc<XfmBackend>,
    t_refi: Nanos,
    now: Nanos,
    nma_swaps: u64,
    swaps: u64,
    buf: Vec<u8>,
}

impl World {
    fn advance(&mut self, by: Nanos) {
        self.now += by;
        self.backend.advance_to(self.now);
    }

    fn swap_out_all(&mut self, pages: &[(PageNumber, Bytes)], pace: u64) {
        for batch in pages.chunks(BATCH) {
            let results = self.backend.swap_out_batch_ctx(&CTX, batch, 1).unwrap();
            for r in results {
                let o = r.expect("the region has room for every page");
                self.nma_swaps += u64::from(o.executed_on == ExecutedOn::Nma);
            }
            self.swaps += batch.len() as u64;
            self.advance(self.t_refi * (pace * batch.len() as u64));
        }
        self.advance(DRAIN);
    }

    fn swap_in_all(&mut self, pages: &[(PageNumber, Bytes)], pace: u64) {
        for (i, (page, expected)) in pages.iter().enumerate() {
            let o = self
                .backend
                .swap_in_into_ctx(&CTX, *page, i.is_multiple_of(2), &mut self.buf)
                .unwrap();
            assert_eq!(self.buf, expected.as_ref(), "page {page} restored");
            self.nma_swaps += u64::from(o.executed_on == ExecutedOn::Nma);
            if (i + 1).is_multiple_of(BATCH) {
                self.advance(self.t_refi * (pace * BATCH as u64));
            }
        }
        self.advance(DRAIN);
        self.swaps += pages.len() as u64;
    }
}

/// Per DIMM count: the 20 values
/// `benchmark/src/workloads/xfm_offload.rs` fingerprints, then
/// `sched.windows`, `sched.spilled`, `ecc_parity_bytes` and the bits of
/// rank 0's `window_utilization()`, the `f64` of
/// `WindowScheduler::utilization` that the rank's gauge publishes.
#[rustfmt::skip]
const EXPECTED: [(usize, [u64; 24]); 3] = [
    (1, [1563, 2560, 1536, 1024, 1563, 997, 6216654, 144, 1563, 1520, 43, 26, 3060, 0, 286720, 27501795075, 43, 6, 646000000, 830112, 165376, 43, 414306, 4571528822587531153]),
    (2, [1563, 2560, 1536, 1024, 1563, 997, 6385715, 144, 3126, 3043, 83, 26, 6127, 0, 133120, 54850314036, 83, 6, 646000000, 933675, 165376, 83, 446096, 4567221728921880046]),
    (4, [1563, 2560, 1536, 1024, 1563, 997, 6931457, 144, 6252, 6012, 240, 26, 12136, 0, 65536, 108461464920, 240, 6, 646000000, 1094227, 165376, 240, 485835, 4562998401656950086]),
];

#[test]
fn every_simulated_statistic_of_the_offload_script_is_pinned() {
    for (n_dimms, expected) in EXPECTED {
        assert_eq!(run(n_dimms), expected, "{n_dimms} DIMMs");
    }
}

fn run(n_dimms: usize) -> [u64; 24] {
    let registry = Registry::new();
    let config = XfmBackendConfig {
        n_dimms,
        ..XfmBackendConfig::default()
    };
    let steals = FaultPlan::new(0x5EA1).with_site(
        FaultSite::RefreshWindowMiss,
        SiteSpec::with_probability(1.0 / 64.0),
    );
    let backend = XfmBackend::builder().config(config).telemetry(&registry);
    let backend = backend.faults(Arc::new(FaultInjector::new(&steals)));
    let backend = Arc::new(backend.build().unwrap());
    let rows = u64::from(backend.config().nma.geometry.rows_per_bank);
    let mut w = World {
        t_refi: backend.config().nma.timings.t_refi,
        backend,
        now: Nanos::ZERO,
        nma_swaps: 0,
        swaps: 0,
        buf: Vec::with_capacity(PAGE_SIZE),
    };
    let paced: Vec<_> = (0..PAGES).map(|p| (PageNumber::new(p), page(p))).collect();
    // Four pages to a row, so four reads contend for one window's three
    // accesses.
    let crowded: Vec<_> = (0..PAGES)
        .map(|i| PAGES + i % 64 + i / 64 * rows)
        .map(|p| (PageNumber::new(p), page(p)))
        .collect();

    w.advance(Nanos::from_ms(1));
    w.swap_out_all(&paced, 64);
    for _ in 0..2 {
        w.swap_in_all(&paced, 64);
        w.swap_out_all(&paced, 64);
    }
    // 512 pages inside 2 ms: more offloads than the request queue holds.
    let all = [paced, crowded].concat();
    w.swap_out_all(&all[PAGES as usize..], 1);
    w.swap_in_all(&all, 1);
    w.swap_out_all(&all, 1);

    let (s, n) = (w.backend.stats(), w.backend.nma_stats());
    let utilization = registry
        .gauge("xfm_refresh_window_utilization{rank=\"0\"}")
        .get();
    // The script reaches what it was written to reach.
    assert!(n.rejected > 0 && n.sched.spilled > 0 && w.backend.late_fallbacks() > 0);
    [
        w.nma_swaps,
        w.swaps,
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
        w.backend.late_fallbacks(),
        w.backend.degrade_transitions(),
        w.backend.now().as_ns(),
        w.backend.pool_stats().stored_bytes.as_bytes(),
        n.sched.windows,
        n.sched.spilled,
        n.ecc_parity_bytes,
        utilization.to_bits(),
    ]
}
