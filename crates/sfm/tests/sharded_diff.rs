//! Differential property test: the sharded concurrent data plane is
//! observably equivalent to a single-threaded reference model.
//!
//! For any shard count (1/2/4/8) and any interleaving of swap-outs and
//! swap-ins (sequential and batched) and compactions, a [`ShardedSfm`]
//! must produce exactly the results and statistics of the in-test
//! [`Model`] (the paper's Baseline-CPU accounting, written out
//! independently of the plane). Capacity is ample so region-full
//! behavior (which legitimately depends on per-shard packing) stays out
//! of scope; dedicated unit tests cover the global budget.

use std::collections::BTreeMap;

use bytes::Bytes;
use proptest::prelude::*;
use xfm_compress::{Codec, CostModel, XDeflate};
use xfm_sfm::backend::MAX_COMPRESSED_LEN;
use xfm_sfm::{
    BackendStats, ExecutedOn, Handle, SfmConfig, ShardedSfm, ShardedSfmConfig, SwapOutcome,
    SwapPlane, Zpool,
};
use xfm_types::{ByteSize, Cycles, Error, PageNumber, SwapResult, PAGE_SIZE};

/// The reference: a page map, the codec called directly for the
/// expected compressed length, the cost model's cycles, the
/// four-component DDR traffic, and tallied statistics. It keeps the
/// original page (a swap-in returns it without decompressing anything)
/// and stores what the plane should have stored in one unsharded
/// [`Zpool`], which a 1-shard plane must match bit for bit.
struct Model {
    codec: XDeflate,
    cost: CostModel,
    /// page -> (original contents, pool slot, stored length, decode cycles).
    pages: BTreeMap<u64, (Vec<u8>, Handle, u32, Cycles)>,
    pool: Zpool,
    stats: BackendStats,
}

impl Model {
    fn new(cfg: SfmConfig) -> Self {
        Self {
            codec: XDeflate::default(),
            cost: CostModel::paper_average(),
            pages: BTreeMap::new(),
            pool: Zpool::new(cfg.region_capacity),
            stats: BackendStats::default(),
        }
    }

    fn outcome(len: u32, cpu_cycles: Cycles) -> SwapOutcome {
        SwapOutcome {
            executed_on: ExecutedOn::Cpu,
            compressed_len: len,
            cpu_cycles,
            // Page read + compressed write, or compressed read + page write.
            ddr_bytes: ByteSize::from_bytes(PAGE_SIZE as u64 + u64::from(len)),
        }
    }

    fn swap_out(&mut self, page: u64, data: &[u8]) -> Result<SwapOutcome, Error> {
        if self.pages.contains_key(&page) {
            return Err(Error::EntryExists { page });
        }
        let page_cycles = Cycles::new(PAGE_SIZE as u64);
        let (stored, out_cycles, in_cycles) = if data.iter().all(|&b| b == data[0]) {
            // Same-filled: one byte stored, one pass over the page each way.
            (vec![data[0]], page_cycles, page_cycles)
        } else {
            let mut compressed = Vec::new();
            self.codec.compress(data, &mut compressed).unwrap();
            let compress = self.cost.compress_cycles(PAGE_SIZE as u64);
            if compressed.len() > MAX_COMPRESSED_LEN {
                // Stored raw: the compression was still paid for.
                self.stats.stored_raw += 1;
                (data.to_vec(), compress, Cycles::ZERO)
            } else {
                let decompress = self.cost.decompress_cycles(PAGE_SIZE as u64);
                (compressed, compress, decompress)
            }
        };
        let len = stored.len() as u32;
        let handle = self.pool.alloc(&stored).unwrap();
        self.pages
            .insert(page, (data.to_vec(), handle, len, in_cycles));
        let outcome = Self::outcome(len, out_cycles);
        self.stats.record(&outcome, true);
        Ok(outcome)
    }

    fn swap_in(&mut self, page: u64) -> Result<(Vec<u8>, SwapOutcome), Error> {
        let (data, handle, len, cycles) = self
            .pages
            .remove(&page)
            .ok_or(Error::EntryNotFound { page })?;
        self.pool.free(handle).unwrap();
        let outcome = Self::outcome(len, cycles);
        self.stats.record(&outcome, false);
        Ok((data, outcome))
    }
}

/// Distinct pages the ops draw from (small enough to force collisions).
const PAGES: u64 = 24;

#[derive(Debug, Clone)]
enum Op {
    /// Sequential swap-out of one page with deterministic contents.
    SwapOut(u64, u8),
    /// Batched swap-out through the worker-pool pipeline.
    SwapOutBatch(Vec<(u64, u8)>),
    SwapIn(u64),
    /// Batched swap-in: the trait's loop over the single-page fault.
    SwapInBatch(Vec<u64>),
    Compact,
}

/// Deterministic page contents covering all three store paths:
/// same-filled short-circuit, codec-compressed, and raw-store reject.
fn content(page: u64, kind: u8) -> Vec<u8> {
    match kind % 3 {
        0 => vec![kind; PAGE_SIZE],
        1 => xfm_compress::Corpus::Json.generate(page * 31 + u64::from(kind), PAGE_SIZE),
        _ => xfm_compress::Corpus::RandomBytes.generate(page * 17 + u64::from(kind), PAGE_SIZE),
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..PAGES, any::<u8>()).prop_map(|(p, k)| Op::SwapOut(p, k)),
        2 => prop::collection::vec((0..PAGES, any::<u8>()), 1..8).prop_map(Op::SwapOutBatch),
        4 => (0..PAGES).prop_map(Op::SwapIn),
        2 => prop::collection::vec(0..PAGES, 1..8).prop_map(Op::SwapInBatch),
        1 => Just(Op::Compact),
    ]
}

/// Result comparison through `Debug`: outcomes compare field-by-field,
/// errors compare by variant and payload.
fn fmt<T: std::fmt::Debug>(r: Result<T, &Error>) -> String {
    match r {
        Ok(o) => format!("{o:?}"),
        Err(e) => format!("err:{e:?}"),
    }
}

fn fmt_plane<T: std::fmt::Debug>(r: &SwapResult<T>) -> String {
    fmt(r.as_ref().map_err(|e| e.cause()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_matches_model(
        shards_idx in 0usize..4,
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let shards = [1usize, 2, 4, 8][shards_idx];
        let sfm_cfg = SfmConfig {
            region_capacity: ByteSize::from_mib(2),
        };
        let sharded = ShardedSfm::new(ShardedSfmConfig {
            sfm: sfm_cfg,
            shards,
        });
        let mut model = Model::new(sfm_cfg);

        for op in ops {
            match op {
                Op::SwapOut(p, k) => {
                    let data = content(p, k);
                    let a = sharded.swap_out(PageNumber::new(p), &data);
                    let b = model.swap_out(p, &data);
                    prop_assert_eq!(fmt_plane(&a), fmt(b.as_ref()), "swap_out page {}", p);
                }
                Op::SwapOutBatch(items) => {
                    let batch: Vec<(PageNumber, Bytes)> = items
                        .iter()
                        .map(|&(p, k)| (PageNumber::new(p), Bytes::from(content(p, k))))
                        .collect();
                    // Workers store in the order they finish, which moves
                    // pool slots; one worker stores in submission order,
                    // as the model does, so the single shard below can be
                    // compared bit for bit.
                    let workers = if shards == 1 { 1 } else { 3 };
                    let results = sharded.swap_out_batch(&batch, workers).unwrap();
                    prop_assert_eq!(results.len(), batch.len());
                    for ((pn, data), ar) in batch.iter().zip(&results) {
                        let br = model.swap_out(pn.index(), data);
                        prop_assert_eq!(fmt_plane(ar), fmt(br.as_ref()), "batch page {}", pn);
                    }
                }
                Op::SwapIn(p) => {
                    let a = sharded.swap_in(PageNumber::new(p), false);
                    let b = model.swap_in(p);
                    prop_assert_eq!(fmt_plane(&a), fmt(b.as_ref()), "swap_in page {}", p);
                }
                Op::SwapInBatch(pages) => {
                    let pns: Vec<PageNumber> = pages.iter().map(|&p| PageNumber::new(p)).collect();
                    let mut outs = vec![Vec::new(); pns.len()];
                    let results = sharded.swap_in_batch_into(&pns, &mut outs);
                    prop_assert_eq!(results.len(), pns.len());
                    for ((&p, ar), out) in pages.iter().zip(&results).zip(&outs) {
                        // A page named twice is gone the second time.
                        let br = model.swap_in(p);
                        let ar = ar.as_ref().map(|o| (out.clone(), *o));
                        prop_assert_eq!(
                            fmt(ar.as_ref().map_err(|e| e.cause())),
                            fmt(br.as_ref()),
                            "batch swap_in page {}",
                            p
                        );
                    }
                }
                Op::Compact => {
                    // Moved bytes legitimately depend on per-shard packing;
                    // only the observable state below must stay equal.
                    let _ = sharded.compact();
                    let _ = model.pool.compact();
                }
            }

            // Invariants after every single op.
            prop_assert_eq!(sharded.stats(), model.stats);
            let ps = sharded.pool_stats();
            let cs = model.pool.stats();
            prop_assert_eq!(ps.stored_bytes, cs.stored_bytes);
            prop_assert_eq!(ps.objects, cs.objects);
            if shards == 1 {
                // A single shard is bit-for-bit the unsharded pool.
                prop_assert_eq!(ps, cs);
            }
        }
    }
}
