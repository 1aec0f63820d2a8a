//! Isolated probes for the layers that have no public seam to trace
//! at (`zpool`, `checksum`): the workload's own pages, compressed, are
//! replayed through those layers' public functions.

use std::time::Instant;

use xfm_benchmark::pagegen::{self, PAGE};
use xfm_compress::{Codec, XDeflate};
use xfm_faults::checksum;
use xfm_sfm::Zpool;
use xfm_types::ByteSize;

/// Pages probed (ids `0..PROBE_PAGES` of the run's seed: the first
/// pages of every workload's own population).
const PROBE_PAGES: u64 = 1024;
/// Passes over the blocks per probe; the median pass is reported.
const PASSES: usize = 9;

/// What the probes measured.
#[derive(Debug, Default)]
pub struct Probes {
    /// `Zpool::alloc`, ns per block.
    pub alloc_ns: f64,
    /// `Zpool::get`, ns per block.
    pub get_ns: f64,
    /// `Zpool::free`, ns per block.
    pub free_ns: f64,
    /// One `Zpool::compact` after freeing every other block, seconds.
    pub compact_s: f64,
    /// Bytes that compaction moved.
    pub compact_moved_bytes: f64,
    /// `checksum`, ns per block.
    pub checksum_ns: f64,
    /// `checksum` throughput, GB/s.
    pub checksum_gb_per_s: f64,
}

/// Median pass, in nanoseconds per block.
fn median_ns_per(blocks: usize, mut passes: Vec<u128>) -> f64 {
    passes.sort_unstable();
    passes[passes.len() / 2] as f64 / blocks as f64
}

/// Runs every probe on the blocks of `seed`.
pub fn run(seed: u64) -> Probes {
    let codec = XDeflate::default();
    let blocks: Vec<Vec<u8>> = (0..PROBE_PAGES)
        .map(|id| {
            let page = pagegen::page(seed, id);
            let mut out = Vec::with_capacity(PAGE);
            codec
                .compress(&page, &mut out)
                .expect("probe page compresses");
            // As the planes do: a page that does not compress below
            // the reject threshold is stored raw.
            if out.len() > PAGE * 95 / 100 {
                page
            } else {
                out
            }
        })
        .collect();
    let bytes: usize = blocks.iter().map(Vec::len).sum();
    let mut probes = Probes::default();

    let mut sink = 0u64;
    let checksum_passes = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            for b in &blocks {
                sink ^= checksum(b);
            }
            t0.elapsed().as_nanos()
        })
        .collect();
    std::hint::black_box(sink);
    probes.checksum_ns = median_ns_per(blocks.len(), checksum_passes);
    probes.checksum_gb_per_s = bytes as f64 / blocks.len() as f64 / probes.checksum_ns;

    let mut pool = Zpool::new(ByteSize::from_mib(64));
    let mut handles = Vec::with_capacity(blocks.len());
    let (mut alloc, mut get, mut free) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PASSES {
        let t0 = Instant::now();
        for b in &blocks {
            handles.push(pool.alloc(b).expect("probe pool has room"));
        }
        alloc.push(t0.elapsed().as_nanos());

        let t0 = Instant::now();
        let mut seen = 0usize;
        for h in &handles {
            seen += pool.get(*h).expect("live handle").len();
        }
        get.push(t0.elapsed().as_nanos());
        assert_eq!(seen, bytes, "zpool returned other bytes than were stored");

        let t0 = Instant::now();
        for h in handles.drain(..) {
            pool.free(h).expect("live handle");
        }
        free.push(t0.elapsed().as_nanos());
    }
    probes.alloc_ns = median_ns_per(blocks.len(), alloc);
    probes.get_ns = median_ns_per(blocks.len(), get);
    probes.free_ns = median_ns_per(blocks.len(), free);

    // Fragment the pool (free every other block), then compact once.
    for b in &blocks {
        handles.push(pool.alloc(b).expect("probe pool has room"));
    }
    for h in handles.iter().step_by(2) {
        pool.free(*h).expect("live handle");
    }
    let t0 = Instant::now();
    let report = pool.compact();
    probes.compact_s = t0.elapsed().as_secs_f64();
    probes.compact_moved_bytes = report.moved_bytes.as_bytes() as f64;
    probes
}
