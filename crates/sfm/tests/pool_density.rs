//! The zpool's density, counted. Blocks stored into an 8-shard
//! `ShardedSfm` with no frees occupy exactly the whole zspages first fit
//! fills: Σ ⌈n / slots⌉ · k host pages over (shard, size class), where a
//! class of `n` blocks has zspages of `k` pages and `slots` slots. That
//! geometry is derived here, by zsmalloc's `get_pages_per_zspage` loop,
//! not read from the pool.
//!
//! Two fixtures, each held to a pool utilization (payload over host-page
//! bytes) of at least 0.90:
//! - `xfm-testkit`'s mixed pages. Their JSON blocks sit in the 1 KiB
//!   class, which fills a host page exactly, so this fixture gains
//!   nothing from zspages (one-page growth reads 0.93 on it: the 960 B
//!   and 1 088 B classes' partial 4-page zspages cost 26 host pages over
//!   8 shards);
//! - blocks spread over 1.0–1.8 KiB, as compressed pages are: one-page
//!   growth leaves each page's tail past its last whole slot and reads
//!   0.825 here, zspages 0.919.

use std::collections::BTreeMap;

use xfm_sfm::zpool::CHUNK;
use xfm_sfm::{SfmConfig, ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm_testkit::mixed_page;
use xfm_types::{ByteSize, PageNumber, PAGE_SIZE};

/// Fixture pages stored.
const PAGES: u64 = 4096;

/// The zspage `(host pages, slots)` of the class of `size`-byte slots:
/// the count of at most 4 pages with the highest whole-percent usage,
/// the first on ties.
fn zspage(size: usize) -> (u64, u64) {
    let (mut best, mut best_usedpc) = (1, 0);
    for k in 1..=4 {
        let bytes = k * PAGE_SIZE;
        let usedpc = (bytes - bytes % size) * 100 / bytes;
        if usedpc > best_usedpc {
            (best, best_usedpc) = (k, usedpc);
        }
    }
    (best as u64, (best * PAGE_SIZE / size) as u64)
}

/// Stores `pages` pages made by `page` into a fresh 8-shard plane and
/// returns it with its blocks per (shard, slot size).
fn store(pages: u64, page: impl Fn(u64) -> Vec<u8>) -> (ShardedSfm, BTreeMap<(usize, usize), u64>) {
    let sfm = ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(64),
        },
        shards: 8,
    });
    let mut blocks: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for p in 0..pages {
        let pn = PageNumber::new(p);
        let len = sfm.swap_out(pn, &page(p)).unwrap().compressed_len;
        let slot = (len as usize).div_ceil(CHUNK) * CHUNK;
        *blocks.entry((sfm.shard_of(pn), slot)).or_default() += 1;
    }
    (sfm, blocks)
}

/// Host pages `blocks` fill: zspages of `geometry(slot size)`.
fn host_pages(
    blocks: &BTreeMap<(usize, usize), u64>,
    geometry: impl Fn(usize) -> (u64, u64),
) -> u64 {
    blocks
        .iter()
        .map(|(&(_, size), &n)| {
            let (pages, slots) = geometry(size);
            n.div_ceil(slots) * pages
        })
        .sum()
}

/// One host page per class growth, for comparison.
fn one_page(size: usize) -> (u64, u64) {
    (1, (PAGE_SIZE / size) as u64)
}

#[test]
fn mixed_fixture_pages_fill_whole_zspages() {
    let (sfm, blocks) = store(PAGES, mixed_page);
    let stats = sfm.pool_stats();
    assert_eq!(stats.objects, PAGES);
    assert_eq!(stats.host_pages, host_pages(&blocks, zspage), "{blocks:?}");
    let utilization = stats.utilization();
    assert!(
        utilization >= 0.90,
        "utilization {utilization:.4} in {} host pages",
        stats.host_pages
    );
}

/// A page of 1 000–1 799 random bytes, zeros after them: its block is
/// about that long.
fn noisy_page(p: u64) -> Vec<u8> {
    let noise = 1_000 + (p.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % 800;
    let mut page = xfm_testkit::random_page(p);
    page[noise..].fill(0);
    page
}

#[test]
fn blocks_of_every_size_pack_tighter_in_zspages() {
    let (sfm, blocks) = store(2 * PAGES, noisy_page);
    let stats = sfm.pool_stats();
    assert_eq!(stats.host_pages, host_pages(&blocks, zspage));
    let one_page_pages = host_pages(&blocks, one_page);
    let (utilization, one_page_utilization) = (
        stats.utilization(),
        stats.stored_bytes.as_bytes() as f64 / (one_page_pages * PAGE_SIZE as u64) as f64,
    );
    assert!(utilization >= 0.90, "utilization {utilization:.4}");
    assert!(
        one_page_utilization < 0.90,
        "one-page growth reaches {one_page_utilization:.4}"
    );
}
