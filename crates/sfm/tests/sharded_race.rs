//! Same-page swap-out race on [`ShardedSfm`].
//!
//! A single-page swap-out checks the entry table under the shard lock,
//! compresses with the lock released, and checks again when it stores.
//! Two callers swapping out the same page can therefore both pass the
//! first check; the second must catch the loser. The interleaving is
//! forced, not hoped for: the codec holds both callers inside
//! `compress_into` — past the first check, before the store — until
//! both have arrived.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xfm_compress::{Codec, CodecKind, Corpus, CostModel, Scratch, XDeflate};
use xfm_sfm::{ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm_types::{Error, OpContext, PageNumber, Result, TenantId, PAGE_SIZE};

/// xdeflate whose `compress_into`, once armed (construction-time
/// scratch warm-up runs before that), waits until two callers are
/// inside it. A caller that compresses under a lock the other needs
/// never gets company; that fails the test instead of hanging it.
#[derive(Default)]
struct RendezvousCodec {
    inner: XDeflate,
    armed: AtomicBool,
    arrived: AtomicUsize,
}

impl Codec for RendezvousCodec {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> CodecKind {
        self.inner.kind()
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        self.inner.compress(src, dst)
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        self.inner.decompress(src, dst)
    }

    fn compress_into(&self, src: &[u8], dst: &mut Vec<u8>, scratch: &mut Scratch) -> Result<usize> {
        if self.armed.load(Ordering::SeqCst) {
            self.arrived.fetch_add(1, Ordering::SeqCst);
            let began = Instant::now();
            while self.arrived.load(Ordering::SeqCst) < 2 {
                assert!(
                    began.elapsed() < Duration::from_secs(10),
                    "the other racer never reached the codec: a lock is held across compress"
                );
                std::thread::yield_now();
            }
        }
        self.inner.compress_into(src, dst, scratch)
    }

    fn decompress_into(
        &self,
        src: &[u8],
        dst: &mut Vec<u8>,
        scratch: &mut Scratch,
    ) -> Result<usize> {
        self.inner.decompress_into(src, dst, scratch)
    }
}

#[test]
fn racing_swap_outs_of_one_page_store_it_once() {
    let codec = Arc::new(RendezvousCodec::default());
    let sfm = ShardedSfm::with_codec(
        ShardedSfmConfig::default(),
        codec.clone(),
        CostModel::paper_average(),
    );
    codec.armed.store(true, Ordering::SeqCst);

    let page = PageNumber::new(42);
    let tenant = TenantId::new(3);
    let ctx = OpContext::for_tenant(tenant);
    let data = Corpus::Json.generate(42, PAGE_SIZE);
    let results: Vec<_> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| sfm.swap_out_ctx(&ctx, page, &data)))
            .collect();
        racers
            .into_iter()
            .map(|r| r.join().expect("racer panicked"))
            .collect()
    });

    let stored: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    assert_eq!(stored.len(), 1, "exactly one racer stores: {results:?}");
    assert!(
        results
            .iter()
            .any(|r| matches!(r, Err(e) if matches!(e.cause(), Error::EntryExists { page: 42 }))),
        "the other is told the page exists: {results:?}"
    );
    // One copy in the pool, billed once, and it is the page.
    assert_eq!(sfm.pool_stats().objects, 1);
    assert_eq!(sfm.stats().swap_outs, 1);
    assert_eq!(
        sfm.tenant_usage(),
        vec![(tenant, u64::from(stored[0].compressed_len))]
    );
    let (restored, _) = sfm.swap_in(page, false).unwrap();
    assert_eq!(restored, data);
    assert_eq!(sfm.pool_stats().objects, 0);
}
