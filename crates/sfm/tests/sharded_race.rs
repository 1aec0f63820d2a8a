//! Races on [`ShardedSfm`] that depend on no lock being held across a
//! codec call.
//!
//! A single-page swap-out checks the entry table under the shard lock,
//! compresses with the lock released, and checks again when it stores.
//! A fault verifies and copies its block under the shard lock (and, on
//! a consuming swap-in, consumes the entry there), decodes with the
//! lock released, and re-locks to book the result. Every interleaving
//! below is forced, not hoped for: the codec holds a caller inside
//! `compress_into` or `decompress_into` until the other side has
//! arrived or finished. A caller that runs the codec under a lock the
//! other side needs never gets its company; that fails the test after
//! 10 s instead of hanging it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xfm_compress::{Codec, CodecKind, CostModel, Scratch, XDeflate};
use xfm_sfm::{ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm_telemetry::Registry;
use xfm_testkit::json_page;
use xfm_types::{Error, OpContext, PageNumber, Result, TenantId};

const PATIENCE: Duration = Duration::from_secs(10);
const HELD: &str = "a lock is held across decompress";

/// Spins until `done` holds, failing with `why` after `patience`.
fn await_or_fail(patience: Duration, done: impl Fn() -> bool, why: &str) {
    let began = Instant::now();
    while !done() {
        assert!(began.elapsed() < patience, "{why}");
        std::thread::yield_now();
    }
}

/// xdeflate with gates, armed after construction (the codec-state
/// warm-up runs before that):
///
/// - `meet_in_compress` / `meet_in_decompress`: each caller waits inside
///   the codec until two callers are there;
/// - `hold_next_decode`: the next `decompress_into` announces itself in
///   `held` and waits for `release`, then fails with `Corrupt` when
///   `fail_held` is set.
#[derive(Default)]
struct GateCodec {
    inner: XDeflate,
    meet_in_compress: AtomicBool,
    meet_in_decompress: AtomicBool,
    arrived: AtomicUsize,
    hold_next_decode: AtomicBool,
    held: AtomicBool,
    release: AtomicBool,
    fail_held: AtomicBool,
}

impl GateCodec {
    fn meet(&self, across: &str) {
        self.arrived.fetch_add(1, Ordering::SeqCst);
        await_or_fail(
            PATIENCE,
            || self.arrived.load(Ordering::SeqCst) >= 2,
            &format!("the other racer never reached the codec: a lock is held across {across}"),
        );
    }

    /// Runs `fault` until its decode is held inside the codec, then
    /// `intruder` on another thread, and lets the decode go on only once
    /// `intruder` returned — or after [`PATIENCE`], failing the test
    /// because the intruder waited for the decode.
    fn while_decoding<A: Send, B: Send>(
        &self,
        fault: impl FnOnce() -> A + Send,
        intruder: impl FnOnce() -> B + Send,
    ) -> (A, B) {
        self.hold_next_decode.store(true, Ordering::SeqCst);
        let finished = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let fault = scope.spawn(fault);
            await_or_fail(
                PATIENCE,
                || self.held.load(Ordering::SeqCst),
                "the fault never reached the decoder",
            );
            let intruder = scope.spawn(|| {
                let r = intruder();
                finished.store(true, Ordering::SeqCst);
                r
            });
            let began = Instant::now();
            while !finished.load(Ordering::SeqCst) && began.elapsed() < PATIENCE {
                std::thread::yield_now();
            }
            let in_time = finished.load(Ordering::SeqCst);
            self.release.store(true, Ordering::SeqCst);
            assert!(in_time, "the intruder waited for the decode: {HELD}");
            (
                fault.join().expect("fault panicked"),
                intruder.join().expect("intruder panicked"),
            )
        })
    }
}

impl Codec for GateCodec {
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
        if self.meet_in_compress.load(Ordering::SeqCst) {
            self.meet("compress");
        }
        self.inner.compress_into(src, dst, scratch)
    }

    fn decompress_into(
        &self,
        src: &[u8],
        dst: &mut Vec<u8>,
        scratch: &mut Scratch,
    ) -> Result<usize> {
        if self.meet_in_decompress.load(Ordering::SeqCst) {
            self.meet("decompress");
        }
        if self.hold_next_decode.swap(false, Ordering::SeqCst) {
            self.held.store(true, Ordering::SeqCst);
            // Longer than the intruder is given: its verdict comes first.
            await_or_fail(
                2 * PATIENCE,
                || self.release.load(Ordering::SeqCst),
                "the held decode was never released",
            );
            if self.fail_held.load(Ordering::SeqCst) {
                return Err(Error::Corrupt("injected decode failure".into()));
            }
        }
        self.inner.decompress_into(src, dst, scratch)
    }
}

const TENANT: TenantId = TenantId::new(3);
const PAGE: PageNumber = PageNumber::new(42);

/// A default 4-shard plane over a fresh [`GateCodec`], telemetry
/// attached (the tenant ledger is read back below).
fn gated_plane() -> (ShardedSfm, Arc<GateCodec>, Registry) {
    let codec = Arc::new(GateCodec::default());
    let mut sfm = ShardedSfm::with_codec(
        ShardedSfmConfig::default(),
        codec.clone(),
        CostModel::paper_average(),
    );
    let registry = Registry::new();
    sfm.attach_telemetry(&registry);
    (sfm, codec, registry)
}

/// The ledger's stored and freed byte counters for [`TENANT`].
fn ledger(registry: &Registry) -> (u64, u64) {
    let c = registry.snapshot().counters;
    let get = |name: &str| c.get(&format!("{name}{{tenant=\"3\"}}")).copied();
    (
        get("xfm_tenant_bytes_stored_total").unwrap_or(0),
        get("xfm_tenant_bytes_freed_total").unwrap_or(0),
    )
}

/// Usage derived from the entries must equal what the pools hold.
fn assert_usage_matches_pool(sfm: &ShardedSfm) {
    let usage: u64 = sfm.tenant_usage().iter().map(|(_, b)| b).sum();
    assert_eq!(usage, sfm.pool_stats().stored_bytes.as_bytes());
}

#[test]
fn racing_swap_outs_of_one_page_store_it_once() {
    let (sfm, codec, _registry) = gated_plane();
    codec.meet_in_compress.store(true, Ordering::SeqCst);

    let ctx = OpContext::for_tenant(TENANT);
    let data = json_page(42);
    let results: Vec<_> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| sfm.swap_out_ctx(&ctx, PAGE, &data)))
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
        vec![(TENANT, u64::from(stored[0].compressed_len))]
    );
    let (restored, _) = sfm.swap_in(PAGE, false).unwrap();
    assert_eq!(restored, data);
    assert_eq!(sfm.pool_stats().objects, 0);
}

#[test]
fn faults_on_one_shard_decode_at_once() {
    let (sfm, codec, _registry) = gated_plane();
    // Two different pages that route to the same shard.
    let a = PageNumber::new(1);
    let b = (2..)
        .map(PageNumber::new)
        .find(|p| sfm.shard_of(*p) == sfm.shard_of(a))
        .unwrap();
    let (data_a, data_b) = (json_page(1), json_page(2));
    sfm.swap_out(a, &data_a).unwrap();
    sfm.swap_out(b, &data_b).unwrap();
    codec.meet_in_decompress.store(true, Ordering::SeqCst);

    let ctx = OpContext::for_tenant(TENANT);
    let (got_a, got_b) = std::thread::scope(|scope| {
        let (sfm, ctx) = (&sfm, &ctx);
        let fault = |p| {
            scope.spawn(move || {
                let mut out = Vec::new();
                sfm.swap_in_into_ctx(ctx, p, false, &mut out).map(|_| out)
            })
        };
        let (fa, fb) = (fault(a), fault(b));
        (fa.join().expect(HELD), fb.join().expect(HELD))
    });
    assert_eq!(got_a.unwrap(), data_a);
    assert_eq!(got_b.unwrap(), data_b);
    assert_eq!(sfm.pool_stats().objects, 0);
}

#[test]
fn a_swap_out_during_a_swap_ins_decode_is_stored_once() {
    let (sfm, codec, registry) = gated_plane();
    let ctx = OpContext::for_tenant(TENANT);
    let (old, new) = (json_page(7), json_page(8));
    let first = sfm.swap_out_ctx(&ctx, PAGE, &old).unwrap();

    let mut out = Vec::new();
    let (fault, stored) = codec.while_decoding(
        || sfm.swap_in_into_ctx(&ctx, PAGE, false, &mut out),
        || sfm.swap_out_ctx(&ctx, PAGE, &new),
    );
    fault.unwrap();
    assert_eq!(out, old, "the swap-in returns the bytes it consumed");
    let second = stored.expect("the entry was consumed before the decode");

    assert_eq!(sfm.pool_stats().objects, 1);
    assert_eq!(sfm.stats().swap_outs, 2);
    let len = u64::from(second.compressed_len);
    assert_eq!(sfm.tenant_usage(), vec![(TENANT, len)]);
    assert_usage_matches_pool(&sfm);
    let (bytes_stored, bytes_freed) = ledger(&registry);
    assert_eq!(bytes_freed, u64::from(first.compressed_len));
    assert_eq!(bytes_stored, bytes_freed + len);
    let (restored, _) = sfm.swap_in(PAGE, false).unwrap();
    assert_eq!(restored, new);
}

#[test]
fn a_discard_during_a_kept_loads_decode_leaves_nothing_kept() {
    let (sfm, codec, registry) = gated_plane();
    let ctx = OpContext::for_tenant(TENANT);
    let data = json_page(9);
    let stored = sfm.swap_out_ctx(&ctx, PAGE, &data).unwrap();

    let mut out = Vec::new();
    let (load, discarded) = codec.while_decoding(
        || sfm.load_into_ctx(&ctx, PAGE, &mut out),
        || sfm.discard_ctx(&ctx, PAGE),
    );
    let (outcome, kept) = load.unwrap();
    assert_eq!(out, data, "the load returns the bytes it copied");
    assert!(!kept, "the entry was discarded during the decode");
    assert_eq!(outcome.compressed_len, stored.compressed_len);
    assert_eq!(discarded.unwrap(), stored.compressed_len);

    // Credited once, by the discard; nothing left stored or billed.
    assert!(!sfm.contains(PAGE));
    assert!(sfm.tenant_usage().is_empty());
    assert_usage_matches_pool(&sfm);
    let len = u64::from(stored.compressed_len);
    assert_eq!(ledger(&registry), (len, len));
    let stats = sfm.stats();
    assert_eq!((stats.loads, stats.discards, stats.swap_ins), (1, 1, 0));
}

#[test]
fn a_kept_load_that_fails_after_a_replacement_leaves_the_replacement() {
    let (sfm, codec, registry) = gated_plane();
    let ctx = OpContext::for_tenant(TENANT);
    let (old, new) = (json_page(10), json_page(11));
    let first = sfm.swap_out_ctx(&ctx, PAGE, &old).unwrap();
    codec.fail_held.store(true, Ordering::SeqCst);

    let mut out = Vec::new();
    let (load, replaced) = codec.while_decoding(
        || sfm.load_into_ctx(&ctx, PAGE, &mut out),
        || {
            sfm.discard_ctx(&ctx, PAGE)?;
            sfm.swap_out_ctx(&ctx, PAGE, &new)
        },
    );
    let err = load.unwrap_err();
    assert!(matches!(err.cause(), Error::Corrupt(_)), "{err:?}");
    let second = replaced.unwrap();

    // The replacement is stored, billed once, and reads back intact.
    assert!(sfm.contains(PAGE));
    let len = u64::from(second.compressed_len);
    assert_eq!(sfm.tenant_usage(), vec![(TENANT, len)]);
    assert_usage_matches_pool(&sfm);
    let freed = u64::from(first.compressed_len);
    assert_eq!(ledger(&registry), (freed + len, freed));
    let (restored, _) = sfm.swap_in(PAGE, false).unwrap();
    assert_eq!(restored, new);
    assert_eq!(sfm.pool_stats().objects, 0);
}
