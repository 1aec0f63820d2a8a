//! Same-key races on one tenant of a [`FarKvService`].
//!
//! The service releases the tenant lock around every plane call and
//! marks the key *in flight* instead. These tests pin what that must
//! not change: an operation that meets an in-flight key waits and then
//! sees the settled state (no double fault, no lost or duplicated
//! value), and that wait is timed; a refused demotion puts its victim
//! back where it was; a get of a victim that a reader left for a put,
//! while that put demotes it, faults it back after the one swap-out; a
//! put demotes only the victims it found over the quota, however many
//! pages readers fault back while it compresses;
//! under free-running same-key traffic every read
//! returns a value that was written to that key and the ledgers still
//! reconcile; and a hit, which takes only the resident pages' read
//! lock, never sees half of an overwrite.
//!
//! The deterministic tests force their interleaving: a probe plane
//! parks one chosen plane call until the test has seen the second
//! operation arrive (the tenant's `coalesced` counter ticks when an
//! operation starts waiting on an in-flight key). The probe forwards
//! the plane's native kept load and discard, so faults keep their
//! copies and puts discard with no decode, exactly as over a bare
//! [`ShardedSfm`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use xfm_compress::Corpus;
use xfm_serve::service::KEY_BITS;
use xfm_serve::{FarKvService, GetSource, PutResult, ShedReason, TenantSpec};
use xfm_sfm::{
    BackendStats, CompactReport, SfmConfig, ShardedSfm, ShardedSfmConfig, SwapOutcome, SwapPlane,
    ZpoolStats,
};
use xfm_telemetry::Registry;
use xfm_types::{ByteSize, OpContext, PageNumber, SwapResult, TenantId, PAGE_SIZE};

const T: TenantId = TenantId::new(1);

#[derive(Clone, Copy, PartialEq)]
enum Dir {
    In,
    Out,
}

/// A stop sign: each of the next `rounds` plane calls in direction
/// `on` announces itself on `entered`, then blocks until `release`
/// fires.
struct Gate {
    on: Dir,
    rounds: u32,
    entered: Sender<()>,
    release: Receiver<()>,
}

/// A [`ShardedSfm`] that counts what the service asks of it and can
/// park one call at a [`Gate`].
struct ProbePlane {
    inner: ShardedSfm,
    gate: Mutex<Option<Gate>>,
    /// Swap-ins and loads: the service's faults.
    demand_ins: AtomicU64,
    /// Discards: the service's stale-copy invalidations.
    discards: AtomicU64,
    /// Every page a swap-out was attempted for, in order.
    outs: Mutex<Vec<PageNumber>>,
}

impl ProbePlane {
    fn new(region: ByteSize) -> Arc<Self> {
        Arc::new(Self {
            inner: ShardedSfm::new(ShardedSfmConfig {
                sfm: SfmConfig {
                    region_capacity: region,
                },
                ..ShardedSfmConfig::default()
            }),
            gate: Mutex::new(None),
            demand_ins: AtomicU64::new(0),
            discards: AtomicU64::new(0),
            outs: Mutex::new(Vec::new()),
        })
    }

    /// Arms the gate for one call; returns the test's ends of it.
    fn arm(&self, on: Dir) -> (Receiver<()>, Sender<()>) {
        self.arm_rounds(on, 1)
    }

    /// Arms the gate for the next `rounds` calls in direction `on`.
    /// The test's `seen` end disconnects once the last has passed, or
    /// on [`ProbePlane::disarm`].
    fn arm_rounds(&self, on: Dir, rounds: u32) -> (Receiver<()>, Sender<()>) {
        let (entered, seen) = channel();
        let (go, release) = channel();
        *self.gate.lock().unwrap() = Some(Gate {
            on,
            rounds,
            entered,
            release,
        });
        (seen, go)
    }

    fn disarm(&self) {
        self.gate.lock().unwrap().take();
    }

    fn pass(&self, dir: Dir) {
        let gate = {
            let mut slot = self.gate.lock().unwrap();
            match &*slot {
                Some(g) if g.on == dir => slot.take(),
                _ => None,
            }
        };
        if let Some(mut g) = gate {
            g.entered.send(()).unwrap();
            g.release.recv().unwrap();
            g.rounds -= 1;
            if g.rounds > 0 {
                *self.gate.lock().unwrap() = Some(g);
            }
        }
    }
}

impl SwapPlane for ProbePlane {
    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome> {
        self.outs.lock().unwrap().push(page);
        self.pass(Dir::Out);
        self.inner.swap_out_ctx(ctx, page, data)
    }

    fn swap_in_into_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        self.demand_ins.fetch_add(1, Ordering::Relaxed);
        self.pass(Dir::In);
        self.inner.swap_in_into_ctx(ctx, page, do_offload, out)
    }

    fn load_into_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        out: &mut Vec<u8>,
    ) -> SwapResult<(SwapOutcome, bool)> {
        self.demand_ins.fetch_add(1, Ordering::Relaxed);
        self.pass(Dir::In);
        self.inner.load_into_ctx(ctx, page, out)
    }

    fn discard_ctx(&self, ctx: &OpContext, page: PageNumber) -> SwapResult<u32> {
        self.discards.fetch_add(1, Ordering::Relaxed);
        self.inner.discard_ctx(ctx, page)
    }

    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        self.inner.tenant_usage()
    }

    fn contains(&self, page: PageNumber) -> bool {
        self.inner.contains(page)
    }

    fn compact(&self) -> CompactReport {
        self.inner.compact()
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn pool_stats(&self) -> ZpoolStats {
        self.inner.pool_stats()
    }
}

fn service(plane: &Arc<ProbePlane>, resident_pages: u64, compressed: ByteSize) -> FarKvService {
    FarKvService::new(
        plane.clone(),
        vec![TenantSpec::new(
            T,
            ByteSize::from_pages(resident_pages),
            compressed,
        )],
    )
}

fn page_of(key: u64) -> PageNumber {
    PageNumber::new((u64::from(T.as_u16()) << KEY_BITS) | key)
}

/// Compressible page that names its key and version.
fn content(key: u64, version: u8) -> Vec<u8> {
    let mut page: Vec<u8> = (0..PAGE_SIZE)
        .map(|i| {
            (i as u64)
                .wrapping_mul(key + 3)
                .wrapping_add(u64::from(version)) as u8
        })
        .collect();
    page[..8].copy_from_slice(&key.to_le_bytes());
    page[8] = version;
    page
}

/// Spins until one operation is parked on an in-flight key.
fn await_waiter(svc: &FarKvService) {
    while svc.snapshot(T).unwrap().coalesced == 0 {
        std::thread::yield_now();
    }
}

#[test]
fn put_of_a_faulting_key_waits_and_is_admitted_as_an_overwrite() {
    let plane = ProbePlane::new(ByteSize::from_mib(8));
    // One hot page, one byte of compressed budget: with one value
    // demoted both quotas are exhausted, so only known keys are
    // admitted.
    let svc = service(&plane, 1, ByteSize::from_bytes(1));
    svc.put(T, 0, &content(0, 1)).unwrap();
    svc.put(T, 1, &content(1, 1)).unwrap(); // demotes key 0
    assert_eq!(
        svc.put(T, 2, &content(2, 1)).unwrap(),
        PutResult::Shed(ShedReason::QuotaExhausted)
    );

    let (seen, go) = plane.arm(Dir::In);
    std::thread::scope(|scope| {
        let getter = scope.spawn(|| {
            let mut out = Vec::new();
            let got = svc.get(T, 0, &mut out).unwrap().unwrap();
            (got.source, out)
        });
        seen.recv().unwrap(); // key 0 is in flight, its fault parked in the plane
        assert_eq!(svc.keys(T), vec![0, 1], "an in-flight key is still a key");

        let putter = scope.spawn(|| svc.put(T, 0, &content(0, 2)).unwrap());
        await_waiter(&svc);
        go.send(()).unwrap();

        let (source, read) = getter.join().unwrap();
        assert_eq!(source, GetSource::Fault);
        assert_eq!(read, content(0, 1));
        // The put waited for the fault to settle, then overwrote the
        // now-resident value in place: known key, no second swap-in.
        assert!(matches!(putter.join().unwrap(), PutResult::Stored { .. }));
    });

    let mut out = Vec::new();
    svc.get(T, 0, &mut out).unwrap().unwrap();
    assert_eq!(out, content(0, 2));
    let snap = svc.snapshot(T).unwrap();
    assert_eq!(snap.coalesced, 1);
    assert_eq!(snap.faults, 1);
    assert_eq!(plane.demand_ins.load(Ordering::Relaxed), 1);
    assert_eq!(plane.discards.load(Ordering::Relaxed), 0);
    assert!(svc.accounting().balanced);
}

#[test]
fn get_of_a_faulting_key_coalesces_into_a_hit() {
    let plane = ProbePlane::new(ByteSize::from_mib(8));
    let svc = service(&plane, 1, ByteSize::from_mib(4));
    svc.put(T, 0, &content(0, 1)).unwrap();
    svc.put(T, 1, &content(1, 1)).unwrap(); // demotes key 0

    let (seen, go) = plane.arm(Dir::In);
    let get = || {
        let mut out = Vec::new();
        let got = svc.get(T, 0, &mut out).unwrap().unwrap();
        (got.source, out)
    };
    std::thread::scope(|scope| {
        let first = scope.spawn(get);
        seen.recv().unwrap();
        let second = scope.spawn(get);
        await_waiter(&svc);
        go.send(()).unwrap();
        assert_eq!(first.join().unwrap(), (GetSource::Fault, content(0, 1)));
        assert_eq!(second.join().unwrap(), (GetSource::Hot, content(0, 1)));
    });

    let snap = svc.snapshot(T).unwrap();
    assert_eq!((snap.gets, snap.faults, snap.hits), (2, 1, 1));
    assert_eq!(snap.coalesced, 1);
    let stats = plane.stats();
    assert_eq!(stats.swap_ins + stats.loads, 1, "one fault, not two");
    assert!(svc.accounting().balanced);
}

#[test]
fn get_of_a_key_being_demoted_faults_it_after_the_demotion_lands() {
    let plane = ProbePlane::new(ByteSize::from_mib(8));
    let svc = service(&plane, 2, ByteSize::from_mib(4));
    svc.put(T, 0, &content(0, 1)).unwrap();
    svc.put(T, 1, &content(1, 1)).unwrap();

    let (seen, go) = plane.arm(Dir::Out);
    std::thread::scope(|scope| {
        let putter = scope.spawn(|| svc.put(T, 2, &content(2, 1)).unwrap());
        seen.recv().unwrap(); // victim key 0 is in flight, in neither set
        assert_eq!(svc.keys(T), vec![0, 1, 2]);
        assert_eq!(
            svc.snapshot(T).unwrap().resident_bytes,
            2 * PAGE_SIZE as u64,
            "the victim is the demoting caller's page, not the cache's"
        );

        let getter = scope.spawn(|| {
            let mut out = Vec::new();
            let got = svc.get(T, 0, &mut out).unwrap().unwrap();
            (got.source, out)
        });
        await_waiter(&svc);
        go.send(()).unwrap();

        assert_eq!(putter.join().unwrap(), PutResult::Stored { demotions: 1 });
        assert_eq!(getter.join().unwrap(), (GetSource::Fault, content(0, 1)));
    });

    let snap = svc.snapshot(T).unwrap();
    assert_eq!(snap.coalesced, 1);
    // Key 0 out, key 0 back in, and the fault pushed key 1 out.
    assert_eq!((snap.demotions, snap.faults), (2, 1));
    assert_eq!(*plane.outs.lock().unwrap(), vec![page_of(0), page_of(1)]);
    assert!(svc.accounting().balanced);
}

#[test]
fn get_of_a_deferred_victim_being_demoted_by_a_put_faults_it_back() {
    // 64 resident pages: a get may leave one dirty victim for a put.
    let plane = ProbePlane::new(ByteSize::from_mib(8));
    let svc = service(&plane, 64, ByteSize::from_mib(4));
    for key in 0..=64 {
        svc.put(T, key, &content(key, 1)).unwrap(); // the last demotes key 0
    }
    let mut out = Vec::new();
    // Key 0 faults back; its dirty victim, key 1, stays at the ring's
    // head for the next put.
    let got = svc.get(T, 0, &mut out).unwrap().unwrap();
    assert_eq!((got.source, &out), (GetSource::Fault, &content(0, 1)));
    assert_eq!(svc.snapshot(T).unwrap().deferred, 1);
    assert_eq!(*plane.outs.lock().unwrap(), vec![page_of(0)]);

    let (seen, go) = plane.arm(Dir::Out);
    std::thread::scope(|scope| {
        // An overwrite grows nothing, but its pass demotes key 1, the
        // deferred victim, and parks in the plane.
        let putter = scope.spawn(|| svc.put(T, 5, &content(5, 2)).unwrap());
        seen.recv().unwrap();
        let getter = scope.spawn(|| {
            let mut out = Vec::new();
            let got = svc.get(T, 1, &mut out).unwrap().unwrap();
            (got.source, out)
        });
        await_waiter(&svc);
        go.send(()).unwrap();

        assert_eq!(putter.join().unwrap(), PutResult::Stored { demotions: 1 });
        assert_eq!(getter.join().unwrap(), (GetSource::Fault, content(1, 1)));
    });

    // One swap-out of key 1, and the get that faulted it back left its
    // own dirty victim, key 2, in place.
    assert_eq!(*plane.outs.lock().unwrap(), vec![page_of(0), page_of(1)]);
    let snap = svc.snapshot(T).unwrap();
    assert_eq!((snap.coalesced, snap.faults, snap.deferred), (1, 2, 2));
    assert_eq!(snap.resident_bytes, 65 * PAGE_SIZE as u64);
    assert_eq!(plane.stats().swap_outs, 2);
    for key in 0..=64 {
        svc.get(T, key, &mut out).unwrap().unwrap();
        assert_eq!(out, content(key, if key == 5 { 2 } else { 1 }), "key {key}");
    }
    assert!(svc.accounting().balanced);
}

#[test]
fn steady_faults_cannot_keep_a_put_draining() {
    // 128 resident pages: a get may leave two dirty victims for a put.
    const ROUNDS: u32 = 32;
    let plane = ProbePlane::new(ByteSize::from_mib(8));
    let svc = service(&plane, 128, ByteSize::from_mib(4));
    for key in 0..200 {
        svc.put(T, key, &content(key, 1)).unwrap(); // keys 0..72 demoted
    }
    let mut out = Vec::new();
    svc.get(T, 0, &mut out).unwrap().unwrap(); // defers key 72
    assert_eq!(
        svc.snapshot(T).unwrap().resident_bytes,
        129 * PAGE_SIZE as u64
    );

    // The put brings the tenant to 130 pages, two over its quota. While
    // each of its swap-outs is parked, a reader faults a demoted key
    // back, which refills the page the put just freed and stays within
    // the slack, so it defers. A put that ran to the quota would demote
    // once per fault for as long as the faults went on.
    let (seen, go) = plane.arm_rounds(Dir::Out, ROUNDS);
    let (put, faulted) = std::thread::scope(|scope| {
        let svc = &svc;
        let reader = scope.spawn(move || {
            let mut out = Vec::new();
            let mut key = 0;
            while seen.recv().is_ok() {
                key += 1;
                let got = svc.get(T, key, &mut out).unwrap().unwrap();
                assert_eq!((got.source, &out), (GetSource::Fault, &content(key, 1)));
                let _ = go.send(());
            }
            key
        });
        let put = scope.spawn(|| svc.put(T, 1000, &content(1000, 1)).unwrap());
        let put = put.join();
        // Ends the reader however the put ended.
        plane.disarm();
        (put.unwrap(), reader.join().unwrap())
    });

    // The put took the two victims it found over the quota and no more.
    assert_eq!(put, PutResult::Stored { demotions: 2 });
    assert_eq!(faulted, 2);
    let outs = plane.outs.lock().unwrap().clone();
    assert_eq!(outs[72..], [page_of(72), page_of(73)]);
    let snap = svc.snapshot(T).unwrap();
    assert_eq!((snap.deferred, snap.overflows), (3, 0));
    assert_eq!(snap.resident_bytes, 130 * PAGE_SIZE as u64);
    for key in (0..200).chain([1000]) {
        svc.get(T, key, &mut out).unwrap().unwrap();
        assert_eq!(out, content(key, 1), "key {key}");
    }
    assert!(svc.accounting().balanced);
}

#[test]
fn refused_demotion_under_traffic_leaves_the_victim_the_clock_head() {
    // Room for one raw page in the plane; the values are incompressible.
    let plane = ProbePlane::new(ByteSize::from_pages(1));
    let svc = service(&plane, 2, ByteSize::from_mib(4));
    let value = |key: u64| Corpus::RandomBytes.generate(100 + key, PAGE_SIZE);
    svc.put(T, 0, &value(0)).unwrap();
    svc.put(T, 1, &value(1)).unwrap();
    svc.put(T, 2, &value(2)).unwrap(); // demotes key 0: the plane is now full

    let (seen, go) = plane.arm(Dir::Out);
    std::thread::scope(|scope| {
        let putter = scope.spawn(|| svc.put(T, 3, &value(3)).unwrap());
        seen.recv().unwrap(); // victim key 1 is in flight
                              // Traffic while it is: a hit references key 2.
        let mut out = Vec::new();
        let got = svc.get(T, 2, &mut out).unwrap().unwrap();
        assert_eq!((got.source, &out), (GetSource::Hot, &value(2)));
        go.send(()).unwrap();
        // The plane refuses; the write itself is kept.
        assert_eq!(putter.join().unwrap(), PutResult::Stored { demotions: 0 });
    });

    let snap = svc.snapshot(T).unwrap();
    assert_eq!((snap.demotions, snap.overflows), (1, 1));
    assert_eq!(snap.resident_bytes, 3 * PAGE_SIZE as u64);
    assert_eq!(svc.keys(T), vec![0, 1, 2, 3]);
    assert_eq!(plane.stats().rejected_full, 1);

    // Still the clock head: the next quota pass picks key 1 again.
    svc.put(T, 3, &value(3)).unwrap();
    assert_eq!(
        *plane.outs.lock().unwrap(),
        vec![page_of(0), page_of(1), page_of(1)]
    );
    // Resident and byte-intact.
    let mut out = Vec::new();
    let got = svc.get(T, 1, &mut out).unwrap().unwrap();
    assert_eq!((got.source, &out), (GetSource::Hot, &value(1)));
    for key in 0..4 {
        svc.get(T, key, &mut out).unwrap().unwrap();
        assert_eq!(out, value(key), "key {key}");
    }
    assert!(svc.accounting().balanced);
}

#[test]
fn overwrite_of_a_backed_key_racing_its_demotion_never_leaves_a_stale_copy() {
    let plane = ProbePlane::new(ByteSize::from_mib(8));
    let svc = service(&plane, 2, ByteSize::from_mib(4));
    svc.put(T, 0, &content(0, 1)).unwrap();
    svc.put(T, 1, &content(1, 1)).unwrap();
    svc.put(T, 2, &content(2, 1)).unwrap(); // demotes key 0
    let mut out = Vec::new();
    // Key 0 faults back with the plane keeping its copy (the fault
    // pushes key 1 out): the ring is [2, 0], key 0 backed.
    let got = svc.get(T, 0, &mut out).unwrap().unwrap();
    assert_eq!((got.source, &out), (GetSource::Fault, &content(0, 1)));
    assert_eq!(plane.stats().loads, 1);

    let (seen, go) = plane.arm(Dir::Out);
    std::thread::scope(|scope| {
        // Owned here, so a failed assertion below drops it and the
        // parked pass wakes up (and fails) instead of hanging the test.
        let go = go;
        // A demotion pass parks in the plane with victim key 2.
        let putter = scope.spawn(|| svc.put(T, 3, &content(3, 1)).unwrap());
        seen.recv().unwrap();
        // Meanwhile another pass demotes key 0 clean (no plane call)...
        assert_eq!(
            svc.put(T, 4, &content(4, 1)).unwrap(),
            PutResult::Stored { demotions: 1 }
        );
        assert_eq!(svc.snapshot(T).unwrap().clean_demotions, 1);
        // ...and key 0 is overwritten while the first pass is still in
        // the plane: its kept copy is discarded, not decoded.
        svc.put(T, 0, &content(0, 2)).unwrap();
        assert_eq!(plane.discards.load(Ordering::Relaxed), 1);
        go.send(()).unwrap();
        assert_eq!(putter.join().unwrap(), PutResult::Stored { demotions: 1 });
    });

    // Push key 0 out dirty: its swap-out must find no stale entry.
    svc.put(T, 5, &content(5, 1)).unwrap();
    svc.put(T, 6, &content(6, 1)).unwrap();
    let outs = plane.outs.lock().unwrap().clone();
    assert_eq!(
        outs.iter().filter(|&&p| p == page_of(0)).count(),
        2,
        "{outs:?}"
    );
    let got = svc.get(T, 0, &mut out).unwrap().unwrap();
    assert_eq!((got.source, &out), (GetSource::Fault, &content(0, 2)));

    let snap = svc.snapshot(T).unwrap();
    assert_eq!(snap.overflows, 0, "{snap:?}");
    assert_eq!(plane.stats().rejected_full, 0);
    for key in 0..7 {
        svc.get(T, key, &mut out).unwrap().unwrap();
        assert_eq!(out[8], if key == 0 { 2 } else { 1 }, "key {key}");
    }
    let acct = svc.accounting();
    assert!(acct.balanced, "{acct:?}");
}

#[test]
fn free_running_same_key_traffic_keeps_values_and_ledgers_exact() {
    const THREADS: u64 = 4;
    const KEYS: u64 = 5;
    const OPS: usize = 3000;
    const VERSIONS: u64 = 32;

    let plane = ProbePlane::new(ByteSize::from_mib(8));
    let svc = service(&plane, 2, ByteSize::from_mib(4));
    // Bit `v` of `written[k]`: some thread has started writing version
    // `v` to key `k`.
    let written: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let check = |key: u64, out: &[u8]| {
        let version = out[8];
        assert_eq!(
            out,
            content(key, version),
            "key {key}: torn or foreign page"
        );
        assert!(
            written[key as usize].load(Ordering::SeqCst) & (1 << version) != 0,
            "key {key} returned version {version}, which nobody wrote"
        );
    };

    std::thread::scope(|scope| {
        for w in 0..THREADS {
            let (svc, written, check) = (&svc, &written, &check);
            scope.spawn(move || {
                let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(w + 1) | 1;
                let mut out = Vec::new();
                for _ in 0..OPS {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = (x >> 20) % KEYS;
                    if (x >> 40).is_multiple_of(3) {
                        let version = ((x >> 48) % VERSIONS) as u8;
                        written[key as usize].fetch_or(1 << version, Ordering::SeqCst);
                        let stored = svc.put(T, key, &content(key, version)).unwrap();
                        assert!(matches!(stored, PutResult::Stored { .. }));
                    } else if svc.get(T, key, &mut out).unwrap().is_some() {
                        check(key, &out);
                    }
                }
            });
        }
    });

    // Whatever survived is a written value; then a known final state
    // must read back byte-exact.
    let mut out = Vec::new();
    for key in svc.keys(T) {
        svc.get(T, key, &mut out).unwrap().unwrap();
        check(key, &out);
    }
    for key in 0..KEYS {
        svc.put(T, key, &content(key, 63)).unwrap();
    }
    for key in 0..KEYS {
        svc.get(T, key, &mut out).unwrap().unwrap();
        assert_eq!(out, content(key, 63), "final sweep, key {key}");
    }

    let snap = svc.snapshot(T).unwrap();
    assert!(snap.hits + snap.faults <= snap.gets, "{snap:?}");
    assert_eq!(snap.resident_bytes, 2 * PAGE_SIZE as u64);
    // Each service fault was exactly one plane swap-in or load (no
    // double fault), every discard reached the plane's own, and only a
    // dirty demotion stored bytes.
    let stats = plane.stats();
    assert_eq!(snap.faults, plane.demand_ins.load(Ordering::Relaxed));
    assert_eq!(stats.swap_ins + stats.loads, snap.faults);
    assert_eq!(stats.discards, plane.discards.load(Ordering::Relaxed));
    assert_eq!(stats.swap_outs, snap.demotions - snap.clean_demotions);
    let acct = svc.accounting();
    assert!(acct.balanced, "{acct:?}");
}

#[test]
fn a_forced_wait_is_recorded_as_lock_wait() {
    let plane = ProbePlane::new(ByteSize::from_mib(8));
    let registry = Registry::new();
    let mut svc = service(&plane, 1, ByteSize::from_mib(4));
    svc.attach_telemetry(&registry);
    let waits = registry.histogram(&format!(
        "xfm_serve_lock_wait_ns{{tenant=\"{}\"}}",
        T.as_u16()
    ));
    svc.put(T, 0, &content(0, 1)).unwrap();
    svc.put(T, 1, &content(1, 1)).unwrap(); // demotes key 0
    assert_eq!(waits.count(), 0, "nothing has waited yet");

    let (seen, go) = plane.arm(Dir::In);
    let get = || {
        let mut out = Vec::new();
        svc.get(T, 0, &mut out).unwrap().unwrap().source
    };
    std::thread::scope(|scope| {
        let first = scope.spawn(get);
        seen.recv().unwrap();
        let second = scope.spawn(get);
        await_waiter(&svc);
        go.send(()).unwrap();
        assert_eq!(first.join().unwrap(), GetSource::Fault);
        assert_eq!(second.join().unwrap(), GetSource::Hot);
    });
    assert!(
        waits.count() >= 1,
        "the coalesced get's wait was not recorded"
    );
}

#[test]
fn hot_reads_racing_whole_page_writes_never_tear() {
    const KEYS: u64 = 4;
    const VERSIONS: u8 = 255;
    const MIN_READS: u64 = 2_000;

    // Two resident pages against four keys: the writer's puts and the
    // readers' faults keep demoting and faulting under the readers.
    let plane = ProbePlane::new(ByteSize::from_mib(8));
    let svc = service(&plane, 2, ByteSize::from_mib(4));
    let page = |version: u8| vec![version; PAGE_SIZE];
    for key in 0..KEYS {
        svc.put(T, key, &page(1)).unwrap();
    }
    let writing = AtomicBool::new(true);

    std::thread::scope(|scope| {
        for r in 0..2u64 {
            let (svc, writing) = (&svc, &writing);
            scope.spawn(move || {
                let mut x = 0x2545_F491_4F6C_DD1Du64.wrapping_mul(r + 1) | 1;
                let mut out = Vec::new();
                // The newest version this reader saw per key: a later
                // read may not go back past it.
                let mut seen = [1u8; KEYS as usize];
                let mut reads = 0;
                while reads < MIN_READS || writing.load(Ordering::SeqCst) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = (x >> 33) % KEYS;
                    svc.get(T, key, &mut out).unwrap().expect("key lost");
                    let version = out[0];
                    assert!(
                        out.len() == PAGE_SIZE && out.iter().all(|&b| b == version),
                        "key {key}: torn page (starts with version {version})"
                    );
                    assert!(
                        version >= seen[key as usize],
                        "key {key} went back from version {} to {version}",
                        seen[key as usize]
                    );
                    seen[key as usize] = version;
                    reads += 1;
                }
            });
        }
        for version in 2..=VERSIONS {
            for key in 0..KEYS {
                let stored = svc.put(T, key, &page(version)).unwrap();
                assert!(matches!(stored, PutResult::Stored { .. }));
            }
        }
        writing.store(false, Ordering::SeqCst);
    });

    let mut out = Vec::new();
    for key in 0..KEYS {
        svc.get(T, key, &mut out).unwrap().expect("key lost");
        assert_eq!(out, page(VERSIONS), "key {key}");
    }
    assert_eq!(svc.keys(T), (0..KEYS).collect::<Vec<_>>());
    let snap = svc.snapshot(T).unwrap();
    assert!(snap.hits > 0 && snap.faults > 0, "{snap:?}");
    let acct = svc.accounting();
    assert!(acct.balanced, "{acct:?}");
}
