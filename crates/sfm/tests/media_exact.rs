//! Virtual-time exactness pin for the raw-page media planes.
//!
//! One fixed script per plane — a bare [`ModeledPlane`] (capacity
//! refusals, injected `bit_corruption` retries), a [`ReplicatedPlane`]
//! (a `replica_loss` drop storm, read repairs, each replica killed,
//! revived and scrubbed) and the three-tier composition `tier-prefetch`
//! builds, at 256 pages — and every deterministic value the planes
//! expose afterwards: the shared virtual clock, count and sum of every
//! latency histogram, the fault and repair counters, `stats()`,
//! `pool_stats()`, `tier_stats()` and `tenant_usage()`.
//!
//! The constants were recorded from the parent of PR 24 (commit
//! `3a1a3d2`) before any line of `modeled.rs` or `tier.rs` changed. A
//! change to those planes must reproduce them to the last nanosecond:
//! never regenerate them to make a change pass. The one exception is
//! the codec's output: the compressed local tier's byte counts in
//! [`TIERED_EXPECTED`] (`tier0.stored_bytes`, `tiered.ddr_bytes`,
//! `tiered.stored_bytes`, `tiered.usage.*`) were regenerated once when
//! the match finder took zlib level 6's lazy rules; every clock, count
//! and media value stayed as recorded.

use std::collections::BTreeMap;
use std::sync::Arc;

use xfm_compress::Corpus;
use xfm_event::ClockMirror;
use xfm_faults::{FaultInjector, FaultPlan, FaultSite, SiteSpec, SplitMix64};
use xfm_sfm::{
    MediaModel, ModeledPlane, ReplicatedPlane, ShardedSfm, ShardedSfmConfig, SwapPlane, TierSpec,
    TieredPlane,
};
use xfm_types::{Nanos, OpContext, PageNumber, PlacementClass, PlaneId, TenantId, PAGE_SIZE};

type Fingerprint = Vec<(String, u64)>;

fn content(page: u64, version: u64) -> Vec<u8> {
    Corpus::Json.generate(page.wrapping_mul(2_654_435_761) ^ version, PAGE_SIZE)
}

fn ctx_of(page: u64) -> OpContext {
    OpContext::for_tenant(TenantId::new((page % 3) as u16 + 1))
}

/// The reference the script checks bytes against while it drives
/// `plane`: which pages are out, and at which content version.
struct Driver<'a> {
    plane: &'a dyn SwapPlane,
    rng: SplitMix64,
    resident: BTreeMap<u64, u64>,
    version: u64,
    pages: u64,
    refused: u64,
    retried: u64,
    buf: Vec<u8>,
}

impl<'a> Driver<'a> {
    fn new(plane: &'a dyn SwapPlane, seed: u64, pages: u64) -> Self {
        Self {
            plane,
            rng: SplitMix64::new(seed),
            resident: BTreeMap::new(),
            version: 0,
            pages,
            refused: 0,
            retried: 0,
            buf: Vec::with_capacity(PAGE_SIZE),
        }
    }

    /// Stores `page` at a fresh version; a capacity refusal is counted
    /// and leaves the page out.
    fn store(&mut self, page: u64) {
        self.version += 1;
        let data = content(page, self.version);
        match self
            .plane
            .swap_out_ctx(&ctx_of(page), PageNumber::new(page), &data)
        {
            Ok(_) => {
                self.resident.insert(page, self.version);
            }
            Err(e) if e.is_capacity() => self.refused += 1,
            Err(e) => panic!("store of page {page}: {e}"),
        }
    }

    /// Faults `page` back, retrying a failed read, and checks every byte.
    fn fault(&mut self, page: u64) {
        let version = self.resident.remove(&page).expect("resident page");
        // A fault that fails left the page where it was (an injected
        // in-transit flip; on the replica pair, also a flip on one side
        // while the other never got the write): the retry reads it.
        let mut attempts = 0;
        while let Err(e) = self
            .plane
            .swap_in_into(PageNumber::new(page), false, &mut self.buf)
        {
            attempts += 1;
            assert!(attempts < 8, "fault of page {page}: {e}");
            self.retried += 1;
        }
        assert_eq!(self.buf, content(page, version), "page {page}");
    }

    /// One step of the mix: a fault of a random resident page, or a
    /// store of a random page that is out.
    fn step(&mut self) {
        let r = self.rng.next_u64();
        let want_fault = r % 5 < 2;
        if want_fault && !self.resident.is_empty() {
            let nth = (r >> 8) as usize % self.resident.len();
            let page = *self.resident.keys().nth(nth).expect("nth resident");
            self.fault(page);
        } else {
            let start = (r >> 8) % self.pages;
            let page = (0..self.pages)
                .map(|i| (start + i) % self.pages)
                .find(|p| !self.resident.contains_key(p));
            match page {
                Some(page) => self.store(page),
                None => self.fault(start),
            }
        }
    }
}

fn push(fp: &mut Fingerprint, name: &str, value: u64) {
    fp.push((name.to_owned(), value));
}

fn push_plane(fp: &mut Fingerprint, prefix: &str, plane: &dyn SwapPlane) {
    let stats = plane.stats();
    let pool = plane.pool_stats();
    push(fp, &format!("{prefix}.swap_outs"), stats.swap_outs);
    push(fp, &format!("{prefix}.swap_ins"), stats.swap_ins);
    push(
        fp,
        &format!("{prefix}.cpu_executions"),
        stats.cpu_executions,
    );
    push(
        fp,
        &format!("{prefix}.ddr_bytes"),
        stats.ddr_bytes.as_bytes(),
    );
    push(fp, &format!("{prefix}.objects"), pool.objects);
    push(
        fp,
        &format!("{prefix}.stored_bytes"),
        pool.stored_bytes.as_bytes(),
    );
    for (tenant, bytes) in plane.tenant_usage() {
        push(fp, &format!("{prefix}.usage.t{}", tenant.as_u16()), bytes);
    }
}

fn push_media(fp: &mut Fingerprint, prefix: &str, media: &ModeledPlane) {
    let (r, w) = (media.read_latency(), media.write_latency());
    push(fp, &format!("{prefix}.read.count"), r.count());
    push(fp, &format!("{prefix}.read.sum"), r.sum());
    push(fp, &format!("{prefix}.write.count"), w.count());
    push(fp, &format!("{prefix}.write.sum"), w.sum());
    push(fp, &format!("{prefix}.len"), media.len());
    push(
        fp,
        &format!("{prefix}.corrupted_reads"),
        media.corrupted_reads(),
    );
}

fn push_replicated(fp: &mut Fingerprint, prefix: &str, rep: &ReplicatedPlane) {
    push(
        fp,
        &format!("{prefix}.dropped_writes"),
        rep.dropped_writes(),
    );
    push(
        fp,
        &format!("{prefix}.degraded_reads"),
        rep.degraded_reads(),
    );
    push(fp, &format!("{prefix}.repairs"), rep.repairs());
    push_media(fp, &format!("{prefix}.r0"), rep.replica(0));
    push_media(fp, &format!("{prefix}.r1"), rep.replica(1));
}

/// Compares against the recorded constants; on a mismatch prints the
/// whole actual fingerprint in the constants' own syntax.
fn check(actual: &Fingerprint, expected: &[(&str, u64)]) {
    let same = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|((an, av), (en, ev))| an == en && av == ev);
    if !same {
        let listing: String = actual
            .iter()
            .map(|(n, v)| format!("    (\"{n}\", {v}),\n"))
            .collect();
        panic!("fingerprint differs from the recorded constants; actual:\n{listing}");
    }
}

fn injector(seed: u64, sites: &[(FaultSite, SiteSpec)]) -> Arc<FaultInjector> {
    let plan = sites.iter().fold(FaultPlan::new(seed), |p, (site, spec)| {
        p.with_site(*site, *spec)
    });
    Arc::new(FaultInjector::new(&plan))
}

#[test]
fn bare_modeled_plane_repeats_to_the_nanosecond() {
    let clock = ClockMirror::new();
    let mut ssd = ModeledPlane::new("ssd", MediaModel::ssd(), 48, clock.clone());
    ssd.attach_faults(injector(
        11,
        &[(FaultSite::BitCorruption, SiteSpec::with_probability(0.04))],
    ));
    let mut d = Driver::new(&ssd, 0x5eed_0001, 64);
    for op in 0..1000u64 {
        d.step();
        if op % 7 == 0 {
            // An idle gap: the next request finds the device free, so
            // both arms of the queue's `max(busy_until, now)` are taken.
            clock.publish(Nanos::from_ns(clock.now_ns() + 90_000));
        }
    }
    assert!(d.refused > 0, "the script reaches the capacity refusal");
    assert!(d.retried > 0, "the script reaches the corruption retry");

    let mut fp = Fingerprint::new();
    push(&mut fp, "clock.now_ns", clock.now_ns());
    push(&mut fp, "refused", d.refused);
    push(&mut fp, "retried", d.retried);
    push_media(&mut fp, "ssd", &ssd);
    push_plane(&mut fp, "ssd", &ssd);
    check(&fp, BARE_EXPECTED);
}

#[test]
fn replicated_plane_repeats_through_storm_kill_and_scrub() {
    let clock = ClockMirror::new();
    let mut rep = ReplicatedPlane::new("remote", MediaModel::remote(), 0, clock.clone());
    rep.attach_faults(injector(
        23,
        &[
            (
                FaultSite::ReplicaLoss,
                SiteSpec::with_probability(0.3).max_fires(40),
            ),
            (FaultSite::BitCorruption, SiteSpec::with_probability(0.03)),
        ],
    ));
    let mut d = Driver::new(&rep, 0x5eed_0002, 96);
    let mut fp = Fingerprint::new();

    // The drop storm: a read of a page replica 1 lost repairs it.
    for _ in 0..350 {
        d.step();
    }
    push(&mut fp, "storm.dropped_writes", rep.dropped_writes());
    push(&mut fp, "storm.repairs", rep.repairs());
    // Anti-entropy before a kill (a copy whose read drew a flip waits
    // for the second pass): a page with one copy is not available while
    // that copy's replica is down.
    push(&mut fp, "storm.scrub", rep.scrub());
    push(&mut fp, "storm.rescrub", rep.scrub());
    // Replica 0 down: stores reach replica 1 only, every read is degraded.
    rep.kill(0);
    for _ in 0..150 {
        d.step();
    }
    push(&mut fp, "kill0.degraded_reads", rep.degraded_reads());
    rep.revive(0);
    push(&mut fp, "revive0.scrub", rep.scrub());
    push(&mut fp, "revive0.rescrub", rep.scrub());
    for _ in 0..250 {
        d.step();
    }
    // The other side.
    rep.kill(1);
    for _ in 0..100 {
        d.step();
    }
    rep.revive(1);
    push(&mut fp, "revive1.scrub", rep.scrub());
    for _ in 0..150 {
        d.step();
    }
    assert!(rep.dropped_writes() > 0 && rep.repairs() > 0 && rep.degraded_reads() > 0);

    push(&mut fp, "clock.now_ns", clock.now_ns());
    push(&mut fp, "retried", d.retried);
    push_replicated(&mut fp, "remote", &rep);
    push_plane(&mut fp, "remote", &rep);
    check(&fp, REPLICATED_EXPECTED);
}

#[test]
fn three_tier_composition_repeats_at_256_pages() {
    const N: u64 = 256;
    let clock = ClockMirror::new();
    let local = Arc::new(ShardedSfm::new(ShardedSfmConfig::default()));
    let ssd = Arc::new(ModeledPlane::new(
        "ssd",
        MediaModel::ssd(),
        0,
        clock.clone(),
    ));
    let remote = Arc::new(ReplicatedPlane::new(
        "remote",
        MediaModel::remote(),
        0,
        clock.clone(),
    ));
    let tiered = TieredPlane::new(vec![
        TierSpec::new(local, PlaneId::new(0), PlacementClass::CompressedLocal)
            .with_capacity_pages(N / 8),
        TierSpec::new(ssd.clone(), PlaneId::new(1), PlacementClass::Ssd).with_capacity_pages(N / 4),
        TierSpec::new(remote.clone(), PlaneId::new(2), PlacementClass::Remote),
    ])
    .expect("three distinct tiers");

    let mut d = Driver::new(&tiered, 0x5eed_0003, N);
    for page in 0..N {
        d.store(page);
    }
    for _ in 0..750 {
        d.step();
    }
    assert_eq!((d.refused, d.retried), (0, 0));

    let mut fp = Fingerprint::new();
    push(&mut fp, "clock.now_ns", clock.now_ns());
    push_media(&mut fp, "ssd", &ssd);
    push_replicated(&mut fp, "remote", &remote);
    for (k, t) in tiered.tier_stats().iter().enumerate() {
        let p = format!("tier{k}");
        push(&mut fp, &format!("{p}.resident_pages"), t.resident_pages);
        push(&mut fp, &format!("{p}.demoted_out"), t.demoted_out);
        push(&mut fp, &format!("{p}.demoted_in"), t.demoted_in);
        push(&mut fp, &format!("{p}.promoted"), t.promoted);
        push(&mut fp, &format!("{p}.swap_outs"), t.backend.swap_outs);
        push(&mut fp, &format!("{p}.swap_ins"), t.backend.swap_ins);
        push(&mut fp, &format!("{p}.objects"), t.pool.objects);
        push(
            &mut fp,
            &format!("{p}.stored_bytes"),
            t.pool.stored_bytes.as_bytes(),
        );
    }
    push_plane(&mut fp, "tiered", &tiered);
    check(&fp, TIERED_EXPECTED);
}

const BARE_EXPECTED: &[(&str, u64)] = &[
    ("clock.now_ns", 45_930_192),
    ("refused", 135),
    ("retried", 14),
    ("ssd.read.count", 409),
    ("ssd.read.sum", 9_017_632),
    ("ssd.write.count", 456),
    ("ssd.write.sum", 23_733_888),
    ("ssd.len", 47),
    ("ssd.corrupted_reads", 14),
    ("ssd.swap_outs", 456),
    ("ssd.swap_ins", 409),
    ("ssd.cpu_executions", 865),
    ("ssd.ddr_bytes", 3_543_040),
    ("ssd.objects", 47),
    ("ssd.stored_bytes", 192_512),
    ("ssd.usage.t1", 65_536),
    ("ssd.usage.t2", 65_536),
    ("ssd.usage.t3", 61_440),
];

const REPLICATED_EXPECTED: &[(&str, u64)] = &[
    ("storm.dropped_writes", 40),
    ("storm.repairs", 34),
    ("storm.scrub", 6),
    ("storm.rescrub", 0),
    ("kill0.degraded_reads", 67),
    ("revive0.scrub", 65),
    ("revive0.rescrub", 2),
    ("revive1.scrub", 39),
    ("clock.now_ns", 6_278_436),
    ("retried", 3),
    ("remote.dropped_writes", 40),
    ("remote.degraded_reads", 77),
    ("remote.repairs", 146),
    ("remote.r0.read.count", 423),
    ("remote.r0.read.sum", 1_615_437),
    ("remote.r0.write.count", 525),
    ("remote.r0.write.sum", 2_004_975),
    ("remote.r0.len", 90),
    ("remote.r0.corrupted_reads", 17),
    ("remote.r1.read.count", 144),
    ("remote.r1.read.sum", 549_936),
    ("remote.r1.write.count", 533),
    ("remote.r1.write.sum", 2_035_527),
    ("remote.r1.len", 90),
    ("remote.r1.corrupted_reads", 2),
    ("remote.swap_outs", 545),
    ("remote.swap_ins", 455),
    ("remote.cpu_executions", 1_000),
    ("remote.ddr_bytes", 4_096_000),
    ("remote.objects", 90),
    ("remote.stored_bytes", 368_640),
    ("remote.usage.t1", 126_976),
    ("remote.usage.t2", 110_592),
    ("remote.usage.t3", 131_072),
];

const TIERED_EXPECTED: &[(&str, u64)] = &[
    ("clock.now_ns", 42_480_872),
    ("ssd.read.count", 476),
    ("ssd.read.sum", 10_494_848),
    ("ssd.write.count", 540),
    ("ssd.write.sum", 28_105_920),
    ("ssd.len", 64),
    ("ssd.corrupted_reads", 0),
    ("remote.dropped_writes", 0),
    ("remote.degraded_reads", 0),
    ("remote.repairs", 0),
    ("remote.r0.read.count", 234),
    ("remote.r0.read.sum", 893_646),
    ("remote.r0.write.count", 391),
    ("remote.r0.write.sum", 1_493_229),
    ("remote.r0.len", 157),
    ("remote.r0.corrupted_reads", 0),
    ("remote.r1.read.count", 0),
    ("remote.r1.read.sum", 0),
    ("remote.r1.write.count", 391),
    ("remote.r1.write.sum", 1_493_229),
    ("remote.r1.len", 157),
    ("remote.r1.corrupted_reads", 0),
    ("tier0.resident_pages", 31),
    ("tier0.demoted_out", 540),
    ("tier0.demoted_in", 0),
    ("tier0.promoted", 0),
    ("tier0.swap_outs", 629),
    ("tier0.swap_ins", 598),
    ("tier0.objects", 31),
    ("tier0.stored_bytes", 31_118),
    ("tier1.resident_pages", 64),
    ("tier1.demoted_out", 391),
    ("tier1.demoted_in", 540),
    ("tier1.promoted", 85),
    ("tier1.swap_outs", 540),
    ("tier1.swap_ins", 476),
    ("tier1.objects", 64),
    ("tier1.stored_bytes", 262_144),
    ("tier2.resident_pages", 157),
    ("tier2.demoted_out", 0),
    ("tier2.demoted_in", 391),
    ("tier2.promoted", 234),
    ("tier2.swap_outs", 391),
    ("tier2.swap_ins", 234),
    ("tier2.objects", 157),
    ("tier2.stored_bytes", 643_072),
    ("tiered.swap_outs", 1_560),
    ("tiered.swap_ins", 1_308),
    ("tiered.cpu_executions", 2_868),
    ("tiered.ddr_bytes", 12_975_804),
    ("tiered.objects", 252),
    ("tiered.stored_bytes", 936_334),
    ("tiered.usage.t1", 321_349),
    ("tiered.usage.t2", 310_045),
    ("tiered.usage.t3", 304_940),
];
