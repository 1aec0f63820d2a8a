//! The consume-once contract of the raw-page media planes under two
//! threads — what [`SwapPlane`]'s `&self` surface promises and
//! `PageStore` keeps by construction.
//!
//! (a) Two callers fault the same stored page at the same moment
//! (barrier-aligned, every round): exactly one gets it, the other sees
//! `EntryNotFound`, and the plane counts one swap-in. (b) A writer is
//! chased by a reader that faults each page the instant it lands:
//! afterwards nothing is resident, nobody is billed, and every page
//! number can be stored again.
//!
//! A correct plane passes on any host, one core included: no verdict
//! here depends on timing, only the power to catch a broken plane does.
//! Both failed at the parent of PR 24 (EXPERIMENTS.md has the counts).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use xfm_event::ClockMirror;
use xfm_sfm::{MediaModel, ModeledPlane, ReplicatedPlane, ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm_testkit::filled_page;
use xfm_types::{Error, OpContext, PageNumber, TenantId, PAGE_SIZE};

const RACE_ROUNDS: u64 = 20_000;
const CHASE_PAGES: u64 = 200_000;
/// How far the writer may run ahead of the reader: bounds the pages
/// resident at once, whatever the scheduler does.
const CHASE_LEAD: u64 = 64;

fn modeled() -> ModeledPlane {
    ModeledPlane::new("ssd", MediaModel::ssd(), 0, ClockMirror::new())
}

fn replicated() -> ReplicatedPlane {
    ReplicatedPlane::new("remote", MediaModel::remote(), 0, ClockMirror::new())
}

/// Same-filled, so the sharded control plane runs no codec.
/// (a): every round stores one page, lines both threads up on a barrier
/// and lets them fault it together. Nothing asserts inside a thread — a
/// racer that panicked would leave the other on the barrier forever —
/// so anything but "the page, intact" or `EntryNotFound` is counted.
fn exactly_one_of_two_racing_swap_ins_gets_the_page(plane: &dyn SwapPlane) {
    let barrier = Barrier::new(2);
    let (delivered, wrong) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        for racer in 0..2 {
            let (barrier, delivered, wrong) = (&barrier, &delivered, &wrong);
            s.spawn(move || {
                let mut buf = Vec::with_capacity(PAGE_SIZE);
                for round in 0..RACE_ROUNDS {
                    let page = PageNumber::new(round);
                    if racer == 0 && plane.swap_out(page, &filled_page(round as u8)).is_err() {
                        wrong.fetch_add(1, Ordering::Relaxed);
                    }
                    barrier.wait();
                    match plane.swap_in_into(page, false, &mut buf) {
                        Ok(_) if buf == filled_page(round as u8) => {
                            delivered.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if matches!(e.cause(), Error::EntryNotFound { .. }) => {}
                        _ => {
                            wrong.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // The next round's store must not overtake a racer
                    // still inside this round's fault.
                    barrier.wait();
                }
            });
        }
    });
    assert_eq!(
        wrong.load(Ordering::Relaxed),
        0,
        "failed stores, torn pages, other errors"
    );
    assert_eq!(
        delivered.load(Ordering::Relaxed),
        RACE_ROUNDS,
        "one delivery per stored page"
    );
    assert_eq!(plane.stats().swap_ins, RACE_ROUNDS);
    assert_eq!(plane.pool_stats().objects, 0);
}

#[test]
fn one_of_two_racing_swap_ins_gets_the_page_on_the_modeled_plane() {
    exactly_one_of_two_racing_swap_ins_gets_the_page(&modeled());
}

#[test]
fn one_of_two_racing_swap_ins_gets_the_page_on_the_replicated_plane() {
    exactly_one_of_two_racing_swap_ins_gets_the_page(&replicated());
}

/// The control: the plane whose store has had the contract since PR 21.
#[test]
fn one_of_two_racing_swap_ins_gets_the_page_on_the_sharded_plane() {
    exactly_one_of_two_racing_swap_ins_gets_the_page(&ShardedSfm::new(ShardedSfmConfig::default()));
}

/// (b): the reader spins on page `n` until the writer's store of it
/// lands, so its fault runs against the tail of that store. A page
/// still missing on an attempt that began after its store returned is
/// lost, and counted instead of waited for.
fn a_chased_writer_leaves_nothing_behind(plane: &dyn SwapPlane) {
    let ctx = OpContext::for_tenant(TenantId::new(3));
    let (written, read, wrong) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        s.spawn(|| {
            for n in 0..CHASE_PAGES {
                while n - read.load(Ordering::Acquire) >= CHASE_LEAD {
                    std::thread::yield_now();
                }
                if plane
                    .swap_out_ctx(&ctx, PageNumber::new(n), &filled_page(n as u8))
                    .is_err()
                {
                    wrong.fetch_add(1, Ordering::Relaxed);
                }
                written.store(n + 1, Ordering::Release);
            }
        });
        s.spawn(|| {
            let mut buf = Vec::with_capacity(PAGE_SIZE);
            for n in 0..CHASE_PAGES {
                loop {
                    let landed = written.load(Ordering::Acquire) > n;
                    match plane.swap_in_into(PageNumber::new(n), false, &mut buf) {
                        Ok(_) if buf == filled_page(n as u8) => break,
                        Err(e) if !landed && matches!(e.cause(), Error::EntryNotFound { .. }) => {
                            std::thread::yield_now();
                        }
                        _ => {
                            wrong.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                read.store(n + 1, Ordering::Release);
            }
        });
    });
    assert_eq!(
        wrong.load(Ordering::Relaxed),
        0,
        "failed stores, lost or torn pages"
    );
    assert_eq!(plane.tenant_usage(), vec![], "nobody is billed");
    assert_eq!(plane.pool_stats().objects, 0, "nothing is resident");
    let stats = plane.stats();
    assert_eq!(
        (stats.swap_outs, stats.swap_ins),
        (CHASE_PAGES, CHASE_PAGES)
    );
    let mut buf = Vec::with_capacity(PAGE_SIZE);
    for n in 0..CHASE_PAGES {
        let page = PageNumber::new(n);
        plane
            .swap_out(page, &filled_page((n + 1) as u8))
            .unwrap_or_else(|e| panic!("page {n} cannot be stored again: {e}"));
        plane.swap_in_into(page, false, &mut buf).expect("fault");
        assert_eq!(buf, filled_page((n + 1) as u8), "page {n}, second life");
    }
}

#[test]
fn a_chased_writer_leaves_nothing_behind_on_the_modeled_plane() {
    let plane = modeled();
    a_chased_writer_leaves_nothing_behind(&plane);
    assert!(plane.is_empty());
}

#[test]
fn a_chased_writer_leaves_nothing_behind_on_the_replicated_plane() {
    let plane = replicated();
    a_chased_writer_leaves_nothing_behind(&plane);
    assert!(plane.replica(0).is_empty() && plane.replica(1).is_empty());
}
