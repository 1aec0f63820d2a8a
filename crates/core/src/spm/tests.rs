//! Unit tests of the ScratchPad Memory's byte accounting.
//!
//! The SPM is the count of the bytes the NMA's in-flight offloads hold
//! (see [`crate::nma`]): a served read takes its output's bytes, a
//! served write-back, a spill or an engine timeout gives them back. The
//! tests drive one device with an 8 KiB SPM and read the count through
//! `spm_free()`, the SP_Capacity_Register and the high-water stat.

use std::sync::Arc;

use xfm_faults::{FaultInjector, FaultPlan, FaultSite, SiteSpec};
use xfm_types::{ByteSize, Error, Nanos, PageNumber, RowId};

use crate::nma::{NearMemoryAccelerator, NmaConfig, NmaEvent, OffloadShare};
use crate::regs::{OffloadKind, Reg};

fn nma() -> NearMemoryAccelerator {
    NearMemoryAccelerator::new(NmaConfig {
        spm_capacity: ByteSize::from_kib(8),
        ..NmaConfig::default()
    })
}

/// Submits a flexible compression of a full page into `output` bytes,
/// read from row 1 (refreshed in window 1).
fn compress(n: &mut NearMemoryAccelerator, page: u64, output: u32) -> xfm_types::Result<()> {
    let share = OffloadShare {
        input: 4096,
        output,
    };
    let (page, row) = (PageNumber::new(page), RowId::new(1));
    n.submit(OffloadKind::Compress, page, share, row, Nanos::ZERO, true)
}

/// A time after window 1 served the reads of row 1 and before any
/// write-back of them.
fn after_read(n: &NearMemoryAccelerator) -> Nanos {
    n.config().timings.t_refi * 2
}

fn used(n: &NearMemoryAccelerator) -> u64 {
    (n.config().spm_capacity - n.spm_free()).as_bytes()
}

fn completed(events: &[NmaEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, NmaEvent::Completed { .. }))
        .count()
}

#[test]
fn reserve_complete_release_cycle() {
    let mut n = nma();
    compress(&mut n, 1, 1000).unwrap();
    // A queued read is a descriptor only.
    assert_eq!(used(&n), 0);
    // The served read holds exactly its output, not the 4160-byte
    // reservation the driver books for it.
    assert!(n.advance_to(after_read(&n)).is_empty());
    assert_eq!(used(&n), 1000);
    // The write-back releases it.
    let events = n.advance_to(Nanos::from_ms(64));
    assert_eq!(completed(&events), 1, "{events:?}");
    assert_eq!(used(&n), 0);
}

#[test]
fn capacity_enforced() {
    let mut n = nma();
    // Two 4096-byte outputs fill the SPM; the third read, one byte,
    // steps aside until a write-back frees room.
    compress(&mut n, 1, 4096).unwrap();
    compress(&mut n, 2, 4096).unwrap();
    compress(&mut n, 3, 1).unwrap();
    assert!(n.advance_to(after_read(&n)).is_empty());
    assert_eq!(used(&n), 8192);
    assert_eq!(n.spm_free(), ByteSize::ZERO);
    assert!(n.stats().sched.spm_stalls > 0);
    // No read is served past the capacity, and all three finish.
    let events = n.advance_to(Nanos::from_ms(64));
    assert_eq!(completed(&events), 3, "{events:?}");
    assert_eq!(n.stats().spm_high_water, ByteSize::from_kib(8));
    assert_eq!(used(&n), 0);
}

#[test]
fn release_of_pending_slot_rejected() {
    let mut n = nma();
    compress(&mut n, 1, 100).unwrap();
    // Between its read and its write-back the output is held: no event
    // hands it back early and its bytes stay counted.
    let t_refi = n.config().timings.t_refi;
    let mut now = after_read(&n);
    assert!(n.advance_to(now).is_empty());
    assert_eq!(used(&n), 100);
    loop {
        now += t_refi;
        let events = n.advance_to(now);
        if !events.is_empty() {
            assert_eq!(completed(&events), 1, "{events:?}");
            break;
        }
        assert_eq!(used(&n), 100);
    }
    assert_eq!(used(&n), 0);
}

#[test]
fn double_complete_rejected() {
    let mut n = nma();
    compress(&mut n, 1, 100).unwrap();
    let events = n.advance_to(Nanos::from_ms(64));
    assert_eq!(completed(&events), 1, "{events:?}");
    // A completed offload completes once: nothing more follows, and its
    // bytes are not given back twice.
    assert!(n.advance_to(Nanos::from_ms(128)).is_empty());
    assert_eq!(n.stats().completed, 1);
    assert_eq!(n.spm_free(), n.config().spm_capacity);
}

#[test]
fn oversized_output_rejected() {
    let mut n = nma();
    // A compressed output may exceed its page by the 64-byte framing of
    // a stored container, no more.
    let refused = compress(&mut n, 1, 4096 + 65);
    assert!(
        matches!(refused, Err(Error::InvalidConfig(_))),
        "{refused:?}"
    );
    assert_eq!(n.stats().submitted, 0);
    assert!(n.advance_to(Nanos::from_ms(64)).is_empty());
    assert_eq!(n.stats().spm_high_water, ByteSize::ZERO);
}

#[test]
fn cancel_frees_space() {
    // One engine timeout: the offload falls back and its output's bytes
    // are given back, so a full-SPM pair of offloads fits afterwards.
    let plan = FaultPlan::new(7).with_site(
        FaultSite::NmaEngineTimeout,
        SiteSpec::with_probability(1.0).max_fires(1),
    );
    let mut n = nma();
    n.attach_faults(Arc::new(FaultInjector::new(&plan)));
    compress(&mut n, 1, 4096).unwrap();
    let events = n.advance_to(Nanos::from_ms(64));
    assert!(
        matches!(events[..], [NmaEvent::Fallback { bytes: 4096, .. }]),
        "{events:?}"
    );
    assert_eq!(used(&n), 0);
    let now = Nanos::from_ms(64);
    for page in [2, 3] {
        let share = OffloadShare {
            input: 4096,
            output: 4096,
        };
        n.submit(
            OffloadKind::Compress,
            PageNumber::new(page),
            share,
            RowId::new(1),
            now,
            true,
        )
        .unwrap();
    }
    let events = n.advance_to(Nanos::from_ms(128));
    assert_eq!(completed(&events), 2, "{events:?}");
    assert_eq!(n.stats().sched.spm_stalls, 0);
    assert_eq!(n.stats().spm_high_water, ByteSize::from_kib(8));
}

#[test]
fn high_water_tracks_peak() {
    let mut n = nma();
    compress(&mut n, 1, 3000).unwrap();
    compress(&mut n, 2, 3000).unwrap();
    let events = n.advance_to(Nanos::from_ms(64));
    assert_eq!(completed(&events), 2, "{events:?}");
    assert_eq!(n.stats().spm_high_water.as_bytes(), 6000);
    assert_eq!(used(&n), 0);
}

#[test]
fn free_reflects_sp_capacity_register_semantics() {
    let mut n = nma();
    assert_eq!(n.regs_mut().read(Reg::SpCapacity), 8192);
    compress(&mut n, 1, 1024).unwrap();
    n.advance_to(after_read(&n));
    assert_eq!(n.regs_mut().read(Reg::SpCapacity), 8192 - 1024);
    assert_eq!(n.spm_free().as_bytes(), 8192 - 1024);
}
