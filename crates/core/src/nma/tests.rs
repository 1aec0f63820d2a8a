//! Unit tests of the per-DIMM accelerator.

use super::*;

fn nma() -> NearMemoryAccelerator {
    NearMemoryAccelerator::new(NmaConfig::default())
}

#[test]
fn compress_offload_round_trips_through_windows() {
    let mut n = nma();
    let page = b"cold far-memory page data. ".repeat(152)[..4096].to_vec();
    n.submit_compress(
        PageNumber::new(3),
        page.clone(),
        RowId::new(10),
        Nanos::ZERO,
        true,
    )
    .unwrap();
    let events = n.advance_to(Nanos::from_ms(64));
    assert_eq!(events.len(), 1);
    match &events[0] {
        NmaEvent::Completed {
            page: p,
            kind,
            data,
            ..
        } => {
            assert_eq!(*p, PageNumber::new(3));
            assert_eq!(*kind, OffloadKind::Compress);
            assert!(data.len() < 4096);
            // Round-trip through the decompress path.
            let mut m = nma();
            m.submit_decompress(
                PageNumber::new(3),
                data.clone(),
                RowId::new(10),
                Nanos::ZERO,
                true,
            )
            .unwrap();
            let evs = m.advance_to(Nanos::from_ms(64));
            match &evs[0] {
                NmaEvent::Completed { data, .. } => assert_eq!(*data, page),
                e => panic!("unexpected {e:?}"),
            }
        }
        e => panic!("unexpected {e:?}"),
    }
    assert_eq!(n.stats().completed, 1);
}

#[test]
fn min_latency_is_two_refresh_intervals() {
    // Fig. 10: read in one window, write-back in a later one.
    let mut n = nma();
    let page = vec![1u8; 4096];
    // Row 1 refreshes in window 1; writeback lands in a later window.
    n.submit_compress(PageNumber::new(1), page, RowId::new(1), Nanos::ZERO, true)
        .unwrap();
    let events = n.advance_to(Nanos::from_ms(64));
    match &events[0] {
        NmaEvent::Completed {
            completed_at,
            submitted_at,
            ..
        } => {
            let t_refi = n.config().timings.t_refi;
            assert!(
                *completed_at >= *submitted_at + t_refi * 2,
                "latency {} < 2 x tREFI",
                *completed_at - *submitted_at
            );
        }
        e => panic!("unexpected {e:?}"),
    }
}

#[test]
fn queue_exhaustion_rejects_submission() {
    let mut n = NearMemoryAccelerator::new(NmaConfig {
        queue_capacity: 2,
        spm_capacity: ByteSize::from_mib(2),
        ..NmaConfig::default()
    });
    let page = vec![0u8; 4096];
    n.submit_compress(
        PageNumber::new(1),
        page.clone(),
        RowId::new(1),
        Nanos::ZERO,
        true,
    )
    .unwrap();
    n.submit_compress(
        PageNumber::new(2),
        page.clone(),
        RowId::new(2),
        Nanos::ZERO,
        true,
    )
    .unwrap();
    // Third in-flight op exceeds the 2-deep request ring.
    assert!(matches!(
        n.submit_compress(
            PageNumber::new(3),
            page.clone(),
            RowId::new(3),
            Nanos::ZERO,
            true
        ),
        Err(Error::QueueFull)
    ));
    assert_eq!(n.stats().rejected, 1);
    // No SPM leak from the rejected admission (2 x 4160 B reserved).
    assert_eq!(
        n.spm_free().as_bytes(),
        ByteSize::from_mib(2).as_bytes() - 2 * 4160
    );
    // Draining the device frees the ring again.
    let now = Nanos::from_ms(64);
    n.advance_to(now);
    assert!(n
        .submit_compress(PageNumber::new(3), page, RowId::new(3), now, true)
        .is_ok());
}

#[test]
fn spm_exhaustion_rejects_submission() {
    let mut n = NearMemoryAccelerator::new(NmaConfig {
        queue_capacity: 4096,
        spm_capacity: ByteSize::from_mib(2),
        ..NmaConfig::default()
    });
    let page = vec![0u8; 4096];
    let mut accepted = 0;
    for p in 0..2000u64 {
        match n.submit_compress(
            PageNumber::new(p),
            page.clone(),
            RowId::new(p as u32),
            Nanos::ZERO,
            true,
        ) {
            Ok(()) => accepted += 1,
            Err(e) => {
                assert!(matches!(e, Error::SpmFull { .. }));
                break;
            }
        }
    }
    // 2 MiB SPM / 4160 B conservative reservations = 504 in flight.
    assert_eq!(accepted, 504);
    assert_eq!(n.stats().rejected, 1);
}

#[test]
fn spm_pressure_relieved_by_advancing() {
    let mut n = NearMemoryAccelerator::new(NmaConfig {
        spm_capacity: ByteSize::from_bytes(2 * 4160), // two reservations
        ..NmaConfig::default()
    });
    let page = vec![7u8; 4096];
    n.submit_compress(
        PageNumber::new(1),
        page.clone(),
        RowId::new(1),
        Nanos::ZERO,
        true,
    )
    .unwrap();
    n.submit_compress(
        PageNumber::new(2),
        page.clone(),
        RowId::new(2),
        Nanos::ZERO,
        true,
    )
    .unwrap();
    assert!(n
        .submit_compress(
            PageNumber::new(3),
            page.clone(),
            RowId::new(3),
            Nanos::ZERO,
            true
        )
        .is_err());
    // Drain both offloads, freeing the SPM.
    let now = Nanos::from_ms(64);
    let events = n.advance_to(now);
    assert_eq!(events.len(), 2);
    assert!(n
        .submit_compress(PageNumber::new(3), page, RowId::new(3), now, true)
        .is_ok());
}

#[test]
fn corrupt_decompress_input_falls_back() {
    let mut n = nma();
    n.submit_decompress(
        PageNumber::new(9),
        vec![0xde, 0xad, 0xbe, 0xef],
        RowId::new(9),
        Nanos::ZERO,
        true,
    )
    .unwrap();
    let events = n.advance_to(Nanos::from_ms(64));
    match &events[0] {
        NmaEvent::Fallback { page, data, .. } => {
            assert_eq!(*page, PageNumber::new(9));
            assert_eq!(*data, vec![0xde, 0xad, 0xbe, 0xef]);
        }
        e => panic!("unexpected {e:?}"),
    }
    assert_eq!(n.stats().fallbacks, 1);
    assert_eq!(n.spm_free(), n.config().spm_capacity);
}

#[test]
fn regs_mirror_device_state() {
    let mut n = nma();
    let free_before = n.regs_mut().read(crate::regs::Reg::SpCapacity);
    assert_eq!(free_before, ByteSize::from_mib(2).as_bytes());
    n.submit_compress(
        PageNumber::new(1),
        vec![0u8; 4096],
        RowId::new(1),
        Nanos::ZERO,
        true,
    )
    .unwrap();
    let free_after = n.regs_mut().read(crate::regs::Reg::SpCapacity);
    assert_eq!(free_after, free_before - 4096 - 64);
}

#[test]
fn pipeline_stages_overlap_adjacent_windows() {
    // The acceptance check for the discrete-event refactor: with
    // several offloads in flight, read / compress / write-back
    // stages of different offloads proceed in parallel across
    // adjacent refresh windows, so the observed makespan is strictly
    // less than the sum of the per-offload sequential stage chains.
    let mut n = nma();
    let page = b"overlapping stage pipeline page ".repeat(128)[..4096].to_vec();
    // Rows 1..=4 are refreshed in windows 1..=4: four reads land in
    // four adjacent windows.
    for i in 1..=4u32 {
        n.submit_compress(
            PageNumber::new(u64::from(i)),
            page.clone(),
            RowId::new(i),
            Nanos::ZERO,
            true,
        )
        .unwrap();
    }
    let events = n.advance_to(Nanos::from_ms(64));
    let mut latencies = Vec::new();
    let mut last_done = Nanos::ZERO;
    for e in &events {
        match e {
            NmaEvent::Completed {
                submitted_at,
                completed_at,
                ..
            } => {
                latencies.push(completed_at.saturating_sub(*submitted_at));
                last_done = last_done.max(*completed_at);
            }
            e => panic!("unexpected {e:?}"),
        }
    }
    assert_eq!(latencies.len(), 4);
    // Each offload's latency is its own sequential stage chain
    // (read wait + engine pass + write-back wait, back to back).
    let sequential_sum: Nanos = latencies.iter().copied().sum();
    let makespan = last_done; // all submitted at t=0
    assert!(
        makespan < sequential_sum,
        "no overlap: makespan {makespan} >= sequential sum {sequential_sum}"
    );
    // The engine really computed between windows: its busy time is
    // four compress passes, charged while later reads were waiting.
    assert!(n.engine.busy_time() > Nanos::ZERO);
}

#[test]
fn engine_completion_defers_writeback_window() {
    // A read served in window k cannot write back before the engine
    // pass finishes: the write-back must land in a strictly later
    // window (Fig. 10's two-phase minimum), even though the engine
    // pass (~2.9 us at 1.4 GB/s) runs *during* the following window
    // rather than being charged inside the read window.
    let mut n = nma();
    let page = vec![0x5au8; 4096];
    n.submit_compress(PageNumber::new(1), page, RowId::new(1), Nanos::ZERO, true)
        .unwrap();
    let t_refi = n.config().timings.t_refi;
    // Advance just past window 1 (the read): the op is now in the
    // engine or awaiting its write-back window, but not complete.
    let early = n.advance_to(t_refi * 2);
    assert!(early.is_empty(), "offload cannot complete by window 2");
    let done = n.advance_to(Nanos::from_ms(64));
    match &done[0] {
        NmaEvent::Completed { completed_at, .. } => {
            assert!(*completed_at >= t_refi * 2);
        }
        e => panic!("unexpected {e:?}"),
    }
}

#[test]
fn stats_fold_in_scheduler_counters() {
    let mut n = nma();
    n.submit_compress(
        PageNumber::new(1),
        vec![0u8; 4096],
        RowId::new(5),
        Nanos::ZERO,
        true,
    )
    .unwrap();
    n.advance_to(Nanos::from_ms(64));
    let s = n.stats();
    assert_eq!(s.completed, 1);
    assert_eq!(s.sched.conditional + s.sched.random, 2); // read + writeback
    assert!(s.spm_high_water.as_bytes() >= 4096);
    assert!(s.mean_latency() > Nanos::ZERO);
}

#[test]
fn writebacks_regenerate_side_band_parity() {
    let mut n = NearMemoryAccelerator::new(NmaConfig::default());
    let page = vec![0x3cu8; 4096];
    n.submit_compress(PageNumber::new(1), page, RowId::new(3), Nanos::ZERO, true)
        .unwrap();
    n.advance_to(Nanos::from_ms(64));
    let s = n.stats();
    assert_eq!(s.completed, 1);
    // One parity byte per 64-bit word of the written-back data.
    assert!(s.ecc_parity_bytes > 0);
}

/// One side of the hand-over differential: a device per DIMM sharing
/// one injector, and everything it emitted.
struct Side {
    devices: Vec<NearMemoryAccelerator>,
    faults: Arc<FaultInjector>,
    accepted: Vec<bool>,
    events: Vec<NmaEvent>,
}

impl Side {
    fn new(n_dimms: usize, plan: &xfm_faults::FaultPlan) -> Self {
        let faults = Arc::new(FaultInjector::new(plan));
        let devices = (0..n_dimms)
            .map(|_| {
                let mut nma = nma();
                nma.attach_faults(Arc::clone(&faults));
                nma
            })
            .collect();
        Self {
            devices,
            faults,
            accepted: Vec::new(),
            events: Vec::new(),
        }
    }

    fn submit(&mut self, kind: OffloadKind, page: u64, shares: Vec<OffloadShare>, now: Nanos) {
        let row = RowId::new(page as u32 % 97);
        for (nma, share) in self.devices.iter_mut().zip(shares) {
            let flexible = !page.is_multiple_of(5);
            let r = nma.submit(kind, PageNumber::new(page), share, row, now, flexible);
            self.accepted.push(r.is_ok());
        }
    }

    fn advance_to(&mut self, now: Nanos) {
        for nma in &mut self.devices {
            self.events.extend(nma.advance_to(now));
        }
    }
}

#[test]
fn prepared_outputs_are_indistinguishable_from_the_engine_computing_them() {
    use crate::multichannel::{offload_shares, pack_page};
    use xfm_compress::{Corpus, XDeflate};
    use xfm_faults::{FaultPlan, SiteSpec};

    let plan = FaultPlan::new(0x5EED_0023)
        .with_site(FaultSite::NmaEngineTimeout, SiteSpec::with_probability(0.2))
        .with_site(FaultSite::SpmExhaustion, SiteSpec::with_probability(0.1));
    let corpora = [
        Corpus::Json,
        Corpus::EnglishText,
        Corpus::StructDump,
        Corpus::LogLines,
        Corpus::RandomBytes,
    ];
    let t_refi = NmaConfig::default().timings.t_refi;
    for n_dimms in [1usize, 2, 4] {
        let mut handed = Side::new(n_dimms, &plan);
        let mut computed = Side::new(n_dimms, &plan);
        let mut now = Nanos::ZERO;
        for kind in [OffloadKind::Compress, OffloadKind::Decompress] {
            for p in 0..40u64 {
                let page = corpora[p as usize % corpora.len()].generate(p, PAGE_SIZE);
                let container = pack_page(&XDeflate::default(), &page, n_dimms).unwrap();
                let shares = offload_shares(kind, &page, &container.bytes).unwrap();
                let bare = shares.iter().map(|s| s.input.clone().into()).collect();
                handed.submit(kind, p, shares, now);
                computed.submit(kind, p, bare, now);
                now += t_refi * (1 + p % 3 * 40);
                handed.advance_to(now);
                computed.advance_to(now);
            }
            now += Nanos::from_ms(70);
            handed.advance_to(now);
            computed.advance_to(now);
        }

        assert_eq!(handed.accepted, computed.accepted, "{n_dimms} DIMMs");
        assert_eq!(handed.events, computed.events, "{n_dimms} DIMMs");
        let (done, spilled): (Vec<_>, Vec<_>) = handed
            .events
            .iter()
            .partition(|e| matches!(e, NmaEvent::Completed { .. }));
        assert!(done.len() > 20 * n_dimms && spilled.len() > n_dimms);
        for (h, c) in handed.devices.iter().zip(&computed.devices) {
            assert_eq!(h.stats(), c.stats());
            assert_eq!(h.engine.busy_time(), c.engine.busy_time());
            assert_eq!(
                h.engine.throughput_counters(),
                c.engine.throughput_counters()
            );
        }
        for site in FaultSite::ALL {
            assert_eq!(handed.faults.ops(site), computed.faults.ops(site));
            assert_eq!(handed.faults.fires(site), computed.faults.fires(site));
        }
        assert!(handed.faults.fires(FaultSite::NmaEngineTimeout) > 0);
        assert!(handed.faults.fires(FaultSite::SpmExhaustion) > 0);
    }
}
