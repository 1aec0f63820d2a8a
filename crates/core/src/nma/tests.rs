//! Unit tests of the per-DIMM accelerator.

use super::*;

/// A 4 KiB page that compresses to 1 100 bytes.
const PAGE: OffloadShare = OffloadShare {
    input: 4096,
    output: 1100,
};

fn nma() -> NearMemoryAccelerator {
    NearMemoryAccelerator::new(NmaConfig::default())
}

/// Submits a flexible compression of [`PAGE`] as page `page`, read from
/// `row`.
fn compress(n: &mut NearMemoryAccelerator, page: u64, row: u32, now: Nanos) -> Result<()> {
    let (page, row) = (PageNumber::new(page), RowId::new(row));
    n.submit(OffloadKind::Compress, page, PAGE, row, now, true)
}

#[test]
fn compress_offload_round_trips_through_windows() {
    let mut n = nma();
    compress(&mut n, 3, 10, Nanos::ZERO).unwrap();
    let events = n.advance_to(Nanos::from_ms(64));
    assert!(
        matches!(
            events[..],
            [NmaEvent::Completed {
                kind: OffloadKind::Compress,
                share: PAGE,
                ..
            }]
        ),
        "{events:?}"
    );
    // The stored stream comes back through the decompress path.
    let back = OffloadShare {
        input: PAGE.output,
        output: PAGE.input,
    };
    let now = Nanos::from_ms(64);
    n.submit(
        OffloadKind::Decompress,
        PageNumber::new(3),
        back,
        RowId::new(10),
        now,
        true,
    )
    .unwrap();
    let events = n.advance_to(Nanos::from_ms(128));
    assert!(
        matches!(
            events[..],
            [NmaEvent::Completed {
                kind: OffloadKind::Decompress,
                share,
                ..
            }] if share == back
        ),
        "{events:?}"
    );
    assert_eq!(n.stats().completed, 2);
    let page = ByteSize::from_bytes(4096);
    assert_eq!(n.engine.throughput_counters(), (page, page));
    assert_eq!(n.spm_free(), n.config().spm_capacity);
}

#[test]
fn side_channel_counts_the_bytes_each_access_moves() {
    // The read moves the page in, the write-back the 900-byte stream
    // out, and the side channel carries exactly those bytes.
    let mut n = nma();
    let share = OffloadShare {
        input: 4096,
        output: 900,
    };
    let (page, row) = (PageNumber::new(1), RowId::new(10));
    n.submit(OffloadKind::Compress, page, share, row, Nanos::ZERO, true)
        .unwrap();
    let events = n.advance_to(Nanos::from_ms(64));
    assert!(
        matches!(events[..], [NmaEvent::Completed { .. }]),
        "{events:?}"
    );
    let stats = n.stats();
    assert_eq!(stats.sched.side_channel_bytes.as_bytes(), 4096 + 900);
    assert_eq!(
        stats.ecc_parity_bytes,
        xfm_dram::ecc::parity_bytes(900) as u64
    );
}

#[test]
fn min_latency_is_two_refresh_intervals() {
    // Fig. 10: read in one window, write-back in a later one.
    let mut n = nma();
    // Row 1 refreshes in window 1; writeback lands in a later window.
    compress(&mut n, 1, 1, Nanos::ZERO).unwrap();
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
    compress(&mut n, 1, 1, Nanos::ZERO).unwrap();
    compress(&mut n, 2, 2, Nanos::ZERO).unwrap();
    // Third in-flight op exceeds the 2-deep request queue.
    assert!(matches!(
        compress(&mut n, 3, 3, Nanos::ZERO),
        Err(Error::QueueFull)
    ));
    assert_eq!(n.stats().rejected, 1);
    // Queued reads are descriptors only: nothing is in the SPM yet.
    assert_eq!(n.spm_free(), n.config().spm_capacity);
    // Serving the reads frees the queue, before their write-backs.
    let now = n.config().timings.t_refi * 3;
    assert!(n.advance_to(now).is_empty());
    assert!(compress(&mut n, 3, 3, now).is_ok());
}

#[test]
#[should_panic(expected = "non-zero")]
fn zero_capacity_queue_rejected() {
    let _ = NearMemoryAccelerator::new(NmaConfig {
        queue_capacity: 0,
        ..NmaConfig::default()
    });
}

#[test]
fn spm_exhaustion_rejects_submission() {
    use xfm_faults::{FaultPlan, SiteSpec};
    // The device reserves the SPM at read service, so only the injected
    // exhaustion site refuses an offload at the doorbell, leaving the
    // device as it was.
    let plan =
        FaultPlan::new(3).with_site(FaultSite::SpmExhaustion, SiteSpec::with_probability(1.0));
    let mut n = nma();
    n.attach_faults(Arc::new(FaultInjector::new(&plan)));
    let refused = compress(&mut n, 1, 1, Nanos::ZERO);
    assert!(matches!(refused, Err(Error::SpmFull { .. })), "{refused:?}");
    assert_eq!(n.stats().rejected, 1);
    assert_eq!(n.stats().submitted, 0);
    assert!(n.advance_to(Nanos::from_ms(64)).is_empty());
}

#[test]
fn spm_pressure_relieved_by_advancing() {
    // Room for one output: the second read steps aside until the first
    // write-back frees the SPM, then both complete.
    let mut n = NearMemoryAccelerator::new(NmaConfig {
        spm_capacity: ByteSize::from_bytes(u64::from(PAGE.output)),
        ..NmaConfig::default()
    });
    compress(&mut n, 1, 1, Nanos::ZERO).unwrap();
    compress(&mut n, 2, 2, Nanos::ZERO).unwrap();
    let events = n.advance_to(Nanos::from_ms(64));
    assert_eq!(events.len(), 2);
    assert!(events
        .iter()
        .all(|e| matches!(e, NmaEvent::Completed { .. })));
    let s = n.stats();
    assert!(s.sched.spm_stalls > 0);
    assert_eq!(s.spm_high_water.as_bytes(), u64::from(PAGE.output));
    assert_eq!(n.spm_free(), n.config().spm_capacity);
}

#[test]
fn an_output_larger_than_its_reservation_is_refused() {
    let mut n = nma();
    let (page, row) = (PageNumber::new(1), RowId::new(1));
    for (kind, share) in [
        (
            OffloadKind::Compress,
            OffloadShare {
                input: 4096,
                output: 4161,
            },
        ),
        (
            OffloadKind::Decompress,
            OffloadShare {
                input: 900,
                output: 4097,
            },
        ),
    ] {
        let refused = n.submit(kind, page, share, row, Nanos::ZERO, true);
        assert!(matches!(refused, Err(Error::InvalidConfig(_))), "{kind:?}");
    }
    assert_eq!(
        n.stats(),
        NearMemoryAccelerator::new(NmaConfig::default()).stats()
    );
}

#[test]
fn an_engine_timeout_falls_back_with_the_input() {
    use xfm_faults::{FaultPlan, SiteSpec};
    let plan =
        FaultPlan::new(7).with_site(FaultSite::NmaEngineTimeout, SiteSpec::with_probability(1.0));
    let mut n = nma();
    n.attach_faults(Arc::new(FaultInjector::new(&plan)));
    compress(&mut n, 9, 9, Nanos::ZERO).unwrap();
    let events = n.advance_to(Nanos::from_ms(64));
    assert!(
        matches!(
            events[..],
            [NmaEvent::Fallback {
                share: PAGE,
                bytes: 4096,
                ..
            }]
        ),
        "{events:?}"
    );
    assert_eq!(n.stats().fallbacks, 1);
    assert_eq!(n.spm_free(), n.config().spm_capacity);
}

#[test]
fn regs_mirror_device_state() {
    let mut n = nma();
    let free_before = n.regs_mut().read(crate::regs::Reg::SpCapacity);
    assert_eq!(free_before, ByteSize::from_mib(2).as_bytes());
    compress(&mut n, 1, 1, Nanos::ZERO).unwrap();
    assert_eq!(n.regs_mut().read(crate::regs::Reg::SpCapacity), free_before);
    // Window 1 serves the read, which reserves the compressed output.
    n.advance_to(n.config().timings.t_refi * 2);
    let free_after = n.regs_mut().read(crate::regs::Reg::SpCapacity);
    assert_eq!(free_after, free_before - u64::from(PAGE.output));
}

#[test]
fn pipeline_stages_overlap_adjacent_windows() {
    // With several offloads in flight, read / compress / write-back
    // stages of different offloads proceed in parallel across
    // adjacent refresh windows, so the observed makespan is strictly
    // less than the sum of the per-offload sequential stage chains.
    let mut n = nma();
    // Rows 1..=4 are refreshed in windows 1..=4: four reads land in
    // four adjacent windows.
    for i in 1..=4u32 {
        compress(&mut n, u64::from(i), i, Nanos::ZERO).unwrap();
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
    // The engine really ran between windows: its busy time is four
    // compress passes, charged while later reads were waiting.
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
    compress(&mut n, 1, 1, Nanos::ZERO).unwrap();
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
    compress(&mut n, 1, 5, Nanos::ZERO).unwrap();
    n.advance_to(Nanos::from_ms(64));
    let s = n.stats();
    assert_eq!(s.completed, 1);
    assert_eq!(s.sched.conditional + s.sched.random, 2); // read + writeback
    assert_eq!(s.spm_high_water.as_bytes(), u64::from(PAGE.output));
    assert!(s.mean_latency() > Nanos::ZERO);
}

#[test]
fn writebacks_regenerate_side_band_parity() {
    let mut n = nma();
    let share = OffloadShare {
        input: 4096,
        output: 1001,
    };
    let (page, row) = (PageNumber::new(1), RowId::new(3));
    n.submit(OffloadKind::Compress, page, share, row, Nanos::ZERO, true)
        .unwrap();
    n.advance_to(Nanos::from_ms(64));
    let s = n.stats();
    assert_eq!(s.completed, 1);
    // One parity byte per 64-bit word written back, a partial one too.
    assert_eq!(s.ecc_parity_bytes, 126);
}
