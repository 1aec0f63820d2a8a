//! Property-based tests for the XFM core.

use proptest::prelude::*;
use xfm_compress::ratio::{pack_page_into, unpack_page_into, Header};
use xfm_compress::Scratch;
use xfm_core::backend::{XfmBackend, XfmBackendConfig};
use xfm_core::multichannel::offload_shares;
use xfm_core::nma::{NearMemoryAccelerator, NmaConfig, NmaEvent, OffloadShare};
use xfm_core::sched::{AccessOp, AccessPhase, SchedConfig, SchedEvent, WindowScheduler};
use xfm_core::{OffloadKind, Reg};
use xfm_dram::{DeviceGeometry, DramTimings};
use xfm_faults::{FaultInjector, FaultPlan, FaultSite, RetryPolicy, SiteSpec};
use xfm_sfm::{SfmConfig, SwapPlane};
use xfm_telemetry::Registry;
use xfm_types::{ByteSize, Error, Nanos, PageNumber, RowId, PAGE_SIZE};

/// A default backend over a 4 MiB region.
fn config() -> XfmBackendConfig {
    XfmBackendConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(4),
        },
        ..XfmBackendConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The multi-channel container round-trips any page for any legal
    /// DIMM count, and its offload shares split the page and carry the
    /// stored streams' lengths.
    #[test]
    fn container_round_trip(data in prop::collection::vec(any::<u8>(), 1..=PAGE_SIZE),
                            n in prop::sample::select(vec![1usize, 2, 4])) {
        let codec = xfm_compress::XDeflate::default();
        let mut scratch = Scratch::new();
        let mut container = Vec::new();
        pack_page_into(&codec, &data, n, &mut scratch, &mut container).unwrap();
        let mut back = Vec::new();
        unpack_page_into(&codec, &container, &mut scratch, &mut back).unwrap();
        prop_assert_eq!(back, data.clone());
        let header = Header::parse(&container).unwrap();
        let shares = offload_shares(OffloadKind::Compress, data.len(), &container).unwrap();
        prop_assert_eq!(shares.iter().map(|s| s.input as usize).sum::<usize>(), data.len());
        for (share, info) in shares.iter().zip(header.shares()) {
            prop_assert_eq!(share.output, info.len);
        }
        prop_assert_eq!(container.len(), 1 + 3 * n + header.slot * n);
    }

    /// Scheduler conservation: every enqueued op is eventually served or
    /// spilled, exactly once.
    #[test]
    fn scheduler_conserves_ops(rows in prop::collection::vec(0u32..65_536, 1..80),
                               budget in 1u32..4,
                               urgent_mask in any::<u64>()) {
        let mut sched = WindowScheduler::new(
            SchedConfig {
                accesses_per_trfc: budget,
                max_random_per_trfc: 1,
                urgent_max_wait: 4,
                placement_lookahead: 64,
            },
            DramTimings::paper_emulator(),
            DeviceGeometry::ddr4_8gb(),
        );
        for (i, &row) in rows.iter().enumerate() {
            let op = AccessOp {
                id: i as u64,
                row: RowId::new(row),
                bytes: 4096,
                phase: AccessPhase::Read { output: 0 },
                enqueued_window: 0,
            };
            if urgent_mask & (1 << (i % 64)) != 0 {
                sched.enqueue_urgent(op);
            } else {
                sched.enqueue_flexible(op);
            }
        }
        // One full retention interval guarantees every slot came up, and
        // a slot's surplus re-aligns within the next 16.
        let events = sched.advance_to(Nanos::from_ms(33), 0);
        let mut seen = std::collections::HashSet::new();
        for e in &events {
            let id = match e {
                SchedEvent::Served { id, .. } | SchedEvent::Spilled { id, .. } => *id,
            };
            prop_assert!(seen.insert(id), "op {id} resolved twice");
        }
        prop_assert_eq!(seen.len(), rows.len());
        prop_assert_eq!(sched.pending(), 0);
        let s = sched.stats();
        prop_assert_eq!(s.conditional + s.random + s.spilled, rows.len() as u64);
    }

    /// The device's SPM byte count never drifts through arbitrary
    /// submit/advance sequences on a small scratchpad, in both
    /// directions, flexible and urgent, with engine timeouts and stolen
    /// windows armed: it stays within capacity, every offload ends in
    /// exactly one event, and once the device drains the SPM is empty
    /// and the window utilization is the side-channel formula.
    #[test]
    fn device_spm_bytes_balance(seed in any::<u64>(),
                                steps in prop::collection::vec(
                                    (0u8..4, 0u32..192, 1u32..=4_160, 0u32..40), 1..48)) {
        let plan = FaultPlan::new(seed)
            .with_site(FaultSite::NmaEngineTimeout, SiteSpec::with_probability(0.2))
            .with_site(FaultSite::RefreshWindowMiss, SiteSpec::with_probability(0.1));
        let capacity = ByteSize::from_kib(8);
        let mut nma = NearMemoryAccelerator::new(NmaConfig {
            spm_capacity: capacity,
            queue_capacity: 8,
            ..NmaConfig::default()
        });
        nma.attach_faults(std::sync::Arc::new(FaultInjector::new(&plan)));
        let t_refi = nma.config().timings.t_refi;
        let (mut now, mut refused) = (Nanos::ZERO, 0u64);
        let mut ended = std::collections::HashSet::new();
        let mut check = |nma: &mut NearMemoryAccelerator, now: Nanos| -> Result<(), String> {
            for e in nma.advance_to(now) {
                let page = match e {
                    NmaEvent::Completed { page, .. } | NmaEvent::Fallback { page, .. } => page,
                };
                prop_assert!(ended.insert(page), "page {page} saw two events");
            }
            prop_assert!(nma.spm_free() <= capacity);
            prop_assert!(nma.stats().spm_high_water <= capacity);
            Ok(())
        };
        for (i, &(how, row, len, windows)) in steps.iter().enumerate() {
            let (kind, share) = if how & 1 == 0 {
                (OffloadKind::Compress, OffloadShare { input: PAGE_SIZE as u32, output: len })
            } else {
                let stored = len.min(PAGE_SIZE as u32);
                (OffloadKind::Decompress, OffloadShare { input: stored, output: PAGE_SIZE as u32 })
            };
            let page = PageNumber::new(i as u64);
            let flexible = how & 2 == 0;
            match nma.submit(kind, page, share, RowId::new(row), now, flexible) {
                Ok(()) => {}
                Err(Error::QueueFull | Error::SpmFull { .. }) => refused += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
            now += t_refi * u64::from(windows);
            check(&mut nma, now)?;
        }
        // Four retention intervals drain every offload still in flight.
        check(&mut nma, now + Nanos::from_ms(128))?;
        let s = nma.stats();
        prop_assert_eq!(nma.spm_free(), capacity);
        prop_assert_eq!(nma.regs_mut().read(Reg::Status) & 1, 0, "an op is still in flight");
        prop_assert_eq!(s.rejected, refused);
        prop_assert_eq!(s.submitted, steps.len() as u64 - refused);
        prop_assert_eq!(s.submitted, s.completed + s.fallbacks);
        prop_assert_eq!(ended.len() as u64, s.submitted);
        let budget = u64::from(nma.config().sched.accesses_per_trfc)
            * PAGE_SIZE as u64
            * (s.sched.windows - s.sched.stolen_windows);
        let formula = if budget == 0 {
            0.0
        } else {
            s.sched.side_channel_bytes.as_bytes() as f64 / budget as f64
        };
        prop_assert_eq!(nma.window_utilization().to_bits(), formula.to_bits());
    }

    /// XFM backend round-trips arbitrary page contents regardless of the
    /// offload path taken.
    #[test]
    fn backend_integrity(seeds in prop::collection::vec(any::<u64>(), 1..6),
                         n in prop::sample::select(vec![1usize, 2, 4])) {
        let b = XfmBackend::builder()
            .config(XfmBackendConfig {
                n_dimms: n,
                ..config()
            })
            .build()
            .unwrap();
        b.advance_to(Nanos::from_ms(1));
        let pages: Vec<(PageNumber, Vec<u8>)> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let corpus = xfm_compress::Corpus::all()[(seed % 16) as usize];
                (PageNumber::new(i as u64), corpus.generate(seed, PAGE_SIZE))
            })
            .collect();
        for (pn, data) in &pages {
            b.swap_out(*pn, data).unwrap();
        }
        for (i, (pn, data)) in pages.iter().enumerate() {
            let (restored, _) = b.swap_in(*pn, i % 2 == 0).unwrap();
            prop_assert_eq!(&restored, data);
        }
    }

    /// Replaying the same seeded fault plan twice yields byte-identical
    /// swap-ins, identical per-site fire counts, and identical telemetry
    /// cause counts: chaos runs are reproducible.
    #[test]
    fn fault_replay_is_deterministic(seed in any::<u64>(),
                                     seeds in prop::collection::vec(any::<u64>(), 1..8)) {
        let plan = FaultPlan::new(seed)
            .with_site(FaultSite::NmaEngineTimeout, SiteSpec::with_probability(0.3))
            .with_site(FaultSite::SpmExhaustion, SiteSpec::with_probability(0.3))
            .with_site(FaultSite::QueueFull, SiteSpec::with_probability(0.3).burst(2))
            .with_site(FaultSite::RefreshWindowMiss, SiteSpec::with_probability(0.5))
            .with_site(FaultSite::BitCorruption, SiteSpec::with_probability(0.2));
        let run = |registry: &Registry| {
            let injector = std::sync::Arc::new(FaultInjector::new(&plan));
            let b = XfmBackend::builder()
                .config(config())
                .telemetry(registry)
                .faults(std::sync::Arc::clone(&injector))
                .retry_policy(RetryPolicy::default())
                .build()
                .unwrap();
            b.advance_to(Nanos::from_ms(1));
            let mut restored = Vec::new();
            for (i, &s) in seeds.iter().enumerate() {
                let corpus = xfm_compress::Corpus::all()[(s % 16) as usize];
                let data = corpus.generate(s, PAGE_SIZE);
                b.swap_out(PageNumber::new(i as u64), &data).unwrap();
            }
            for (i, _) in seeds.iter().enumerate() {
                // Checksum mismatches are retryable: loop until the
                // bounded fault stream lets a clean fetch through.
                let page = loop {
                    match b.swap_in(PageNumber::new(i as u64), i % 2 == 0) {
                        Ok((data, _)) => break data,
                        Err(e) if matches!(e.cause(), Error::ChecksumMismatch { .. }) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                };
                restored.push(page);
            }
            let fires: Vec<u64> = FaultSite::ALL.iter().map(|&s| injector.fires(s)).collect();
            (restored, fires)
        };
        let (ra, ries) = run(&Registry::new());
        let rb_registry = Registry::new();
        let (rb, rbes) = run(&rb_registry);
        prop_assert_eq!(&ra, &rb, "swap-ins must be byte-identical");
        prop_assert_eq!(ries, rbes, "per-site fire counts must replay");
        // Cause counts from the second run must match a third replay.
        let rc_registry = Registry::new();
        run(&rc_registry);
        let causes = |r: &Registry| {
            let mut m = std::collections::BTreeMap::new();
            for e in r.snapshot().events {
                *m.entry(format!("{:?}/{:?}", e.stage, e.cause)).or_insert(0u64) += 1;
            }
            m
        };
        prop_assert_eq!(causes(&rb_registry), causes(&rc_registry));
    }

    /// With every site armed, the stack still round-trips every page:
    /// device faults divert to CPU fallback, host faults are bounded by
    /// max_fires and survivable through retries. No page is ever lost.
    #[test]
    fn all_sites_firing_still_round_trips(seed in any::<u64>(),
                                          seeds in prop::collection::vec(any::<u64>(), 1..8)) {
        // Device-side sites fire on every opportunity, forever; the
        // host-side store/fetch sites are bounded so forward progress
        // is possible (an always-corrupting channel has no remedy).
        let plan = FaultPlan::new(seed)
            .with_site(FaultSite::NmaEngineTimeout, SiteSpec::with_probability(1.0))
            .with_site(FaultSite::SpmExhaustion, SiteSpec::with_probability(1.0))
            .with_site(FaultSite::QueueFull, SiteSpec::with_probability(1.0))
            .with_site(FaultSite::RefreshWindowMiss, SiteSpec::with_probability(1.0))
            .with_site(FaultSite::BitCorruption, SiteSpec::with_probability(1.0).max_fires(4))
            .with_site(FaultSite::ZpoolStoreFailure, SiteSpec::with_probability(1.0).max_fires(4));
        let b = XfmBackend::builder()
            .config(config())
            .faults(std::sync::Arc::new(FaultInjector::new(&plan)))
            .build()
            .unwrap();
        b.advance_to(Nanos::from_ms(1));
        let pages: Vec<(PageNumber, Vec<u8>)> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let corpus = xfm_compress::Corpus::all()[(s % 16) as usize];
                (PageNumber::new(i as u64), corpus.generate(s, PAGE_SIZE))
            })
            .collect();
        for (pn, data) in &pages {
            loop {
                match b.swap_out(*pn, data) {
                    Ok(out) => {
                        // Device sites reject everything: nothing may
                        // report an NMA execution.
                        prop_assert_eq!(out.executed_on, xfm_sfm::ExecutedOn::Cpu);
                        break;
                    }
                    // Injected store failure.
                    Err(e) if matches!(e.cause(), Error::SfmRegionFull) => {}
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
        for (i, (pn, data)) in pages.iter().enumerate() {
            let restored = loop {
                match b.swap_in(*pn, i % 2 == 0) {
                    Ok((d, _)) => break d,
                    Err(e) if matches!(e.cause(), Error::ChecksumMismatch { .. }) => {}
                    Err(e) => panic!("unexpected error: {e}"),
                }
            };
            prop_assert_eq!(&restored, data, "page {} must survive chaos", pn);
        }
    }
}
