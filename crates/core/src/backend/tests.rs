//! Unit tests of the backend: the plane surface, the offload policy
//! and the clock together.

use super::*;
use xfm_compress::Corpus;
use xfm_faults::{FaultPlan, FaultSite, SiteSpec};
use xfm_sfm::backend::ExecutedOn;
use xfm_telemetry::LifecycleStage;
use xfm_types::{ByteSize, Cycles};

/// A builder over an 8 MiB region striped across `n_dimms`.
fn builder(n_dimms: usize) -> PlaneBuilder {
    XfmBackend::builder().config(XfmBackendConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(8),
        },
        n_dimms,
        ..XfmBackendConfig::default()
    })
}

fn backend(n_dimms: usize) -> XfmBackend {
    builder(n_dimms).build().unwrap()
}

/// A backend whose one DIMM's scratchpad holds two page reservations.
/// A device with room for two offloads: two SPM outputs, and two reads
/// queued for their windows.
fn tiny_nma_backend() -> XfmBackend {
    let config = XfmBackendConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(32),
        },
        nma: NmaConfig {
            spm_capacity: ByteSize::from_bytes(2 * 4160),
            queue_capacity: 2,
            ..NmaConfig::default()
        },
        n_dimms: 1,
    };
    XfmBackend::builder().config(config).build().unwrap()
}

fn injector(plan: &FaultPlan) -> Arc<FaultInjector> {
    Arc::new(FaultInjector::new(plan))
}

#[test]
fn round_trip_preserves_data_across_dimm_counts() {
    for n in [1usize, 2, 4] {
        let b = backend(n);
        b.advance_to(Nanos::from_ms(1));
        for (i, corpus) in Corpus::all().iter().enumerate() {
            let page = corpus.generate(i as u64, PAGE_SIZE);
            let pn = PageNumber::new(i as u64);
            b.swap_out(pn, &page).unwrap();
            let (restored, _) = b.swap_in(pn, i % 2 == 0).unwrap();
            assert_eq!(restored, page, "{} n={n}", corpus.name());
        }
    }
}

#[test]
fn builder_codec_round_trips_through_multichannel_containers() {
    use xfm_compress::lz77::MatchFinder;

    for n in [1usize, 2, 4] {
        let b = builder(n)
            .codec(Arc::new(XDeflate::with_finder(MatchFinder::fast())))
            .build()
            .unwrap();
        b.advance_to(Nanos::from_ms(1));
        // Batched out, one by one back in, over every corpus.
        let batch: Vec<(PageNumber, Bytes)> = Corpus::all()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (
                    PageNumber::new(i as u64),
                    Bytes::from(c.generate(i as u64, PAGE_SIZE)),
                )
            })
            .collect();
        let results = b.swap_out_batch(&batch, 3).unwrap();
        assert!(results.iter().all(SwapResult::is_ok), "n={n}");
        // The builder's codec is the one that ran: short chains
        // find fewer matches than the default profile and store more.
        let stored = |results: &[SwapResult<SwapOutcome>]| -> u64 {
            results
                .iter()
                .map(|r| u64::from(r.as_ref().unwrap().compressed_len))
                .sum()
        };
        let default_stored = stored(&backend(n).swap_out_batch(&batch, 3).unwrap());
        assert!(stored(&results) > default_stored, "n={n}");
        for (page, data) in &batch {
            let (restored, _) = b.swap_in(*page, false).unwrap();
            assert_eq!(&restored[..], &data[..], "page {page} n={n}");
        }
    }
}

#[test]
fn offloaded_swap_out_produces_zero_ddr_traffic() {
    let b = backend(1);
    b.advance_to(Nanos::from_ms(1));
    let page = Corpus::Json.generate(1, PAGE_SIZE);
    let out = b.swap_out(PageNumber::new(1), &page).unwrap();
    assert_eq!(out.executed_on, ExecutedOn::Nma);
    assert_eq!(out.ddr_bytes, ByteSize::ZERO);
    assert_eq!(out.cpu_cycles, Cycles::ZERO);
}

#[test]
fn demand_swap_in_defaults_to_cpu() {
    let b = backend(1);
    b.advance_to(Nanos::from_ms(1));
    let page = Corpus::Html.generate(2, PAGE_SIZE);
    b.swap_out(PageNumber::new(2), &page).unwrap();
    let (_, outcome) = b.swap_in(PageNumber::new(2), false).unwrap();
    assert_eq!(outcome.executed_on, ExecutedOn::Cpu);
    assert!(outcome.ddr_bytes.as_bytes() > 0);
}

#[test]
fn prefetch_swap_in_offloads() {
    let b = backend(2);
    b.advance_to(Nanos::from_ms(1));
    let page = Corpus::Csv.generate(3, PAGE_SIZE);
    b.swap_out(PageNumber::new(3), &page).unwrap();
    let (_, outcome) = b.swap_in(PageNumber::new(3), true).unwrap();
    assert_eq!(outcome.executed_on, ExecutedOn::Nma);
    assert_eq!(outcome.ddr_bytes, ByteSize::ZERO);
}

#[test]
fn same_filled_page_short_circuits_offload() {
    let b = backend(2);
    b.advance_to(Nanos::from_ms(1));
    let page = vec![0u8; PAGE_SIZE];
    let out = b.swap_out(PageNumber::new(5), &page).unwrap();
    assert_eq!(out.compressed_len, 1);
    assert_eq!(out.executed_on, ExecutedOn::Cpu);
    assert_eq!(b.nma_stats().submitted, 0, "nothing to offload");
    let (restored, _) = b.swap_in(PageNumber::new(5), true).unwrap();
    assert_eq!(restored, page);
}

#[test]
fn incompressible_page_stored_raw_on_cpu_path() {
    let b = backend(1);
    b.advance_to(Nanos::from_ms(1));
    let page = Corpus::RandomBytes.generate(4, PAGE_SIZE);
    let out = b.swap_out(PageNumber::new(4), &page).unwrap();
    assert_eq!(out.executed_on, ExecutedOn::Cpu);
    assert_eq!(b.stats().stored_raw, 1);
    let (restored, _) = b.swap_in(PageNumber::new(4), true).unwrap();
    assert_eq!(restored, page);
}

#[test]
fn nma_resource_exhaustion_falls_back_to_cpu() {
    let b = tiny_nma_backend();
    b.advance_to(Nanos::from_ms(1));
    let mut cpu = 0;
    let mut nma = 0;
    for i in 0..8u64 {
        let page = Corpus::KeyValue.generate(i, PAGE_SIZE);
        match b.swap_out(PageNumber::new(i), &page).unwrap().executed_on {
            ExecutedOn::Cpu => cpu += 1,
            ExecutedOn::Nma => nma += 1,
        }
    }
    assert_eq!(nma, 2, "only two reads fit the tiny request queue");
    assert_eq!(cpu, 6);
    assert!(b.cpu_fallback_fraction() > 0.5);
}

#[test]
fn time_advancement_drains_nma_and_restores_capacity() {
    let b = tiny_nma_backend();
    b.advance_to(Nanos::from_ms(1));
    for i in 0..4u64 {
        let page = Corpus::LogLines.generate(i, PAGE_SIZE);
        b.swap_out(PageNumber::new(i), &page).unwrap();
    }
    // Drain two full retention intervals: all offloads complete.
    b.advance_to(Nanos::from_ms(65));
    let page = Corpus::LogLines.generate(9, PAGE_SIZE);
    let out = b.swap_out(PageNumber::new(9), &page).unwrap();
    assert_eq!(out.executed_on, ExecutedOn::Nma);
    assert!(b.nma_stats().completed >= 2);
}

#[test]
fn double_swap_out_rejected() {
    let b = backend(1);
    let page = Corpus::Dna.generate(0, PAGE_SIZE);
    b.swap_out(PageNumber::new(1), &page).unwrap();
    let err = b.swap_out(PageNumber::new(1), &page).unwrap_err();
    assert!(matches!(err.cause(), Error::EntryExists { .. }));
}

#[test]
fn missing_page_swap_in_rejected() {
    let b = backend(1);
    let err = b.swap_in(PageNumber::new(77), false).unwrap_err();
    assert!(matches!(err.cause(), Error::EntryNotFound { .. }));
}

#[test]
fn builder_rejects_bad_configs_without_panicking() {
    assert!(matches!(
        XfmBackend::builder()
            .config(XfmBackendConfig {
                n_dimms: 3,
                ..XfmBackendConfig::default()
            })
            .build(),
        Err(Error::InvalidConfig(_))
    ));
    assert!(matches!(
        XfmBackend::builder()
            .config(XfmBackendConfig {
                sfm: SfmConfig {
                    region_capacity: ByteSize::ZERO,
                },
                ..XfmBackendConfig::default()
            })
            .build(),
        Err(Error::InvalidConfig(_))
    ));
    assert!(XfmBackend::builder().build().is_ok());
}

#[test]
fn builder_refuses_an_inconsistent_device_preset() {
    let with_nma = |nma: NmaConfig| {
        XfmBackend::builder()
            .config(XfmBackendConfig {
                nma,
                ..XfmBackendConfig::default()
            })
            .build()
    };
    let mut geometry = NmaConfig::default().geometry;
    geometry.rows_per_bank = 3 * 8192;
    assert!(matches!(
        with_nma(NmaConfig {
            geometry,
            ..NmaConfig::default()
        }),
        Err(Error::InvalidConfig(m)) if m.contains("rows_per_bank")
    ));
    let mut timings = NmaConfig::default().timings;
    timings.t_rfc = timings.t_refi;
    assert!(matches!(
        with_nma(NmaConfig {
            timings,
            ..NmaConfig::default()
        }),
        Err(Error::InvalidConfig(m)) if m.contains("tRFC")
    ));
}

#[test]
fn builder_wires_every_knob() {
    let dir = std::env::temp_dir().join(format!("xfm-builder-knobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let registry = Registry::new();
    let recorder = Arc::new(FlightRecorder::new(&registry, &dir));
    // Every admission is refused: the first page retries twice and
    // gives up, which is an incident.
    let plan = FaultPlan::new(7).with_site(FaultSite::QueueFull, SiteSpec::with_probability(1.0));
    let policy = RetryPolicy {
        max_retries: 2,
        ..RetryPolicy::default()
    };
    let backend = XfmBackend::builder()
        .config(XfmBackendConfig::default())
        .codec(Arc::new(XDeflate::default()))
        .telemetry(&registry)
        .faults(injector(&plan))
        .retry_policy(policy)
        .flight_recorder(Arc::clone(&recorder))
        .build()
        .unwrap();
    backend.advance_to(Nanos::from_ms(1));
    let page = b"builder-wired page payload. ".repeat(160)[..PAGE_SIZE].to_vec();
    let out = backend.swap_out(PageNumber::new(9), &page).unwrap();
    assert_eq!(out.executed_on, ExecutedOn::Cpu);
    let (restored, _) = backend.swap_in(PageNumber::new(9), false).unwrap();
    assert_eq!(restored, page);

    // `faults`: the armed site refused the first attempt and both
    // retries at the device.
    assert_eq!(backend.nma_stats().rejected, 3);
    // `retry_policy` and `telemetry`: each retry is on the trail, and
    // so is the exhaustion.
    let events = registry.snapshot().events;
    let retries = |cause: Cause| {
        events
            .iter()
            .filter(|e| e.stage == LifecycleStage::Retry && e.cause == cause)
            .count()
    };
    assert_eq!(
        (retries(Cause::Retry), retries(Cause::RetryExhausted)),
        (2, 1)
    );
    // `flight_recorder`: the exhaustion left a parseable dump in `dir`.
    assert_eq!(recorder.dumps(), 1);
    let dumps: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(dumps.len(), 1);
    let text = std::fs::read_to_string(dumps[0].as_ref().unwrap().path()).unwrap();
    let summary = xfm_telemetry::flight::validate_dump(&text).unwrap();
    assert_eq!(summary.reason, "retry-exhausted-compress");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn swap_plane_errors_carry_site_and_retryability() {
    let b = backend(1);
    let plane: &dyn SwapPlane = &b;
    let err = plane
        .swap_in_into(PageNumber::new(404), false, &mut Vec::new())
        .unwrap_err();
    assert_eq!(err.site, xfm_types::SwapSite::EntryTable);
    assert!(!err.retryable);
}

#[test]
fn injected_corruption_is_detected_and_retryable() {
    let plan = FaultPlan::new(7).with_site(
        FaultSite::BitCorruption,
        SiteSpec::with_probability(1.0).max_fires(1),
    );
    let b = builder(1).faults(injector(&plan)).build().unwrap();
    b.advance_to(Nanos::from_ms(1));
    let page = Corpus::Json.generate(11, PAGE_SIZE);
    b.swap_out(PageNumber::new(11), &page).unwrap();
    // First fetch sees the flipped bit: checksum catches it and the
    // entry stays intact.
    let err = b.swap_in(PageNumber::new(11), false).unwrap_err();
    assert!(matches!(err.cause(), Error::ChecksumMismatch { .. }));
    assert!(err.is_retryable());
    assert!(b.contains(PageNumber::new(11)), "entry must survive");
    // The stored copy was pristine: the retry round-trips.
    let (restored, _) = b.swap_in(PageNumber::new(11), false).unwrap();
    assert_eq!(restored, page);
}

#[test]
fn retry_policy_rides_out_transient_rejects() {
    let plan = FaultPlan::new(3).with_site(
        FaultSite::QueueFull,
        SiteSpec::with_probability(1.0).max_fires(2),
    );
    let b = builder(1)
        .faults(injector(&plan))
        .retry_policy(RetryPolicy::default())
        .build()
        .unwrap();
    b.advance_to(Nanos::from_ms(1));
    let page = Corpus::Json.generate(21, PAGE_SIZE);
    // Two injected rejects, then the third attempt lands on the NMA.
    let out = b.swap_out(PageNumber::new(21), &page).unwrap();
    assert_eq!(out.executed_on, ExecutedOn::Nma);
    assert_eq!(b.nma_stats().rejected, 2);
    let (restored, _) = b.swap_in(PageNumber::new(21), false).unwrap();
    assert_eq!(restored, page);
}

#[test]
fn sustained_faults_degrade_to_cpu_only_and_stop_submitting() {
    let plan =
        FaultPlan::new(1).with_site(FaultSite::SpmExhaustion, SiteSpec::with_probability(1.0));
    let b = builder(1).faults(injector(&plan)).build().unwrap();
    b.advance_to(Nanos::from_ms(1));
    for i in 0..16u64 {
        let page = Corpus::Json.generate(i, PAGE_SIZE);
        let out = b.swap_out(PageNumber::new(i), &page).unwrap();
        assert_eq!(out.executed_on, ExecutedOn::Cpu, "every offload rejected");
    }
    assert_eq!(b.degraded_mode(), DegradedMode::CpuOnly);
    assert!(b.degrade_transitions() >= 1);
    let rejected_at_trip = b.nma_stats().rejected;
    // CpuOnly is sticky: further swap-outs skip the doomed MMIO
    // submissions entirely.
    for i in 16..24u64 {
        let page = Corpus::Json.generate(i, PAGE_SIZE);
        b.swap_out(PageNumber::new(i), &page).unwrap();
    }
    assert_eq!(b.nma_stats().rejected, rejected_at_trip);
    // Data stayed intact throughout.
    for i in 0..24u64 {
        let (restored, _) = b.swap_in(PageNumber::new(i), false).unwrap();
        assert_eq!(restored, Corpus::Json.generate(i, PAGE_SIZE));
    }
}

#[test]
fn telemetry_captures_swap_path_metrics_and_rank_gauges() {
    let registry = Registry::new();
    let b = builder(2).telemetry(&registry).build().unwrap();
    b.advance_to(Nanos::from_ms(1));
    for i in 0..6u64 {
        let page = Corpus::Json.generate(i, PAGE_SIZE);
        b.swap_out(PageNumber::new(i), &page).unwrap();
    }
    for i in 0..6u64 {
        b.swap_in(PageNumber::new(i), i % 2 == 0).unwrap();
    }
    b.advance_to(Nanos::from_ms(2));
    let snap = registry.snapshot();
    assert_eq!(snap.counters["xfm_swap_outs_total"], 6);
    assert_eq!(snap.counters["xfm_swap_ins_total"], 6);
    assert_eq!(snap.histograms["xfm_swap_out_latency_ns"].count, 6);
    assert_eq!(snap.histograms["xfm_swap_in_latency_ns"].count, 6);
    assert!(snap.histograms["xfm_swap_out_latency_ns"].p99 > 0);
    // Every swap left its store / fault event on the trail.
    for stage in [LifecycleStage::ZpoolStore, LifecycleStage::Fault] {
        assert_eq!(snap.events.iter().filter(|e| e.stage == stage).count(), 6);
    }
    assert_eq!(snap.gauges["xfm_degraded_mode"], 0.0, "healthy stack");
    // Both DIMMs expose utilization gauges; windows have been
    // processed, so the gauge is a real (possibly small) fraction.
    for rank in 0..2 {
        let util = snap.gauges[&format!("xfm_refresh_window_utilization{{rank=\"{rank}\"}}")];
        assert!((0.0..=1.0).contains(&util));
        let windows = snap.gauges[&format!("xfm_refresh_windows_processed{{rank=\"{rank}\"}}")];
        assert!(windows > 0.0, "windows {windows}");
    }
}

#[test]
fn unattached_backend_behaves_identically() {
    let plain = backend(1);
    let wired = builder(1).telemetry(&Registry::new()).build().unwrap();
    plain.advance_to(Nanos::from_ms(1));
    wired.advance_to(Nanos::from_ms(1));
    for i in 0..4u64 {
        let page = Corpus::Html.generate(i, PAGE_SIZE);
        let a = plain.swap_out(PageNumber::new(i), &page).unwrap();
        let b = wired.swap_out(PageNumber::new(i), &page).unwrap();
        assert_eq!(a, b);
    }
    for i in 0..4u64 {
        let (da, oa) = plain.swap_in(PageNumber::new(i), true).unwrap();
        let (db, ob) = wired.swap_in(PageNumber::new(i), true).unwrap();
        assert_eq!(da, db);
        assert_eq!(oa, ob);
    }
}

#[test]
fn batched_swap_out_matches_sequential_calls() {
    for n_dimms in [1usize, 2] {
        let batched = backend(n_dimms);
        let serial = backend(n_dimms);
        batched.advance_to(Nanos::from_ms(1));
        serial.advance_to(Nanos::from_ms(1));
        // Mixed batch: compressible, same-filled, incompressible
        // (stored raw), a duplicate, and a wrong-sized page.
        let mut batch: Vec<(PageNumber, Bytes)> = (0..12u64)
            .map(|i| {
                let data = match i % 3 {
                    0 => Corpus::Json.generate(i, PAGE_SIZE),
                    1 => vec![i as u8; PAGE_SIZE],
                    _ => Corpus::RandomBytes.generate(i, PAGE_SIZE),
                };
                (PageNumber::new(i), Bytes::from(data))
            })
            .collect();
        batch.push(batch[0].clone()); // duplicate -> EntryExists
        batch.push((PageNumber::new(99), Bytes::from(vec![0u8; 100]))); // wrong size
        let got = batched.swap_out_batch(&batch, 3).unwrap();
        assert_eq!(got.len(), batch.len());
        for ((page, data), g) in batch.iter().zip(&got) {
            let want = serial.swap_out(*page, data);
            match (g, &want) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "page {page} n={n_dimms}"),
                (Err(a), Err(b)) => {
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "page {page}");
                }
                _ => panic!("page {page} diverged: {g:?} vs {want:?}"),
            }
        }
        assert_eq!(batched.stats(), serial.stats());
        assert_eq!(batched.pool_stats(), serial.pool_stats());
        assert_eq!(batched.nma_stats().submitted, serial.nma_stats().submitted);
        // Round-trip the stored pages to prove data integrity.
        for (page, data) in batch.iter().take(12) {
            let (restored, _) = batched.swap_in(*page, false).unwrap();
            assert_eq!(&restored[..], &data[..], "page {page}");
        }
    }
}

#[test]
fn batched_swap_out_rejects_zero_threads() {
    let b = backend(1);
    let err = b.swap_out_batch(&[], 0).unwrap_err();
    assert!(matches!(err.cause(), Error::InvalidConfig(_)));
}

#[test]
fn batched_swap_out_with_telemetry_counts_every_page() {
    let registry = Registry::new();
    let b = builder(1).telemetry(&registry).build().unwrap();
    b.advance_to(Nanos::from_ms(1));
    let batch: Vec<(PageNumber, Bytes)> = (0..8u64)
        .map(|i| {
            (
                PageNumber::new(i),
                Bytes::from(Corpus::Html.generate(i, PAGE_SIZE)),
            )
        })
        .collect();
    let results = b.swap_out_batch(&batch, 4).unwrap();
    assert!(results.iter().all(SwapResult::is_ok));
    let s = registry.snapshot();
    assert_eq!(s.counters["xfm_swap_outs_total"], 8);
    assert_eq!(s.histograms["xfm_swap_out_latency_ns"].count, 8);
    // Each page's worker-measured compression latency landed in the
    // same series the synchronous path records.
    assert_eq!(s.histograms["xfm_compress_latency_ns"].count, 8);
}

#[test]
fn compact_charges_memcpy_traffic() {
    let b = backend(1);
    b.advance_to(Nanos::from_ms(1));
    for i in 0..64u64 {
        let page = Corpus::TimeSeries.generate(i, PAGE_SIZE);
        b.swap_out(PageNumber::new(i), &page).unwrap();
    }
    // Free every other page to fragment the pool.
    for i in (0..64u64).step_by(2) {
        b.swap_in(PageNumber::new(i), false).unwrap();
    }
    let ddr_before = b.stats().ddr_bytes;
    let report = b.compact();
    if report.moved_bytes.as_bytes() > 0 {
        assert_eq!(b.stats().ddr_bytes - ddr_before, report.moved_bytes * 2);
    }
}

/// What a swap-out the store refuses must leave exactly as it was.
fn device_state(b: &XfmBackend) -> (u64, Vec<ByteSize>, u64) {
    let used = |inner: &XfmInner| inner.drivers.iter().map(XfmDriver::inferred_used).collect();
    let inferred_used = used(&b.device());
    (
        b.nma_stats().submitted,
        inferred_used,
        b.degrade_transitions(),
    )
}

#[test]
fn a_refused_swap_out_was_never_offered_to_the_nma() {
    // A default backend over a 64 KiB region: compressible pages fill
    // it within the first few dozen swap-outs.
    let config = XfmBackendConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_kib(64),
        },
        ..XfmBackendConfig::default()
    };
    let b = XfmBackend::builder().config(config).build().unwrap();
    b.advance_to(Nanos::from_ms(1));
    let (mut stored, mut refused) = (0u64, 0u64);
    for i in 0..200u64 {
        let before = device_state(&b);
        match b.swap_out(PageNumber::new(i), &Corpus::Json.generate(i, PAGE_SIZE)) {
            Ok(_) => stored += 1,
            Err(e) => {
                assert!(matches!(e.cause(), Error::SfmRegionFull), "{e}");
                assert_eq!(device_state(&b), before, "page {i}");
                refused += 1;
            }
        }
    }
    assert!(
        stored > 0 && refused > 0,
        "{stored} stored, {refused} refused"
    );
    assert_eq!(b.table_len() as u64, stored);
    assert!(b.nma_stats().submitted <= stored);

    // The injected refusal too: a caller's retries of one page must not
    // stack scratchpad reservations under the same key.
    let plan = FaultPlan::new(5).with_site(
        FaultSite::ZpoolStoreFailure,
        SiteSpec::with_probability(1.0).max_fires(2),
    );
    let b = XfmBackend::builder()
        .faults(injector(&plan))
        .build()
        .unwrap();
    b.advance_to(Nanos::from_ms(1));
    let idle = device_state(&b);
    let page = Corpus::Json.generate(1, PAGE_SIZE);
    for _ in 0..2 {
        assert!(b.swap_out(PageNumber::new(1), &page).is_err());
        assert_eq!(device_state(&b), idle);
    }
    let out = b.swap_out(PageNumber::new(1), &page).unwrap();
    assert_eq!(out.executed_on, ExecutedOn::Nma);
    let one = NearMemoryAccelerator::reservation_for(OffloadKind::Compress, PAGE_SIZE);
    let one = vec![ByteSize::from_bytes(one as u64)];
    assert_eq!(device_state(&b), (1, one, 0));
}
