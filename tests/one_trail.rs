//! One event ring: every instrumented step of the swap path lands on
//! the registry's lifecycle trail exactly once, whichever plane or form
//! of the call ran it, and every series the composed stack registers is
//! named on the one `xfm_…` scheme.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use xfm::compress::Corpus;
use xfm::core::backend::XfmBackend;
use xfm::core::{XfmConfig, XfmSystem};
use xfm::event::ClockMirror;
use xfm::faults::{FaultInjector, FaultPlan, FaultSite, RetryPolicy, SiteSpec};
use xfm::serve::{FarKvService, TenantSpec};
use xfm::sfm::{
    ColdScanConfig, MediaModel, ModeledPlane, PrefetchConfig, PrefetchEngine, ReplicatedPlane,
    ShardedSfm, ShardedSfmConfig, SwapPlane, TierSpec, TieredPlane,
};
use xfm::sim::fallback::{simulate_traced, FallbackConfig};
use xfm::telemetry::chrome::{to_chrome_trace, validate_chrome_trace};
use xfm::telemetry::flight::{validate_dump, FlightRecorder};
use xfm::telemetry::json::{parse, JsonValue};
use xfm::telemetry::lifecycle::NO_SHARD;
use xfm::telemetry::{Cause, Layer, LifecycleEvent, LifecycleStage, Registry};
use xfm::types::{
    ByteSize, Nanos, OpContext, PageNumber, PlacementClass, PlaneId, TenantId, PAGE_SIZE,
};

use xfm_testkit::{filled_page, json_page, random_page};
use Cause::{CpuFallback, NmaOffload, Ok as Fine, SameFilled, StoredRaw};
use LifecycleStage::{Compress, Decompress, Fault, Fetch, ZpoolStore};

const TENANT: TenantId = TenantId::new(7);
const COMPRESSIBLE: u64 = 1;
const SAME_FILLED: u64 = 2;
const INCOMPRESSIBLE: u64 = 3;

/// Page `p` of the kind its number names.
fn page(p: u64) -> Vec<u8> {
    match p {
        COMPRESSIBLE => json_page(p),
        SAME_FILLED => filled_page(0x5A),
        _ => random_page(p),
    }
}

/// What one swap path step left on the trail, without its timings.
type Step = (u64, LifecycleStage, Cause, TenantId, u32);

/// The five swap-path stages recorded for pages 1–3, in page order and
/// then in a fixed stage order, so two runs compare as multisets.
fn swap_steps(registry: &Registry) -> Vec<Step> {
    let mut steps: Vec<Step> = registry
        .snapshot()
        .events
        .iter()
        .filter(|e| (COMPRESSIBLE..=INCOMPRESSIBLE).contains(&e.page))
        .filter(|e| [Compress, ZpoolStore, Fault, Fetch, Decompress].contains(&e.stage))
        .map(|e| (e.page, e.stage, e.cause, e.tenant, e.shard))
        .collect();
    steps.sort_by_key(|&(page, stage, cause, ..)| (page, stage.code(), cause.code()));
    steps
}

fn swap_out_all(plane: &dyn SwapPlane) {
    let ctx = OpContext::for_tenant(TENANT);
    for p in COMPRESSIBLE..=INCOMPRESSIBLE {
        plane
            .swap_out_ctx(&ctx, PageNumber::new(p), &page(p))
            .unwrap();
    }
}

fn one_shard(registry: &Registry) -> ShardedSfm {
    let mut sfm = ShardedSfm::new(ShardedSfmConfig {
        shards: 1,
        ..ShardedSfmConfig::default()
    });
    sfm.attach_telemetry(registry);
    sfm
}

#[test]
fn sharded_plane_records_each_stage_once_single_and_batched() {
    let on = |page, stage, cause| (page, stage, cause, TENANT, 0u32);
    let want = vec![
        on(COMPRESSIBLE, Compress, Fine),
        on(COMPRESSIBLE, ZpoolStore, Fine),
        on(COMPRESSIBLE, Fault, Fine),
        on(COMPRESSIBLE, Fetch, Fine),
        on(COMPRESSIBLE, Decompress, Fine),
        // A same-filled page never reaches the codec or a zpool slot
        // search: one event out, fault + fetch back.
        on(SAME_FILLED, Compress, SameFilled),
        on(SAME_FILLED, Fault, SameFilled),
        on(SAME_FILLED, Fetch, Fine),
        on(INCOMPRESSIBLE, Compress, StoredRaw),
        on(INCOMPRESSIBLE, ZpoolStore, StoredRaw),
        on(INCOMPRESSIBLE, Fault, StoredRaw),
        on(INCOMPRESSIBLE, Fetch, Fine),
    ];

    let single = Registry::new();
    let sfm = one_shard(&single);
    swap_out_all(&sfm);
    let mut buf = Vec::new();
    for p in COMPRESSIBLE..=INCOMPRESSIBLE {
        sfm.swap_in_into(PageNumber::new(p), false, &mut buf)
            .unwrap();
        assert_eq!(buf, page(p));
    }
    assert_eq!(swap_steps(&single), want);

    let batched = Registry::new();
    let sfm = one_shard(&batched);
    swap_out_all(&sfm);
    let pages: Vec<PageNumber> = (COMPRESSIBLE..=INCOMPRESSIBLE)
        .map(PageNumber::new)
        .collect();
    let mut outs = vec![Vec::new(); pages.len()];
    for (r, (out, pn)) in sfm
        .swap_in_batch_into(&pages, &mut outs)
        .iter()
        .zip(outs.iter().zip(&pages))
    {
        assert!(r.is_ok(), "{pn}: {r:?}");
        assert_eq!(*out, page(pn.index()));
    }
    assert_eq!(swap_steps(&batched), want);
}

#[test]
fn xfm_backend_records_each_stage_once_including_same_filled_swap_out() {
    let registry = Registry::new();
    let backend = XfmBackend::builder().telemetry(&registry).build().unwrap();
    backend.advance_to(Nanos::from_ms(1));
    swap_out_all(&backend);
    for p in COMPRESSIBLE..=INCOMPRESSIBLE {
        // A demand fault: decompression falls to the CPU by default.
        let (restored, _) = backend.swap_in(PageNumber::new(p), false).unwrap();
        assert_eq!(restored, page(p));
    }
    // The backend's data plane is one shard: its events carry shard 0.
    let on = |page, stage, cause| (page, stage, cause, TENANT, 0);
    assert_eq!(
        swap_steps(&registry),
        vec![
            on(COMPRESSIBLE, Compress, NmaOffload),
            on(COMPRESSIBLE, ZpoolStore, NmaOffload),
            on(COMPRESSIBLE, Fault, CpuFallback),
            on(COMPRESSIBLE, Fetch, Fine),
            on(COMPRESSIBLE, Decompress, CpuFallback),
            on(SAME_FILLED, Compress, SameFilled),
            on(SAME_FILLED, Fault, SameFilled),
            on(SAME_FILLED, Fetch, Fine),
            on(INCOMPRESSIBLE, Compress, StoredRaw),
            on(INCOMPRESSIBLE, ZpoolStore, StoredRaw),
            on(INCOMPRESSIBLE, Fault, StoredRaw),
            on(INCOMPRESSIBLE, Fetch, Fine),
        ]
    );
    // The same-filled swap-out is part of the page's recorded history.
    let history = registry.lifecycle().page_history(SAME_FILLED);
    assert_eq!(history[0].stage, Compress);
    assert_eq!(history[0].aux, 0x5A, "aux carries the fill byte");
}

/// The paper's path explains its faults as the CPU plane does: a demand
/// fault of a value the service demoted to the backend decomposes into
/// the plane's fetch, decode and booking layers.
#[test]
fn an_xfm_demand_fault_explains_its_fetch_decode_and_booking() {
    let registry = Registry::new();
    let backend = XfmBackend::builder().telemetry(&registry).build().unwrap();
    let backend = Arc::new(backend);
    backend.advance_to(Nanos::from_ms(1));
    let spec = TenantSpec::new(TENANT, ByteSize::from_pages(4), ByteSize::from_mib(1));
    let mut svc = FarKvService::new(backend.clone(), vec![spec]);
    svc.attach_telemetry(&registry);
    let paths = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&paths);
    svc.on_slow_op(Duration::ZERO, move |path| {
        sink.lock().unwrap().push(path.clone());
    });
    for key in 0..8 {
        svc.put(TENANT, key, &json_page(key)).unwrap();
    }
    let mut out = Vec::new();
    svc.get(TENANT, 0, &mut out).unwrap().expect("stored");
    assert_eq!(out, json_page(0));
    let paths = paths.lock().unwrap();
    let fault = paths.last().unwrap();
    assert_eq!(
        (fault.stage, fault.shard),
        (LifecycleStage::Get, 0),
        "{fault}"
    );
    for layer in [Layer::Fetch, Layer::Decompress, Layer::Booking] {
        let has = fault
            .steps
            .iter()
            .any(|s| (s.layer, s.page) == (layer, fault.page));
        assert!(has, "no {layer:?} in\n{fault}");
    }
}

/// An offload the device keeps refusing is the owner's story end to
/// end: its retries, backoffs and the give-up are billed to the tenant
/// whose page it was, on the trail, in the post-mortem the give-up
/// fires and in the Chrome export.
#[test]
fn xfm_retries_and_their_post_mortem_name_the_pages_owner() {
    let dir = std::env::temp_dir().join(format!("xfm-one-trail-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let registry = Registry::new();
    let plan = FaultPlan::new(7).with_site(FaultSite::QueueFull, SiteSpec::with_probability(1.0));
    let backend = XfmBackend::builder()
        .telemetry(&registry)
        .faults(Arc::new(FaultInjector::new(&plan)))
        .retry_policy(RetryPolicy::default())
        .flight_recorder(Arc::new(FlightRecorder::new(&registry, &dir)))
        .build()
        .unwrap();
    backend.advance_to(Nanos::from_ms(1));
    let ctx = OpContext::for_tenant(TENANT);
    let page_no = PageNumber::new(COMPRESSIBLE);
    backend
        .swap_out_ctx(&ctx, page_no, &page(COMPRESSIBLE))
        .unwrap();

    // The data plane's construction-time warm-up is the system's, on
    // the trail since telemetry attached; the rest is the offload's.
    let mut events = registry.snapshot().events;
    assert_eq!(events[0].stage, LifecycleStage::Warmup);
    events.remove(0);
    let retries = RetryPolicy::default().max_retries as usize;
    let of = |stage, cause| {
        let matching = events
            .iter()
            .filter(move |e| (e.stage, e.cause) == (stage, cause));
        let device = (TENANT, COMPRESSIBLE, NO_SHARD);
        matching.inspect(move |e| assert_eq!((e.tenant, e.page, e.shard), device, "{e:?}"))
    };
    assert_eq!(of(LifecycleStage::Retry, Cause::Retry).count(), retries);
    assert_eq!(of(LifecycleStage::Backoff, Cause::Retry).count(), retries);
    assert_eq!(of(LifecycleStage::Retry, Cause::RetryExhausted).count(), 1);

    let dumps: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(dumps.len(), 1, "one give-up, one post-mortem");
    let text = std::fs::read_to_string(dumps[0].as_ref().unwrap().path()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(validate_dump(&text).unwrap().events, 1 + 2 * retries + 1);
    let dump = parse(&text).unwrap();
    for e in &dump.get("events").and_then(JsonValue::as_array).unwrap()[1..] {
        assert_eq!(
            e.get("tenant").and_then(JsonValue::as_f64),
            Some(7.0),
            "{e:?}"
        );
    }

    let trace = to_chrome_trace(&events);
    assert_eq!(validate_chrome_trace(&trace).unwrap(), events.len());
    // Every event, the offload's included, names its tenant in `args`.
    let trace = parse(&trace).unwrap();
    let traced = trace.get("traceEvents").and_then(JsonValue::as_array);
    let tenants: Vec<Option<f64>> = traced.unwrap()[1..]
        .iter()
        .map(|e| e.path("args.tenant").and_then(JsonValue::as_f64))
        .collect();
    assert_eq!(tenants, vec![Some(7.0); events.len()]);
}

#[test]
fn overloaded_fallback_sim_stamps_hazards_with_simulated_time() {
    let cfg = FallbackConfig {
        duration: Nanos::from_ms(20),
        ..FallbackConfig::default()
    }
    .with_accesses(1);
    let hazards = || -> Vec<LifecycleEvent> {
        let registry = Registry::new();
        let _ = simulate_traced(&cfg, &registry);
        registry
            .snapshot()
            .events
            .into_iter()
            .filter(|e| matches!(e.cause, Cause::QueueFull | Cause::DeadlineSpill))
            .collect()
    };
    let first = hazards();
    for cause in [Cause::QueueFull, Cause::DeadlineSpill] {
        assert!(first.iter().any(|e| e.cause == cause), "no {cause:?} event");
    }
    for e in &first {
        // `aux` is the refresh window; the event's virtual time is that
        // window's start on the simulator's clock.
        assert!(e.virt_ns > 0);
        assert_eq!(e.virt_ns, (cfg.nma.timings.t_refi * e.aux).as_ns(), "{e:?}");
    }
    assert!(first
        .windows(2)
        .all(|w| w[0].seq < w[1].seq && w[0].virt_ns <= w[1].virt_ns));
    // Same seed, same trail — wall time aside.
    let timeless = |events: &[LifecycleEvent]| -> Vec<LifecycleEvent> {
        events
            .iter()
            .map(|e| LifecycleEvent { wall_ns: 0, ..*e })
            .collect()
    };
    assert_eq!(timeless(&first), timeless(&hazards()));
}

#[test]
fn scan_cold_leaves_one_event_counting_the_cold_pages() {
    let registry = Registry::new();
    let mut sys = XfmSystem::new(XfmConfig {
        scan: ColdScanConfig {
            cold_threshold: Nanos::from_secs(1),
        },
        ..XfmConfig::default()
    });
    sys.attach_telemetry(&registry);
    for p in 0..5u64 {
        sys.controller_mut().touch(PageNumber::new(p), Nanos::ZERO);
    }
    let cold = sys.scan_cold(Nanos::from_secs(2));
    assert_eq!(cold.len(), 5);
    let scans: Vec<LifecycleEvent> = registry
        .snapshot()
        .events
        .into_iter()
        .filter(|e| e.stage == LifecycleStage::ColdScanSelect)
        .collect();
    assert_eq!(scans.len(), 1);
    assert_eq!(scans[0].aux, cold.len() as u64);
    assert_eq!(scans[0].page, 0, "the count is not punned into `page`");
}

/// `xfm_<snake_case>` with an optional `{label="value",…}` block.
fn on_scheme(name: &str) -> bool {
    let snake = |s: &str| {
        !s.is_empty()
            && s.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    };
    let (base, labels) = match name.find('{') {
        Some(i) => (&name[..i], Some(&name[i..])),
        None => (name, None),
    };
    let labels_ok = labels.is_none_or(|l| {
        l.strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
            .is_some_and(|pairs| {
                pairs.split(',').all(|pair| {
                    pair.split_once('=').is_some_and(|(k, v)| {
                        snake(k) && v.len() >= 2 && v.starts_with('"') && v.ends_with('"')
                    })
                })
            })
    });
    base.starts_with("xfm_") && snake(base) && labels_ok
}

#[test]
fn every_series_of_the_composed_stack_is_on_the_xfm_scheme() {
    assert!(on_scheme("xfm_swap_outs_total"));
    assert!(on_scheme(r#"xfm_plane_read_latency_ns{plane="ssd"}"#));
    assert!(!on_scheme("ssd.read_ns"));
    assert!(!on_scheme("xfm_Bad"));
    assert!(!on_scheme(r#"xfm_x{plane=ssd}"#));

    // serve → prefetch → tiered → sharded + modeled planes, all on one
    // registry; tiny tiers so traffic reaches every plane.
    let registry = Registry::new();
    let clock = ClockMirror::new();
    let mut local = ShardedSfm::new(ShardedSfmConfig::default());
    local.attach_telemetry(&registry);
    let mut ssd = ModeledPlane::new("ssd", MediaModel::ssd(), 0, clock.clone());
    ssd.attach_telemetry(&registry);
    let mut remote = ReplicatedPlane::new("remote", MediaModel::remote(), 0, clock);
    remote.attach_telemetry(&registry);
    let mut tiered = TieredPlane::new(vec![
        TierSpec::new(
            Arc::new(local),
            PlaneId::new(0),
            PlacementClass::CompressedLocal,
        )
        .with_capacity_pages(2),
        TierSpec::new(Arc::new(ssd), PlaneId::new(1), PlacementClass::Ssd).with_capacity_pages(2),
        TierSpec::new(Arc::new(remote), PlaneId::new(2), PlacementClass::Remote),
    ])
    .unwrap();
    tiered.attach_telemetry(&registry);
    let mut engine = PrefetchEngine::new(Arc::new(tiered), PrefetchConfig::default());
    engine.attach_telemetry(&registry);
    let mut service = FarKvService::new(
        Arc::new(engine),
        vec![TenantSpec::new(
            TENANT,
            ByteSize::from_pages(2),
            ByteSize::from_mib(4),
        )],
    );
    service.attach_telemetry(&registry);

    let value = |k: u64| Corpus::KeyValue.generate(k, PAGE_SIZE);
    for k in 0..16u64 {
        service.put(TENANT, k, &value(k)).unwrap();
    }
    let mut out = Vec::new();
    for k in 0..16u64 {
        assert!(service.get(TENANT, k, &mut out).unwrap().is_some());
        assert_eq!(out, value(k), "key {k}");
    }

    let snap = registry.snapshot();
    let names: Vec<&String> = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .collect();
    let off_scheme: Vec<&&String> = names.iter().filter(|n| !on_scheme(n)).collect();
    assert!(off_scheme.is_empty(), "off-scheme series: {off_scheme:?}");
    // The walk covered every layer, the modeled planes included.
    for name in [
        "xfm_swap_ins_total",
        "xfm_prefetch_hits_total",
        r#"xfm_plane_write_latency_ns{plane="ssd"}"#,
        r#"xfm_plane_read_latency_ns{plane="remote.r0"}"#,
    ] {
        assert!(
            names.iter().any(|n| *n == name),
            "{name} missing: {names:?}"
        );
    }
    assert!(snap.histograms[r#"xfm_plane_write_latency_ns{plane="ssd"}"#].count > 0);
}
