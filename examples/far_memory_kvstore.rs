//! A multi-tenant key-value store that transparently spills cold values
//! to an XFM-backed far memory — the application-integrated usage
//! pattern of AIFM, which the paper builds on.
//!
//! The service plane ([`xfm::serve::FarKvService`]) keeps each tenant's
//! hot values in a bounded resident cache; on pressure, the coldest
//! values are compressed into the SFM region by the near-memory
//! accelerator, billed to the demoting tenant. Reads of spilled values
//! fault them back in. Quotas and admission control keep one tenant's
//! pressure from becoming another tenant's eviction. The last section
//! counts compress calls per operation on one traffic over the paper's
//! backend and over the CPU plane storing the same blocks: both keep a
//! faulted value's compressed copy, so a value that is only read is
//! compressed once, and the two compress equally often.
//!
//! Run with: `cargo run --example far_memory_kvstore`

use std::sync::Arc;

use xfm::compress::ratio::Container;
use xfm::compress::{CostModel, XDeflate};
use xfm::core::backend::{XfmBackend, XfmBackendConfig};
use xfm::serve::{FarKvService, PutResult, ServiceClass, TenantSpec};
use xfm::sfm::{ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm::telemetry::Registry;
use xfm::types::{ByteSize, Nanos, Result, TenantId, PAGE_SIZE};

/// A value padded into one 4 KiB page (real stores pack many objects per
/// page; one-value-per-page keeps the example readable).
fn encode(value: &str) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    let bytes = value.as_bytes();
    page[..2].copy_from_slice(&(bytes.len() as u16).to_le_bytes());
    page[2..2 + bytes.len()].copy_from_slice(bytes);
    page
}

fn decode(page: &[u8]) -> String {
    let len = u16::from_le_bytes([page[0], page[1]]) as usize;
    String::from_utf8_lossy(&page[2..2 + len]).into_owned()
}

fn value_for(tenant: u16, key: u64) -> String {
    format!(
        "user-profile:{tenant}/{key} {{ name: \"user{key}\", plan: \"pro\", \
         bio: \"{}\" }}",
        "far memory enthusiast. ".repeat(20)
    )
}

fn main() -> Result<()> {
    // One compressed plane behind the whole service, wired through the
    // builder, the one way to construct it.
    let registry = Registry::new();
    let backend = Arc::new(
        XfmBackend::builder()
            .config(XfmBackendConfig::default())
            .telemetry(&registry)
            .build()?,
    );

    // Two tenants share it: a guaranteed one with a 64-page hot cache,
    // and a best-effort one squeezed into half that.
    let alpha = TenantId::new(1);
    let beta = TenantId::new(2);
    let specs = vec![
        TenantSpec::new(alpha, ByteSize::from_pages(64), ByteSize::from_mib(8)),
        TenantSpec::new(beta, ByteSize::from_pages(32), ByteSize::from_mib(8))
            .with_class(ServiceClass::BestEffort),
    ];
    let service = FarKvService::new(backend.clone(), specs.clone());

    println!("== filling both tenants with 256 values each ==");
    let mut clock = Nanos::from_ms(1);
    for key in 0..256u64 {
        for tenant in [alpha, beta] {
            // Advance the backend clock so refresh windows open and the
            // NMA drains the offload pipeline between writes.
            clock += Nanos::from_us(10);
            backend.advance_to(clock);
            let page = encode(&value_for(tenant.as_u16(), key));
            let stored = service.put(tenant, key, &page)?;
            assert!(matches!(stored, PutResult::Stored { .. }));
        }
    }
    for s in service.snapshots() {
        println!(
            "{} ({}): {} resident, {} demoted, {} compressed",
            s.tenant,
            s.class.name(),
            ByteSize::from_bytes(s.resident_bytes),
            s.demotions,
            ByteSize::from_bytes(s.compressed_bytes),
        );
    }

    println!("\n== reading both keyspaces back ==");
    let mut out = Vec::new();
    for key in 0..256u64 {
        for tenant in [alpha, beta] {
            clock += Nanos::from_us(10);
            backend.advance_to(clock);
            service.get(tenant, key, &mut out)?.expect("value present");
            assert_eq!(decode(&out), value_for(tenant.as_u16(), key));
        }
    }
    for s in service.snapshots() {
        println!(
            "{} ({}): {} hits, {} demand faults (p50 {} ns, p99 {} ns)",
            s.tenant,
            s.class.name(),
            s.hits,
            s.faults,
            s.fault_p50_ns,
            s.fault_p99_ns,
        );
    }

    // Let the refresh windows drain the offload pipeline (flexible
    // accesses may wait up to one retention interval, 32 ms).
    clock += Nanos::from_ms(70);
    backend.advance_to(clock);

    println!("\n== far-memory economics ==");
    let acct = service.accounting();
    println!(
        "accounting: service ledgers {} B == plane usage {} B, balanced: {}",
        acct.ledger_total, acct.plane_total, acct.balanced
    );
    assert!(acct.balanced);
    let pool = backend.pool_stats();
    let stats = backend.stats();
    println!(
        "compressed pool: {} across {} host pages (for {} of raw data)",
        pool.stored_bytes,
        pool.host_pages,
        ByteSize::from_pages(stats.swap_outs)
    );
    println!(
        "swap-outs: {} ({} on the NMA), swap-ins: {}, DDR traffic: {}",
        stats.swap_outs, stats.nma_executions, stats.swap_ins, stats.ddr_bytes
    );
    let nma = backend.nma_stats();
    println!(
        "refresh side channel carried {} in {} conditional + {} random accesses",
        nma.sched.side_channel_bytes, nma.sched.conditional, nma.sched.random
    );

    println!("\n== compress calls per op ==");
    // The same traffic, a fill and two read passes, over a fresh paper's
    // backend and over the CPU plane storing the same blocks (one shard,
    // the backend's container codec). Both keep a faulted value's
    // compressed copy, so a value that is only read leaves the hot cache
    // again with no compress call: the two compress equally often.
    let xfm = Arc::new(XfmBackend::builder().build()?);
    let mut clock = Nanos::from_ms(1);
    let paper = traffic(xfm.clone(), &specs, || {
        clock += Nanos::from_us(10);
        xfm.advance_to(clock);
    })?;
    let config = ShardedSfmConfig {
        sfm: xfm.config().sfm,
        shards: 1,
    };
    let blocks = Container::new(Arc::new(XDeflate::default()), xfm.config().n_dimms);
    let cpu = ShardedSfm::with_codec(config, Arc::new(blocks), CostModel::paper_average());
    let host = traffic(Arc::new(cpu), &specs, || {})?;
    for (name, calls) in [("XFM backend", paper), ("CPU plane  ", host)] {
        println!(
            "{name}: {} swap-outs for {} ops = {:.3} per op ({} kept loads, {} on the NMA)",
            calls.swap_outs,
            calls.ops,
            calls.swap_outs as f64 / calls.ops as f64,
            calls.loads,
            calls.nma,
        );
    }
    assert_eq!(
        (paper.swap_outs, paper.loads, paper.ops),
        (host.swap_outs, host.loads, host.ops)
    );
    Ok(())
}

/// What [`traffic`] cost a plane.
#[derive(Clone, Copy)]
struct Calls {
    swap_outs: u64,
    loads: u64,
    nma: u64,
    ops: u64,
}

/// Fills both tenants' keyspaces over `plane`, reads them back twice,
/// calling `tick` before each operation, and counts the plane's work.
fn traffic(
    plane: Arc<dyn SwapPlane>,
    specs: &[TenantSpec],
    mut tick: impl FnMut(),
) -> Result<Calls> {
    let service = FarKvService::new(Arc::clone(&plane), specs.to_vec());
    let tenants = [TenantId::new(1), TenantId::new(2)];
    for key in 0..256u64 {
        for tenant in tenants {
            tick();
            service.put(tenant, key, &encode(&value_for(tenant.as_u16(), key)))?;
        }
    }
    let mut out = Vec::new();
    for _pass in 0..2 {
        for key in 0..256u64 {
            for tenant in tenants {
                tick();
                service.get(tenant, key, &mut out)?.expect("value present");
                assert_eq!(decode(&out), value_for(tenant.as_u16(), key));
            }
        }
    }
    assert!(service.accounting().balanced);
    let stats = plane.stats();
    Ok(Calls {
        swap_outs: stats.swap_outs,
        loads: stats.loads,
        nma: stats.nma_executions,
        ops: service.snapshots().iter().map(|s| s.puts + s.gets).sum(),
    })
}
