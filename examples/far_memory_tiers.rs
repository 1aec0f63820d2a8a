//! Far-memory objects over a three-tier demotion hierarchy — the
//! "software-defined" half of the paper taken to its logical end:
//! the compressed local zpool is only the *first* stop for a cold
//! page, backed by a modeled SSD and a replicated remote-memory pair.
//!
//! The demo walks the full object lifecycle:
//!
//! 1. `FarMemory<T>` handles spill cold values into a [`TieredPlane`];
//! 2. budget pressure demotes the coldest pages down the hierarchy
//!    (compressed local → SSD → remote), visible in per-tier stats;
//! 3. faults promote pages back up, paying each tier's modeled latency;
//! 4. killing one remote replica mid-run loses nothing — reads fail
//!    over to the survivor and repair the missing copies.
//!
//! Run with: `cargo run --example far_memory_tiers`

use std::sync::Arc;

use xfm::event::ClockMirror;
use xfm::sfm::backend::{SfmConfig, SwapPlane};
use xfm::sfm::{
    FarMemory, MediaModel, ModeledPlane, ReplicatedPlane, ShardedSfm, ShardedSfmConfig, TierSpec,
    TieredPlane,
};
use xfm::types::{ByteSize, PageNumber, PlacementClass, PlaneId, SwapResult};

fn main() -> SwapResult<()> {
    // One virtual clock shared by every modeled device, so SSD and
    // remote service times land on a single coherent timeline.
    let clock = ClockMirror::new();

    // Tier 0: the compressed local zpool, budgeted to 24 resident
    // pages so the demo actually demotes.
    let local = Arc::new(ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(4),
        },
        ..ShardedSfmConfig::default()
    }));
    // Tier 1: a modeled SSD (20 us reads, 50 us writes), 32 pages.
    let ssd = Arc::new(ModeledPlane::new(
        "ssd",
        MediaModel::ssd(),
        32,
        clock.clone(),
    ));
    // Tier 2: two remote-memory replicas (3 us RTT), unbounded.
    let remote = Arc::new(ReplicatedPlane::new(
        "remote",
        MediaModel::remote(),
        0,
        clock.clone(),
    ));

    let tiered = Arc::new(TieredPlane::new(vec![
        TierSpec::new(local, PlaneId::new(0), PlacementClass::CompressedLocal)
            .with_capacity_pages(24),
        TierSpec::new(ssd, PlaneId::new(1), PlacementClass::Ssd).with_capacity_pages(32),
        TierSpec::new(remote.clone(), PlaneId::new(2), PlacementClass::Remote),
    ])?);
    let plane: Arc<dyn SwapPlane> = Arc::clone(&tiered) as Arc<dyn SwapPlane>;

    println!("== spilling 96 objects through the hierarchy ==");
    let objects: Vec<FarMemory<String>> = (0..96u64)
        .map(|i| {
            FarMemory::new(
                Arc::clone(&plane),
                PageNumber::new(i),
                format!("record:{i} {}", "tiered far memory. ".repeat(24)),
            )
        })
        .collect();
    for far in &objects {
        far.evict()?;
    }

    print_tiers(&tiered);

    println!("\n== faulting a cold object back up ==");
    let victim = &objects[0];
    let before = tiered.placement_of(victim.page()).expect("placed");
    println!("object 0 resides on {} ({})", before.plane, before.class);
    assert!(victim.get()?.starts_with("record:0"));
    println!("fault served byte-exact; promoted back to the hot tier");

    println!("\n== killing remote replica 0 mid-run ==");
    remote.kill(0);
    let mut survived = 0u64;
    for far in objects.iter().skip(1) {
        assert!(
            far.get()?.starts_with("record:"),
            "page {} lost after replica kill",
            far.page()
        );
        survived += 1;
    }
    println!(
        "{survived} objects read back intact on one replica \
         ({} degraded reads)",
        remote.degraded_reads()
    );
    remote.revive(0);
    let repaired = remote.scrub();
    println!("replica 0 revived; scrub restored {repaired} copies");
    Ok(())
}

fn print_tiers(tiered: &TieredPlane) {
    for t in tiered.tier_stats() {
        println!(
            "{} [{}]: {} resident (budget {}), {} demoted in, {} demoted out, {} promoted",
            t.id,
            t.class,
            t.resident_pages,
            t.capacity_pages,
            t.demoted_in,
            t.demoted_out,
            t.promoted
        );
    }
}
