//! One fault path, two hooks: with a device that refuses every
//! submission, `XfmBackend` *is* the CPU baseline, and a block that
//! passes its checksum but fails to decode is consumed on the second
//! plane exactly as `crates/sfm/tests/sharded_corrupt.rs` pins it on
//! the first.
//!
//! The parity script avoids one legitimate difference: `XfmBackend`
//! stores a page in the multi-channel container, 4 header bytes longer
//! than the bare stream, so a compressed page can land in the next
//! zpool size class. Whenever the region is close to full the script
//! holds only raw and same-filled blocks, which are byte-identical on
//! both planes.

use std::collections::BTreeMap;
use std::sync::Arc;

use xfm::compress::{Codec, CodecKind, Corpus, Scratch, XDeflate};
use xfm::core::backend::{XfmBackend, XfmBackendConfig};
use xfm::faults::{FaultInjector, FaultPlan, FaultSite, SiteSpec, SplitMix64};
use xfm::sfm::{SfmConfig, ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm::telemetry::{Cause, LifecycleStage, Registry};
use xfm::types::{
    ByteSize, Error, Nanos, OpContext, PageNumber, Result, SwapError, TenantId, PAGE_SIZE,
};

const SEED: u64 = 0x5EED_0021;
/// Host pages in the region.
const REGION: u64 = 32;
/// Bytes the 1-DIMM container adds to a compressed page.
const HEADER: u32 = 4;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Content {
    Compressible(u64),
    SameFilled(u8),
    Incompressible(u64),
    /// Not a page: 100 bytes.
    Short,
}

impl Content {
    fn bytes(self) -> Vec<u8> {
        match self {
            Self::Compressible(seed) => {
                Corpus::all()[(seed % 6) as usize].generate(seed, PAGE_SIZE)
            }
            Self::SameFilled(fill) => vec![fill; PAGE_SIZE],
            Self::Incompressible(seed) => Corpus::RandomBytes.generate(seed, PAGE_SIZE),
            Self::Short => vec![1; 100],
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Out(u64, u16, Content),
    In(u64),
    Compact,
}

/// Outs (duplicates among them), ins (missing pages among them) and
/// compactions over pages `0..16`, with room to spare.
fn mixed(rng: &mut SplitMix64, script: &mut Vec<Op>) {
    for _ in 0..64 {
        let (page, pick) = (rng.next_u64() % 16, rng.next_u64());
        script.push(match pick % 20 {
            0..=9 => {
                let content = match (pick >> 8) % 8 {
                    0 => Content::SameFilled(pick as u8),
                    1 => Content::Incompressible(pick),
                    _ => Content::Compressible(pick >> 16),
                };
                Op::Out(page, 1 + (pick >> 32) as u16 % 3, content)
            }
            10..=16 => Op::In(page),
            _ => Op::Compact,
        });
    }
}

fn script() -> Vec<Op> {
    let mut rng = SplitMix64::new(SEED);
    let mut script = Vec::new();
    mixed(&mut rng, &mut script);
    script.extend((0..16).map(Op::In));
    // Fill to full with raw pages, then knock on the full region with
    // every kind of block.
    script.extend((0..REGION + 4).map(|i| Op::Out(100 + i, 2, Content::Incompressible(i))));
    script.push(Op::Out(200, 3, Content::SameFilled(7)));
    script.push(Op::Out(201, 3, Content::Compressible(9)));
    script.push(Op::Out(202, 3, Content::Short));
    script.push(Op::Compact);
    script.extend([Op::In(100), Op::Out(200, 3, Content::SameFilled(7))]);
    script.extend((101..100 + REGION / 2).map(Op::In));
    mixed(&mut rng, &mut script);
    script
}

/// What one call came to, as far as the two planes must agree: success
/// (with the stored length) or the error's variant and retryability.
type Verdict = std::result::Result<u32, (String, bool)>;

fn verdict<T>(r: std::result::Result<T, SwapError>, len: impl Fn(&T) -> u32) -> Verdict {
    r.as_ref().map(len).map_err(|e| {
        let cause = format!("{:?}", e.cause());
        let variant = cause.split(|c: char| !c.is_alphanumeric()).next();
        (variant.unwrap_or_default().to_owned(), e.is_retryable())
    })
}

/// Runs `op`, a swap-in retried while it is refused as retryable.
fn run(
    plane: &dyn SwapPlane,
    op: Op,
    resident: &BTreeMap<u64, Content>,
    buf: &mut Vec<u8>,
) -> Vec<Verdict> {
    match op {
        Op::Out(page, tenant, content) => {
            let ctx = OpContext::for_tenant(TenantId::new(tenant));
            let r = plane.swap_out_ctx(&ctx, PageNumber::new(page), &content.bytes());
            vec![verdict(r, |o| o.compressed_len)]
        }
        Op::In(page) => {
            let mut verdicts = Vec::new();
            loop {
                let r = plane.swap_in_into(PageNumber::new(page), false, buf);
                if r.is_ok() {
                    assert_eq!(*buf, resident[&page].bytes(), "page {page}");
                }
                verdicts.push(verdict(r, |o| o.compressed_len));
                if !matches!(verdicts.last(), Some(Err((_, true)))) {
                    return verdicts;
                }
            }
        }
        Op::Compact => {
            plane.compact();
            Vec::new()
        }
    }
}

/// Swap-path events by (stage, cause). The second plane spells a codec
/// run on the host `CpuFallback` where the first says `Ok`.
fn trail(registry: &Registry) -> BTreeMap<(u8, u8), usize> {
    use LifecycleStage::{Compress, Decompress, Fault, Fetch, ZpoolStore};
    let mut counts = BTreeMap::new();
    for e in registry.snapshot().events {
        if [Compress, ZpoolStore, Fault, Fetch, Decompress].contains(&e.stage) {
            let cause = match e.cause {
                Cause::CpuFallback => Cause::Ok,
                cause => cause,
            };
            *counts.entry((e.stage.code(), cause.code())).or_insert(0) += 1;
        }
    }
    counts
}

#[test]
fn with_offload_off_the_xfm_backend_is_the_cpu_baseline() {
    let sfm = SfmConfig {
        region_capacity: ByteSize::from_pages(REGION),
    };
    // The first three fetches on each plane arrive with a flipped bit.
    let plan = FaultPlan::new(SEED).with_site(
        FaultSite::BitCorruption,
        SiteSpec::with_probability(1.0).max_fires(3),
    );
    // The device refuses every submission: the host runs every codec
    // call, as on the CPU plane.
    let refusing = FaultPlan::new(SEED)
        .with_site(
            FaultSite::BitCorruption,
            SiteSpec::with_probability(1.0).max_fires(3),
        )
        .with_site(FaultSite::QueueFull, SiteSpec::with_probability(1.0));
    let (cpu_registry, xfm_registry) = (Registry::new(), Registry::new());
    let mut cpu = ShardedSfm::new(ShardedSfmConfig { sfm, shards: 1 });
    cpu.attach_telemetry(&cpu_registry);
    cpu.attach_faults(Arc::new(FaultInjector::new(&plan)));
    let xfm = XfmBackend::builder()
        .config(XfmBackendConfig {
            sfm,
            n_dimms: 1,
            ..XfmBackendConfig::default()
        })
        .telemetry(&xfm_registry)
        .faults(Arc::new(FaultInjector::new(&refusing)))
        .build()
        .unwrap();

    let mut resident: BTreeMap<u64, Content> = BTreeMap::new();
    let (mut cpu_buf, mut xfm_buf) = (Vec::new(), Vec::new());
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for (step, op) in script().into_iter().enumerate() {
        let want = run(&cpu, op, &resident, &mut cpu_buf);
        let mut got = run(&xfm, op, &resident, &mut xfm_buf);
        let in_container = |c: Option<&Content>| matches!(c, Some(Content::Compressible(_)));
        let header = match op {
            Op::Out(_, _, content) if in_container(Some(&content)) => HEADER,
            Op::In(page) if in_container(resident.get(&page)) => HEADER,
            _ => 0,
        };
        for len in got.iter_mut().flatten() {
            *len -= header;
        }
        assert_eq!(got, want, "step {step} {op:?} (seed {SEED:#x})");
        for (variant, _) in want.iter().filter_map(|v| v.as_ref().err()) {
            *seen.entry(variant.clone()).or_insert(0) += 1;
        }
        match (op, want.last()) {
            (Op::Out(page, _, content), Some(Ok(_))) => drop(resident.insert(page, content)),
            (Op::In(page), Some(Ok(_))) => drop(resident.remove(&page)),
            _ => {}
        }
    }
    // The script met every case it was written for.
    let met = |variant: &str| seen.get(variant).copied().unwrap_or(0);
    assert!(met("SfmRegionFull") >= 5, "{seen:?}");
    assert_eq!(
        met("ChecksumMismatch"),
        3,
        "three flipped fetches: {seen:?}"
    );
    for variant in ["EntryExists", "EntryNotFound", "InvalidConfig"] {
        assert!(met(variant) > 0, "{variant}: {seen:?}");
    }

    let (a, b) = (cpu.stats(), SwapPlane::stats(&xfm));
    assert_eq!(
        (
            a.swap_outs,
            a.swap_ins,
            a.stored_raw,
            a.rejected_full,
            a.cpu_executions
        ),
        (
            b.swap_outs,
            b.swap_ins,
            b.stored_raw,
            b.rejected_full,
            b.cpu_executions
        )
    );
    assert_eq!(b.nma_executions, 0);
    assert_eq!(xfm.nma_stats().submitted, 0);
    let owners = |plane: &dyn SwapPlane| -> Vec<TenantId> {
        plane.tenant_usage().iter().map(|&(t, _)| t).collect()
    };
    assert_eq!(owners(&xfm), owners(&cpu));
    let containers = resident
        .values()
        .filter(|c| matches!(c, Content::Compressible(_)))
        .count() as u64;
    assert!(containers > 0 && resident.len() as u64 > containers);
    assert_eq!(
        SwapPlane::pool_stats(&xfm).stored_bytes,
        cpu.pool_stats().stored_bytes + ByteSize::from_bytes(u64::from(HEADER) * containers)
    );
    assert_eq!(trail(&xfm_registry), trail(&cpu_registry));
}

/// xdeflate that damages the decode of one chosen block (recognised by
/// its compressed bytes) and leaves every other call alone.
struct DamagingCodec {
    victim: Vec<u8>,
    /// Come back one byte short instead of failing.
    short: bool,
}

impl Codec for DamagingCodec {
    fn name(&self) -> &'static str {
        "damaging"
    }

    fn kind(&self) -> CodecKind {
        CodecKind::XDeflate
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        XDeflate::default().compress(src, dst)
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        self.decompress_into(src, dst, &mut Scratch::new())
    }

    fn decompress_into(
        &self,
        src: &[u8],
        dst: &mut Vec<u8>,
        scratch: &mut Scratch,
    ) -> Result<usize> {
        let n = XDeflate::default().decompress_into(src, dst, scratch)?;
        match (src == self.victim, self.short) {
            (false, _) => Ok(n),
            (true, false) => Err(Error::Corrupt("injected decode failure".into())),
            (true, true) => {
                dst.pop();
                Ok(n - 1)
            }
        }
    }
}

#[test]
fn a_corrupt_block_on_the_xfm_backend_is_consumed_and_credited_once() {
    const VICTIM: PageNumber = PageNumber::new(2);
    let owner = OpContext::for_tenant(TenantId::new(5));
    let good = Corpus::Json.generate(1, PAGE_SIZE);
    let victim = Corpus::EnglishText.generate(2, PAGE_SIZE);
    let mut victim_block = Vec::new();
    XDeflate::default()
        .compress(&victim, &mut victim_block)
        .unwrap();
    for short in [false, true] {
        // The prefetch path (`do_offload`) and the demand path alike.
        for do_offload in [false, true] {
            let case = format!("short {short}, do_offload {do_offload}");
            let registry = Registry::new();
            let xfm = XfmBackend::builder()
                .codec(Arc::new(DamagingCodec {
                    victim: victim_block.clone(),
                    short,
                }))
                .telemetry(&registry)
                .build()
                .unwrap();
            let plane: &dyn SwapPlane = &xfm;
            plane.swap_out(PageNumber::new(1), &good).unwrap();
            let stored = plane.swap_out_ctx(&owner, VICTIM, &victim).unwrap();
            let stored = u64::from(stored.compressed_len);
            let before = (plane.stats().swap_ins, xfm.nma_stats().submitted);

            let mut buf = Vec::new();
            let err = plane
                .swap_in_into(VICTIM, do_offload, &mut buf)
                .unwrap_err();
            assert!(matches!(err.cause(), Error::Corrupt(_)), "{case}: {err:?}");
            assert!(!err.is_retryable(), "{case}");
            assert!(!plane.contains(VICTIM), "{case}");
            let billed: u64 = plane.tenant_usage().iter().map(|&(_, b)| b).sum();
            assert_eq!(billed, plane.pool_stats().stored_bytes.as_bytes(), "{case}");
            let freed = registry.snapshot().counters["xfm_tenant_bytes_freed_total{tenant=\"5\"}"];
            assert_eq!(freed, stored, "{case}");
            // Not a completed swap-in, and nothing for the NMA to redo.
            assert_eq!(
                (plane.stats().swap_ins, xfm.nma_stats().submitted),
                before,
                "{case}"
            );
            // The page number is free again; the neighbour is untouched.
            plane.swap_out_ctx(&owner, VICTIM, &victim).unwrap();
            plane
                .swap_in_into(PageNumber::new(1), do_offload, &mut buf)
                .unwrap();
            assert_eq!(buf, good, "{case}");
        }
    }
}

/// The XFM path used to refuse silently: `rejected_full` stayed 0, a
/// `RegionFull` refusal left no event, and the checksum-mismatch event
/// lost the entry's tenant. All three are the shared store's now.
#[test]
fn xfm_refusals_and_mismatches_are_counted_and_explained_with_their_tenant() {
    let registry = Registry::new();
    let plan = FaultPlan::new(7).with_site(
        FaultSite::BitCorruption,
        SiteSpec::with_probability(1.0).max_fires(1),
    );
    // A default backend (offload on) over a 64 KiB region.
    let b = XfmBackend::builder()
        .config(XfmBackendConfig {
            sfm: SfmConfig {
                region_capacity: ByteSize::from_kib(64),
            },
            ..XfmBackendConfig::default()
        })
        .telemetry(&registry)
        .faults(Arc::new(FaultInjector::new(&plan)))
        .build()
        .unwrap();
    b.advance_to(Nanos::from_ms(1));
    let owner = OpContext::for_tenant(TenantId::new(7));
    let refused = (0..200u64)
        .filter(|&i| {
            let page = Corpus::Json.generate(i, PAGE_SIZE);
            b.swap_out_ctx(&owner, PageNumber::new(i), &page).is_err()
        })
        .count();
    assert!(refused > 100, "{refused} refusals");
    assert_eq!(b.stats().rejected_full, refused as u64);
    let err = b.swap_in(PageNumber::new(0), false).unwrap_err();
    assert!(matches!(err.cause(), Error::ChecksumMismatch { .. }));

    let events = registry.snapshot().events;
    let explained = |stage, cause| {
        let of_kind = events
            .iter()
            .filter(move |e| e.stage == stage && e.cause == cause);
        of_kind.inspect(|e| assert_eq!((e.tenant, e.shard), (owner.tenant, 0)))
    };
    let full = explained(LifecycleStage::ZpoolStore, Cause::RegionFull);
    assert_eq!(full.count(), refused);
    let mismatched = explained(LifecycleStage::Fault, Cause::ChecksumMismatch);
    assert_eq!(mismatched.count(), 1);
}
