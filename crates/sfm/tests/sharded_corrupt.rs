//! The corrupt-block contract of [`ShardedSfm`]'s one swap-in body.
//!
//! A block that passes its checksum but fails to decode — the codec
//! reports `Corrupt`, or yields something other than a page — is
//! consumed: the entry and its slot go, the stored bytes are credited
//! back to the owner exactly once, and the caller gets a non-retryable
//! `Corrupt`. A batch is a loop over that same body, so each page of a
//! batch gets its own verdict and the good pages around a corrupt one
//! still arrive byte-exact.

use std::sync::Arc;

use xfm_compress::{Codec, CodecKind, Corpus, CostModel, Scratch, XDeflate};
use xfm_sfm::{ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm_telemetry::Registry;
use xfm_types::{Error, OpContext, PageNumber, Result, TenantId, PAGE_SIZE};

#[derive(Clone, Copy, Debug)]
enum Damage {
    /// `decompress_into` returns `Err(Corrupt)`.
    Fails,
    /// `decompress_into` succeeds one byte short of a page.
    ShortPage,
}

/// xdeflate that damages the decode of one chosen block (recognised by
/// its compressed bytes) and leaves every other call alone.
struct DamagingCodec {
    inner: XDeflate,
    victim: Vec<u8>,
    damage: Damage,
}

impl Codec for DamagingCodec {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> CodecKind {
        self.inner.kind()
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        self.inner.compress(src, dst)
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        self.decompress_into(src, dst, &mut Scratch::new())
    }

    fn compress_into(&self, src: &[u8], dst: &mut Vec<u8>, scratch: &mut Scratch) -> Result<usize> {
        self.inner.compress_into(src, dst, scratch)
    }

    fn decompress_into(
        &self,
        src: &[u8],
        dst: &mut Vec<u8>,
        scratch: &mut Scratch,
    ) -> Result<usize> {
        let n = self.inner.decompress_into(src, dst, scratch)?;
        if src != self.victim {
            return Ok(n);
        }
        match self.damage {
            Damage::Fails => Err(Error::Corrupt("injected decode failure".into())),
            Damage::ShortPage => {
                dst.pop();
                Ok(n - 1)
            }
        }
    }
}

const GOOD_A: PageNumber = PageNumber::new(1);
const VICTIM: PageNumber = PageNumber::new(2);
const GOOD_B: PageNumber = PageNumber::new(3);
const MISSING: PageNumber = PageNumber::new(4);
const OWNER: TenantId = TenantId::new(5);

fn freed_by_owner(registry: &Registry) -> u64 {
    let name = format!(
        "xfm_tenant_bytes_freed_total{{tenant=\"{}\"}}",
        OWNER.as_u16()
    );
    registry
        .snapshot()
        .counters
        .get(&name)
        .copied()
        .unwrap_or(0)
}

fn usage_matches_pool(plane: &dyn SwapPlane) {
    let billed: u64 = plane.tenant_usage().iter().map(|&(_, b)| b).sum();
    assert_eq!(billed, plane.pool_stats().stored_bytes.as_bytes());
}

fn is_corrupt(e: &xfm_types::SwapError) -> bool {
    matches!(e.cause(), Error::Corrupt(_))
}

#[test]
fn a_corrupt_block_is_consumed_once_and_named_per_page() {
    let good_a = Corpus::Json.generate(1, PAGE_SIZE);
    let victim = Corpus::EnglishText.generate(2, PAGE_SIZE);
    let good_b = Corpus::Csv.generate(3, PAGE_SIZE);
    let mut victim_block = Vec::new();
    XDeflate::default()
        .compress(&victim, &mut victim_block)
        .unwrap();

    for shards in [1usize, 8] {
        for damage in [Damage::Fails, Damage::ShortPage] {
            let case = format!("{shards} shards, {damage:?}");
            let registry = Registry::new();
            let mut sfm = ShardedSfm::with_codec(
                ShardedSfmConfig {
                    shards,
                    ..ShardedSfmConfig::default()
                },
                Arc::new(DamagingCodec {
                    inner: XDeflate::default(),
                    victim: victim_block.clone(),
                    damage,
                }),
                CostModel::paper_average(),
            );
            sfm.attach_telemetry(&registry);
            let plane: &dyn SwapPlane = &sfm;
            let owner = OpContext::for_tenant(OWNER);
            plane.swap_out(GOOD_A, &good_a).unwrap();
            plane.swap_out(GOOD_B, &good_b).unwrap();
            let stored = plane.swap_out_ctx(&owner, VICTIM, &victim).unwrap();
            let stored = u64::from(stored.compressed_len);

            // One page.
            assert_eq!(stored, victim_block.len() as u64, "{case}");
            let swap_ins = plane.stats().swap_ins;
            let mut buf = Vec::with_capacity(PAGE_SIZE);
            let err = plane
                .swap_in_into_ctx(&owner, VICTIM, false, &mut buf)
                .unwrap_err();
            assert!(is_corrupt(&err), "{case}: {err:?}");
            assert!(!err.is_retryable(), "{case}");
            assert!(!plane.contains(VICTIM), "{case}");
            usage_matches_pool(plane);
            assert_eq!(freed_by_owner(&registry), stored, "{case}");
            assert_eq!(plane.stats().swap_ins, swap_ins, "{case}");
            // The page number is free again.
            plane.swap_out_ctx(&owner, VICTIM, &victim).unwrap();

            // A batch around it: every page its own verdict.
            let pages = [GOOD_A, VICTIM, GOOD_B, MISSING, GOOD_A];
            let mut outs = vec![Vec::new(); pages.len()];
            let results = plane.swap_in_batch_into(&pages, &mut outs);
            assert!(results[0].is_ok(), "{case}: {:?}", results[0]);
            assert!(
                matches!(&results[1], Err(e) if is_corrupt(e)),
                "{case}: {:?}",
                results[1]
            );
            assert!(results[2].is_ok(), "{case}: {:?}", results[2]);
            for (i, page) in [(3, 4), (4, 1)] {
                assert!(
                    matches!(&results[i], Err(e)
                        if matches!(e.cause(), Error::EntryNotFound { page: p } if *p == page)),
                    "{case}: {:?}",
                    results[i]
                );
            }
            assert_eq!(outs[0], good_a, "{case}");
            assert_eq!(outs[2], good_b, "{case}");
            assert_eq!(freed_by_owner(&registry), 2 * stored, "{case}");
            assert_eq!(plane.stats().swap_ins, swap_ins + 2, "{case}");
            assert_eq!(plane.pool_stats().objects, 0, "{case}");
            usage_matches_pool(plane);
        }
    }
}
