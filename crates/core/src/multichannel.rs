//! Multi-channel mode: page striping and the same-offset compressed
//! container (paper §6 "Multi-Channel Mode", Fig. 9).
//!
//! A 4 KiB page on a channel-interleaved system is physically spread
//! across DIMMs at 256 B granularity; each DIMM's NMA compresses only
//! its own interleaved share. XFM places the per-DIMM compressed shares
//! at the *same offset* within every DIMM's SFM region, trading internal
//! fragmentation (each slot is sized by the largest share) for a design
//! where the host can address all shares with a single offset.
//!
//! This module provides the container codec for that layout: shares are
//! packed with a small header and padded to the slot size, and the
//! gather-on-decompress path reconstructs the page without extra copies
//! (the specialized `CPU_Fallback` of Fig. 9b).

use xfm_compress::ratio::{split_interleaved, INTERLEAVE_GRANULE};
use xfm_compress::{Codec, CodecKind, Scratch};
use xfm_types::{Error, Result, PAGE_SIZE};

use crate::nma::OffloadShare;
use crate::regs::OffloadKind;

/// Per-share metadata in a packed container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareInfo {
    /// Compressed length of the share.
    pub len: u32,
    /// Whether the share is stored raw (did not compress).
    pub raw: bool,
}

/// A packed multi-DIMM compressed page: per-share streams aligned to a
/// common slot size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedPage {
    /// Number of DIMMs the page was striped over.
    pub n_dimms: usize,
    /// The serialized container (what the zpool stores).
    pub bytes: Vec<u8>,
    /// Per-share metadata.
    pub shares: Vec<ShareInfo>,
}

impl PackedPage {
    /// Slot size each DIMM reserved (the max share, causing the
    /// fragmentation the paper measures in Fig. 8).
    #[must_use]
    pub fn slot_size(&self) -> usize {
        self.shares
            .iter()
            .map(|s| s.len as usize)
            .max()
            .unwrap_or(0)
    }

    /// Sum of actual compressed share bytes (no alignment padding).
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        self.shares.iter().map(|s| s.len as usize).sum()
    }

    /// Bytes lost to same-offset alignment.
    #[must_use]
    pub fn fragmentation_bytes(&self) -> usize {
        self.slot_size() * self.n_dimms - self.payload_bytes()
    }
}

/// Compresses `page` in `n_dimms`-way interleaved mode, producing the
/// same-offset container.
///
/// Each share is compressed independently (as each DIMM's NMA would);
/// shares that do not shrink are stored raw. The container layout is:
///
/// ```text
/// u8  n_dimms
/// per share: u8 flags (bit 0 = raw), u16le len
/// per share: `slot` bytes (share data padded to the max share length)
/// ```
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for an empty page, a page larger
/// than 4 KiB, or an unsupported DIMM count (must be 1, 2, or 4), and
/// propagates codec failures.
pub fn pack_page(codec: &dyn Codec, page: &[u8], n_dimms: usize) -> Result<PackedPage> {
    if page.is_empty() || page.len() > PAGE_SIZE {
        return Err(Error::InvalidConfig(format!(
            "page must be 1..=4096 bytes, got {}",
            page.len()
        )));
    }
    if ![1, 2, 4].contains(&n_dimms) {
        return Err(Error::InvalidConfig(format!(
            "multi-channel mode supports 1, 2, or 4 DIMMs, got {n_dimms}"
        )));
    }
    let raw_shares = split_interleaved(page, n_dimms);
    let mut compressed: Vec<(Vec<u8>, bool)> = Vec::with_capacity(n_dimms);
    for share in &raw_shares {
        let mut out = Vec::with_capacity(share.len());
        codec.compress(share, &mut out)?;
        if out.len() >= share.len() {
            compressed.push((share.clone(), true));
        } else {
            compressed.push((out, false));
        }
    }
    let slot = compressed.iter().map(|(c, _)| c.len()).max().unwrap_or(0);
    let mut bytes = Vec::with_capacity(1 + 3 * n_dimms + slot * n_dimms);
    bytes.push(n_dimms as u8);
    let mut shares = Vec::with_capacity(n_dimms);
    for (c, raw) in &compressed {
        bytes.push(u8::from(*raw));
        bytes.extend_from_slice(&(c.len() as u16).to_le_bytes());
        shares.push(ShareInfo {
            len: c.len() as u32,
            raw: *raw,
        });
    }
    for (c, _) in &compressed {
        bytes.extend_from_slice(c);
        bytes.extend(std::iter::repeat_n(0u8, slot - c.len()));
    }
    Ok(PackedPage {
        n_dimms,
        bytes,
        shares,
    })
}

/// A container's parsed header.
struct Layout {
    n_dimms: usize,
    /// The first `n_dimms` are meaningful.
    shares: [ShareInfo; 4],
    /// Bytes every share's slot takes: the longest share.
    slot: usize,
}

impl Layout {
    fn parse(container: &[u8]) -> Result<Self> {
        let &n = container
            .first()
            .ok_or_else(|| Error::Corrupt("empty container".into()))?;
        let n_dimms = n as usize;
        if ![1, 2, 4].contains(&n_dimms) {
            return Err(Error::Corrupt(format!("bad DIMM count {n_dimms}")));
        }
        let header = 1 + 3 * n_dimms;
        if container.len() < header {
            return Err(Error::Corrupt("container header truncated".into()));
        }
        let mut shares = [ShareInfo { len: 0, raw: false }; 4];
        for (i, share) in shares.iter_mut().take(n_dimms).enumerate() {
            let off = 1 + 3 * i;
            share.raw = container[off] != 0;
            share.len = u32::from(u16::from_le_bytes([container[off + 1], container[off + 2]]));
        }
        let slot = shares.iter().map(|s| s.len as usize).max().unwrap_or(0);
        if container.len() < header + slot * n_dimms {
            return Err(Error::Corrupt("container payload truncated".into()));
        }
        Ok(Self {
            n_dimms,
            shares,
            slot,
        })
    }

    /// The stored bytes of share `i` of the container this was parsed
    /// from.
    fn share<'a>(&self, container: &'a [u8], i: usize) -> &'a [u8] {
        let start = 1 + 3 * self.n_dimms + i * self.slot;
        &container[start..start + self.shares[i].len as usize]
    }
}

/// Decompresses and gathers a container produced by [`pack_page`] —
/// the specialized fallback path that "handles both decompression and
/// gathering operations without additional memory copies".
///
/// Thin wrapper over [`unpack_page_into`] with fresh buffers.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] for malformed containers or share streams.
pub fn unpack_page(codec: &dyn Codec, container: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(PAGE_SIZE);
    unpack_page_into(codec, container, &mut Scratch::new(), &mut out)?;
    Ok(out)
}

/// [`unpack_page`] appending the page to `out` and decoding through
/// caller-held `scratch`: a 1-DIMM container decodes straight into
/// `out`; 2 and 4 DIMMs decode each share into a buffer sized for it
/// and gather the 256 B granules into `out`. On an error `out` is left
/// as it came.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] for malformed containers or share streams.
pub fn unpack_page_into(
    codec: &dyn Codec,
    container: &[u8],
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    let layout = Layout::parse(container)?;
    let n = layout.n_dimms;
    let unpack = |i: usize, dst: &mut Vec<u8>, scratch: &mut Scratch| -> Result<()> {
        let share = layout.share(container, i);
        if layout.shares[i].raw {
            dst.extend_from_slice(share);
        } else {
            codec.decompress_into(share, dst, scratch)?;
        }
        Ok(())
    };
    if n == 1 {
        let start = out.len();
        let unpacked = unpack(0, out, scratch);
        if unpacked.is_err() {
            out.truncate(start);
        }
        return unpacked;
    }
    let mut shares: [Vec<u8>; 4] = Default::default();
    for (i, dst) in shares.iter_mut().take(n).enumerate() {
        dst.reserve_exact(PAGE_SIZE / n);
        unpack(i, dst, scratch)?;
    }
    // Granule `g` of the page is the next unread granule of share
    // `g % n`; a share that ran out (a short page) is skipped.
    let total: usize = shares.iter().map(Vec::len).sum();
    out.reserve(total);
    let mut rest = shares.each_ref().map(Vec::as_slice);
    let end = out.len() + total;
    let mut g = 0;
    while out.len() < end {
        let share = &mut rest[g % n];
        let (granule, tail) = share.split_at(INTERLEAVE_GRANULE.min(share.len()));
        out.extend_from_slice(granule);
        *share = tail;
        g += 1;
    }
    Ok(())
}

/// The codec tag stored in SFM entries for packed pages.
#[must_use]
pub fn packed_codec_kind() -> CodecKind {
    CodecKind::XDeflate
}

/// One share per DIMM of an offload of a `page_len`-byte page whose
/// stored form is `container` — what the backend routes to each DIMM's
/// NMA. The host has done both sides of every share (it packed the
/// container to store the page, or unpacked it to restore the page), so
/// a share carries only their sizes: the plain share's and the stored
/// stream's, read from the container header. A share stored raw is a
/// copy, both of its sizes the plain share's.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] for malformed containers.
pub fn offload_shares(
    kind: OffloadKind,
    page_len: usize,
    container: &[u8],
) -> Result<Vec<OffloadShare>> {
    let layout = Layout::parse(container)?;
    let n = layout.n_dimms;
    Ok(layout.shares[..n]
        .iter()
        .enumerate()
        .map(|(i, stored)| {
            let plain = interleaved_len(page_len, n, i) as u32;
            let (input, output) = match kind {
                OffloadKind::Compress => (plain, stored.len),
                OffloadKind::Decompress => (stored.len, plain),
            };
            OffloadShare { input, output }
        })
        .collect())
}

/// The length of share `i` that [`split_interleaved`] cuts from a
/// `len`-byte page over `n` DIMMs: granules `i, i + n, …`, the last
/// possibly short.
fn interleaved_len(len: usize, n: usize, i: usize) -> usize {
    (i * INTERLEAVE_GRANULE..len)
        .step_by(n * INTERLEAVE_GRANULE)
        .map(|start| INTERLEAVE_GRANULE.min(len - start))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfm_compress::{Corpus, XDeflate};

    fn codec() -> XDeflate {
        XDeflate::default()
    }

    #[test]
    fn pack_unpack_round_trips_all_dimm_counts() {
        let c = codec();
        for corpus in Corpus::all() {
            let page = corpus.generate(9, PAGE_SIZE);
            for n in [1usize, 2, 4] {
                let packed = pack_page(&c, &page, n).unwrap();
                let restored = unpack_page(&c, &packed.bytes).unwrap();
                assert_eq!(restored, page, "{} n={n}", corpus.name());
            }
        }
    }

    #[test]
    fn unpack_into_appends_with_one_scratch_and_keeps_out_on_error() {
        let c = codec();
        let mut scratch = Scratch::new();
        for corpus in [Corpus::Json, Corpus::RandomBytes, Corpus::EnglishText] {
            for (n, len) in [
                (1usize, PAGE_SIZE),
                (2, PAGE_SIZE),
                (4, PAGE_SIZE),
                (4, 1000),
            ] {
                let page = corpus.generate(n as u64, len);
                let packed = pack_page(&c, &page, n).unwrap();
                let mut out = b"head".to_vec();
                unpack_page_into(&c, &packed.bytes, &mut scratch, &mut out).unwrap();
                assert_eq!(&out[..4], b"head");
                assert_eq!(out[4..], page[..], "{} n={n} len={len}", corpus.name());

                // Damage the first share's stream (or drop its tail).
                let mut bad = packed.bytes.clone();
                bad.truncate(bad.len() - 1);
                bad[1 + 3 * n] ^= 0x02;
                let mut out = b"head".to_vec();
                if unpack_page_into(&c, &bad, &mut scratch, &mut out).is_err() {
                    assert_eq!(out, b"head");
                }
            }
        }
    }

    #[test]
    fn fragmentation_grows_with_dimm_count() {
        let c = codec();
        let page = Corpus::EnglishText.generate(4, PAGE_SIZE);
        let p1 = pack_page(&c, &page, 1).unwrap();
        let p4 = pack_page(&c, &page, 4).unwrap();
        assert_eq!(p1.fragmentation_bytes(), 0);
        assert!(p4.fragmentation_bytes() > 0 || p4.payload_bytes() == 0);
        // The container still beats storing the page raw for text.
        assert!(p4.bytes.len() < PAGE_SIZE);
    }

    #[test]
    fn incompressible_shares_stored_raw() {
        let c = codec();
        let page = Corpus::RandomBytes.generate(5, PAGE_SIZE);
        let packed = pack_page(&c, &page, 2).unwrap();
        assert!(packed.shares.iter().all(|s| s.raw));
        assert_eq!(unpack_page(&c, &packed.bytes).unwrap(), page);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let c = codec();
        assert!(pack_page(&c, &[], 2).is_err());
        assert!(pack_page(&c, &[0u8; 5000], 2).is_err());
        assert!(pack_page(&c, &[0u8; 4096], 3).is_err());
    }

    #[test]
    fn corrupt_containers_detected() {
        let c = codec();
        assert!(unpack_page(&c, &[]).is_err());
        assert!(unpack_page(&c, &[7]).is_err());
        let page = Corpus::Json.generate(1, PAGE_SIZE);
        let packed = pack_page(&c, &page, 4).unwrap();
        let truncated = &packed.bytes[..packed.bytes.len() / 2];
        assert!(unpack_page(&c, truncated).is_err());
    }

    #[test]
    fn sub_page_inputs_supported() {
        // Compaction-era partial objects still pack correctly.
        let c = codec();
        let data = Corpus::Csv.generate(2, 1000);
        let packed = pack_page(&c, &data, 2).unwrap();
        assert_eq!(unpack_page(&c, &packed.bytes).unwrap(), data);
    }

    #[test]
    fn offload_share_sizes_are_the_split_and_the_stored_streams() {
        let c = codec();
        for corpus in Corpus::all() {
            for len in [PAGE_SIZE, 1000, 255, 1] {
                let page = corpus.generate(len as u64, len);
                for n in [1usize, 2, 4] {
                    let packed = pack_page(&c, &page, n).unwrap();
                    let plain = split_interleaved(&page, n);
                    let out = offload_shares(OffloadKind::Compress, len, &packed.bytes).unwrap();
                    let back = offload_shares(OffloadKind::Decompress, len, &packed.bytes).unwrap();
                    let what = format!("{} len={len} n={n}", corpus.name());
                    assert_eq!(out.len(), n, "{what}");
                    for (i, info) in packed.shares.iter().enumerate() {
                        assert_eq!(out[i].input as usize, plain[i].len(), "{what} share {i}");
                        assert_eq!(out[i].output, info.len, "{what} share {i}");
                        assert_eq!(
                            (back[i].input, back[i].output),
                            (out[i].output, out[i].input)
                        );
                        if info.raw {
                            assert_eq!(out[i].input, out[i].output, "{what} share {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn slot_size_is_max_share() {
        let c = codec();
        let page = Corpus::LogLines.generate(3, PAGE_SIZE);
        let packed = pack_page(&c, &page, 4).unwrap();
        let max = packed.shares.iter().map(|s| s.len).max().unwrap();
        assert_eq!(packed.slot_size(), max as usize);
        // Container = header + 4 aligned slots.
        assert_eq!(packed.bytes.len(), 1 + 3 * 4 + packed.slot_size() * 4);
    }
}
