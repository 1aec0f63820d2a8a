//! The multi-channel container and the stored compression ratio it
//! yields (paper §6 "Multi-Channel Mode", Figs. 8–9).
//!
//! Each DIMM's NMA compresses only its own 256 B-interleaved share of a
//! page, and XFM places the compressed shares at the *same offset* in
//! every DIMM's SFM region: one offset addresses them all, and every
//! slot is sized by the largest share (internal fragmentation). This
//! module owns the whole format — the split ([`share_len`]), the header
//! ([`Header`]), the packer ([`pack_page_into`]) and the gather
//! ([`unpack_page_into`], Fig. 9b's specialized `CPU_Fallback`), and
//! [`Container`], the pair as a [`Codec`] a plane stores blocks
//! through. A container is
//!
//! ```text
//! u8  n_dimms
//! per share: u8 flags (bit 0 = raw), u16le len
//! per share: `slot` bytes (share data padded with zeros to the longest share)
//! ```
//!
//! A share that does not shrink is stored raw. Fig. 8's ratio
//! ([`stored_ratio`]) is the containers' own length, header, raw shares
//! and padding included: what the zpool holds.

use std::ops::Range;
use std::sync::Arc;

use xfm_types::{Error, Result};

use crate::codec::{Codec, CodecKind};
use crate::scratch::Scratch;

/// Channel interleave granularity (Skylake: 256 B).
pub const INTERLEAVE_GRANULE: usize = 256;

/// The most DIMMs a container stripes over.
pub const MAX_DIMMS: usize = 4;

/// The DIMM counts a container supports (the paper's configurations).
const DIMM_COUNTS: [usize; 3] = [1, 2, 4];

/// One share's entry in a container header.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShareInfo {
    /// Stored length: the compressed stream, or the plain share when raw.
    pub len: u32,
    /// Whether the share is stored raw (it did not compress).
    pub raw: bool,
}

/// A container's parsed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// DIMMs the page was striped over.
    pub n_dimms: usize,
    /// The first `n_dimms` are meaningful.
    shares: [ShareInfo; MAX_DIMMS],
    /// Bytes every share's slot takes: the longest share.
    pub slot: usize,
}

impl Header {
    /// Bytes the header of an `n_dimms`-way container takes.
    const fn size(n_dimms: usize) -> usize {
        1 + 3 * n_dimms
    }

    /// Reads `container`'s header; every slot it names must be present.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] for an empty container, a DIMM count
    /// other than 1, 2 or 4, or a truncated header or payload.
    pub fn parse(container: &[u8]) -> Result<Self> {
        let &n = container
            .first()
            .ok_or_else(|| Error::Corrupt("empty container".into()))?;
        let n_dimms = n as usize;
        if !DIMM_COUNTS.contains(&n_dimms) {
            return Err(Error::Corrupt(format!("bad DIMM count {n_dimms}")));
        }
        let header = Self::size(n_dimms);
        if container.len() < header {
            return Err(Error::Corrupt("container header truncated".into()));
        }
        let mut shares = [ShareInfo::default(); MAX_DIMMS];
        for (entry, share) in container[1..header].chunks(3).zip(&mut shares) {
            share.raw = entry[0] != 0;
            share.len = u32::from(u16::from_le_bytes([entry[1], entry[2]]));
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

    /// One entry per DIMM, in DIMM order.
    #[must_use]
    pub fn shares(&self) -> &[ShareInfo] {
        &self.shares[..self.n_dimms]
    }

    /// The stored bytes of share `i` of the container this was parsed
    /// from.
    fn share<'a>(&self, container: &'a [u8], i: usize) -> &'a [u8] {
        let start = Self::size(self.n_dimms) + i * self.slot;
        &container[start..start + self.shares[i].len as usize]
    }
}

/// The byte ranges of a `len`-byte page that form share `i` over `n`
/// DIMMs: granules `i, i + n, i + 2n, …` of [`INTERLEAVE_GRANULE`]
/// bytes, the last possibly short (paper Fig. 9b's reordered data).
fn granules(len: usize, n: usize, i: usize) -> impl Iterator<Item = Range<usize>> {
    (i * INTERLEAVE_GRANULE..len)
        .step_by(n * INTERLEAVE_GRANULE)
        .map(move |start| start..len.min(start + INTERLEAVE_GRANULE))
}

/// The length of share `i` of a `len`-byte page striped over `n` DIMMs.
#[must_use]
pub fn share_len(len: usize, n: usize, i: usize) -> usize {
    granules(len, n, i).map(|r| r.len()).sum()
}

/// Compresses `page` in `n_dimms`-way interleaved mode and appends the
/// same-offset container to `out`. Each share is gathered into a buffer
/// held in `scratch` (at one DIMM the share is the page itself) and
/// compressed through `scratch`; a share that does not shrink is stored
/// raw. Warm, the call does not allocate; on an error `out` is left as
/// it came.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for a DIMM count other than 1, 2 or
/// 4 or a share longer than the header's `u16` length, and propagates
/// codec failures.
pub fn pack_page_into(
    codec: &dyn Codec,
    page: &[u8],
    n_dimms: usize,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    if !DIMM_COUNTS.contains(&n_dimms) {
        return Err(Error::InvalidConfig(format!(
            "multi-channel mode supports 1, 2, or 4 DIMMs, got {n_dimms}"
        )));
    }
    // Share 0 is the longest.
    let longest = share_len(page.len(), n_dimms, 0);
    if longest > usize::from(u16::MAX) {
        return Err(Error::InvalidConfig(format!(
            "a {longest}-byte share does not fit the container's u16 length"
        )));
    }
    let base = out.len();
    let body = base + Header::size(n_dimms);
    out.push(n_dimms as u8);
    out.resize(body, 0);
    let mut plain = std::mem::take(&mut scratch.shares[0]);
    let mut lens = [0usize; MAX_DIMMS];
    let packed = (|| -> Result<()> {
        for (i, len) in lens.iter_mut().take(n_dimms).enumerate() {
            let share: &[u8] = if n_dimms == 1 {
                page
            } else {
                plain.clear();
                for r in granules(page.len(), n_dimms, i) {
                    plain.extend_from_slice(&page[r]);
                }
                &plain
            };
            let start = out.len();
            let raw = codec.compress_into(share, out, scratch)? >= share.len();
            if raw {
                out.truncate(start);
                out.extend_from_slice(share);
            }
            *len = out.len() - start;
            let entry = base + Header::size(i);
            out[entry] = u8::from(raw);
            out[entry + 1..entry + 3].copy_from_slice(&(*len as u16).to_le_bytes());
        }
        Ok(())
    })();
    scratch.shares[0] = plain;
    if let Err(e) = packed {
        out.truncate(base);
        return Err(e);
    }
    // The shares sit back to back after the header: move each to its
    // slot, the last first, and zero its padding.
    let slot = lens.iter().copied().max().unwrap_or(0);
    let mut end = out.len();
    out.resize(body + slot * n_dimms, 0);
    for i in (0..n_dimms).rev() {
        let (from, to) = (end - lens[i], body + i * slot);
        out.copy_within(from..end, to);
        out[to + lens[i]..to + slot].fill(0);
        end = from;
    }
    Ok(())
}

/// Decompresses and gathers a container produced by [`pack_page_into`]
/// into `out` through `scratch`, Fig. 9b's fallback that "handles both
/// decompression and gathering operations without additional memory
/// copies": one DIMM decodes straight into `out`, more decode each share
/// into a `scratch` buffer and gather its granules. Warm, the call does
/// not allocate; on an error `out` is left as it came.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] for a malformed container, a share that
/// does not decode, or shares that are not one page's split.
pub fn unpack_page_into(
    codec: &dyn Codec,
    container: &[u8],
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    let header = Header::parse(container)?;
    let n = header.n_dimms;
    let decode = |i: usize, dst: &mut Vec<u8>, scratch: &mut Scratch| -> Result<()> {
        let share = header.share(container, i);
        if header.shares[i].raw {
            dst.extend_from_slice(share);
        } else {
            codec.decompress_into(share, dst, scratch)?;
        }
        Ok(())
    };
    if n == 1 {
        let start = out.len();
        let unpacked = decode(0, out, scratch);
        if unpacked.is_err() {
            out.truncate(start);
        }
        return unpacked;
    }
    let mut shares = std::mem::take(&mut scratch.shares);
    let decoded = (|| -> Result<usize> {
        for (i, dst) in shares.iter_mut().take(n).enumerate() {
            dst.clear();
            decode(i, dst, scratch)?;
        }
        let total = shares.iter().take(n).map(Vec::len).sum();
        if (0..n).any(|i| shares[i].len() != share_len(total, n, i)) {
            return Err(Error::Corrupt("shares are not one page's split".into()));
        }
        Ok(total)
    })();
    if let Ok(total) = decoded {
        let base = out.len();
        out.resize(base + total, 0);
        for (i, share) in shares.iter().take(n).enumerate() {
            for (r, granule) in granules(total, n, i).zip(share.chunks(INTERLEAVE_GRANULE)) {
                out[base + r.start..base + r.end].copy_from_slice(granule);
            }
        }
    }
    scratch.shares = shares;
    decoded.map(drop)
}

/// The container as a block format: a [`Codec`] whose block is one page
/// packed `n_dimms` ways over a per-share codec ([`pack_page_into`],
/// [`unpack_page_into`]), tagged with that codec's [`CodecKind`].
pub struct Container {
    codec: Arc<dyn Codec + Send + Sync>,
    n_dimms: usize,
}

impl Container {
    /// Pages striped over `n_dimms` shares, each compressed by `codec`.
    /// A DIMM count other than 1, 2 or 4 fails at the first compress.
    #[must_use]
    pub fn new(codec: Arc<dyn Codec + Send + Sync>, n_dimms: usize) -> Self {
        Self { codec, n_dimms }
    }
}

impl Codec for Container {
    fn name(&self) -> &'static str {
        "container"
    }

    fn kind(&self) -> CodecKind {
        self.codec.kind()
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        self.compress_into(src, dst, &mut Scratch::new())
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        self.decompress_into(src, dst, &mut Scratch::new())
    }

    fn compress_into(&self, src: &[u8], dst: &mut Vec<u8>, scratch: &mut Scratch) -> Result<usize> {
        let base = dst.len();
        pack_page_into(&*self.codec, src, self.n_dimms, scratch, dst)?;
        Ok(dst.len() - base)
    }

    fn decompress_into(
        &self,
        src: &[u8],
        dst: &mut Vec<u8>,
        scratch: &mut Scratch,
    ) -> Result<usize> {
        let base = dst.len();
        unpack_page_into(&*self.codec, src, scratch, dst)?;
        Ok(dst.len() - base)
    }
}

/// Fig. 8's compression ratio: `data` packed `unit` bytes at a time into
/// `n_dimms`-way containers, over the containers' total length.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for a zero `unit`, or whatever
/// [`pack_page_into`] returns for a unit.
pub fn stored_ratio(codec: &dyn Codec, data: &[u8], unit: usize, n_dimms: usize) -> Result<f64> {
    if unit == 0 {
        return Err(Error::InvalidConfig("unit must be non-zero".into()));
    }
    let (mut scratch, mut stored) = (Scratch::new(), Vec::new());
    for page in data.chunks(unit) {
        pack_page_into(codec, page, n_dimms, &mut scratch, &mut stored)?;
    }
    Ok(data.len() as f64 / stored.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::xdeflate::XDeflate;

    fn pack(page: &[u8], n: usize) -> Vec<u8> {
        let (codec, mut out) = (XDeflate::default(), Vec::new());
        pack_page_into(&codec, page, n, &mut Scratch::new(), &mut out).unwrap();
        out
    }

    fn unpack(container: &[u8]) -> Result<Vec<u8>> {
        let (codec, mut out) = (XDeflate::default(), Vec::new());
        unpack_page_into(&codec, container, &mut Scratch::new(), &mut out)?;
        Ok(out)
    }

    #[test]
    fn split_gather_round_trips() {
        for n in [1usize, 2, 4] {
            for len in [0usize, 100, 256, 4096, 5000] {
                let page: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                let container = pack(&page, n);
                assert_eq!(Header::parse(&container).unwrap().shares().len(), n);
                assert_eq!(unpack(&container).unwrap(), page, "n={n} len={len}");
            }
        }
    }

    #[test]
    fn one_dimm_split_is_identity() {
        // An incompressible page is stored raw: the one slot is the page.
        let page = Corpus::RandomBytes.generate(5, 4096);
        let container = pack(&page, 1);
        assert_eq!(container[..4], [1, 1, 0x00, 0x10]);
        assert_eq!(container[4..], page[..]);
    }

    #[test]
    fn four_dimm_shares_are_quarter_pages() {
        // Raw shares show the split itself: DIMM d holds granules d, d + 4, …
        let page = Corpus::RandomBytes.generate(2, 4096);
        let container = pack(&page, 4);
        let header = Header::parse(&container).unwrap();
        assert_eq!(header.slot, 1024); // 4 granules of 256 B each
        for d in 0..4 {
            assert_eq!(share_len(4096, 4, d), 1024);
            let share = header.share(&container, d);
            for (k, granule) in share.chunks(INTERLEAVE_GRANULE).enumerate() {
                let at = (d + 4 * k) * INTERLEAVE_GRANULE;
                assert_eq!(granule, &page[at..at + INTERLEAVE_GRANULE], "DIMM {d}");
            }
        }
    }

    #[test]
    fn interleaving_degrades_ratio_mildly() {
        // The paper: 2-/4-DIMM modes lose ~5%/~14% of savings on average.
        let data = Corpus::EnglishText.generate(11, 128 * 1024);
        let codec = XDeflate::default();
        let [r1, r2, r4] = [1, 2, 4].map(|n| stored_ratio(&codec, &data, 4096, n).unwrap());
        assert!(r1 >= r2);
        assert!(r2 >= r4);
        // But most of the savings survive interleaving.
        let savings = |r: f64| 1.0 - 1.0 / r;
        assert!(savings(r4) / savings(r1) > 0.5);
    }

    #[test]
    fn aligned_ratio_never_exceeds_raw() {
        // Slot padding only adds: the stored container is never shorter
        // than its header plus the shares' own bytes.
        for corpus in [Corpus::Json, Corpus::LogLines, Corpus::TimeSeries] {
            for page in corpus.generate(3, 64 * 1024).chunks(4096) {
                let container = pack(page, 4);
                let header = Header::parse(&container).unwrap();
                let payload: usize = header.shares().iter().map(|s| s.len as usize).sum();
                assert!(container.len() >= Header::size(4) + payload);
            }
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let codec = XDeflate::default();
        assert!(stored_ratio(&codec, b"xy", 0, 2).is_err());
        assert!(stored_ratio(&codec, b"xy", 4096, 0).is_err());
        assert!(stored_ratio(&codec, b"xy", 4096, 3).is_err());
    }
}
