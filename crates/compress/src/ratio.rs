//! Page-granular and channel-interleaved compression-ratio measurement.
//!
//! Reproduces the data path of the paper's multi-channel mode (§6,
//! Fig. 9): a 4 KiB page is striped across `n` DIMMs at 256 B channel
//! granularity, each DIMM compresses only its own interleaved share, and
//! compressed pages are placed at the *same offset* in every DIMM's SFM
//! region — so each page's slot is sized by the *largest* per-DIMM
//! compressed output (internal fragmentation).

use xfm_types::{Error, Result};

use crate::codec::Codec;

/// Channel interleave granularity (Skylake: 256 B).
pub const INTERLEAVE_GRANULE: usize = 256;

/// Splits one page into `n_dimms` interleaved shares: DIMM `d` receives
/// granules `d, d + n, d + 2n, …` of [`INTERLEAVE_GRANULE`] bytes each
/// (paper Fig. 9b's reordered data).
///
/// # Panics
///
/// Panics if `n_dimms` is zero.
#[must_use]
pub fn split_interleaved(page: &[u8], n_dimms: usize) -> Vec<Vec<u8>> {
    assert!(n_dimms > 0, "n_dimms must be non-zero");
    let mut shares = vec![Vec::with_capacity(page.len() / n_dimms + INTERLEAVE_GRANULE); n_dimms];
    for (i, granule) in page.chunks(INTERLEAVE_GRANULE).enumerate() {
        shares[i % n_dimms].extend_from_slice(granule);
    }
    shares
}

/// Reassembles a page from its interleaved shares (the gather step of
/// the specialized `CPU_Fallback` decompression path).
///
/// # Panics
///
/// Panics if `shares` is empty.
#[must_use]
pub fn gather_interleaved(shares: &[Vec<u8>]) -> Vec<u8> {
    assert!(!shares.is_empty(), "shares must be non-empty");
    let total: usize = shares.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut offsets = vec![0usize; shares.len()];
    let mut d = 0usize;
    while out.len() < total {
        let share = &shares[d % shares.len()];
        let off = &mut offsets[d % shares.len()];
        if *off < share.len() {
            let end = (*off + INTERLEAVE_GRANULE).min(share.len());
            out.extend_from_slice(&share[*off..end]);
            *off = end;
        }
        d += 1;
    }
    out
}

/// Result of the multi-channel compression study for one corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterleaveReport {
    /// DIMMs the page was striped over (1, 2, or 4 in the paper).
    pub n_dimms: usize,
    /// Ratio counting only compressed bytes (`orig / sum(compressed)`).
    pub raw_ratio: f64,
    /// Ratio after same-offset slot alignment
    /// (`orig / (n_dimms x max(compressed))` summed per page) —
    /// the deployable ratio the paper reports.
    pub aligned_ratio: f64,
}

/// Runs the Fig. 8 measurement: compresses `data` page by page in
/// `n_dimms`-way interleaved mode and reports both the raw and the
/// aligned (same-offset placement) compression ratios.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for a zero page size or zero DIMM
/// count, or propagates codec failures.
pub fn interleaved_ratio(
    codec: &dyn Codec,
    data: &[u8],
    page_size: usize,
    n_dimms: usize,
) -> Result<InterleaveReport> {
    if page_size == 0 || n_dimms == 0 {
        return Err(Error::InvalidConfig(
            "page_size and n_dimms must be non-zero".into(),
        ));
    }
    let mut raw_total = 0usize;
    let mut aligned_total = 0usize;
    for page in data.chunks(page_size) {
        let shares = split_interleaved(page, n_dimms);
        let mut largest = 0usize;
        for share in &shares {
            let mut out = Vec::with_capacity(share.len());
            let n = codec.compress(share, &mut out)?;
            raw_total += n;
            largest = largest.max(n);
        }
        // Same-offset placement: every DIMM reserves the largest share.
        aligned_total += largest * n_dimms;
    }
    Ok(InterleaveReport {
        n_dimms,
        raw_ratio: data.len() as f64 / raw_total.max(1) as f64,
        aligned_ratio: data.len() as f64 / aligned_total.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::xdeflate::XDeflate;

    #[test]
    fn split_gather_round_trips() {
        for n in [1usize, 2, 4] {
            for len in [0usize, 100, 256, 4096, 5000] {
                let page: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                let shares = split_interleaved(&page, n);
                assert_eq!(shares.len(), n);
                assert_eq!(gather_interleaved(&shares), page, "n={n} len={len}");
            }
        }
    }

    #[test]
    fn one_dimm_split_is_identity() {
        let page = Corpus::Html.generate(5, 4096);
        let shares = split_interleaved(&page, 1);
        assert_eq!(shares[0], page);
    }

    #[test]
    fn four_dimm_shares_are_quarter_pages() {
        let page = vec![7u8; 4096];
        let shares = split_interleaved(&page, 4);
        for s in &shares {
            assert_eq!(s.len(), 1024); // 4 granules of 256 B each
        }
    }

    #[test]
    fn interleaving_degrades_ratio_mildly() {
        // The paper: 2-/4-DIMM modes lose ~5%/~14% of savings on average.
        let codec = XDeflate::default();
        let data = Corpus::EnglishText.generate(11, 128 * 1024);
        let r1 = interleaved_ratio(&codec, &data, 4096, 1).unwrap();
        let r2 = interleaved_ratio(&codec, &data, 4096, 2).unwrap();
        let r4 = interleaved_ratio(&codec, &data, 4096, 4).unwrap();
        assert!(r1.aligned_ratio >= r2.aligned_ratio);
        assert!(r2.aligned_ratio >= r4.aligned_ratio);
        // But most of the savings survive interleaving.
        let savings = |r: InterleaveReport| 1.0 - 1.0 / r.aligned_ratio;
        assert!(savings(r4) / savings(r1) > 0.5);
    }

    #[test]
    fn aligned_ratio_never_exceeds_raw() {
        let codec = XDeflate::default();
        for corpus in [Corpus::Json, Corpus::LogLines, Corpus::TimeSeries] {
            let data = corpus.generate(3, 64 * 1024);
            let r = interleaved_ratio(&codec, &data, 4096, 4).unwrap();
            assert!(
                r.aligned_ratio <= r.raw_ratio + 1e-9,
                "{}: aligned {} raw {}",
                corpus.name(),
                r.aligned_ratio,
                r.raw_ratio
            );
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let codec = XDeflate::default();
        assert!(interleaved_ratio(&codec, b"xy", 0, 2).is_err());
        assert!(interleaved_ratio(&codec, b"xy", 4096, 0).is_err());
    }
}
