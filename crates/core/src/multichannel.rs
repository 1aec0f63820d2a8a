//! Multi-channel mode on the device side (paper §6 "Multi-Channel
//! Mode", Fig. 9): what each DIMM's NMA is handed for a page stored as
//! a same-offset container.
//!
//! The container itself — the 256 B split, the header, packing and the
//! gather-on-decompress path — is [`xfm_compress::ratio`]'s; the
//! backend's plane stores what [`xfm_compress::ratio::Container`]
//! writes.

use std::ops::Deref;

use xfm_compress::ratio::{share_len, Header, MAX_DIMMS};
use xfm_types::Result;

use crate::nma::OffloadShare;
use crate::regs::OffloadKind;

/// The shares of one offload, one per DIMM, held inline: reading them
/// off a container allocates nothing. Derefs to the slice of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shares {
    shares: [OffloadShare; MAX_DIMMS],
    n: usize,
}

impl Deref for Shares {
    type Target = [OffloadShare];

    fn deref(&self) -> &[OffloadShare] {
        &self.shares[..self.n]
    }
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
/// Returns [`xfm_types::Error::Corrupt`] for malformed containers.
pub fn offload_shares(kind: OffloadKind, page_len: usize, container: &[u8]) -> Result<Shares> {
    let header = Header::parse(container)?;
    let n = header.n_dimms;
    let mut shares = Shares {
        shares: [OffloadShare {
            input: 0,
            output: 0,
        }; MAX_DIMMS],
        n,
    };
    for (i, (share, stored)) in shares.shares.iter_mut().zip(header.shares()).enumerate() {
        let plain = share_len(page_len, n, i) as u32;
        let (input, output) = match kind {
            OffloadKind::Compress => (plain, stored.len),
            OffloadKind::Decompress => (stored.len, plain),
        };
        *share = OffloadShare { input, output };
    }
    Ok(shares)
}

#[cfg(test)]
mod tests {
    //! The container as the backend stores it: packed and unpacked
    //! through one reused scratch, and read back as offload shares.

    use super::*;
    use xfm_compress::ratio::{pack_page_into, unpack_page_into};
    use xfm_compress::{Corpus, Scratch, XDeflate};
    use xfm_types::{Error, PAGE_SIZE};

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
    fn pack_unpack_round_trips_all_dimm_counts() {
        let c = XDeflate::default();
        let mut scratch = Scratch::new();
        let (mut container, mut restored) = (Vec::new(), Vec::new());
        for corpus in Corpus::all() {
            let page = corpus.generate(9, PAGE_SIZE);
            for n in [1usize, 2, 4] {
                container.clear();
                pack_page_into(&c, &page, n, &mut scratch, &mut container).unwrap();
                assert_eq!(container, pack(&page, n), "warm scratch, {}", corpus.name());
                restored.clear();
                unpack_page_into(&c, &container, &mut scratch, &mut restored).unwrap();
                assert_eq!(restored, page, "{} n={n}", corpus.name());
            }
        }
    }

    #[test]
    fn unpack_into_appends_with_one_scratch_and_keeps_out_on_error() {
        let c = XDeflate::default();
        let mut scratch = Scratch::new();
        for corpus in [Corpus::Json, Corpus::RandomBytes, Corpus::EnglishText] {
            for (n, len) in [(1, PAGE_SIZE), (2, PAGE_SIZE), (4, PAGE_SIZE), (4, 1000)] {
                let page = corpus.generate(n as u64, len);
                let container = pack(&page, n);
                let mut out = b"head".to_vec();
                unpack_page_into(&c, &container, &mut scratch, &mut out).unwrap();
                assert_eq!(out[..], [&b"head"[..], &page].concat(), "{}", corpus.name());
                // The header names one byte more than is there.
                out.truncate(4);
                let cut = &container[..container.len() - 1];
                let err = unpack_page_into(&c, cut, &mut scratch, &mut out);
                assert!(matches!(err, Err(Error::Corrupt(_))) && out == b"head");
            }
        }
    }

    #[test]
    fn fragmentation_grows_with_dimm_count() {
        let page = Corpus::EnglishText.generate(4, PAGE_SIZE);
        let padding = |n: usize| {
            let container = pack(&page, n);
            let header = Header::parse(&container).unwrap();
            let payload: usize = header.shares().iter().map(|s| s.len as usize).sum();
            (header.slot * n - payload, container.len())
        };
        assert_eq!(padding(1).0, 0);
        let (padding4, len4) = padding(4);
        // The container still beats storing the page raw for text.
        assert!(padding4 > 0 && len4 < PAGE_SIZE);
    }

    #[test]
    fn incompressible_shares_stored_raw() {
        let page = Corpus::RandomBytes.generate(5, PAGE_SIZE);
        let container = pack(&page, 2);
        let header = Header::parse(&container).unwrap();
        assert!(header.shares().iter().all(|s| s.raw && s.len == 2048));
        assert_eq!(unpack(&container).unwrap(), page);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (c, mut scratch, mut out) = (XDeflate::default(), Scratch::new(), Vec::new());
        for (len, n) in [(4096, 3), (4096, 0), (4096, 8), (65_536, 1)] {
            let r = pack_page_into(&c, &vec![0u8; len], n, &mut scratch, &mut out);
            assert!(matches!(r, Err(Error::InvalidConfig(_))), "len={len} n={n}");
            assert!(out.is_empty());
        }
    }

    #[test]
    fn corrupt_containers_detected() {
        assert!(unpack(&[]).is_err());
        assert!(unpack(&[7]).is_err());
        let container = pack(&Corpus::Json.generate(1, PAGE_SIZE), 4);
        assert!(unpack(&container[..container.len() / 2]).is_err());
        assert!(offload_shares(OffloadKind::Compress, PAGE_SIZE, &[3]).is_err());
    }

    #[test]
    fn sub_page_inputs_supported() {
        // Compaction-era partial objects still pack correctly.
        let data = Corpus::Csv.generate(2, 1000);
        assert_eq!(unpack(&pack(&data, 2)).unwrap(), data);
    }

    #[test]
    fn offload_share_sizes_are_the_split_and_the_stored_streams() {
        for corpus in Corpus::all() {
            for (len, n) in [PAGE_SIZE, 1000, 255, 1]
                .into_iter()
                .flat_map(|l| [1, 2, 4].map(|n| (l, n)))
            {
                let container = pack(&corpus.generate(len as u64, len), n);
                let stored = Header::parse(&container).unwrap();
                let out = offload_shares(OffloadKind::Compress, len, &container).unwrap();
                let back = offload_shares(OffloadKind::Decompress, len, &container).unwrap();
                let what = format!("{} len={len} n={n}", corpus.name());
                assert_eq!(out.len(), n, "{what}");
                for (i, info) in stored.shares().iter().enumerate() {
                    assert_eq!(out[i].input as usize, share_len(len, n, i), "{what} {i}");
                    assert_eq!(out[i].output, info.len, "{what} share {i}");
                    assert_eq!(
                        (back[i].input, back[i].output),
                        (out[i].output, out[i].input)
                    );
                    assert!(
                        !info.raw || out[i].input == out[i].output,
                        "{what} share {i}"
                    );
                }
                assert_eq!(out.iter().map(|s| s.input as usize).sum::<usize>(), len);
            }
        }
    }

    #[test]
    fn slot_size_is_max_share() {
        let container = pack(&Corpus::LogLines.generate(3, PAGE_SIZE), 4);
        let header = Header::parse(&container).unwrap();
        let max = header.shares().iter().map(|s| s.len).max().unwrap();
        assert_eq!(header.slot, max as usize);
        // Container = header + 4 aligned slots.
        assert_eq!(container.len(), 1 + 3 * 4 + header.slot * 4);
    }
}
