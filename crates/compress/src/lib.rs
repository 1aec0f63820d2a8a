//! From-scratch lossless compression codecs and synthetic corpora for the
//! XFM reproduction.
//!
//! The paper's SFM stack compresses cold 4 KiB pages with zstd/lzo on the
//! CPU and with an open-source Deflate core on the near-memory FPGA. This
//! crate provides two from-scratch codecs in the same two speed classes:
//!
//! - [`xdeflate`] — an LZ77 + canonical-Huffman block codec in the spirit
//!   of DEFLATE (the algorithm the paper's NMA implements), tuned for
//!   page-sized inputs;
//! - [`xdef_fse`] — the same token model with an FSE/tANS entropy stage
//!   and the turbo match finder: the throughput profile for the
//!   compression-bound swap-out path;
//! - [`xlz`] — a byte-oriented LZ4-style codec standing in for the
//!   lzo/zstd speed class used by production SFM deployments;
//! - [`auto`] — a per-page probe routing each page to raw / `xlz` /
//!   `xdef-fse` behind a self-describing tag byte.
//!
//! All implement the [`Codec`] trait and are exercised by the SFM stack,
//! the multi-channel compression-ratio study (paper Fig. 8), and the cost
//! model (cycles-per-byte table).
//!
//! [`corpus`] generates the deterministic synthetic corpora that
//! substitute for the paper's (unshipped) corpus files, and [`ratio`]
//! implements page-granular and channel-interleaved compression-ratio
//! measurement.
//!
//! # Examples
//!
//! ```
//! use xfm_compress::{Codec, XDeflate};
//!
//! let codec = XDeflate::default();
//! let data = b"far memory far memory far memory far memory".repeat(10);
//! let mut compressed = Vec::new();
//! codec.compress(&data, &mut compressed)?;
//! assert!(compressed.len() < data.len());
//!
//! let mut restored = Vec::new();
//! codec.decompress(&compressed, &mut restored)?;
//! assert_eq!(restored, data);
//! # Ok::<(), xfm_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auto;
pub mod bitio;
pub mod codec;
pub mod corpus;
pub mod fse;
pub mod huffman;
pub mod lz77;
pub mod parallel;
pub mod ratio;
pub mod scratch;
pub mod xdef_fse;
pub mod xdeflate;
pub mod xlz;

pub use auto::AutoCodec;
pub use codec::{Codec, CodecKind, CostModel};
pub use corpus::Corpus;
pub use parallel::map_pages;
pub use ratio::{interleaved_ratio, page_ratio, InterleaveReport};
pub use scratch::Scratch;
pub use xdef_fse::XDeflateFse;
pub use xdeflate::XDeflate;
pub use xlz::Xlz;
