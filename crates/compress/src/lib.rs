//! From-scratch lossless compression codecs and synthetic corpora for the
//! XFM reproduction.
//!
//! The paper's SFM stack compresses cold 4 KiB pages with zstd/lzo on the
//! CPU and with an open-source Deflate core on the near-memory FPGA. This
//! crate provides one from-scratch codec, on both paths: [`xdeflate`],
//! an LZ77 + canonical-Huffman block codec in the spirit of DEFLATE (the
//! algorithm the paper's NMA implements), tuned for page-sized inputs.
//!
//! It implements the [`Codec`] trait — the seam the planes hold as
//! `Arc<dyn Codec>`, so a tracing or fault-injecting wrapper can stand
//! in for it — and is exercised by the SFM stack, the multi-channel
//! compression-ratio study (paper Fig. 8), and the cost model.
//!
//! [`corpus`] generates the deterministic synthetic corpora that
//! substitute for the paper's (unshipped) corpus files, and [`ratio`]
//! owns the multi-channel container (paper Figs. 8–9): the 256 B split,
//! the same-offset format, and the stored ratio Fig. 8 reports.
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

pub mod bitio;
pub mod codec;
pub mod corpus;
pub mod huffman;
pub mod lz77;
pub mod parallel;
pub mod ratio;
pub mod scratch;
pub mod xdeflate;

pub use codec::{Codec, CodecKind, CostModel};
pub use corpus::Corpus;
pub use parallel::map_pages;
pub use scratch::Scratch;
pub use xdeflate::XDeflate;
