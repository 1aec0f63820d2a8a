//! The [`Codec`] trait and the compression cost model.

use xfm_types::{Cycles, Result};

use crate::scratch::Scratch;

/// Identifies a codec implementation (used by SFM entries so swap-in
/// knows how to decompress).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// The LZ77 + Huffman block codec (Deflate class).
    XDeflate,
    /// Data stored uncompressed (incompressible page).
    Raw,
    /// Page whose every byte is identical: only the fill byte is stored
    /// (zswap's same-filled-page optimization).
    SameFilled,
}

impl CodecKind {
    /// Stable lowercase name (used in telemetry exposition).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CodecKind::XDeflate => "xdeflate",
            CodecKind::Raw => "raw",
            CodecKind::SameFilled => "same_filled",
        }
    }
}

/// A lossless compressor/decompressor.
///
/// Implementations append to the destination vector and return the number
/// of bytes produced, letting callers pack multiple pages into one buffer
/// (as the zpool allocator does).
pub trait Codec {
    /// Short stable name (`"xdeflate"`).
    fn name(&self) -> &'static str;

    /// The [`CodecKind`] tag stored in SFM entries.
    fn kind(&self) -> CodecKind;

    /// Compresses `src`, appending to `dst`.
    ///
    /// # Errors
    ///
    /// Returns an error only on internal failures; incompressible data is
    /// stored in a raw container block, never rejected.
    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize>;

    /// Decompresses `src`, appending to `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`xfm_types::Error::Corrupt`] when `src` is not a valid
    /// stream for this codec.
    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize>;

    /// [`Self::compress`] reusing caller-held scratch state, the
    /// zero-allocation hot path. Output is byte-identical to
    /// [`Self::compress`] regardless of what the scratch last held.
    ///
    /// The default implementation ignores the scratch and delegates to
    /// [`Self::compress`]; codecs with reusable state override it.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::compress`].
    fn compress_into(&self, src: &[u8], dst: &mut Vec<u8>, scratch: &mut Scratch) -> Result<usize> {
        let _ = scratch;
        self.compress(src, dst)
    }

    /// [`Self::decompress`] reusing caller-held scratch state.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::decompress`].
    fn decompress_into(
        &self,
        src: &[u8],
        dst: &mut Vec<u8>,
        scratch: &mut Scratch,
    ) -> Result<usize> {
        let _ = scratch;
        self.decompress(src, dst)
    }

    /// Decompresses a batch of blocks, appending block `i` to `dsts[i]`:
    /// a loop over [`Self::decompress_into`] with one scratch. No codec
    /// overrides it: whatever a codec keeps between blocks lives in the
    /// [`Scratch`] and so serves single-block callers the same way.
    ///
    /// # Errors
    ///
    /// Fails on the first corrupt block, with earlier outputs already
    /// appended.
    ///
    /// # Panics
    ///
    /// Panics if `srcs` and `dsts` lengths differ.
    fn decompress_batch_into(
        &self,
        srcs: &[&[u8]],
        dsts: &mut [Vec<u8>],
        scratch: &mut Scratch,
    ) -> Result<()> {
        assert_eq!(srcs.len(), dsts.len(), "batch shape mismatch");
        for (src, dst) in srcs.iter().zip(dsts.iter_mut()) {
            self.decompress_into(src, dst, scratch)?;
        }
        Ok(())
    }
}

/// CPU cost of running a codec, used by the §3 cost model and the co-run
/// interference simulation.
///
/// The paper's model uses the average of zstd and lzo costs: 7.65e9
/// cycles to (de)compress one GB.
///
/// # Examples
///
/// ```
/// use xfm_compress::CostModel;
///
/// let m = CostModel::paper_average();
/// assert_eq!(m.cycles_per_gb().count(), 7_650_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// CPU cycles per byte compressed.
    pub compress_cycles_per_byte: f64,
    /// CPU cycles per byte decompressed.
    pub decompress_cycles_per_byte: f64,
}

impl CostModel {
    /// The paper's §3 average over zstd and lzo,
    /// [`xfm_types::CC_PER_GB`] (7.65e9 cycles/GB), split symmetrically.
    #[must_use]
    pub fn paper_average() -> Self {
        let per_byte = xfm_types::CC_PER_GB / 1e9;
        Self {
            compress_cycles_per_byte: per_byte,
            decompress_cycles_per_byte: per_byte,
        }
    }

    /// Average (compress + decompress) cycles for one gigabyte, the
    /// quantity the paper's EQ3.4 calls `CCPerGB`.
    #[must_use]
    pub fn cycles_per_gb(&self) -> Cycles {
        let per_byte = (self.compress_cycles_per_byte + self.decompress_cycles_per_byte) / 2.0;
        Cycles::new((per_byte * 1e9).round() as u64)
    }

    /// Cycles to compress `bytes` bytes.
    #[must_use]
    pub fn compress_cycles(&self, bytes: u64) -> Cycles {
        Cycles::new((self.compress_cycles_per_byte * bytes as f64).round() as u64)
    }

    /// Cycles to decompress `bytes` bytes.
    #[must_use]
    pub fn decompress_cycles(&self, bytes: u64) -> Cycles {
        Cycles::new((self.decompress_cycles_per_byte * bytes as f64).round() as u64)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_average()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_average_matches_eq34_constant() {
        let m = CostModel::paper_average();
        assert_eq!(m.cycles_per_gb().count(), 7_650_000_000);
    }

    #[test]
    fn cycle_counts_scale_linearly() {
        let m = CostModel::paper_average();
        assert_eq!(
            m.compress_cycles(2000).count(),
            2 * m.compress_cycles(1000).count()
        );
    }

    #[test]
    fn codec_trait_is_object_safe() {
        fn _takes_dyn(_c: &dyn Codec) {}
    }
}
