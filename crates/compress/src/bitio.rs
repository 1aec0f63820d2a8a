//! LSB-first bit-level I/O.
//!
//! The xdeflate bitstream packs bits into bytes LSB-first (like DEFLATE):
//! the first bit written becomes bit 0 of the first byte. Huffman codes
//! are written MSB-of-the-code-first via [`BitWriter::write_code_msb`],
//! which lets the canonical decoder consume them one bit at a time.

use xfm_types::{Error, Result};

/// Writes bits LSB-first into a growing byte buffer.
///
/// # Examples
///
/// ```
/// use xfm_compress::bitio::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xff, 8);
/// let bytes = w.finish();
///
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3)?, 0b101);
/// assert_eq!(r.read_bits(8)?, 0xff);
/// # Ok::<(), xfm_types::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bit accumulator, filled from bit 0 upward.
    acc: u64,
    /// Number of valid bits in `acc`.
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `n` bits of `value` (LSB first). `n` must be ≤ 32.
    ///
    /// Only whole 32-bit words leave the accumulator here; up to 31 bits
    /// stay buffered until [`Self::align_byte`] drains them.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32` or if `value` has bits set above `n`.
    #[inline]
    pub fn write_bits(&mut self, value: u32, n: u32) {
        assert!(n <= 32, "cannot write more than 32 bits at once");
        put_bits(&mut self.bytes, &mut self.acc, &mut self.nbits, value, n);
    }

    /// Lends the byte buffer and the accumulator (fewer than 32 bits
    /// held) to a loop that keeps the accumulator in locals and writes
    /// to the buffer its own way; [`Self::join`] hands the accumulator
    /// back.
    #[cfg(test)]
    pub(crate) fn split(&mut self) -> (&mut Vec<u8>, u64, u32) {
        (&mut self.bytes, self.acc, self.nbits)
    }

    /// Takes back the accumulator lent by [`Self::split`]; it must hold
    /// fewer than 32 bits, the bytes before them already in the buffer.
    #[cfg(test)]
    pub(crate) fn join(&mut self, acc: u64, nbits: u32) {
        self.acc = acc;
        self.nbits = nbits;
    }

    /// Writes a Huffman `code` of `len` bits, most-significant code bit
    /// first, so the canonical bit-at-a-time decoder can read it back.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or greater than 32.
    pub fn write_code_msb(&mut self, code: u32, len: u32) {
        assert!((1..=32).contains(&len), "code length out of range");
        for i in (0..len).rev() {
            self.write_bits((code >> i) & 1, 1);
        }
    }

    /// Pads with zero bits to the next byte boundary and moves the
    /// buffered bytes out of the accumulator.
    pub fn align_byte(&mut self) {
        while self.nbits > 0 {
            self.bytes.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits = self.nbits.saturating_sub(8);
        }
    }

    /// Appends whole bytes; the writer must be byte-aligned.
    ///
    /// # Panics
    ///
    /// Panics if the writer is not byte-aligned.
    pub fn write_bytes(&mut self, data: &[u8]) {
        assert!(
            self.nbits.is_multiple_of(8),
            "write_bytes requires byte alignment"
        );
        self.align_byte();
        self.bytes.extend_from_slice(data);
    }

    /// Number of complete bytes written so far (a trailing partial byte
    /// is not counted).
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.bytes.len() + (self.nbits / 8) as usize
    }

    /// Resets the writer to empty, keeping the byte buffer's capacity so
    /// a scratch-held writer never reallocates in steady state.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.acc = 0;
        self.nbits = 0;
    }

    /// The bytes written so far. Call [`Self::align_byte`] first: it is
    /// what moves the last buffered bits into the byte buffer.
    ///
    /// # Panics
    ///
    /// Panics if bits are still buffered.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        assert!(self.nbits == 0, "bytes() requires byte alignment");
        &self.bytes
    }

    /// Flushes any buffered bits (zero-padded) and returns the bytes.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.bytes
    }
}

/// [`BitWriter::write_bits`] on an accumulator the caller holds: ORs the
/// low `n ≤ 32` bits of `value` in above the `nbits < 32` held and
/// moves a whole 32-bit word out to `bytes` once there is one.
#[inline(always)]
pub(crate) fn put_bits(bytes: &mut Vec<u8>, acc: &mut u64, nbits: &mut u32, value: u32, n: u32) {
    debug_assert!(
        n == 32 || u64::from(value) < (1u64 << n),
        "value wider than n bits"
    );
    *acc |= u64::from(value) << *nbits;
    *nbits += n;
    if *nbits >= 32 {
        bytes.extend_from_slice(&(*acc as u32).to_le_bytes());
        *acc >>= 32;
        *nbits -= 32;
    }
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte index to load.
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Tops the accumulator up from the input — the one place bytes
    /// enter it. While eight input bytes remain that is a single 64-bit
    /// load leaving 56..=63 valid bits; over the last seven bytes it
    /// goes byte by byte. It never fails: a reader that then still
    /// holds too few bits has reached the end of the stream.
    ///
    /// Bits of `acc` at and above `nbits` are always zero, which is what
    /// lets [`Self::peek_bits`] pad with zeros and every load be an OR.
    #[inline(never)]
    fn refill(&mut self) {
        if let Some(word) = self.bytes.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            // Whole bytes that fit above the bits already held.
            let take = (63 - self.nbits) >> 3;
            self.acc |= (word & ((1u64 << (take * 8)) - 1)) << self.nbits;
            self.nbits += take * 8;
            self.pos += take as usize;
            return;
        }
        while self.nbits <= 56 {
            let Some(&byte) = self.bytes.get(self.pos) else {
                break;
            };
            self.acc |= u64::from(byte) << self.nbits;
            self.nbits += 8;
            self.pos += 1;
        }
    }

    /// Reads `n ≤ 32` bits (LSB-first).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the stream is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u32> {
        assert!(n <= 32, "cannot read more than 32 bits at once");
        let value = self.peek_bits(n);
        self.consume(n)?;
        Ok(value)
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the stream is exhausted.
    pub fn read_bit(&mut self) -> Result<u32> {
        self.read_bits(1)
    }

    /// Peeks the next `n ≤ 32` bits without consuming them. Bits past
    /// the end of the stream read as zero — callers that act on a
    /// padded peek must follow up with [`Self::consume`], which still
    /// fails when the consumed length exceeds the real stream.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u32 {
        assert!(n <= 32, "cannot peek more than 32 bits at once");
        if self.nbits < n {
            self.refill();
        }
        (self.acc & ((1u64 << n) - 1)) as u32
    }

    /// Consumes `n` bits previously examined with [`Self::peek_bits`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if fewer than `n` real bits remain.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<()> {
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(Error::Corrupt("bitstream ended mid-symbol".into()));
            }
        }
        self.acc >>= n;
        self.nbits -= n;
        Ok(())
    }

    /// Lends the read position to a token loop that tops up with one
    /// unchecked-for-end 64-bit load per token; [`Self::resume`] takes
    /// it back.
    #[inline]
    pub(crate) fn wide(&self) -> WideBits<'a> {
        WideBits {
            bytes: self.bytes,
            end: self.bytes.len(),
            pos: self.pos,
            acc: self.acc,
            nbits: self.nbits,
        }
    }

    /// Continues where a [`WideBits`] stopped. Its loads overlap, which
    /// leaves stream bits above `nbits` in the accumulator; they are
    /// cleared here to restore the invariant of [`Self::refill`].
    #[inline]
    pub(crate) fn resume(&mut self, wide: WideBits<'a>) {
        self.acc = wide.acc & ((1u64 << wide.nbits) - 1);
        self.nbits = wide.nbits;
        self.pos = wide.pos;
    }

    /// [`Self::wide`] over the input still to load, copied to the front
    /// of `pad` with zeros after it: a token loop can then run to the
    /// stream's last bit with unchecked loads, as long as it asks
    /// [`WideBits::overran`] whether what it consumed was still stream.
    /// [`Self::resume_padded`] takes the position back.
    ///
    /// # Panics
    ///
    /// Panics unless fewer than `pad.len()` input bytes are left.
    #[inline]
    pub(crate) fn padded<'p>(&self, pad: &'p mut [u8]) -> WideBits<'p> {
        let left = &self.bytes[self.pos..];
        pad[..left.len()].copy_from_slice(left);
        WideBits {
            bytes: pad,
            end: left.len(),
            pos: 0,
            acc: self.acc,
            nbits: self.nbits,
        }
    }

    /// Continues where a [`Self::padded`] loop stopped, which must not
    /// have [`WideBits::overran`]: the padding bytes it loaded are
    /// dropped from the bits held.
    #[inline]
    pub(crate) fn resume_padded(&mut self, wide: WideBits<'_>) {
        debug_assert!(!wide.overran());
        let padding = wide.pos.saturating_sub(wide.end) as u32;
        self.nbits = wide.nbits - 8 * padding;
        self.acc = wide.acc & ((1u64 << self.nbits) - 1);
        self.pos += wide.pos - padding as usize;
    }

    /// Discards buffered bits up to the next byte boundary.
    pub fn align_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }

    /// Reads `n` whole bytes; the reader must be byte-aligned.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if fewer than `n` bytes remain.
    ///
    /// # Panics
    ///
    /// Panics if the reader is not byte-aligned.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        assert!(
            self.nbits.is_multiple_of(8),
            "read_bytes requires byte alignment"
        );
        // Return buffered whole bytes to the slice position first.
        let buffered = (self.nbits / 8) as usize;
        self.pos -= buffered;
        self.acc = 0;
        self.nbits = 0;
        if self.pos + n > self.bytes.len() {
            return Err(Error::Corrupt("raw byte run truncated".into()));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

/// A [`BitReader`]'s position inside a token loop: the same LSB-first
/// bits with nothing checked per read. The loop asks [`Self::has`] once
/// per pass for all the input that pass can load, and keeps its own
/// count of the bits a [`Self::refill`] guarantees (56) against the
/// bits it takes; every bit it sees is then a real stream bit — or,
/// over a [`BitReader::padded`] copy of the stream's tail, a zero it
/// must not act on, which [`Self::overran`] tells it.
#[derive(Debug, Clone)]
pub(crate) struct WideBits<'a> {
    bytes: &'a [u8],
    /// Where the stream's bytes end in `bytes`: its length, or less
    /// over a zero-padded copy of the stream's tail.
    end: usize,
    pos: usize,
    /// Valid in its low `nbits`; above them are either zeros or the
    /// stream bits that follow, which the next load ORs in again.
    acc: u64,
    /// Always below 64.
    nbits: u32,
}

impl WideBits<'_> {
    /// `true` while at least `n` input bytes are still to be loaded.
    #[inline(always)]
    pub(crate) fn has(&self, n: usize) -> bool {
        self.bytes.len() - self.pos >= n
    }

    /// Whether more bits were consumed than the stream holds — over a
    /// [`BitReader::padded`] copy, whether a code was read from the
    /// padding.
    #[inline(always)]
    pub(crate) fn overran(&self) -> bool {
        self.pos > self.end && (self.pos - self.end) * 8 > self.nbits as usize
    }

    /// One 64-bit little-endian load that leaves 56..=63 valid bits.
    ///
    /// # Panics
    ///
    /// Panics unless [`Self::has`]`(8)`.
    #[inline(always)]
    pub(crate) fn refill(&mut self) {
        let word: [u8; 8] = self.bytes[self.pos..self.pos + 8]
            .try_into()
            .expect("eight bytes");
        self.acc |= u64::from_le_bytes(word) << self.nbits;
        // Only the whole bytes that fit above `nbits` are counted as
        // loaded; the partial byte above them is loaded again.
        self.pos += ((63 - self.nbits) >> 3) as usize;
        self.nbits |= 56;
    }

    /// The next bits, first stream bit in bit 0.
    #[inline(always)]
    pub(crate) fn bits(&self) -> u64 {
        self.acc
    }

    /// Drops `n` bits the caller knows are held.
    #[inline(always)]
    pub(crate) fn skip(&mut self, n: u32) {
        debug_assert!(n <= self.nbits, "token loop out-ran its refill");
        self.acc >>= n;
        self.nbits -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b1011, 4);
        w.write_bits(0xabcd, 16);
        w.write_bits(0, 3);
        w.write_bits(0xffff_ffff, 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(16).unwrap(), 0xabcd);
        assert_eq!(r.read_bits(3).unwrap(), 0);
        assert_eq!(r.read_bits(32).unwrap(), 0xffff_ffff);
    }

    #[test]
    fn msb_code_round_trips_bit_by_bit() {
        let mut w = BitWriter::new();
        w.write_code_msb(0b1101, 4);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut code = 0u32;
        for _ in 0..4 {
            code = (code << 1) | r.read_bit().unwrap();
        }
        assert_eq!(code, 0b1101);
    }

    #[test]
    fn align_and_raw_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.align_byte();
        w.write_bytes(b"hello");
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        r.align_byte();
        assert_eq!(r.read_bytes(5).unwrap(), b"hello");
    }

    #[test]
    fn read_past_end_is_corrupt() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.read_bits(8).unwrap(), 0xff);
        assert!(matches!(r.read_bits(1), Err(Error::Corrupt(_))));
    }

    #[test]
    fn read_bytes_past_end_is_corrupt() {
        let mut r = BitReader::new(&[1, 2]);
        assert!(r.read_bytes(3).is_err());
    }

    #[test]
    fn read_bytes_after_buffered_bits() {
        // Reading 8 bits buffers a byte; read_bytes must rewind correctly.
        let mut w = BitWriter::new();
        w.write_bits(0xaa, 8);
        w.write_bytes(&[1, 2, 3]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0xaa);
        assert_eq!(r.read_bytes(3).unwrap(), &[1, 2, 3]);
        assert!(r.read_bytes(1).is_err());
    }

    #[test]
    fn byte_len_counts_bytes_still_in_the_accumulator() {
        let mut w = BitWriter::new();
        w.write_bits(0x3ff, 10);
        assert_eq!(w.byte_len(), 1);
        w.write_bits(0x3f, 6);
        assert_eq!(w.byte_len(), 2);
        w.write_bits(0x1_ffff, 17);
        assert_eq!(w.byte_len(), 4);
        w.align_byte();
        assert_eq!(w.byte_len(), 5);
        assert_eq!(w.bytes(), &[0xff, 0xff, 0xff, 0xff, 0x01]);
    }

    #[test]
    fn wide_reads_are_the_checked_reads() {
        // The same widths read three ways: bit by bit off the bytes,
        // through the checked reader alone, and through a reader that
        // lends its position to a `WideBits` for every other stretch.
        let bytes: Vec<u8> = (0..200u32)
            .map(|i| (i * i * 31 + i * 7 + 3) as u8)
            .collect();
        let widths = [1u32, 12, 15, 7, 3, 15, 15, 9, 1, 4, 13, 2, 11, 15, 6, 5];
        let plain = |at: usize, n: u32| -> u32 {
            (0..n as usize).fold(0, |v, i| {
                v | u32::from((bytes[(at + i) / 8] >> ((at + i) % 8)) & 1) << i
            })
        };
        let mut checked = BitReader::new(&bytes);
        let mut mixed = BitReader::new(&bytes);
        let mut at = 0;
        let mut lend = false;
        'stream: loop {
            lend = !lend;
            let mut wide = mixed.wide();
            for group in widths.chunks(4) {
                // Four widths are at most 56 bits: one refill each.
                let total: u32 = group.iter().sum();
                if at + 64 + total as usize > 8 * bytes.len() {
                    break 'stream;
                }
                if lend {
                    assert!(wide.has(8));
                    wide.refill();
                }
                for &n in group {
                    let want = plain(at, n);
                    assert_eq!(checked.read_bits(n).unwrap(), want, "checked at bit {at}");
                    let got = if lend {
                        let v = (wide.bits() & ((1 << n) - 1)) as u32;
                        wide.skip(n);
                        v
                    } else {
                        mixed.read_bits(n).unwrap()
                    };
                    assert_eq!(got, want, "lent {lend} at bit {at}");
                    at += n as usize;
                }
            }
            if lend {
                mixed.resume(wide);
            }
        }
        assert!(at > 8 * 150, "most of the buffer was read");
    }

    #[test]
    fn zero_bit_read_is_noop() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }
}
