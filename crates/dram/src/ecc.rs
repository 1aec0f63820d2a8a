//! Side-band SECDED ECC (72,64) — the DIMM protection scheme XFM must
//! cooperate with (paper §4.1).
//!
//! Commodity DIMMs protect each 64-bit data word with 8 parity bits
//! stored on dedicated ECC chips. The memory controller checks/corrects
//! on reads. XFM's NMA sits *between* the chips and the controller, so:
//!
//! - on NMA **reads** it can ignore the side-band bits (on-die ECC
//!   guarantees error-free data inside the chip, and the NMA never
//!   crosses the DDR channel);
//! - on NMA **writes** it must *regenerate* the side-band parity so the
//!   host controller's later reads still check out.
//!
//! This module implements the classic Hsiao-style SECDED code used for
//! that regeneration: single-bit errors are corrected, double-bit errors
//! are detected.

/// Outcome of a SECDED check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccOutcome {
    /// Data and parity agree.
    Clean,
    /// One bit was flipped and has been corrected (bit index reported;
    /// indices 0..64 are data bits, 64..72 parity bits).
    Corrected {
        /// The flipped bit's position in the 72-bit codeword.
        bit: u8,
    },
    /// An uncorrectable (≥2-bit) error was detected.
    Uncorrectable,
}

/// Parity-check matrix columns for the 64 data bits.
///
/// Each data bit participates in the check bits whose mask bits are
/// set. Columns are distinct, odd-weight (Hsiao), which guarantees:
/// single error → syndrome equals that column (odd weight);
/// double error → syndrome is the XOR of two odd columns (even weight,
/// non-zero) → detected as uncorrectable.
fn column(bit: u32) -> u8 {
    // Enumerate odd-weight 8-bit values in a fixed order and take the
    // `bit`-th one that is not a power of two (powers of two are the
    // parity bits' own columns).
    debug_assert!(bit < 64);
    ODD_COLUMNS[bit as usize]
}

/// The first 64 odd-weight non-power-of-two byte values.
const ODD_COLUMNS: [u8; 64] = build_columns();

const fn build_columns() -> [u8; 64] {
    let mut out = [0u8; 64];
    let mut found = 0usize;
    let mut v: u16 = 0;
    while found < 64 {
        v += 1;
        let b = v as u8;
        if b.count_ones() % 2 == 1 && !b.is_power_of_two() {
            out[found] = b;
            found += 1;
        }
    }
    out
}

/// The parity-check matrix by rows: bit `b` of `ROW_MASKS[j]` is set
/// when data bit `b` participates in check bit `j` — [`ODD_COLUMNS`]
/// transposed.
const ROW_MASKS: [u64; 8] = build_row_masks();

const fn build_row_masks() -> [u64; 8] {
    let mut masks = [0u64; 8];
    let mut bit = 0;
    while bit < 64 {
        let mut j = 0;
        while j < 8 {
            masks[j] |= ((ODD_COLUMNS[bit] >> j & 1) as u64) << bit;
            j += 1;
        }
        bit += 1;
    }
    masks
}

/// Computes the 8 side-band parity bits for a 64-bit data word — what
/// the NMA runs for every word it writes back to DRAM. Check bit `j` is
/// the parity of the data bits in row `j` of the matrix: eight
/// mask-and-popcounts a word.
///
/// # Examples
///
/// ```
/// use xfm_dram::ecc::{check, encode, EccOutcome};
///
/// let word = 0xdead_beef_0bad_f00du64;
/// let parity = encode(word);
/// assert_eq!(check(word, parity), EccOutcome::Clean);
/// ```
#[must_use]
pub fn encode(data: u64) -> u8 {
    let mut parity = 0u8;
    for (j, mask) in ROW_MASKS.iter().enumerate() {
        parity |= ((data & mask).count_ones() as u8 & 1) << j;
    }
    parity
}

/// Checks a 72-bit codeword and classifies the result.
#[must_use]
pub fn check(data: u64, parity: u8) -> EccOutcome {
    let syndrome = encode(data) ^ parity;
    if syndrome == 0 {
        return EccOutcome::Clean;
    }
    if syndrome.count_ones().is_multiple_of(2) {
        // Even-weight syndrome: two (or an even number of) flips.
        return EccOutcome::Uncorrectable;
    }
    if syndrome.is_power_of_two() {
        // A parity bit itself flipped.
        return EccOutcome::Corrected {
            bit: 64 + syndrome.trailing_zeros() as u8,
        };
    }
    for bit in 0..64u8 {
        if column(u32::from(bit)) == syndrome {
            return EccOutcome::Corrected { bit };
        }
    }
    // Odd-weight syndrome matching no column: ≥3 flips.
    EccOutcome::Uncorrectable
}

/// Checks and repairs a codeword in place.
///
/// # Errors
///
/// Returns [`xfm_types::Error::Corrupt`] on uncorrectable errors (the
/// DRAM chip would signal the memory controller here, paper §4.1).
pub fn correct(data: &mut u64, parity: &mut u8) -> xfm_types::Result<EccOutcome> {
    match check(*data, *parity) {
        EccOutcome::Clean => Ok(EccOutcome::Clean),
        EccOutcome::Corrected { bit } => {
            if bit < 64 {
                *data ^= 1u64 << bit;
            } else {
                *parity ^= 1u8 << (bit - 64);
            }
            Ok(EccOutcome::Corrected { bit })
        }
        EccOutcome::Uncorrectable => Err(xfm_types::Error::Corrupt(
            "uncorrectable (multi-bit) ECC error".into(),
        )),
    }
}

/// Side-band parity for a whole page: one parity byte per 64-bit word.
/// This is the work the NMA performs when writing compressed data back
/// (paper §4.1: "the NMA calculates the parity bits and stores them in
/// the ECC DRAM chips, when writing back to DRAM chips").
#[must_use]
pub fn encode_page(page: &[u8]) -> Vec<u8> {
    page.chunks(8)
        .map(|chunk| {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            encode(u64::from_le_bytes(word))
        })
        .collect()
}

/// The number of parity bytes [`encode_page`] produces for `len` data
/// bytes: one per 64-bit word, a partial last word included. The NMA
/// model counts its write-back parity with this, without the data.
#[must_use]
pub fn parity_bytes(len: usize) -> usize {
    len.div_ceil(8)
}

/// Verifies a page against its side-band parity, correcting single-bit
/// errors in place.
///
/// # Errors
///
/// Returns [`xfm_types::Error::Corrupt`] if any word has an
/// uncorrectable error or the parity length mismatches.
pub fn verify_page(page: &mut [u8], parity: &[u8]) -> xfm_types::Result<u32> {
    if parity.len() != parity_bytes(page.len()) {
        return Err(xfm_types::Error::Corrupt(format!(
            "parity length {} for {}-byte page",
            parity.len(),
            page.len()
        )));
    }
    let mut corrected = 0u32;
    for (i, p) in parity.iter().enumerate() {
        let start = i * 8;
        let end = (start + 8).min(page.len());
        let mut word = [0u8; 8];
        word[..end - start].copy_from_slice(&page[start..end]);
        let mut data = u64::from_le_bytes(word);
        let mut par = *p;
        if let EccOutcome::Corrected { .. } = correct(&mut data, &mut par)? {
            corrected += 1;
            page[start..end].copy_from_slice(&data.to_le_bytes()[..end - start]);
        }
    }
    Ok(corrected)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition `encode` must agree with: XOR the column of every
    /// set data bit.
    fn encode_bit_by_bit(data: u64) -> u8 {
        let mut parity = 0u8;
        for bit in 0..64 {
            if data >> bit & 1 == 1 {
                parity ^= column(bit);
            }
        }
        parity
    }

    #[test]
    fn encode_matches_the_bit_loop() {
        let mut words: Vec<u64> = (0..64).map(|bit| 1u64 << bit).collect();
        words.extend([0, u64::MAX]);
        // xorshift64 from a fixed seed.
        let mut x = 0x5EED_0023u64;
        words.extend((0..10_000).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }));
        for word in words {
            assert_eq!(encode(word), encode_bit_by_bit(word), "word {word:#x}");
        }
    }

    #[test]
    fn columns_are_distinct_odd_nonpower() {
        let mut seen = std::collections::HashSet::new();
        for bit in 0..64 {
            let c = column(bit);
            assert_eq!(c.count_ones() % 2, 1, "column {c:#x} must be odd weight");
            assert!(!c.is_power_of_two(), "column {c:#x} clashes with parity");
            assert!(seen.insert(c), "duplicate column {c:#x}");
        }
    }

    #[test]
    fn clean_words_check_clean() {
        for word in [0u64, u64::MAX, 0xdead_beef, 0x0123_4567_89ab_cdef] {
            assert_eq!(check(word, encode(word)), EccOutcome::Clean);
        }
    }

    #[test]
    fn every_single_data_bit_flip_is_corrected() {
        let word = 0x5a5a_1234_8765_a5a5u64;
        let parity = encode(word);
        for bit in 0..64 {
            let corrupted = word ^ (1u64 << bit);
            match check(corrupted, parity) {
                EccOutcome::Corrected { bit: b } => assert_eq!(u32::from(b), bit),
                other => panic!("bit {bit}: {other:?}"),
            }
            let mut d = corrupted;
            let mut p = parity;
            correct(&mut d, &mut p).unwrap();
            assert_eq!(d, word);
        }
    }

    #[test]
    fn every_single_parity_bit_flip_is_corrected() {
        let word = 0x00ff_00ff_aa55_aa55u64;
        let parity = encode(word);
        for bit in 0..8 {
            let corrupted = parity ^ (1u8 << bit);
            match check(word, corrupted) {
                EccOutcome::Corrected { bit: b } => assert_eq!(b, 64 + bit),
                other => panic!("parity bit {bit}: {other:?}"),
            }
            let mut d = word;
            let mut p = corrupted;
            correct(&mut d, &mut p).unwrap();
            assert_eq!((d, p), (word, parity));
        }
    }

    #[test]
    fn double_bit_flips_detected_not_miscorrected() {
        let word = 0x1122_3344_5566_7788u64;
        let parity = encode(word);
        // Sample of data-data, data-parity, parity-parity double flips.
        for (a, b) in [(0u32, 1u32), (5, 63), (17, 42), (63, 0)] {
            if a == b {
                continue;
            }
            let corrupted = word ^ (1u64 << a) ^ (1u64 << b);
            assert_eq!(
                check(corrupted, parity),
                EccOutcome::Uncorrectable,
                "flips {a},{b}"
            );
        }
        for a in 0..8u32 {
            let corrupted_p = parity ^ (1u8 << a) ^ (1u8 << ((a + 3) % 8));
            assert_eq!(check(word, corrupted_p), EccOutcome::Uncorrectable);
        }
        // data + parity flip.
        assert_eq!(check(word ^ 2, parity ^ 1), EccOutcome::Uncorrectable);
    }

    #[test]
    fn correct_returns_error_on_uncorrectable() {
        let word = 7u64;
        let parity = encode(word);
        let mut d = word ^ 0b11; // two flips
        let mut p = parity;
        assert!(correct(&mut d, &mut p).is_err());
    }

    #[test]
    fn page_round_trip_and_correction() {
        let mut page: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let parity = encode_page(&page);
        assert_eq!(parity.len(), 512);
        assert_eq!(verify_page(&mut page, &parity).unwrap(), 0);

        // Flip one bit somewhere in the middle.
        let original = page.clone();
        page[1234] ^= 0x10;
        assert_eq!(verify_page(&mut page, &parity).unwrap(), 1);
        assert_eq!(page, original);
    }

    #[test]
    fn parity_bytes_counts_what_encode_page_writes() {
        for n in 0..=4096 {
            assert_eq!(parity_bytes(n), encode_page(&vec![0; n]).len(), "{n} bytes");
        }
    }

    #[test]
    fn page_with_double_flip_in_one_word_rejected() {
        let mut page = vec![0xabu8; 64];
        let parity = encode_page(&page);
        page[8] ^= 0x01;
        page[9] ^= 0x01; // same 64-bit word
        assert!(verify_page(&mut page, &parity).is_err());
    }

    #[test]
    fn odd_sized_pages_supported() {
        let mut data = vec![1u8, 2, 3, 4, 5];
        let parity = encode_page(&data);
        assert_eq!(parity.len(), 1);
        assert_eq!(verify_page(&mut data, &parity).unwrap(), 0);
        assert!(verify_page(&mut data, &[]).is_err());
    }
}
