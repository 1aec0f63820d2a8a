//! XXH64-style checksum for stored compressed blocks.
//!
//! Every block the SFM stores carries a 64-bit checksum computed at
//! swap-out and verified at swap-in, so corruption surfaces as a
//! detectable [`xfm_types::Error::ChecksumMismatch`] instead of a
//! garbage page handed back to the application. The implementation is
//! the standard XXH64 layout (four-lane 32-byte stripes, merge, tail,
//! avalanche): allocation-free, one pass, ~word-at-a-time — cheap
//! enough to run unconditionally on the hot path next to a codec that
//! costs two orders of magnitude more.

const PRIME1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte slice"))
}

#[inline]
fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4-byte slice"))
}

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME2))
        .rotate_left(31)
        .wrapping_mul(PRIME1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME1)
        .wrapping_add(PRIME4)
}

/// XXH64 of `data` with an explicit seed.
fn checksum_seeded(data: &[u8], seed: u64) -> u64 {
    let len = data.len() as u64;
    let mut rest = data;
    let mut h = if rest.len() >= 32 {
        let mut v1 = seed.wrapping_add(PRIME1).wrapping_add(PRIME2);
        let mut v2 = seed.wrapping_add(PRIME2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME1);
        while rest.len() >= 32 {
            v1 = round(v1, read_u64(&rest[0..]));
            v2 = round(v2, read_u64(&rest[8..]));
            v3 = round(v3, read_u64(&rest[16..]));
            v4 = round(v4, read_u64(&rest[24..]));
            rest = &rest[32..];
        }
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        merge_round(h, v4)
    } else {
        seed.wrapping_add(PRIME5)
    };
    h = h.wrapping_add(len);
    while rest.len() >= 8 {
        h = (h ^ round(0, read_u64(rest)))
            .rotate_left(27)
            .wrapping_mul(PRIME1)
            .wrapping_add(PRIME4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h = (h ^ u64::from(read_u32(rest)).wrapping_mul(PRIME1))
            .rotate_left(23)
            .wrapping_mul(PRIME2)
            .wrapping_add(PRIME3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(PRIME5))
            .rotate_left(11)
            .wrapping_mul(PRIME1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME3);
    h ^ (h >> 32)
}

/// XXH64 of `data` with seed 0 — the checksum stored alongside every
/// compressed block.
///
/// # Examples
///
/// ```
/// use xfm_faults::checksum;
///
/// // Official XXH64 vector: empty input, seed 0.
/// assert_eq!(checksum(b""), 0xEF46_DB37_51D8_E999);
/// assert_ne!(checksum(b"abc"), checksum(b"abd"));
/// ```
#[must_use]
pub fn checksum(data: &[u8]) -> u64 {
    checksum_seeded(data, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_matches_reference() {
        assert_eq!(checksum(b""), 0xEF46_DB37_51D8_E999);
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = vec![0xA5u8; 300];
        let base = checksum(&data);
        for byte in [0usize, 7, 31, 32, 63, 255, 299] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(checksum(&flipped), base, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn all_length_classes_are_covered() {
        // Stripe path (≥32), 8-byte tail, 4-byte tail, byte tail.
        let data: Vec<u8> = (0..100u8).collect();
        let sums: Vec<u64> = (0..100).map(|n| checksum(&data[..n])).collect();
        // All distinct — a degenerate tail would collide neighbors.
        for i in 0..sums.len() {
            for j in (i + 1)..sums.len() {
                assert_ne!(sums[i], sums[j], "lengths {i} and {j}");
            }
        }
    }

    #[test]
    fn seed_separates_streams() {
        let data = b"same bytes";
        assert_ne!(checksum_seeded(data, 1), checksum_seeded(data, 2));
    }
}
