//! One deterministic hasher for integer-keyed maps.
//!
//! The stack's indexes — the entry table, the zpool's handle map, the
//! serve layer's far set and resident stripes — are keyed by page
//! numbers, handles and keys: plain integers that need no protection
//! against adversarial collisions but must hash the same way in every
//! process, so that a replay export and the determinism gate repeat
//! byte for byte. [`IntMap`] is `std`'s `HashMap` with [`IntHasher`]: a
//! full 64 × 64 → 128-bit multiply by the Fibonacci constant, its high
//! half folded onto its low half, so both the bucket index (low bits)
//! and the control byte (high bits) depend on every bit of the key.
//!
//! # Examples
//!
//! ```
//! use xfm_types::hash::IntMap;
//!
//! let mut map: IntMap<u64, &str> = IntMap::default();
//! map.insert(1 << 48 | 7, "page");
//! assert_eq!(map.get(&(1 << 48 | 7)), Some(&"page"));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, the Fibonacci hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic hasher for integer keys (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * u128::from(FIB);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`IntHasher`]s; the same in every process.
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` over [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashes_repeat_and_spread() {
        let build = IntBuildHasher::default();
        assert_eq!(
            build.hash_one(42u64),
            IntBuildHasher::default().hash_one(42u64)
        );
        // Keys that differ only in high bits (tenants) land in
        // different low bits (buckets).
        let low = |k: u64| build.hash_one(k) & 0xff;
        assert_ne!(low(1 << 48), low(2 << 48));
        assert_ne!(low(0), low(1));
    }
}
