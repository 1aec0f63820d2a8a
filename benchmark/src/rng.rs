//! The benchmark's own seeded generator: every input derives from
//! `--seed` through this one SplitMix64 stream, so the same seed gives
//! byte-identical pages and key streams on any host.

/// SplitMix64: tiny, full-period, and good enough to drive generators.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`; distinct lanes are independent.
    #[must_use]
    pub fn new(seed: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform integer in `0..n` (`n > 0`); the modulo bias is below
    /// 2^-40 for every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The SplitMix64 finalizer, also used as the key hash that assigns a
/// page its content family.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7, 1);
            move || r.next_u64()
        })
        .take(8)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7, 1);
            move || r.next_u64()
        })
        .take(8)
        .collect();
        let c: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(8, 1);
            move || r.next_u64()
        })
        .take(8)
        .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(3, 0).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
