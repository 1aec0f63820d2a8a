//! Benchmark-owned key and page-number streams: Zipf, scan, stride,
//! Zipf-over-objects and pointer chase. All are generated in set-up;
//! a timed loop only indexes into the finished vector.

use crate::rng::Rng;

/// Zipf(θ) sampler over ranks `0..n` by inverse CDF; rank `r` maps to
/// a seeded permutation of the keys so hot keys are spread over the
/// key space instead of clustered at its start.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    key_of_rank: Vec<u32>,
}

impl Zipf {
    /// A sampler over `n` keys with skew `theta`.
    #[must_use]
    pub fn new(n: u32, theta: f64, rng: &mut Rng) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / f64::from(r + 1).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut key_of_rank: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut key_of_rank);
        Self { cdf, key_of_rank }
    }

    /// Every key, least popular first (populating in this order leaves
    /// the most popular keys most recently written).
    pub fn keys_coldest_first(&self) -> impl Iterator<Item = u32> + '_ {
        self.key_of_rank.iter().rev().copied()
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.key_of_rank[rank]
    }
}

/// One pre-generated key-value operation, packed for a dense stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvOp {
    /// Index into the workload's tenant list.
    pub tenant: u8,
    /// Whether the op is a put (else a get).
    pub put: bool,
    /// Key within the tenant's key space.
    pub key: u32,
}

/// A closed-loop client's op stream: uniform tenant choice per op,
/// key drawn from that tenant's sampler in `zipfs`, `put_share` puts.
#[must_use]
pub fn kv_stream(seed: u64, client: u64, len: usize, zipfs: &[Zipf], put_share: f64) -> Vec<KvOp> {
    let mut rng = Rng::new(seed, 0x2200 + client);
    (0..len)
        .map(|_| {
            let tenant = rng.below(zipfs.len() as u64) as u8;
            KvOp {
                tenant,
                put: rng.unit() < put_share,
                key: zipfs[tenant as usize].sample(&mut rng),
            }
        })
        .collect()
}

/// The four fault-stream shapes of the `tier-prefetch` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// Sequential sweep.
    Scan,
    /// Every fourth page.
    Stride,
    /// Zipf over 64-page objects, each read front to back.
    Zipf,
    /// A walk along a random permutation: no exploitable structure.
    Chase,
}

impl Segment {
    /// All segments, in the order one cycle runs them.
    pub const ALL: [Segment; 4] = [
        Segment::Scan,
        Segment::Stride,
        Segment::Zipf,
        Segment::Chase,
    ];

    /// Stable lowercase name (used in metric names).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Segment::Scan => "scan",
            Segment::Stride => "stride",
            Segment::Zipf => "zipf",
            Segment::Chase => "chase",
        }
    }
}

/// Endless generator of fault cycles over `pages` pages: each cycle is
/// one `seg_len`-fault segment of every [`Segment`], and each shape
/// resumes where its previous segment stopped.
#[derive(Debug)]
pub struct FaultCycles {
    pages: u64,
    seg_len: usize,
    scan_at: u64,
    stride_at: u64,
    zipf: Zipf,
    object_pages: u64,
    chase_next: Vec<u32>,
    chase_at: u32,
    rng: Rng,
}

impl FaultCycles {
    /// Pages per Zipf object.
    pub const OBJECT_PAGES: u64 = 64;

    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64, pages: u64, seg_len: usize) -> Self {
        let objects = (pages / Self::OBJECT_PAGES).max(1) as u32;
        let mut perm: Vec<u32> = (0..pages as u32).collect();
        let mut rng = Rng::new(seed, 0x3100);
        rng.shuffle(&mut perm);
        // One cycle through every page: next(perm[i]) = perm[i + 1].
        let mut chase_next = vec![0u32; pages as usize];
        for i in 0..perm.len() {
            chase_next[perm[i] as usize] = perm[(i + 1) % perm.len()];
        }
        Self {
            pages,
            seg_len,
            scan_at: 0,
            stride_at: 0,
            zipf: Zipf::new(objects, 0.99, &mut Rng::new(seed, 0x3200)),
            object_pages: Self::OBJECT_PAGES.min(pages),
            chase_next,
            chase_at: perm[0],
            rng: Rng::new(seed, 0x3300),
        }
    }

    /// Appends the next cycle (`4 × seg_len` page numbers) to `out`.
    pub fn next_cycle(&mut self, out: &mut Vec<u32>) {
        for seg in Segment::ALL {
            let end = out.len() + self.seg_len;
            match seg {
                Segment::Scan => {
                    while out.len() < end {
                        out.push(self.scan_at as u32);
                        self.scan_at = (self.scan_at + 1) % self.pages;
                    }
                }
                Segment::Stride => {
                    while out.len() < end {
                        out.push(self.stride_at as u32);
                        self.stride_at += 4;
                        if self.stride_at >= self.pages {
                            // Next lane, so all pages are eventually visited.
                            self.stride_at = (self.stride_at + 1) % 4;
                        }
                    }
                }
                Segment::Zipf => {
                    while out.len() < end {
                        let base = u64::from(self.zipf.sample(&mut self.rng)) * self.object_pages;
                        for p in 0..self.object_pages {
                            if out.len() < end {
                                out.push((base + p) as u32);
                            }
                        }
                    }
                }
                Segment::Chase => {
                    while out.len() < end {
                        out.push(self.chase_at);
                        self.chase_at = self.chase_next[self.chase_at as usize];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99, &mut Rng::new(1, 0));
        let mut rng = Rng::new(1, 1);
        let mut hits = vec![0u32; 1000];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        hits.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = hits[..10].iter().sum();
        assert!(top10 > 30_000, "top-10 keys drew {top10} of 100000");
        assert!(hits[999] < hits[0] / 50);
    }

    #[test]
    fn kv_stream_repeats_per_seed_and_differs_across_seeds() {
        let zipfs = |seed| -> Vec<Zipf> {
            (0..3)
                .map(|t| Zipf::new(512, 0.99, &mut Rng::new(seed, t)))
                .collect()
        };
        let a = kv_stream(5, 0, 4096, &zipfs(5), 0.3);
        assert_eq!(a, kv_stream(5, 0, 4096, &zipfs(5), 0.3));
        assert_ne!(a, kv_stream(6, 0, 4096, &zipfs(6), 0.3));
        assert_ne!(a, kv_stream(5, 1, 4096, &zipfs(5), 0.3));
        let puts = a.iter().filter(|o| o.put).count() as f64 / a.len() as f64;
        assert!((puts - 0.3).abs() < 0.03, "put share {puts}");
        assert!(a.iter().all(|o| o.tenant < 3 && o.key < 512));
    }

    #[test]
    fn fault_cycles_have_their_shapes() {
        let mut g = FaultCycles::new(11, 1024, 128);
        let mut c = Vec::new();
        g.next_cycle(&mut c);
        assert_eq!(c.len(), 512);
        assert!(c.iter().all(|&p| p < 1024));
        assert!(c[..128].windows(2).all(|w| w[1] == w[0] + 1), "scan");
        assert!(c[128..256].windows(2).all(|w| w[1] == w[0] + 4), "stride");
        assert!(
            c[256..320].windows(2).all(|w| w[1] == w[0] + 1) && c[256] % 64 == 0,
            "zipf object read front to back"
        );
        let chase = &c[384..];
        let monotone = chase.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(monotone < 4, "chase must not look sequential");
        // The scan resumes where it stopped.
        let mut d = Vec::new();
        g.next_cycle(&mut d);
        assert_eq!(d[0], 128);
    }

    #[test]
    fn fault_cycles_repeat_per_seed_and_differ_across_seeds() {
        let run = |seed| {
            let mut g = FaultCycles::new(seed, 1024, 64);
            let mut c = Vec::new();
            g.next_cycle(&mut c);
            g.next_cycle(&mut c);
            c
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn chase_visits_every_page_once_per_lap() {
        let mut g = FaultCycles::new(3, 256, 256);
        let mut c = Vec::new();
        g.next_cycle(&mut c);
        let mut chase: Vec<u32> = c[768..].to_vec();
        chase.sort_unstable();
        assert_eq!(chase, (0..256).collect::<Vec<_>>());
    }
}
