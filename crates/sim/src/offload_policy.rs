//! The swap-in offload decision (paper §3.2).
//!
//! Offloading *decompression* to memory is not always a win. The paper
//! gives two conditions under which it is not beneficial:
//!
//! 1. the near-memory decompression latency exceeds the on-CPU latency
//!    (a power-constrained NMA can be slower than a big core);
//! 2. the extra bytes read due to **I/O amplification** are fewer than
//!    the bytes the application actually uses after decompression — the
//!    CPU path keeps the decompressed page in cache, so if the
//!    application consumes it promptly there was no DRAM round-trip to
//!    save.
//!
//! The I/O amplification ratio is "the ratio of compressed bytes
//! accessed over the memory channel to the total number of decompressed
//! bytes used by the application", a function of the application's
//! use-distance and LLC contention: with a long use-distance or a
//! contended LLC, a CPU-decompressed page is written back to DRAM before
//! the application touches it, so the CPU path pays the DRAM traffic
//! anyway — and the NMA path wins.
//!
//! The SFM controller consults [`should_offload_decompress`] when it
//! sets the `do_offload` parameter of `xfm_swap_out()` (the paper's
//! swap-in API).

use xfm_types::{Nanos, PAGE_SIZE};

/// Inputs to the swap-in placement decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapInContext {
    /// Compressed size of the page.
    pub compressed_len: u32,
    /// Expected bytes of the page the application will read before the
    /// page would be evicted (use-locality).
    pub bytes_used_promptly: u32,
    /// Probability the decompressed page is evicted from the LLC before
    /// use (driven by use-distance and cache contention).
    pub eviction_probability: f64,
    /// Is this a prefetch (latency-insensitive) or a demand fault?
    pub is_prefetch: bool,
}

/// Latency characteristics of the two decompression paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLatencies {
    /// On-CPU decompression latency for one page.
    pub cpu: Nanos,
    /// Near-memory decompression latency (window-scheduled; for demand
    /// faults this is the worst-case wait for service).
    pub nma: Nanos,
}

impl Default for PathLatencies {
    /// CPU at the paper's zstd-class speed (~3 µs/page at 1.4 GB/s
    /// effective) vs the NMA's 2 × tREFI minimum (7.8 µs).
    fn default() -> Self {
        Self {
            cpu: Nanos::from_us(3),
            nma: Nanos::from_us(8),
        }
    }
}

/// The I/O amplification ratio of the *CPU* path for this access:
/// DRAM bytes moved per byte the application uses.
///
/// On the CPU path, the compressed page crosses the channel once
/// (`compressed_len`); if the decompressed page is evicted before use
/// (probability `eviction_probability`), the full page crosses twice
/// more (write-back + re-read).
///
/// # Examples
///
/// ```
/// use xfm_sim::offload_policy::{io_amplification, SwapInContext};
///
/// let ctx = SwapInContext {
///     compressed_len: 2048,
///     bytes_used_promptly: 4096,
///     eviction_probability: 0.0,
///     is_prefetch: false,
/// };
/// // Prompt full-page use: only the compressed read is amplified.
/// assert!((io_amplification(&ctx) - 0.5).abs() < 1e-9);
/// ```
#[must_use]
pub fn io_amplification(ctx: &SwapInContext) -> f64 {
    let used = f64::from(ctx.bytes_used_promptly.max(1));
    let compressed = f64::from(ctx.compressed_len);
    let eviction_round_trip = ctx.eviction_probability * 2.0 * PAGE_SIZE as f64;
    (compressed + eviction_round_trip) / used
}

/// Decides whether the controller should assert `do_offload` for this
/// swap-in (paper §3.2's two conditions, plus the demand-fault default).
///
/// Offload when **both** hold:
/// - the access tolerates the NMA latency (it is a prefetch, or the NMA
///   is actually faster than the CPU path);
/// - the CPU path's I/O amplification exceeds 1.0 — the channel would
///   move more bytes than the application uses, so near-memory
///   placement saves traffic.
#[must_use]
pub fn should_offload_decompress(ctx: &SwapInContext, lat: &PathLatencies) -> bool {
    let latency_ok = ctx.is_prefetch || lat.nma <= lat.cpu;
    let traffic_wins = io_amplification(ctx) > 1.0;
    latency_ok && traffic_wins
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> SwapInContext {
        SwapInContext {
            compressed_len: 2048,
            bytes_used_promptly: 4096,
            eviction_probability: 0.0,
            is_prefetch: true,
        }
    }

    #[test]
    fn prompt_full_use_prefers_cpu() {
        // The application uses the whole page immediately: the CPU path
        // moves only the compressed bytes (amplification 0.5 < 1).
        assert!(!should_offload_decompress(
            &ctx(),
            &PathLatencies::default()
        ));
    }

    #[test]
    fn long_use_distance_prefers_nma() {
        // Contended LLC: the decompressed page bounces to DRAM first.
        let c = SwapInContext {
            eviction_probability: 0.9,
            ..ctx()
        };
        assert!(io_amplification(&c) > 1.0);
        assert!(should_offload_decompress(&c, &PathLatencies::default()));
    }

    #[test]
    fn sparse_use_prefers_nma() {
        // Only 256 B of the page are ever read: amplification 8x.
        let c = SwapInContext {
            bytes_used_promptly: 256,
            ..ctx()
        };
        assert!(io_amplification(&c) > 1.0);
        assert!(should_offload_decompress(&c, &PathLatencies::default()));
    }

    #[test]
    fn demand_faults_fall_back_when_nma_is_slower() {
        // §6: CPU_Fallback is the swap-in default because "applications
        // may be sensitive to the decompression latencies incurred by
        // XFM's datapath".
        let c = SwapInContext {
            is_prefetch: false,
            eviction_probability: 0.9,
            ..ctx()
        };
        assert!(!should_offload_decompress(&c, &PathLatencies::default()));
        // ...but a fast NMA flips the decision.
        let fast_nma = PathLatencies {
            cpu: Nanos::from_us(3),
            nma: Nanos::from_us(1),
        };
        assert!(should_offload_decompress(&c, &fast_nma));
    }

    #[test]
    fn amplification_monotone_in_eviction_probability() {
        let mut prev = 0.0;
        for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let a = io_amplification(&SwapInContext {
                eviction_probability: p,
                ..ctx()
            });
            assert!(a >= prev);
            prev = a;
        }
    }

    #[test]
    fn zero_used_bytes_does_not_divide_by_zero() {
        let a = io_amplification(&SwapInContext {
            bytes_used_promptly: 0,
            ..ctx()
        });
        assert!(a.is_finite() && a > 1.0);
    }
}
