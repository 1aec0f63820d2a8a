//! Synthetic swap-trace generation.
//!
//! The paper's emulator replays swap-in/out traces "generated using the
//! AIFM userspace far memory framework when running a synthetic web
//! front-end application" (§7). This module substitutes an equivalent
//! generator: a Zipfian object-popularity stream over a paged working
//! set, with a bounded local-memory budget. Accesses to non-resident
//! pages produce [`SwapKind::In`] events; the displaced coldest resident
//! page produces a matching [`SwapKind::Out`] — in the steady state the
//! two rates are equal, exactly as §3.2 argues they must be.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xfm_types::{Nanos, PageNumber};

/// Direction of a swap event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwapKind {
    /// Page promoted into local memory (decompress).
    In,
    /// Page demoted to far memory (compress).
    Out,
}

/// One record in a swap trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapEvent {
    /// Event time.
    pub at: Nanos,
    /// Swap direction.
    pub kind: SwapKind,
    /// Page involved.
    pub page: PageNumber,
    /// `true` when the far-memory controller predicted this access
    /// (prefetchable swap-ins may be offloaded to the NMA; demand faults
    /// default to the CPU — paper §6 `do_offload`).
    pub prefetchable: bool,
}

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Total distinct pages the application touches.
    pub working_set_pages: u64,
    /// Pages that fit in local memory (the rest live in the SFM).
    pub local_pages: u64,
    /// Zipf skew parameter (0 = uniform; web workloads ≈ 0.8–1.1).
    pub zipf_s: f64,
    /// Mean page accesses per second.
    pub accesses_per_sec: f64,
    /// Probability that a swap-in was predicted by the controller.
    pub prefetch_accuracy: f64,
    /// Trace duration.
    pub duration: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    /// A web-frontend-like default: 64 Ki pages (256 MiB), half local,
    /// s = 0.9, 10 k accesses/s, 70% prefetch accuracy, 10 s.
    fn default() -> Self {
        Self {
            working_set_pages: 64 * 1024,
            local_pages: 32 * 1024,
            zipf_s: 0.9,
            accesses_per_sec: 10_000.0,
            prefetch_accuracy: 0.7,
            duration: Nanos::from_secs(10),
            seed: 0xfa12_3456,
        }
    }
}

/// Zipfian swap-trace generator.
///
/// # Examples
///
/// ```
/// use xfm_sfm::{SwapKind, TraceConfig, TraceGenerator};
///
/// let trace = TraceGenerator::new(TraceConfig {
///     working_set_pages: 1024,
///     local_pages: 512,
///     duration: xfm_types::Nanos::from_secs(1),
///     ..TraceConfig::default()
/// })
/// .generate();
/// let ins = trace.iter().filter(|e| e.kind == SwapKind::In).count();
/// let outs = trace.iter().filter(|e| e.kind == SwapKind::Out).count();
/// // Steady state: every promotion displaces a page.
/// assert!(ins.abs_diff(outs) <= 1);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: TraceConfig,
    /// Zipf CDF over page ranks.
    cdf: Vec<f64>,
}

impl TraceGenerator {
    /// Builds a generator (precomputes the Zipf CDF).
    ///
    /// # Panics
    ///
    /// Panics if `working_set_pages` is zero or `local_pages` exceeds it.
    #[must_use]
    pub fn new(config: TraceConfig) -> Self {
        assert!(
            config.working_set_pages > 0,
            "working set must be non-empty"
        );
        assert!(
            config.local_pages <= config.working_set_pages,
            "local memory cannot exceed the working set"
        );
        let n = config.working_set_pages as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(config.zipf_s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { config, cdf }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    fn sample_page(&self, rng: &mut StdRng) -> PageNumber {
        let u: f64 = rng.gen();
        let idx = self.cdf.partition_point(|&c| c < u);
        PageNumber::new(idx.min(self.cdf.len() - 1) as u64)
    }

    /// Generates the full event trace, sorted by time.
    #[must_use]
    pub fn generate(&self) -> Vec<SwapEvent> {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut events = Vec::new();

        // Resident set as a clock: page -> last access tick. Hot pages
        // (low ranks) start resident. BTreeMap keeps victim selection
        // deterministic (ties break toward the lowest page number).
        let mut resident: std::collections::BTreeMap<u64, u64> =
            (0..cfg.local_pages).map(|p| (p, 0)).collect();
        let mut tick = 0u64;

        let mean_gap = Nanos::from_ps((1e12 / cfg.accesses_per_sec) as u64);
        let mut now = Nanos::ZERO;
        while now < cfg.duration {
            // Exponential-ish interarrival (geometric over ps).
            let gap = Nanos::from_ps(
                (mean_gap.as_ps() as f64 * -f64::ln(1.0 - rng.gen::<f64>())).round() as u64,
            )
            .max(Nanos::from_ps(1));
            now += gap;
            if now >= cfg.duration {
                break;
            }
            tick += 1;
            let page = self.sample_page(&mut rng);
            if let std::collections::btree_map::Entry::Occupied(mut e) =
                resident.entry(page.index())
            {
                *e.get_mut() = tick;
                continue; // local hit: no swap traffic
            }
            // Miss: swap the page in, evict the coldest resident page.
            events.push(SwapEvent {
                at: now,
                kind: SwapKind::In,
                page,
                prefetchable: rng.gen_bool(cfg.prefetch_accuracy),
            });
            if resident.len() as u64 >= cfg.local_pages {
                let (&victim, _) = resident
                    .iter()
                    .min_by_key(|&(&p, &t)| (t, p))
                    .expect("resident set non-empty");
                resident.remove(&victim);
                events.push(SwapEvent {
                    at: now,
                    kind: SwapKind::Out,
                    page: PageNumber::new(victim),
                    // Demotions are always controller-scheduled.
                    prefetchable: true,
                });
            }
            resident.insert(page.index(), tick);
        }
        events
    }

    /// Realized promotion rate of a trace: swapped-in bytes per minute
    /// over the far-memory capacity implied by the config.
    #[must_use]
    pub fn promotion_rate(&self, trace: &[SwapEvent]) -> f64 {
        let far_pages = self.config.working_set_pages - self.config.local_pages;
        if far_pages == 0 || self.config.duration.is_zero() {
            return 0.0;
        }
        let ins = trace.iter().filter(|e| e.kind == SwapKind::In).count() as f64;
        let minutes = self.config.duration.as_secs_f64() / 60.0;
        ins / minutes / far_pages as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> TraceConfig {
        TraceConfig {
            working_set_pages: 2048,
            local_pages: 1024,
            accesses_per_sec: 20_000.0,
            duration: Nanos::from_secs(2),
            ..TraceConfig::default()
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let a = TraceGenerator::new(small_config()).generate();
        let b = TraceGenerator::new(small_config()).generate();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn events_are_time_ordered() {
        let trace = TraceGenerator::new(small_config()).generate();
        for w in trace.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn steady_state_balances_ins_and_outs() {
        let trace = TraceGenerator::new(small_config()).generate();
        let ins = trace.iter().filter(|e| e.kind == SwapKind::In).count();
        let outs = trace.iter().filter(|e| e.kind == SwapKind::Out).count();
        assert!(ins.abs_diff(outs) <= 1, "ins {ins} outs {outs}");
    }

    #[test]
    fn zipf_skew_reduces_traffic() {
        // More skew -> more hits on the resident hot set -> fewer swaps.
        let skewed = TraceGenerator::new(TraceConfig {
            zipf_s: 1.2,
            ..small_config()
        })
        .generate();
        let uniform = TraceGenerator::new(TraceConfig {
            zipf_s: 0.0,
            ..small_config()
        })
        .generate();
        assert!(
            skewed.len() < uniform.len(),
            "skewed {} uniform {}",
            skewed.len(),
            uniform.len()
        );
    }

    #[test]
    fn prefetch_accuracy_respected_approximately() {
        let trace = TraceGenerator::new(TraceConfig {
            prefetch_accuracy: 1.0,
            ..small_config()
        })
        .generate();
        assert!(trace
            .iter()
            .filter(|e| e.kind == SwapKind::In)
            .all(|e| e.prefetchable));

        let trace = TraceGenerator::new(TraceConfig {
            prefetch_accuracy: 0.0,
            ..small_config()
        })
        .generate();
        assert!(trace
            .iter()
            .filter(|e| e.kind == SwapKind::In)
            .all(|e| !e.prefetchable));
    }

    #[test]
    fn promotion_rate_positive_for_thrashing_workload() {
        let gen = TraceGenerator::new(small_config());
        let trace = gen.generate();
        let pr = gen.promotion_rate(&trace);
        assert!(pr > 0.0, "promotion rate {pr}");
    }

    #[test]
    #[should_panic(expected = "local memory cannot exceed")]
    fn oversized_local_memory_rejected() {
        let _ = TraceGenerator::new(TraceConfig {
            working_set_pages: 10,
            local_pages: 20,
            ..TraceConfig::default()
        });
    }

    #[test]
    fn pages_in_events_are_within_working_set() {
        let cfg = small_config();
        let trace = TraceGenerator::new(cfg).generate();
        assert!(trace.iter().all(|e| e.page.index() < cfg.working_set_pages));
    }
}
