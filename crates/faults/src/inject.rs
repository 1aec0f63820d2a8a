//! The armed injector consulted by swap-path hooks.

use parking_lot::Mutex;
use std::sync::Arc;

use xfm_telemetry::{Counter, Registry};

use crate::plan::{FaultPlan, SiteSpec};
use crate::prng::SplitMix64;
use crate::site::FaultSite;

/// An armed [`FaultPlan`]: per-site PRNG streams, operation counters,
/// and burst state, shared across the stack behind an `Arc`.
///
/// Hook sites hold an `Option<Arc<FaultInjector>>` and consult it with
/// a single branch; a `None` injector costs one pointer test and an
/// armed-but-quiet site one short mutex acquisition. Each site draws
/// from its own independent SplitMix64 stream (seeded from the plan
/// seed and the site index), so the fault sequence at one site does not
/// depend on how often other sites are consulted — a requirement for
/// replay determinism when components are exercised in different
/// orders.
///
/// # Examples
///
/// ```
/// use xfm_faults::{FaultInjector, FaultPlan, FaultSite, SiteSpec};
///
/// let plan = FaultPlan::new(42)
///     .with_site(FaultSite::QueueFull, SiteSpec::with_probability(1.0).max_fires(2));
/// let inj = FaultInjector::new(&plan);
/// assert!(inj.should_fire(FaultSite::QueueFull));
/// assert!(inj.should_fire(FaultSite::QueueFull));
/// assert!(!inj.should_fire(FaultSite::QueueFull)); // max_fires reached
/// assert!(!inj.should_fire(FaultSite::BitCorruption)); // unarmed
/// assert_eq!(inj.fires(FaultSite::QueueFull), 2);
/// ```
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    sites: Vec<Option<Mutex<SiteState>>>,
    counters: Vec<Option<Arc<Counter>>>,
}

#[derive(Debug)]
struct SiteState {
    spec: SiteSpec,
    prng: SplitMix64,
    ops: u64,
    fires: u64,
    burst_left: u32,
}

impl SiteState {
    fn fire(&mut self) -> Option<u64> {
        self.ops += 1;
        if self.ops <= self.spec.after_op {
            return None;
        }
        if let Some(max) = self.spec.max_fires {
            if self.fires >= max {
                return None;
            }
        }
        let fire = if self.burst_left > 0 {
            self.burst_left -= 1;
            true
        } else if self.prng.next_f64() < self.spec.probability.clamp(0.0, 1.0) {
            self.burst_left = self.spec.burst.saturating_sub(1);
            true
        } else {
            false
        };
        if fire {
            self.fires += 1;
            Some(self.prng.next_u64())
        } else {
            None
        }
    }
}

impl FaultInjector {
    /// Arms a plan.
    #[must_use]
    pub fn new(plan: &FaultPlan) -> Self {
        let mut sites: Vec<Option<Mutex<SiteState>>> =
            FaultSite::ALL.iter().map(|_| None).collect();
        for (site, spec) in plan.sites() {
            sites[site.index()] = Some(Mutex::new(SiteState {
                spec: *spec,
                // Offset the site stream by a large odd constant per
                // index so sites never share a stream even at seed 0.
                prng: SplitMix64::new(
                    plan.seed ^ (site.index() as u64).wrapping_mul(0xA076_1D64_78BD_642F),
                ),
                ops: 0,
                fires: 0,
                burst_left: 0,
            }));
        }
        Self {
            seed: plan.seed,
            sites,
            counters: FaultSite::ALL.iter().map(|_| None).collect(),
        }
    }

    /// The plan seed this injector was armed with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Registers per-site `xfm_fault_injected_total{site="..."}`
    /// counters. Call before sharing the injector (`&mut self` keeps
    /// attachment race-free by construction).
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        for site in FaultSite::ALL {
            self.counters[site.index()] = Some(registry.counter(&format!(
                "xfm_fault_injected_total{{site=\"{}\"}}",
                site.name()
            )));
        }
    }

    /// Consults `site`: counts the operation and reports whether the
    /// hook should inject a fault now.
    pub fn should_fire(&self, site: FaultSite) -> bool {
        self.fire_value(site).is_some()
    }

    /// Like [`FaultInjector::should_fire`], but on a fire also yields a
    /// deterministic random value hooks can use to shape the fault
    /// (e.g. which bit to flip).
    pub fn fire_value(&self, site: FaultSite) -> Option<u64> {
        let state = self.sites[site.index()].as_ref()?;
        let fired = state.lock().fire();
        if fired.is_some() {
            if let Some(c) = &self.counters[site.index()] {
                c.inc();
            }
        }
        fired
    }

    /// Total fires at `site` so far.
    #[must_use]
    pub fn fires(&self, site: FaultSite) -> u64 {
        self.sites[site.index()]
            .as_ref()
            .map_or(0, |s| s.lock().fires)
    }

    /// Total operations observed at `site` so far.
    #[must_use]
    pub fn ops(&self, site: FaultSite) -> u64 {
        self.sites[site.index()]
            .as_ref()
            .map_or(0, |s| s.lock().ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SiteSpec;

    fn armed(spec: SiteSpec) -> FaultInjector {
        FaultInjector::new(&FaultPlan::new(99).with_site(FaultSite::QueueFull, spec))
    }

    #[test]
    fn probability_zero_never_fires() {
        let inj = armed(SiteSpec::with_probability(0.0));
        for _ in 0..1000 {
            assert!(!inj.should_fire(FaultSite::QueueFull));
        }
        assert_eq!(inj.ops(FaultSite::QueueFull), 1000);
        assert_eq!(inj.fires(FaultSite::QueueFull), 0);
    }

    #[test]
    fn probability_one_always_fires() {
        let inj = armed(SiteSpec::with_probability(1.0));
        for _ in 0..100 {
            assert!(inj.should_fire(FaultSite::QueueFull));
        }
    }

    #[test]
    fn fire_rate_tracks_probability() {
        let inj = armed(SiteSpec::with_probability(0.3));
        let fires = (0..10_000)
            .filter(|_| inj.should_fire(FaultSite::QueueFull))
            .count();
        assert!((2_500..3_500).contains(&fires), "{fires}");
    }

    #[test]
    fn bursts_fire_consecutively() {
        let inj = armed(SiteSpec::with_probability(0.05).burst(4));
        let mut run = 0u32;
        let mut runs = Vec::new();
        for _ in 0..10_000 {
            if inj.should_fire(FaultSite::QueueFull) {
                run += 1;
            } else if run > 0 {
                runs.push(run);
                run = 0;
            }
        }
        assert!(!runs.is_empty());
        // Every completed run is at least the burst length (back-to-back
        // triggers can chain runs longer).
        assert!(runs.iter().all(|&r| r >= 4), "{runs:?}");
    }

    #[test]
    fn after_op_delays_arming() {
        let inj = armed(SiteSpec::with_probability(1.0).after_op(10));
        for _ in 0..10 {
            assert!(!inj.should_fire(FaultSite::QueueFull));
        }
        assert!(inj.should_fire(FaultSite::QueueFull));
    }

    #[test]
    fn replay_is_deterministic() {
        let plan = FaultPlan::new(5)
            .with_site(
                FaultSite::QueueFull,
                SiteSpec::with_probability(0.4).burst(2),
            )
            .with_site(FaultSite::BitCorruption, SiteSpec::with_probability(0.2));
        let a = FaultInjector::new(&plan);
        let b = FaultInjector::new(&plan);
        for i in 0..5_000u32 {
            let site = if i % 3 == 0 {
                FaultSite::BitCorruption
            } else {
                FaultSite::QueueFull
            };
            assert_eq!(a.fire_value(site), b.fire_value(site), "op {i}");
        }
    }

    #[test]
    fn sites_have_independent_streams() {
        // Consulting one site must not perturb another's sequence.
        let plan = FaultPlan::new(11)
            .with_site(FaultSite::QueueFull, SiteSpec::with_probability(0.5))
            .with_site(FaultSite::SpmExhaustion, SiteSpec::with_probability(0.5));
        let a = FaultInjector::new(&plan);
        let b = FaultInjector::new(&plan);
        // `a` interleaves heavy SpmExhaustion traffic; `b` does not.
        let seq_a: Vec<bool> = (0..200)
            .map(|_| {
                a.should_fire(FaultSite::SpmExhaustion);
                a.should_fire(FaultSite::QueueFull)
            })
            .collect();
        let seq_b: Vec<bool> = (0..200)
            .map(|_| b.should_fire(FaultSite::QueueFull))
            .collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn telemetry_counts_fires_per_site() {
        let registry = Registry::new();
        let plan =
            FaultPlan::new(3).with_site(FaultSite::QueueFull, SiteSpec::with_probability(1.0));
        let mut inj = FaultInjector::new(&plan);
        inj.attach_telemetry(&registry);
        for _ in 0..7 {
            inj.should_fire(FaultSite::QueueFull);
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters["xfm_fault_injected_total{site=\"queue_full\"}"],
            7
        );
        assert_eq!(
            snap.counters["xfm_fault_injected_total{site=\"bit_corruption\"}"],
            0
        );
    }
}
