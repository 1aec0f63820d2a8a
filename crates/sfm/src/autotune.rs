//! Online prefetch-knob autotuning.
//!
//! SNIPPETS.md's provenance note on Google's warehouse-scale software
//! -defined far memory reports ~30% efficiency gained by autotuning the
//! control-plane knobs (cold-age threshold, scan cadence) with a
//! fleet-wide optimization loop. This module is a node-local version of
//! that loop over the knobs this stack actually reads — the prefetch
//! depth and confidence threshold: a UCB1 bandit over a discrete grid
//! of [`Knobs`], scored
//! by a live reward from `xfm-telemetry` (negated p99 demand-fault
//! latency plus a busy-time penalty — lower latency and less CPU burn
//! mean higher reward).
//!
//! The tuner is **sticky-safe** against the degrade ladder
//! ([`DegradedMode`]): while the plane is degraded or recovering it
//! freezes — the current arm is pinned and rewards are discarded — so
//! incident-mode measurements (which reflect the incident, not the
//! knobs) can never poison the arm statistics, and the tuner never
//! flaps knobs while the controller is shedding load.

use serde::{Deserialize, Serialize};
use xfm_faults::DegradedMode;
use xfm_telemetry::Registry;

/// One discrete setting of the tunable knobs, applied through
/// [`PrefetchEngine::set_knobs`](crate::PrefetchEngine::set_knobs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Knobs {
    /// Prefetch depth (pages predicted ahead).
    pub prefetch_depth: u32,
    /// Predictor confidence threshold.
    pub confidence_threshold: f64,
}

/// Configuration for [`AutoTuner`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoTuneConfig {
    /// UCB exploration coefficient (`c` in `mean + c·sqrt(2 ln N / n)`).
    pub exploration: f64,
    /// Probability of a uniformly random arm instead of the UCB pick
    /// (escape hatch when reward is nonstationary).
    pub epsilon: f64,
    /// Seed for the deterministic exploration stream.
    pub seed: u64,
}

impl Default for AutoTuneConfig {
    fn default() -> Self {
        Self {
            exploration: 0.5,
            epsilon: 0.05,
            seed: 0xBA2D17,
        }
    }
}

/// A UCB1 bandit over a discrete grid of knob settings.
///
/// Drive it in epochs: run one measurement window under
/// [`AutoTuner::current`]'s knobs, compute a reward (higher = better;
/// [`AutoTuner::reward_from_registry`] is the standard one), feed it to
/// [`AutoTuner::record_reward`], apply the newly selected arm, repeat.
///
/// # Examples
///
/// ```
/// use xfm_sfm::autotune::{AutoTuneConfig, AutoTuner, Knobs};
///
/// let mut tuner = AutoTuner::new(AutoTuner::grid_default(), AutoTuneConfig::default());
/// for _ in 0..32 {
///     let knobs = *tuner.current();
///     // ... run a window under `knobs`, measure ...
///     let reward = -(knobs.prefetch_depth as f64); // toy reward
///     tuner.record_reward(reward);
/// }
/// let (_best_arm, _best_knobs) = tuner.best();
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutoTuner {
    arms: Vec<Knobs>,
    counts: Vec<u64>,
    means: Vec<f64>,
    total_pulls: u64,
    current: usize,
    frozen: bool,
    rng: u64,
    config: AutoTuneConfig,
}

impl AutoTuner {
    /// Creates a tuner over `arms`, starting on arm 0.
    ///
    /// # Panics
    ///
    /// Panics when `arms` is empty.
    #[must_use]
    pub fn new(arms: Vec<Knobs>, config: AutoTuneConfig) -> Self {
        assert!(!arms.is_empty(), "autotuner needs at least one arm");
        let n = arms.len();
        Self {
            arms,
            counts: vec![0; n],
            means: vec![0.0; n],
            total_pulls: 0,
            current: 0,
            frozen: false,
            rng: config.seed | 1,
            config,
        }
    }

    /// The default knob grid: prefetch depth × confidence threshold.
    #[must_use]
    pub fn grid_default() -> Vec<Knobs> {
        let mut arms = Vec::new();
        for &prefetch_depth in &[2u32, 4, 8, 16] {
            for &confidence_threshold in &[0.5f64, 0.6, 0.75] {
                arms.push(Knobs {
                    prefetch_depth,
                    confidence_threshold,
                });
            }
        }
        arms
    }

    /// The knob setting to run the next window under.
    #[must_use]
    pub fn current(&self) -> &Knobs {
        &self.arms[self.current]
    }

    /// Index of the current arm (exported on the
    /// `xfm_prefetch_autotune_arm` gauge).
    #[must_use]
    pub fn current_arm(&self) -> usize {
        self.current
    }

    /// Number of arms in the grid.
    #[must_use]
    pub fn arm_count(&self) -> usize {
        self.arms.len()
    }

    /// Whether the tuner is frozen by the degrade ladder.
    #[must_use]
    pub fn frozen(&self) -> bool {
        self.frozen
    }

    /// Tracks the degrade ladder: any mode other than healthy NMA
    /// operation (including `Recovering`) freezes the tuner — the arm
    /// is pinned and incoming rewards are discarded until recovery.
    pub fn observe_mode(&mut self, mode: DegradedMode) {
        self.frozen = mode != DegradedMode::Nma;
    }

    /// Records the reward measured under the current arm and selects
    /// the next arm. While frozen, the reward is discarded and the arm
    /// stays pinned.
    pub fn record_reward(&mut self, reward: f64) {
        if self.frozen || !reward.is_finite() {
            return;
        }
        let i = self.current;
        self.counts[i] += 1;
        self.total_pulls += 1;
        // Incremental mean.
        self.means[i] += (reward - self.means[i]) / self.counts[i] as f64;
        self.current = self.select_next();
    }

    /// UCB1 with an epsilon-greedy escape: untried arms first (in index
    /// order), then argmax of `mean + c·sqrt(2 ln N / n)`.
    fn select_next(&mut self) -> usize {
        if let Some(untried) = self.counts.iter().position(|&c| c == 0) {
            return untried;
        }
        if self.next_f64() < self.config.epsilon {
            return (self.next_u64() % self.arms.len() as u64) as usize;
        }
        let ln_total = (self.total_pulls as f64).ln();
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for i in 0..self.arms.len() {
            let bonus = self.config.exploration * (2.0 * ln_total / self.counts[i] as f64).sqrt();
            let score = self.means[i] + bonus;
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    /// The best arm by observed mean reward (falls back to the current
    /// arm before any reward has been recorded).
    #[must_use]
    pub fn best(&self) -> (usize, &Knobs) {
        let mut best = self.current;
        let mut best_mean = f64::NEG_INFINITY;
        for i in 0..self.arms.len() {
            if self.counts[i] > 0 && self.means[i] > best_mean {
                best_mean = self.means[i];
                best = i;
            }
        }
        (best, &self.arms[best])
    }

    /// Mean observed reward of `arm` (`None` until it has been pulled).
    #[must_use]
    pub fn arm_mean(&self, arm: usize) -> Option<f64> {
        (self.counts[arm] > 0).then(|| self.means[arm])
    }

    /// Times `arm` has been pulled.
    #[must_use]
    pub fn arm_pulls(&self, arm: usize) -> u64 {
        self.counts[arm]
    }

    /// The standard live reward: negated p99 demand-fault latency plus
    /// a per-fault busy-time penalty, read from the registry's
    /// `xfm_swap_in_latency_ns` histogram and `xfm_shard_busy_ns_total`
    /// counters. Call once per window on a registry that was reset (or
    /// freshly created) for the window.
    #[must_use]
    pub fn reward_from_registry(registry: &Registry) -> f64 {
        let hist = registry.histogram("xfm_swap_in_latency_ns");
        let faults = hist.count().max(1);
        let p99 = hist.quantile(0.99) as f64;
        let snap = registry.snapshot();
        let busy: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("xfm_shard_busy_ns_total"))
            .map(|(_, &v)| v)
            .sum();
        -(p99 + busy as f64 / faults as f64)
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*: deterministic exploration stream.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic synthetic reward: arm quality decays with index.
    fn toy_reward(arm: usize) -> f64 {
        -(arm as f64) * 10.0
    }

    #[test]
    fn converges_to_best_arm() {
        let arms: Vec<Knobs> = (0..6)
            .map(|i| Knobs {
                prefetch_depth: 1 << i,
                confidence_threshold: 0.6,
            })
            .collect();
        let mut t = AutoTuner::new(arms, AutoTuneConfig::default());
        for _ in 0..300 {
            let arm = t.current_arm();
            t.record_reward(toy_reward(arm));
        }
        let (best, _) = t.best();
        assert_eq!(best, 0, "best arm should be arm 0");
        // Within 10% of the best fixed arm: the bandit's average regret
        // must be dominated by the best arm's pull share.
        assert!(
            t.arm_pulls(0) > 150,
            "best arm pulled only {} of 300",
            t.arm_pulls(0)
        );
    }

    #[test]
    fn every_arm_gets_tried_first() {
        let mut t = AutoTuner::new(AutoTuner::grid_default(), AutoTuneConfig::default());
        let n = t.arm_count();
        let mut seen = vec![false; n];
        for _ in 0..n {
            seen[t.current_arm()] = true;
            t.record_reward(0.0);
        }
        assert!(
            seen.iter().all(|&s| s),
            "some arm never pulled in round-robin phase"
        );
    }

    #[test]
    fn freezes_while_degraded() {
        let mut t = AutoTuner::new(AutoTuner::grid_default(), AutoTuneConfig::default());
        t.record_reward(1.0);
        let arm = t.current_arm();
        let pulls: u64 = (0..t.arm_count()).map(|i| t.arm_pulls(i)).sum();
        t.observe_mode(DegradedMode::CpuOnly);
        assert!(t.frozen());
        for _ in 0..10 {
            t.record_reward(-1e9);
        }
        // Arm pinned, rewards discarded.
        assert_eq!(t.current_arm(), arm);
        let pulls_after: u64 = (0..t.arm_count()).map(|i| t.arm_pulls(i)).sum();
        assert_eq!(pulls, pulls_after);
        // Recovering still counts as degraded (sticky-safe).
        t.observe_mode(DegradedMode::Recovering);
        assert!(t.frozen());
        t.observe_mode(DegradedMode::Nma);
        assert!(!t.frozen());
        t.record_reward(0.5);
        let pulls_resumed: u64 = (0..t.arm_count()).map(|i| t.arm_pulls(i)).sum();
        assert_eq!(pulls_resumed, pulls + 1);
    }

    #[test]
    fn same_seed_same_trajectory() {
        let mk = || AutoTuner::new(AutoTuner::grid_default(), AutoTuneConfig::default());
        let (mut a, mut b) = (mk(), mk());
        for step in 0..200 {
            assert_eq!(a.current_arm(), b.current_arm(), "diverged at step {step}");
            let r = toy_reward(a.current_arm());
            a.record_reward(r);
            b.record_reward(r);
        }
    }

    #[test]
    fn non_finite_rewards_ignored() {
        let mut t = AutoTuner::new(AutoTuner::grid_default(), AutoTuneConfig::default());
        t.record_reward(f64::NAN);
        t.record_reward(f64::INFINITY);
        assert_eq!(t.arm_pulls(0), 0);
    }

    #[test]
    fn reward_from_registry_penalizes_latency() {
        let fast = Registry::new();
        let slow = Registry::new();
        for _ in 0..100 {
            fast.histogram("xfm_swap_in_latency_ns").record(500);
            slow.histogram("xfm_swap_in_latency_ns").record(30_000);
        }
        assert!(AutoTuner::reward_from_registry(&fast) > AutoTuner::reward_from_registry(&slow));
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn empty_grid_rejected() {
        let _ = AutoTuner::new(Vec::new(), AutoTuneConfig::default());
    }
}
