//! Fault plans: which sites fire, how often, and in what shape.

use std::collections::BTreeMap;

use xfm_types::{Error, Result};

use crate::site::FaultSite;

/// How one site misbehaves.
///
/// # Examples
///
/// ```
/// use xfm_faults::SiteSpec;
///
/// let spec = SiteSpec::with_probability(0.1).burst(4).max_fires(100);
/// assert_eq!(spec.probability, 0.1);
/// assert_eq!(spec.burst, 4);
/// assert_eq!(spec.max_fires, Some(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSpec {
    /// Per-operation chance of triggering a fault (clamped to `[0, 1]`
    /// at injection time).
    pub probability: f64,
    /// Consecutive operations that fail once a fault triggers (≥ 1);
    /// models correlated failures like a stuck engine or a queue that
    /// stays full for a while.
    pub burst: u32,
    /// Total fires after which the site goes permanently quiet.
    pub max_fires: Option<u64>,
    /// Operations at the site to let through before arming (schedule
    /// faults past warm-up).
    pub after_op: u64,
}

impl Default for SiteSpec {
    fn default() -> Self {
        Self {
            probability: 0.0,
            burst: 1,
            max_fires: None,
            after_op: 0,
        }
    }
}

impl SiteSpec {
    /// A spec firing independently with probability `p` per operation.
    #[must_use]
    pub fn with_probability(p: f64) -> Self {
        Self {
            probability: p,
            ..Self::default()
        }
    }

    /// Sets the burst length (clamped to at least 1).
    #[must_use]
    pub fn burst(mut self, burst: u32) -> Self {
        self.burst = burst.max(1);
        self
    }

    /// Caps the total number of fires.
    #[must_use]
    pub fn max_fires(mut self, max: u64) -> Self {
        self.max_fires = Some(max);
        self
    }

    /// Arms the site only after `n` operations have passed.
    #[must_use]
    pub fn after_op(mut self, n: u64) -> Self {
        self.after_op = n;
        self
    }
}

/// A complete, seedable description of what goes wrong and when.
///
/// A plan is inert data; hand it to
/// [`FaultInjector::new`](crate::FaultInjector::new) to arm it. The
/// same plan (same seed, same specs) always produces the same fault
/// sequence for the same operation stream.
///
/// # Examples
///
/// Building from code and from the CLI string format
/// (`site:prob[:burst[:max_fires[:after_op]]]`, comma-separated):
///
/// ```
/// use xfm_faults::{FaultPlan, FaultSite, SiteSpec};
///
/// let a = FaultPlan::new(42)
///     .with_site(FaultSite::QueueFull, SiteSpec::with_probability(0.2))
///     .with_site(
///         FaultSite::BitCorruption,
///         SiteSpec::with_probability(0.05).burst(2).max_fires(10),
///     );
/// let b = FaultPlan::parse(42, "queue_full:0.2,bit_corruption:0.05:2:10")?;
/// assert_eq!(a, b);
/// assert!(!a.is_empty());
/// assert!(FaultPlan::default().is_empty());
/// # Ok::<(), xfm_types::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Master seed; each site derives its own independent stream.
    pub seed: u64,
    sites: BTreeMap<FaultSite, SiteSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            sites: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a site spec.
    #[must_use]
    pub fn with_site(mut self, site: FaultSite, spec: SiteSpec) -> Self {
        self.sites.insert(site, spec);
        self
    }

    /// The spec for `site`, if armed.
    #[must_use]
    pub fn site(&self, site: FaultSite) -> Option<&SiteSpec> {
        self.sites.get(&site)
    }

    /// Iterates over the armed sites.
    pub fn sites(&self) -> impl Iterator<Item = (FaultSite, &SiteSpec)> {
        self.sites.iter().map(|(&s, spec)| (s, spec))
    }

    /// Whether the plan can ever fire: no armed sites, or every armed
    /// site has zero probability.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sites.values().all(|s| s.probability <= 0.0)
    }

    /// Parses the CLI plan format: a comma-separated list of
    /// `site:prob[:burst[:max_fires[:after_op]]]` clauses. An empty
    /// string yields an empty plan.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on an unknown site name or an
    /// unparsable number.
    pub fn parse(seed: u64, s: &str) -> Result<Self> {
        let mut plan = Self::new(seed);
        for clause in s.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let mut parts = clause.split(':').map(str::trim);
            let name = parts.next().unwrap_or_default();
            let site = FaultSite::parse(name)
                .ok_or_else(|| Error::InvalidConfig(format!("unknown fault site `{name}`")))?;
            let prob: f64 = parts
                .next()
                .ok_or_else(|| {
                    Error::InvalidConfig(format!("fault site `{name}` missing probability"))
                })?
                .parse()
                .map_err(|_| {
                    Error::InvalidConfig(format!("bad probability in fault clause `{clause}`"))
                })?;
            let mut spec = SiteSpec::with_probability(prob);
            if let Some(burst) = parts.next() {
                spec = spec.burst(burst.parse().map_err(|_| {
                    Error::InvalidConfig(format!("bad burst in fault clause `{clause}`"))
                })?);
            }
            if let Some(max) = parts.next() {
                spec = spec.max_fires(max.parse().map_err(|_| {
                    Error::InvalidConfig(format!("bad max_fires in fault clause `{clause}`"))
                })?);
            }
            if let Some(after) = parts.next() {
                spec = spec.after_op(after.parse().map_err(|_| {
                    Error::InvalidConfig(format!("bad after_op in fault clause `{clause}`"))
                })?);
            }
            plan.sites.insert(site, spec);
        }
        Ok(plan)
    }

    /// Builds a plan from the environment: `XFM_FAULT_PLAN` holds the
    /// [`FaultPlan::parse`] string, `XFM_FAULT_SEED` the seed (default
    /// 0). Returns `Ok(None)` when `XFM_FAULT_PLAN` is unset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when either variable is set but
    /// malformed.
    pub fn from_env() -> Result<Option<Self>> {
        let Ok(spec) = std::env::var("XFM_FAULT_PLAN") else {
            return Ok(None);
        };
        let seed = match std::env::var("XFM_FAULT_SEED") {
            Ok(s) => s
                .parse()
                .map_err(|_| Error::InvalidConfig(format!("bad XFM_FAULT_SEED `{s}`")))?,
            Err(_) => 0,
        };
        Self::parse(seed, &spec).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_unknown_sites_and_bad_numbers() {
        assert!(FaultPlan::parse(0, "nope:0.5").is_err());
        assert!(FaultPlan::parse(0, "queue_full").is_err());
        assert!(FaultPlan::parse(0, "queue_full:x").is_err());
        assert!(FaultPlan::parse(0, "queue_full:0.5:x").is_err());
    }

    #[test]
    fn parse_accepts_all_fields_and_whitespace() {
        let plan = FaultPlan::parse(7, " engine_timeout : 0.25 : 3 : 50 : 10 ,").unwrap();
        let spec = plan.site(FaultSite::NmaEngineTimeout).unwrap();
        assert_eq!(spec.probability, 0.25);
        assert_eq!(spec.burst, 3);
        assert_eq!(spec.max_fires, Some(50));
        assert_eq!(spec.after_op, 10);
        assert_eq!(plan.seed, 7);
    }

    #[test]
    fn empty_means_never_fires() {
        assert!(FaultPlan::parse(0, "").unwrap().is_empty());
        assert!(FaultPlan::new(9)
            .with_site(FaultSite::QueueFull, SiteSpec::with_probability(0.0))
            .is_empty());
        assert!(!FaultPlan::new(0)
            .with_site(FaultSite::QueueFull, SiteSpec::with_probability(0.1))
            .is_empty());
    }
}
