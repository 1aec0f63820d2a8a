//! The SFM controller: cold-page selection.
//!
//! Production control planes scan for cold pages (Google's kstaled-style
//! scanner classifies a page cold after 120 s without access, which their
//! fleet data says marks ~30% of memory cold at a ~15% promotion rate;
//! paper §2.1/§3.1). This model keeps a resident-set age table and
//! emits swap-out candidates on scan.

use std::collections::BTreeMap;

use xfm_types::{Nanos, PageNumber};

/// Scanner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdScanConfig {
    /// Idle time after which a page is classified cold (default 120 s).
    pub cold_threshold: Nanos,
}

impl Default for ColdScanConfig {
    fn default() -> Self {
        Self {
            cold_threshold: Nanos::from_secs(120),
        }
    }
}

/// The SFM control plane.
///
/// # Examples
///
/// ```
/// use xfm_sfm::{ColdScanConfig, SfmController};
/// use xfm_types::{Nanos, PageNumber};
///
/// let mut ctl = SfmController::new(ColdScanConfig {
///     cold_threshold: Nanos::from_secs(2),
/// });
/// ctl.touch(PageNumber::new(1), Nanos::ZERO);
/// ctl.touch(PageNumber::new(2), Nanos::from_secs(3));
/// // Page 1 has been idle 3 s > 2 s threshold: it is a cold candidate.
/// let cold = ctl.scan(Nanos::from_secs(3));
/// assert_eq!(cold, vec![PageNumber::new(1)]);
/// ```
#[derive(Debug, Clone)]
pub struct SfmController {
    config: ColdScanConfig,
    /// Resident (local-memory) pages and their last access times.
    resident: BTreeMap<u64, Nanos>,
    /// Pages currently in far memory.
    far: BTreeMap<u64, ()>,
}

impl SfmController {
    /// Creates a controller.
    #[must_use]
    pub fn new(config: ColdScanConfig) -> Self {
        Self {
            config,
            resident: BTreeMap::new(),
            far: BTreeMap::new(),
        }
    }

    /// Records an application access to `page` at `now`. Returns `true`
    /// if the page was in far memory (a promotion / swap-in fault).
    pub fn touch(&mut self, page: PageNumber, now: Nanos) -> bool {
        let was_far = self.far.remove(&page.index()).is_some();
        self.resident.insert(page.index(), now);
        was_far
    }

    /// Scans the resident set at `now`, returning every page idle longer
    /// than the cold threshold (oldest first) and moving them to the far
    /// set. The caller must actually `swap_out` each returned page.
    pub fn scan(&mut self, now: Nanos) -> Vec<PageNumber> {
        let threshold = self.config.cold_threshold;
        let mut cold: Vec<(Nanos, u64)> = self
            .resident
            .iter()
            .filter(|(_, &last)| now.saturating_sub(last) >= threshold)
            .map(|(&p, &last)| (last, p))
            .collect();
        cold.sort_unstable();
        let pages: Vec<PageNumber> = cold.iter().map(|&(_, p)| PageNumber::new(p)).collect();
        for p in &pages {
            self.resident.remove(&p.index());
            self.far.insert(p.index(), ());
        }
        pages
    }

    /// Explicitly marks a page promoted out of far memory without an
    /// application access (controller-initiated prefetch).
    pub fn prefetch(&mut self, page: PageNumber, now: Nanos) -> bool {
        let was_far = self.far.remove(&page.index()).is_some();
        if was_far {
            self.resident.insert(page.index(), now);
        }
        was_far
    }

    /// Number of resident pages.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    /// Number of far-memory pages.
    #[must_use]
    pub fn far_pages(&self) -> usize {
        self.far.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(threshold_secs: u64) -> SfmController {
        SfmController::new(ColdScanConfig {
            cold_threshold: Nanos::from_secs(threshold_secs),
        })
    }

    #[test]
    fn recently_touched_pages_stay_resident() {
        let mut c = ctl(120);
        c.touch(PageNumber::new(1), Nanos::from_secs(100));
        assert!(c.scan(Nanos::from_secs(150)).is_empty());
        assert_eq!(c.resident_pages(), 1);
    }

    #[test]
    fn idle_pages_go_cold_oldest_first() {
        let mut c = ctl(10);
        c.touch(PageNumber::new(1), Nanos::from_secs(0));
        c.touch(PageNumber::new(2), Nanos::from_secs(5));
        c.touch(PageNumber::new(3), Nanos::from_secs(14));
        let cold = c.scan(Nanos::from_secs(15));
        assert_eq!(cold, vec![PageNumber::new(1), PageNumber::new(2)]);
        assert_eq!(c.far_pages(), 2);
        assert_eq!(c.resident_pages(), 1);
    }

    #[test]
    fn touch_of_far_page_is_a_promotion() {
        let mut c = ctl(1);
        c.touch(PageNumber::new(1), Nanos::ZERO);
        c.scan(Nanos::from_secs(2));
        assert!(c.touch(PageNumber::new(1), Nanos::from_secs(3)));
        assert_eq!(c.far_pages(), 0);
        assert!(!c.touch(PageNumber::new(1), Nanos::from_secs(4)));
    }

    #[test]
    fn unlimited_scan_batch_returns_every_cold_page() {
        let mut c = ctl(1);
        for p in 0..100 {
            c.touch(PageNumber::new(p), Nanos::from_ms(p));
        }
        let cold = c.scan(Nanos::from_secs(5));
        assert_eq!(cold.len(), 100, "a scan is not rate-limited");
        // Oldest first: ascending last-touch time.
        let expect: Vec<_> = (0..100).map(PageNumber::new).collect();
        assert_eq!(cold, expect);
        assert_eq!(c.resident_pages(), 0);
        assert_eq!(c.far_pages(), 100);
    }

    #[test]
    fn prefetch_promotes_without_fault() {
        let mut c = ctl(1);
        c.touch(PageNumber::new(7), Nanos::ZERO);
        c.scan(Nanos::from_secs(2));
        assert!(c.prefetch(PageNumber::new(7), Nanos::from_secs(3)));
        assert_eq!(c.far_pages(), 0);
        assert!(!c.prefetch(PageNumber::new(7), Nanos::from_secs(4)));
    }
}
