//! Far-memory access prediction.
//!
//! The paper's conclusion notes that "the benefits of XFM can be
//! increased by improving the far memory controller's proficiency at
//! predicting application memory access patterns": a predicted swap-in
//! can be issued as a *prefetch* (`do_offload = true`) and ride the
//! refresh side channel, while an unpredicted one stalls the
//! application on the CPU path.
//!
//! [`StridePredictor`] is the predictor of the stack: a region-tagged
//! stride heuristic that detects constant-stride fault streams per
//! 256 KiB region. The prefetch engine owns one by value, and the
//! Fig. 12 predictor study in `xfm-sim` runs the same type.
//! [`PredictorStats`] tracks realized accuracy — the knob that study
//! sweeps.

use std::collections::BTreeMap;

use xfm_types::PageNumber;

/// Accuracy bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredictorStats {
    /// Faults observed.
    pub observed: u64,
    /// Faults that had been predicted beforehand (prefetch hits).
    pub hits: u64,
    /// Predictions issued.
    pub predictions: u64,
}

impl PredictorStats {
    /// Fraction of faults that were predicted (the `prefetch_accuracy`
    /// the Fig. 12 model consumes).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            self.hits as f64 / self.observed as f64
        }
    }

    /// Fraction of predictions that were eventually used.
    #[must_use]
    pub fn precision(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.hits as f64 / self.predictions as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StreamEntry {
    last_page: u64,
    stride: i64,
    confidence: u8,
    /// Logical tick of the last observation (LRU eviction key).
    last_used: u64,
}

/// A region-tagged stride predictor.
///
/// # Examples
///
/// ```
/// use xfm_sfm::predictor::StridePredictor;
/// use xfm_types::PageNumber;
///
/// let mut p = StridePredictor::new(4);
/// let mut predicted = Vec::new();
/// for page in [100u64, 101, 102, 103, 104] {
///     predicted.extend(p.observe(PageNumber::new(page)));
/// }
/// // A confident +1 stride predicts the next pages.
/// assert!(predicted.contains(&PageNumber::new(105)));
/// assert!(p.stats().accuracy() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct StridePredictor {
    /// Pages predicted per confident stream observation (prefetch depth).
    depth: u32,
    /// Region (page >> REGION_SHIFT) -> stream state. Bounded to
    /// `MAX_REGIONS` by LRU eviction.
    streams: BTreeMap<u64, StreamEntry>,
    /// Outstanding predictions awaiting confirmation: page -> the value
    /// of `stats.predictions` when it was made (its insertion order).
    outstanding: BTreeMap<u64, u64>,
    /// The same set keyed by insertion order, so the oldest prediction
    /// is the one forgotten when the set is full.
    by_age: BTreeMap<u64, u64>,
    /// Logical observation counter driving LRU eviction.
    tick: u64,
    stats: PredictorStats,
}

/// Pages per tracked region (64 pages = 256 KiB regions).
const REGION_SHIFT: u32 = 6;
/// Confidence needed before predictions are issued.
const CONFIDENT: u8 = 2;
/// Bound on the outstanding-prediction set (models prefetch buffers).
/// A full set forgets its oldest prediction: one the pump dropped is
/// confirmed only if that exact page faults, and refusing the newest
/// instead would silence the predictor for good.
const MAX_OUTSTANDING: usize = 4096;

impl StridePredictor {
    /// Bound on tracked regions: a randomized fault stream previously
    /// grew the per-region map without limit; beyond this many regions
    /// the least-recently-observed stream is evicted.
    const MAX_REGIONS: usize = 1024;

    /// Creates a predictor that prefetches `depth` pages ahead.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn new(depth: u32) -> Self {
        assert!(depth > 0, "prefetch depth must be non-zero");
        Self {
            depth,
            streams: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            by_age: BTreeMap::new(),
            tick: 0,
            stats: PredictorStats::default(),
        }
    }

    /// Observes a far-memory fault and returns the pages to prefetch.
    ///
    /// If the fault itself had been predicted, it counts as a hit (the
    /// controller would have prefetched it — `do_offload` path).
    pub fn observe(&mut self, page: PageNumber) -> Vec<PageNumber> {
        self.stats.observed += 1;
        self.tick += 1;
        if let Some(age) = self.outstanding.remove(&page.index()) {
            self.by_age.remove(&age);
            self.stats.hits += 1;
        }

        let region = page.index() >> REGION_SHIFT;
        if !self.streams.contains_key(&region) && self.streams.len() >= Self::MAX_REGIONS {
            // LRU eviction: drop the stream observed longest ago.
            if let Some(&lru) = self
                .streams
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(r, _)| r)
            {
                self.streams.remove(&lru);
            }
        }
        let tick = self.tick;
        let entry = self.streams.entry(region).or_insert(StreamEntry {
            last_page: page.index(),
            stride: 0,
            confidence: 0,
            last_used: tick,
        });
        entry.last_used = tick;
        let stride = page.index() as i64 - entry.last_page as i64;
        if stride != 0 && stride == entry.stride {
            entry.confidence = entry.confidence.saturating_add(1);
        } else if stride != 0 {
            entry.stride = stride;
            entry.confidence = 0;
        }
        entry.last_page = page.index();

        let mut predictions = Vec::new();
        if entry.confidence >= CONFIDENT {
            let stride = entry.stride;
            let base = page.index() as i64;
            for k in 1..=i64::from(self.depth) {
                let Ok(predicted) = u64::try_from(base + stride * k) else {
                    continue;
                };
                if self.outstanding.contains_key(&predicted) {
                    continue;
                }
                if self.outstanding.len() == MAX_OUTSTANDING {
                    if let Some((_, oldest)) = self.by_age.pop_first() {
                        self.outstanding.remove(&oldest);
                    }
                }
                self.outstanding.insert(predicted, self.stats.predictions);
                self.by_age.insert(self.stats.predictions, predicted);
                self.stats.predictions += 1;
                predictions.push(PageNumber::new(predicted));
            }
        }
        predictions
    }

    /// Accuracy statistics so far.
    #[must_use]
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// Drops all outstanding predictions (phase change).
    pub fn flush(&mut self) {
        self.outstanding.clear();
        self.by_age.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn is_predicted(p: &StridePredictor, page: u64) -> bool {
        p.outstanding.contains_key(&page)
    }

    #[test]
    fn sequential_stream_reaches_high_accuracy() {
        let mut p = StridePredictor::new(4);
        for page in 0..500u64 {
            p.observe(PageNumber::new(page));
        }
        let acc = p.stats().accuracy();
        assert!(acc > 0.9, "sequential accuracy {acc}");
    }

    #[test]
    fn strided_stream_detected() {
        let mut p = StridePredictor::new(2);
        for k in 0..100u64 {
            p.observe(PageNumber::new(k * 3));
        }
        assert!(p.stats().accuracy() > 0.8);
    }

    #[test]
    fn random_stream_stays_inaccurate() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = StridePredictor::new(4);
        for _ in 0..2000 {
            p.observe(PageNumber::new(rng.gen_range(0..1_000_000)));
        }
        let acc = p.stats().accuracy();
        assert!(acc < 0.1, "random accuracy {acc}");
    }

    #[test]
    fn interleaved_streams_tracked_per_region() {
        // Two sequential streams in distant regions, interleaved.
        let mut p = StridePredictor::new(2);
        for k in 0..200u64 {
            p.observe(PageNumber::new(k));
            p.observe(PageNumber::new(1_000_000 + k));
        }
        assert!(p.stats().accuracy() > 0.8, "{}", p.stats().accuracy());
    }

    #[test]
    fn predictions_marked_and_consumed() {
        let mut p = StridePredictor::new(1);
        for page in [10u64, 11, 12, 13] {
            p.observe(PageNumber::new(page));
        }
        assert!(is_predicted(&p, 14));
        p.observe(PageNumber::new(14));
        assert!(!is_predicted(&p, 14));
    }

    #[test]
    fn flush_clears_outstanding() {
        let mut p = StridePredictor::new(4);
        for page in 0..20u64 {
            p.observe(PageNumber::new(page));
        }
        p.flush();
        assert!(!is_predicted(&p, 20));
    }

    #[test]
    fn precision_bounded_by_one() {
        let mut p = StridePredictor::new(8);
        for page in 0..300u64 {
            p.observe(PageNumber::new(page));
        }
        let s = p.stats();
        assert!(s.precision() <= 1.0);
        assert!(s.hits <= s.predictions);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_depth_rejected() {
        let _ = StridePredictor::new(0);
    }

    #[test]
    fn stride_region_map_is_bounded_with_lru_eviction() {
        // Regression: a randomized fault stream used to grow the
        // per-region map without limit. Distinct regions far beyond the
        // bound must cap the map at MAX_REGIONS...
        let mut p = StridePredictor::new(2);
        let total = (StridePredictor::MAX_REGIONS * 3) as u64;
        for r in 0..total {
            p.observe(PageNumber::new(r << REGION_SHIFT));
        }
        assert_eq!(p.streams.len(), StridePredictor::MAX_REGIONS);
        // ...and eviction must be LRU: the most recent regions survive,
        // so a hot stream keeps its stride state across the churn.
        let survivor = (total - 1) << REGION_SHIFT;
        for k in 1..4u64 {
            p.observe(PageNumber::new(survivor + k));
        }
        assert!(
            is_predicted(&p, survivor + 4),
            "recently-observed stream lost its state to eviction"
        );
    }

    #[test]
    fn outstanding_set_forgets_the_oldest_prediction_when_full() {
        // Regression: short runs whose predictions are never faulted
        // filled the set, and a full set refused every new prediction,
        // so the predictor went silent for good.
        let mut p = StridePredictor::new(8);
        let mut last_run = 0;
        for run in 0..1000u64 {
            last_run = (0..6u64)
                .map(|k| p.observe(PageNumber::new(run * 1000 + k)).len())
                .sum();
        }
        assert!(
            last_run > 0,
            "silent after {} predictions",
            p.stats().predictions
        );
        assert!(p.outstanding.len() <= MAX_OUTSTANDING);
        assert_eq!(p.outstanding.len(), p.by_age.len());
        // The newest prediction is outstanding, the first one is not.
        assert!(is_predicted(&p, 999 * 1000 + 6));
        assert!(!is_predicted(&p, 6));
    }
}
