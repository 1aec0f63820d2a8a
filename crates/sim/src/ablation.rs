//! Ablation studies for XFM's design choices.
//!
//! The paper leaves several knobs as discussion or future work; this
//! module quantifies them with the same engines that reproduce the
//! headline figures:
//!
//! - **Prefetch accuracy** (conclusion: "the benefits of XFM can be
//!   increased by improving the far memory controller's proficiency at
//!   predicting application memory access patterns");
//! - **Random-access budget** (§5: TRR slots could host extra random
//!   accesses beyond the methodology's 1 per `tRFC`);
//! - **Offload granularity** (§8 future work: larger-than-4 KiB offloads
//!   to reduce multi-channel fragmentation);
//! - **Refresh mode** (§2.2: all-bank vs same-bank refresh — all-bank
//!   is "the most efficient way" and the better XFM substrate);
//! - **Predictor study**: what accuracy the [`xfm_sfm::StridePredictor`]
//!   actually achieves on different fault patterns, closing the loop to
//!   the prefetch-accuracy sweep.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xfm_compress::ratio::stored_ratio;
use xfm_compress::{Corpus, XDeflate};
use xfm_dram::timing::DramTimings;
use xfm_sfm::StridePredictor;
use xfm_types::{ByteSize, Nanos, PageNumber, PAGE_SIZE};

use crate::fallback::{simulate, FallbackConfig};

// ------------------------------------------------- prefetch accuracy

/// One point of the prefetch-accuracy sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchSweepRow {
    /// Controller prediction accuracy (fraction of promotions
    /// prefetched).
    pub accuracy: f64,
    /// Resulting CPU-fallback fraction.
    pub fallback_fraction: f64,
    /// Share of served accesses that were random.
    pub random_fraction: f64,
}

/// Sweeps prefetch accuracy at the paper's reference point (8 MiB SPM,
/// 3 accesses/tRFC, 100% promotion rate).
#[must_use]
pub fn prefetch_accuracy_sweep(duration: Nanos) -> Vec<PrefetchSweepRow> {
    [0.0, 0.25, 0.5, 0.75, 0.9, 1.0]
        .iter()
        .map(|&accuracy| {
            let point = FallbackConfig {
                prefetch_accuracy: accuracy,
                duration,
                ..FallbackConfig::default()
            };
            let report = simulate(&point.with_spm(ByteSize::from_mib(8)));
            PrefetchSweepRow {
                accuracy,
                fallback_fraction: report.fallback_fraction(),
                random_fraction: report.random_fraction(),
            }
        })
        .collect()
}

// ------------------------------------------------- random budget (TRR)

/// One point of the random-budget (TRR-slot) sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomBudgetRow {
    /// Random accesses allowed per window.
    pub max_random: u32,
    /// Resulting CPU-fallback fraction.
    pub fallback_fraction: f64,
    /// Conditional share of served accesses.
    pub conditional_fraction: f64,
}

/// Sweeps the per-window random-access budget (0 = conditional-only,
/// 1 = the methodology, 2–3 = scavenged TRR slots) at a low prediction
/// accuracy, where random capacity matters most.
#[must_use]
pub fn random_budget_sweep(duration: Nanos) -> Vec<RandomBudgetRow> {
    (0u32..=3)
        .map(|max_random| {
            let mut point = FallbackConfig {
                prefetch_accuracy: 0.4,
                duration,
                ..FallbackConfig::default()
            }
            .with_spm(ByteSize::from_mib(8));
            point.nma.sched.max_random_per_trfc = max_random;
            let report = simulate(&point);
            RandomBudgetRow {
                max_random,
                fallback_fraction: report.fallback_fraction(),
                conditional_fraction: report.conditional_fraction(),
            }
        })
        .collect()
}

// ------------------------------------------------- offload granularity

/// One point of the offload-granularity study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GranularityRow {
    /// Offload unit in KiB (the paper fixes 4).
    pub offload_kib: usize,
    /// Stored 4-DIMM compression ratio at this granularity.
    pub ratio_4dimm: f64,
    /// Fraction of the 1-DIMM savings retained at 4 DIMMs.
    pub retention_4dimm: f64,
}

/// Measures how larger offload units recover multi-channel savings
/// (the paper's §8 future-work hypothesis). Averaged over text-like
/// corpora.
///
/// # Errors
///
/// Propagates codec failures (none expected).
pub fn offload_granularity_sweep(
    bytes_per_corpus: usize,
) -> xfm_types::Result<Vec<GranularityRow>> {
    let codec = XDeflate::default();
    let corpora = [
        Corpus::EnglishText,
        Corpus::Json,
        Corpus::LogLines,
        Corpus::SourceCode,
    ];
    [4usize, 8, 16, 32]
        .iter()
        .map(|&kib| {
            let unit = kib * 1024;
            let mut r1sum = 0.0;
            let mut r4sum = 0.0;
            for corpus in corpora {
                let data = corpus.generate(0xab1e, bytes_per_corpus);
                r1sum += stored_ratio(&codec, &data, unit, 1)?;
                r4sum += stored_ratio(&codec, &data, unit, 4)?;
            }
            let (r1, r4) = (r1sum / corpora.len() as f64, r4sum / corpora.len() as f64);
            let base = 1.0 - 1.0 / r1;
            Ok(GranularityRow {
                offload_kib: kib,
                ratio_4dimm: r4,
                retention_4dimm: if base <= 0.0 {
                    1.0
                } else {
                    (1.0 - 1.0 / r4) / base
                },
            })
        })
        .collect()
}

// ------------------------------------------------- refresh mode

/// All-bank vs same-bank refresh as an XFM substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshModeRow {
    /// Mode name.
    pub mode: &'static str,
    /// Side-channel bandwidth available to the NMA per rank (GB/s).
    pub side_channel_gbps: f64,
    /// Fraction of time the *host* loses the whole rank to refresh.
    pub host_rank_locked_pct: f64,
}

/// Compares the two DDR5 refresh modes. All-bank refresh locks the rank
/// ~1.2% of the time but donates full-width windows to XFM; same-bank
/// refresh (REFsb) never locks the whole rank, but its short per-bank
/// windows rarely cover both banks of an interleaved page, leaving XFM
/// almost no conditional capacity — matching §2.2's observation that
/// all-bank is the efficient substrate.
#[must_use]
pub fn refresh_mode_compare() -> Vec<RefreshModeRow> {
    let t = DramTimings::ddr5_3200_32gb();
    let all_bank_bw =
        f64::from(t.max_conditional_accesses()) * PAGE_SIZE as f64 / t.t_refi.as_secs_f64() / 1e9;
    // REFsb: tRFCsb ≈ 130 ns per bank, issued per bank (tREFI / banks
    // apart). A 4 KiB page spans a bank *pair* (Fig. 6a), and the two
    // banks' REFsb windows do not overlap, so a conditional page access
    // only fits when the scheduler splits it into two half-page
    // transfers — and the 130 ns window fits at most one (110 ns needs
    // the full setup; a half-page burst still pays tRCD + tCL).
    let t_rfcsb = Nanos::from_ns(130);
    let half_page = t.t_rcd + t.t_cl + t.t_burst * 16;
    let accesses_per_sb_window = if t_rfcsb >= half_page { 1.0 } else { 0.0 };
    // One REFsb window per bank per tREFI-equivalent period; each moves
    // half a page when it fits.
    let banks = 32.0;
    let sb_bw = accesses_per_sb_window * (PAGE_SIZE as f64 / 2.0) * banks
        / (t.t_refi.as_secs_f64() * banks)
        / 1e9;
    vec![
        RefreshModeRow {
            mode: "all-bank (REFab)",
            side_channel_gbps: all_bank_bw,
            host_rank_locked_pct: t.refresh_duty_cycle() * 100.0,
        },
        RefreshModeRow {
            mode: "same-bank (REFsb)",
            side_channel_gbps: sb_bw,
            host_rank_locked_pct: 0.0,
        },
    ]
}

// ------------------------------------------------- predictor study

/// Realized predictor accuracy on one fault pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorRow {
    /// Pattern name.
    pub pattern: String,
    /// Achieved prediction accuracy.
    pub accuracy: f64,
    /// Prediction precision (issued predictions that were used).
    pub precision: f64,
}

/// The characteristic fault streams the predictor studies share.
fn fault_patterns(faults: usize, seed: u64) -> Vec<(String, Vec<u64>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        ("sequential-scan".to_string(), (0..faults as u64).collect()),
        (
            "strided-matrix".to_string(),
            (0..faults as u64).map(|k| k * 7 % (1 << 20)).collect(),
        ),
        (
            "zipf-web".to_string(),
            (0..faults)
                .map(|_| {
                    // Zipf-flavored: popular pages recur, tail is random.
                    if rng.gen_bool(0.6) {
                        rng.gen_range(0..64)
                    } else {
                        rng.gen_range(0..1_000_000)
                    }
                })
                .collect(),
        ),
        (
            "uniform-random".to_string(),
            (0..faults).map(|_| rng.gen_range(0..1_000_000)).collect(),
        ),
    ]
}

/// Runs the stride predictor over characteristic fault streams: the
/// accuracies feed the prefetch-accuracy sweep with *achievable* values.
#[must_use]
pub fn predictor_study(faults: usize, seed: u64) -> Vec<PredictorRow> {
    fault_patterns(faults, seed)
        .into_iter()
        .map(|(pattern, pages)| {
            let mut p = StridePredictor::new(4);
            for page in pages {
                p.observe(PageNumber::new(page));
            }
            PredictorRow {
                pattern,
                accuracy: p.stats().accuracy(),
                precision: p.stats().precision(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn better_prediction_reduces_random_share() {
        let rows = prefetch_accuracy_sweep(Nanos::from_ms(30));
        assert_eq!(rows.len(), 6);
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(last.random_fraction < first.random_fraction);
        // Perfect prediction drives fallbacks to (near) zero.
        assert!(last.fallback_fraction < 0.02, "{}", last.fallback_fraction);
    }

    #[test]
    fn random_budget_zero_strands_demand_promotions() {
        let rows = random_budget_sweep(Nanos::from_ms(30));
        assert_eq!(rows.len(), 4);
        assert!(
            rows[0].fallback_fraction > rows[1].fallback_fraction,
            "no random slots must hurt: {} vs {}",
            rows[0].fallback_fraction,
            rows[1].fallback_fraction
        );
        // Extra TRR slots beyond 1 help little at this accuracy.
        assert!(rows[3].fallback_fraction <= rows[1].fallback_fraction + 0.02);
    }

    #[test]
    fn larger_offloads_recover_multichannel_savings() {
        let rows = offload_granularity_sweep(64 * 1024).unwrap();
        assert_eq!(rows.len(), 4);
        // The paper's future-work hypothesis: retention improves with
        // offload size.
        assert!(
            rows.last().unwrap().retention_4dimm >= rows.first().unwrap().retention_4dimm,
            "{:?}",
            rows
        );
    }

    #[test]
    fn all_bank_mode_is_the_better_substrate() {
        let rows = refresh_mode_compare();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].side_channel_gbps > rows[1].side_channel_gbps * 2.0);
        assert!(rows[0].host_rank_locked_pct > 0.0);
        assert_eq!(rows[1].host_rank_locked_pct, 0.0);
    }

    #[test]
    fn predictor_spans_the_accuracy_axis() {
        let rows = predictor_study(3000, 5);
        assert_eq!(rows.len(), 4);
        let get = |name: &str| rows.iter().find(|r| r.pattern == name).unwrap();
        assert!(get("sequential-scan").accuracy > 0.9);
        assert!(get("uniform-random").accuracy < 0.1);
        assert!(get("zipf-web").accuracy <= get("strided-matrix").accuracy + 1.0);
    }
}
