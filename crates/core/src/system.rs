//! [`XfmSystem`]: the top-level public API tying the XFM backend to the
//! SFM control plane, with trace replay for experiments.

use xfm_compress::Corpus;
use xfm_sfm::backend::{ExecutedOn, SwapPlane};
use xfm_sfm::controller::{ColdScanConfig, SfmController};
use xfm_sfm::trace::{SwapEvent, SwapKind};
use xfm_telemetry::lifecycle::NO_SHARD;
use xfm_telemetry::swap_metrics::Stopwatch;
use xfm_telemetry::{Cause, LifecycleStage, Registry, SwapMetrics};
use xfm_types::{ByteSize, Nanos, Result, TenantId, PAGE_SIZE};

use crate::backend::{XfmBackend, XfmBackendConfig};
use crate::nma::NmaStats;

/// Top-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct XfmConfig {
    /// Backend (SFM + NMA + multi-channel) parameters.
    pub backend: XfmBackendConfig,
    /// Cold-page scanner parameters.
    pub scan: ColdScanConfig,
}

/// Result of replaying a swap trace through the system.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReplayReport {
    /// Swap-out events replayed.
    pub swap_outs: u64,
    /// Swap-in events replayed.
    pub swap_ins: u64,
    /// Operations that executed on the NMA.
    pub nma_ops: u64,
    /// Operations that executed on (or fell back to) the CPU.
    pub cpu_ops: u64,
    /// Pages whose round-trip data failed verification (must be zero).
    pub integrity_failures: u64,
    /// Total DDR-channel bytes the swaps caused.
    pub ddr_bytes: ByteSize,
    /// Events skipped because the region filled up.
    pub rejected: u64,
}

/// The full XFM system.
///
/// # Examples
///
/// ```
/// use xfm_core::{XfmConfig, XfmSystem};
/// use xfm_sfm::{TraceConfig, TraceGenerator};
///
/// let mut sys = XfmSystem::new(XfmConfig::default());
/// let trace = TraceGenerator::new(TraceConfig {
///     working_set_pages: 512,
///     local_pages: 256,
///     accesses_per_sec: 2000.0,
///     duration: xfm_types::Nanos::from_secs(1),
///     ..TraceConfig::default()
/// })
/// .generate();
/// let report = sys.replay(&trace, xfm_compress::Corpus::Json)?;
/// assert_eq!(report.integrity_failures, 0);
/// # Ok::<(), xfm_types::Error>(())
/// ```
#[derive(Debug)]
pub struct XfmSystem {
    backend: XfmBackend,
    controller: SfmController,
    /// Metric handles for control-plane (cold-scan) events; the swap
    /// data plane records through the backend's own handles.
    telemetry: Option<SwapMetrics>,
}

impl XfmSystem {
    /// Creates a system, propagating configuration failures.
    ///
    /// # Errors
    ///
    /// Returns [`xfm_types::Error::InvalidConfig`] on any configuration
    /// [`crate::backend::PlaneBuilder::build`] rejects.
    pub fn try_new(config: XfmConfig) -> Result<Self> {
        Ok(Self {
            backend: XfmBackend::builder().config(config.backend).build()?,
            controller: SfmController::new(config.scan),
            telemetry: None,
        })
    }

    /// Creates a system: the panicking convenience over
    /// [`XfmSystem::try_new`].
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`XfmSystem::try_new`] rejects.
    #[must_use]
    pub fn new(config: XfmConfig) -> Self {
        Self::try_new(config).expect("valid XFM system configuration")
    }

    /// Attaches telemetry to the whole stack: the backend's swap-path
    /// counters/histograms/gauges plus control-plane cold-scan events,
    /// all on the shared `registry`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.backend.attach_telemetry(registry);
        self.telemetry = Some(SwapMetrics::register(registry));
    }

    /// Scans for cold pages, recording one
    /// [`LifecycleStage::ColdScanSelect`] event for the pass when
    /// telemetry is attached (`aux` carries the number of cold pages
    /// found, `dur_ns` the scan's wall time).
    pub fn scan_cold(&mut self, now: Nanos) -> Vec<xfm_types::PageNumber> {
        let sw = self.telemetry.as_ref().map(|_| Stopwatch::start());
        let cold = self.controller.scan(now);
        if let (Some(t), Some(sw)) = (&self.telemetry, &sw) {
            t.lifecycle().record(
                LifecycleStage::ColdScanSelect,
                Cause::Ok,
                TenantId::SYSTEM,
                0,
                NO_SHARD,
                cold.len() as u64,
                sw.elapsed_ns(),
            );
        }
        cold
    }

    /// The backend (swap data plane).
    #[must_use]
    pub fn backend(&self) -> &XfmBackend {
        &self.backend
    }

    /// The controller (cold-page policy plane).
    #[must_use]
    pub fn controller(&self) -> &SfmController {
        &self.controller
    }

    /// Mutable access to the controller.
    pub fn controller_mut(&mut self) -> &mut SfmController {
        &mut self.controller
    }

    /// Advances simulated time on every device.
    pub fn advance_to(&mut self, now: Nanos) {
        self.backend.advance_to(now);
    }

    /// Aggregated NMA statistics.
    #[must_use]
    pub fn nma_stats(&self) -> NmaStats {
        self.backend.nma_stats()
    }

    /// Replays a swap trace, generating page contents deterministically
    /// from `corpus` (page number seeds the generator) and verifying
    /// data integrity on every swap-in.
    ///
    /// # Errors
    ///
    /// Propagates backend errors other than capacity rejections (which
    /// are counted in the report instead).
    pub fn replay(&mut self, trace: &[SwapEvent], corpus: Corpus) -> Result<ReplayReport> {
        let mut report = ReplayReport::default();
        for event in trace {
            self.backend.advance_to(event.at);
            match event.kind {
                SwapKind::Out => {
                    if self.backend.contains(event.page) {
                        continue; // already demoted (trace artifacts)
                    }
                    let data = corpus.generate(event.page.index(), PAGE_SIZE);
                    match self.backend.swap_out(event.page, &data) {
                        Ok(outcome) => {
                            report.swap_outs += 1;
                            report.ddr_bytes += outcome.ddr_bytes;
                            match outcome.executed_on {
                                ExecutedOn::Nma => report.nma_ops += 1,
                                ExecutedOn::Cpu => report.cpu_ops += 1,
                            }
                        }
                        Err(e) if matches!(e.cause(), xfm_types::Error::SfmRegionFull) => {
                            report.rejected += 1;
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                SwapKind::In => {
                    if !self.backend.contains(event.page) {
                        continue; // never made it to far memory
                    }
                    let (data, outcome) = self.backend.swap_in(event.page, event.prefetchable)?;
                    report.swap_ins += 1;
                    report.ddr_bytes += outcome.ddr_bytes;
                    match outcome.executed_on {
                        ExecutedOn::Nma => report.nma_ops += 1,
                        ExecutedOn::Cpu => report.cpu_ops += 1,
                    }
                    let expected = corpus.generate(event.page.index(), PAGE_SIZE);
                    if data != expected {
                        report.integrity_failures += 1;
                    }
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfm_sfm::trace::{TraceConfig, TraceGenerator};

    fn small_trace(seed: u64) -> Vec<SwapEvent> {
        TraceGenerator::new(TraceConfig {
            working_set_pages: 1024,
            local_pages: 512,
            accesses_per_sec: 5_000.0,
            duration: Nanos::from_secs(2),
            seed,
            ..TraceConfig::default()
        })
        .generate()
    }

    #[test]
    fn replay_preserves_integrity() {
        let mut sys = XfmSystem::new(XfmConfig::default());
        let report = sys.replay(&small_trace(1), Corpus::EnglishText).unwrap();
        assert_eq!(report.integrity_failures, 0);
        assert!(report.swap_outs > 0);
        assert!(report.swap_ins > 0);
    }

    #[test]
    fn replay_uses_nma_for_demotions() {
        let mut sys = XfmSystem::new(XfmConfig::default());
        let report = sys.replay(&small_trace(2), Corpus::Json).unwrap();
        // Demotions are flexible offloads; most should ride the NMA.
        assert!(
            report.nma_ops > report.cpu_ops / 4,
            "nma {} cpu {}",
            report.nma_ops,
            report.cpu_ops
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let mut a = XfmSystem::new(XfmConfig::default());
        let mut b = XfmSystem::new(XfmConfig::default());
        let ra = a.replay(&small_trace(3), Corpus::Csv).unwrap();
        let rb = b.replay(&small_trace(3), Corpus::Csv).unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    fn attached_system_traces_scan_and_swap_path() {
        let registry = Registry::new();
        let mut sys = XfmSystem::new(XfmConfig {
            scan: ColdScanConfig {
                cold_threshold: Nanos::from_secs(1),
            },
            ..XfmConfig::default()
        });
        sys.attach_telemetry(&registry);
        for p in 0..8u64 {
            sys.controller_mut()
                .touch(xfm_types::PageNumber::new(p), Nanos::ZERO);
        }
        let now = Nanos::from_secs(2);
        sys.advance_to(now);
        let cold = sys.scan_cold(now);
        assert_eq!(cold.len(), 8);
        for page in &cold {
            let data = Corpus::KeyValue.generate(page.index(), PAGE_SIZE);
            sys.backend().swap_out(*page, &data).unwrap();
        }
        sys.advance_to(Nanos::from_secs(3));
        for page in &cold {
            sys.backend().swap_in(*page, false).unwrap();
        }
        let s = registry.snapshot();
        assert_eq!(s.counters["xfm_swap_outs_total"], 8);
        assert_eq!(s.counters["xfm_swap_ins_total"], 8);
        assert!(s
            .events
            .iter()
            .any(|e| e.stage == LifecycleStage::ColdScanSelect && e.aux == 8));
        assert!(s.histograms["xfm_swap_in_latency_ns"].p99 > 0);
    }

    #[test]
    fn replay_with_telemetry_matches_plain_replay() {
        let registry = Registry::new();
        let mut plain = XfmSystem::new(XfmConfig::default());
        let mut traced = XfmSystem::new(XfmConfig::default());
        traced.attach_telemetry(&registry);
        let ra = plain.replay(&small_trace(5), Corpus::Json).unwrap();
        let rb = traced.replay(&small_trace(5), Corpus::Json).unwrap();
        assert_eq!(ra, rb);
        let s = registry.snapshot();
        assert_eq!(s.counters["xfm_swap_outs_total"], rb.swap_outs);
        assert_eq!(s.counters["xfm_swap_ins_total"], rb.swap_ins);
        assert_eq!(
            s.counters["xfm_nma_executions_total"] + s.counters["xfm_cpu_executions_total"],
            rb.nma_ops + rb.cpu_ops
        );
    }

    #[test]
    fn controller_and_backend_compose() {
        let mut sys = XfmSystem::new(XfmConfig {
            scan: ColdScanConfig {
                cold_threshold: Nanos::from_secs(1),
            },
            ..XfmConfig::default()
        });
        // Touch pages, let them cool, scan, and demote through the
        // backend.
        for p in 0..8u64 {
            sys.controller_mut()
                .touch(xfm_types::PageNumber::new(p), Nanos::ZERO);
        }
        let now = Nanos::from_secs(2);
        sys.advance_to(now);
        let cold = sys.controller_mut().scan(now);
        assert_eq!(cold.len(), 8);
        for page in cold {
            let data = Corpus::KeyValue.generate(page.index(), PAGE_SIZE);
            sys.backend().swap_out(page, &data).unwrap();
        }
        assert_eq!(sys.backend().table_len(), 8);
    }
}
