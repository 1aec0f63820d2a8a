//! The CPU-fallback sensitivity driver (paper Fig. 12).
//!
//! Offers one DIMM's device — the [`NearMemoryAccelerator`] and its
//! refresh-window scheduler, the code `XfmBackend` runs — a bursty swap
//! arrival process (`DESIGN.md`), one refresh window at a time, and
//! counts how often the driver must fall back to the CPU, swept over SPM
//! size, accesses per `tRFC` and promotion rate. Every `burst_interval`
//! windows a burst of flexible compress offloads arrives, half an
//! interval later a burst of flexible prefetched decompressions, each
//! reading a row whose slot is drawn within the alignment lookahead;
//! every window a Poisson number of urgent demand decompressions reads
//! uniformly drawn rows. Every offered op ends as exactly one of
//! completed, fallback (spilled by the scheduler) or rejected at submit
//! (request queue full), or is still in flight when the point ends.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xfm_core::nma::{NearMemoryAccelerator, NmaConfig, NmaEvent, OffloadShare};
use xfm_core::sched::{SchedConfig, SchedStats};
use xfm_core::OffloadKind;
use xfm_dram::timing::REFS_PER_RETENTION;
use xfm_event::ClockMirror;
use xfm_telemetry::lifecycle::NO_SHARD;
use xfm_telemetry::{Cause, Counter, LifecycleStage, Registry};
use xfm_types::{ByteSize, Nanos, PageNumber, RowId, TenantId, PAGE_SIZE};

/// Sweep-point configuration: the arrival process and the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallbackConfig {
    /// SFM far-memory capacity (512 GB in the paper).
    pub sfm_capacity: ByteSize,
    /// Promotion rate (Fig. 12 uses 50% and 100%).
    pub promotion_rate: f64,
    /// DIMMs sharing the swap traffic (4 channels x 2 DIMMs).
    pub n_dimms: u32,
    /// Average compression ratio of swapped pages.
    pub compression_ratio: f64,
    /// Fraction of promotions predicted by the controller (prefetches).
    pub prefetch_accuracy: f64,
    /// Pages per scanner burst.
    pub burst_pages: u32,
    /// Simulated duration.
    pub duration: Nanos,
    /// RNG seed of the arrival draws.
    pub seed: u64,
    /// The device; its SPM is the x-axis, its accesses per `tRFC` the
    /// panels.
    pub nma: NmaConfig,
}

impl Default for FallbackConfig {
    /// The paper's §8 setup at 100% promotion, 2 MiB SPM and 3 accesses
    /// per window; urgent ops wait 16 windows, alignment spans 512.
    fn default() -> Self {
        Self {
            sfm_capacity: ByteSize::from_gib(512),
            promotion_rate: 1.0,
            n_dimms: 8,
            compression_ratio: 2.5,
            prefetch_accuracy: 0.8,
            burst_pages: 2048,
            duration: Nanos::from_ms(200),
            seed: 0x0f0f_1234,
            nma: NmaConfig {
                queue_capacity: 8192,
                sched: SchedConfig {
                    urgent_max_wait: 16,
                    placement_lookahead: 512,
                    ..SchedConfig::default()
                },
                ..NmaConfig::default()
            },
        }
    }
}

impl FallbackConfig {
    /// This point with `spm` of scratchpad.
    #[must_use]
    pub fn with_spm(mut self, spm: ByteSize) -> Self {
        self.nma.spm_capacity = spm;
        self
    }

    /// This point with `accesses` 4 KiB accesses per `tRFC`.
    #[must_use]
    pub fn with_accesses(mut self, accesses: u32) -> Self {
        self.nma.sched.accesses_per_trfc = accesses;
        self
    }

    /// Swap operations per second per DIMM, per direction (EQ1 scaled
    /// down to one DIMM).
    #[must_use]
    pub fn ops_per_sec_per_dimm(&self) -> f64 {
        self.sfm_capacity.as_gib_f64() * self.promotion_rate / 60.0 * 1e9
            / PAGE_SIZE as f64
            / f64::from(self.n_dimms)
    }

    /// Offered service load as a fraction of the window byte budget.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let per_op_bytes = 2.0 * (PAGE_SIZE as f64 * (1.0 + 1.0 / self.compression_ratio));
        let bytes_per_sec = self.ops_per_sec_per_dimm() * per_op_bytes;
        let budget_per_sec = f64::from(self.nma.sched.accesses_per_trfc) * PAGE_SIZE as f64
            / self.nma.timings.t_refi.as_secs_f64();
        bytes_per_sec / budget_per_sec
    }
}

/// Simulation outcome for one sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallbackReport {
    /// Swap operations that completed on the NMA.
    pub completed: u64,
    /// Operations that fell back to the CPU: rejected at submit or
    /// spilled by the scheduler.
    pub fallbacks: u64,
    /// DRAM accesses served conditionally.
    pub conditional_accesses: u64,
    /// DRAM accesses served randomly.
    pub random_accesses: u64,
    /// Peak SPM occupancy observed.
    pub spm_high_water: ByteSize,
    /// Random-access attempts deferred by subarray conflicts.
    pub subarray_conflicts: u64,
}

impl FallbackReport {
    /// Fraction of swap operations that fell back to the CPU (Fig. 12's
    /// y-axis).
    #[must_use]
    pub fn fallback_fraction(&self) -> f64 {
        share(self.fallbacks, self.completed + self.fallbacks)
    }

    /// Share of served accesses that were conditional.
    #[must_use]
    pub fn conditional_fraction(&self) -> f64 {
        share(
            self.conditional_accesses,
            self.conditional_accesses + self.random_accesses,
        )
    }

    /// Share of served accesses that were random (0, not 1, when none
    /// was served).
    #[must_use]
    pub fn random_fraction(&self) -> f64 {
        share(
            self.random_accesses,
            self.conditional_accesses + self.random_accesses,
        )
    }
}

/// `part / total`, and 0 when there is nothing to divide: a point that
/// ran no operation has no fallbacks and served no access of either kind.
fn share(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

/// Per-cause fallback telemetry: each CPU fallback and deferral is a
/// counter bump. Each deadline spill is also a lifecycle event, and each
/// run of consecutive windows that rejected submissions, or deferred for
/// one cause, is one, at the run's first window, so the trail's ring
/// keeps the fallbacks even at an overloaded point. An
/// event's `aux` is its refresh window and `virt_ns` that window's
/// simulated time (`tREFI × window`).
struct FallbackTelemetry {
    queue_full: Arc<Counter>,
    spm_exhausted: Arc<Counter>,
    deadline_spills: Arc<Counter>,
    subarray_conflicts: Arc<Counter>,
    completed: Arc<Counter>,
    mirror: ClockMirror,
    registry: Registry,
    /// The device's deferral counters as of the last window.
    seen: SchedStats,
    /// Whether the last window deferred: SPM stalls, subarray conflicts.
    deferring: [bool; 2],
    /// The last window in which the device rejected a submission.
    last_rejection: Option<u64>,
}

impl FallbackTelemetry {
    fn new(registry: &Registry) -> Self {
        for (name, help) in [
            (
                "xfm_sim_queue_full_fallbacks_total",
                "Simulated swaps the NMA rejected at submit (queue full), done on the CPU.",
            ),
            (
                "xfm_sim_spm_exhausted_stalls_total",
                "Simulated window-deferrals of NMA work because the scratchpad was full.",
            ),
            (
                "xfm_sim_deadline_spills_total",
                "Simulated swaps the scheduler spilled to the CPU at their deadline.",
            ),
            (
                "xfm_sim_subarray_conflicts_total",
                "Simulated random-access attempts deferred by a subarray conflict with the refresh.",
            ),
            (
                "xfm_sim_nma_completed_total",
                "Simulated swaps completed on the NMA.",
            ),
        ] {
            registry.describe(name, help);
        }
        Self {
            queue_full: registry.counter("xfm_sim_queue_full_fallbacks_total"),
            spm_exhausted: registry.counter("xfm_sim_spm_exhausted_stalls_total"),
            deadline_spills: registry.counter("xfm_sim_deadline_spills_total"),
            subarray_conflicts: registry.counter("xfm_sim_subarray_conflicts_total"),
            completed: registry.counter("xfm_sim_nma_completed_total"),
            mirror: registry.clock_mirror(),
            registry: registry.clone(),
            seen: SchedStats::default(),
            deferring: [false; 2],
            last_rejection: None,
        }
    }

    fn event(&self, stage: LifecycleStage, window: u64, cause: Cause) {
        self.registry
            .lifecycle()
            .record(stage, cause, TenantId::SYSTEM, 0, NO_SHARD, window, 0);
    }

    /// Books a submission the device rejected in `window`, with an
    /// event if no rejection came in the window before (a run of
    /// rejecting windows starts here).
    fn rejected(&mut self, window: u64, stage: LifecycleStage) {
        self.queue_full.inc();
        if self.last_rejection.is_none_or(|w| w + 1 < window) {
            self.event(stage, window, Cause::QueueFull);
        }
        self.last_rejection = Some(window);
    }

    /// Books the device's deferrals (SPM stalls, subarray conflicts) in
    /// `window`, with an event for a cause whose run starts here.
    fn deferrals(&mut self, window: u64, now: SchedStats) {
        let stalls = now.spm_stalls - self.seen.spm_stalls;
        let conflicts = now.subarray_conflicts - self.seen.subarray_conflicts;
        self.spm_exhausted.add(stalls);
        self.subarray_conflicts.add(conflicts);
        let causes = [
            (stalls, LifecycleStage::ZpoolStore, Cause::SpmExhausted),
            (conflicts, LifecycleStage::Fetch, Cause::SubarrayConflict),
        ];
        for (i, (n, stage, cause)) in causes.into_iter().enumerate() {
            if n > 0 && !self.deferring[i] {
                self.event(stage, window, cause);
            }
            self.deferring[i] = n > 0;
        }
        self.seen = now;
    }
}

/// Runs the sweep-point simulation.
///
/// # Examples
///
/// ```
/// use xfm_sim::fallback::{simulate, FallbackConfig};
/// use xfm_types::{ByteSize, Nanos};
///
/// let report = simulate(
///     &FallbackConfig {
///         duration: Nanos::from_ms(50),
///         ..FallbackConfig::default()
///     }
///     .with_spm(ByteSize::from_mib(8)),
/// );
/// // 8 MiB of SPM at 3 accesses/tRFC: (almost) no CPU fallbacks.
/// assert!(report.fallback_fraction() < 0.01);
/// ```
#[must_use]
pub fn simulate(cfg: &FallbackConfig) -> FallbackReport {
    Driver::run(cfg, None).report()
}

/// Runs the sweep-point simulation with per-cause telemetry on
/// `registry`: counters `xfm_sim_queue_full_fallbacks_total`,
/// `xfm_sim_spm_exhausted_stalls_total`, `xfm_sim_deadline_spills_total`,
/// `xfm_sim_subarray_conflicts_total`, and `xfm_sim_nma_completed_total`,
/// plus cause-tagged events on the lifecycle trail. The report is identical to
/// [`simulate`] for the same configuration.
#[must_use]
pub fn simulate_traced(cfg: &FallbackConfig, registry: &Registry) -> FallbackReport {
    Driver::run(cfg, Some(registry)).report()
}

/// Runs the sweep-point simulation and returns, beside its report, the
/// device's scheduler counters: the work the window loop did
/// ([`SchedStats::ops_touched`]) as well as what it served.
#[must_use]
pub fn simulate_sched(cfg: &FallbackConfig) -> (FallbackReport, SchedStats) {
    let driver = Driver::run(cfg, None);
    (driver.report(), driver.nma.stats().sched)
}

/// Where an offered op is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    InFlight,
    Completed,
    Fallback,
    Rejected,
}

/// The device and the outcome of every op offered to it, by op number
/// (which is also the op's page number).
struct Driver {
    nma: NearMemoryAccelerator,
    outcomes: Vec<Outcome>,
    telemetry: Option<FallbackTelemetry>,
}

impl Driver {
    /// One refresh window at a time: scanner demotions, then prefetched
    /// promotions, then demand faults, then the window's service. That
    /// order fixes the draw sequence, and so every number the sweep
    /// reports.
    fn run(cfg: &FallbackConfig, registry: Option<&Registry>) -> Self {
        let mut driver = Self {
            nma: NearMemoryAccelerator::new(cfg.nma),
            outcomes: Vec::new(),
            telemetry: registry.map(FallbackTelemetry::new),
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (timings, geometry) = (cfg.nma.timings, cfg.nma.geometry);
        let ops_per_window = cfg.ops_per_sec_per_dimm() * timings.t_refi.as_secs_f64();
        let burst_interval = (f64::from(cfg.burst_pages) / ops_per_window).max(1.0) as u64;
        let promotions = (f64::from(cfg.burst_pages) * cfg.prefetch_accuracy).round() as u32;
        let demand_rate = ops_per_window * (1.0 - cfg.prefetch_accuracy);
        let stored = (PAGE_SIZE as f64 / cfg.compression_ratio) as u32;
        let page = PAGE_SIZE as u32;
        let lookahead = u64::from(cfg.nma.sched.placement_lookahead.max(1));

        for w in 0..cfg.duration.periods(timings.t_refi) {
            let now = timings.t_refi * w;
            if let Some(t) = &driver.telemetry {
                t.mirror.publish(now);
            }
            let aligned =
                |rng: &mut StdRng| (w + 1 + rng.gen_range(0..lookahead)) % REFS_PER_RETENTION;
            if w.is_multiple_of(burst_interval) {
                for _ in 0..cfg.burst_pages {
                    let row = aligned(&mut rng);
                    driver.offer(OffloadKind::Compress, (page, stored), row, w, now, true);
                }
            }
            if (w + burst_interval / 2).is_multiple_of(burst_interval) {
                for _ in 0..promotions {
                    let row = aligned(&mut rng);
                    driver.offer(OffloadKind::Decompress, (stored, page), row, w, now, true);
                }
            }
            for _ in 0..poisson(&mut rng, demand_rate) {
                let row = u64::from(rng.gen_range(0..geometry.rows_per_bank));
                driver.offer(OffloadKind::Decompress, (stored, page), row, w, now, false);
            }
            // Window `w` closes `tRFC` after it opens.
            driver.advance(w, now + timings.t_rfc);
        }
        driver
    }

    fn offer(
        &mut self,
        kind: OffloadKind,
        (input, output): (u32, u32),
        row: u64,
        window: u64,
        now: Nanos,
        flexible: bool,
    ) {
        let page = PageNumber::new(self.outcomes.len() as u64);
        let share = OffloadShare { input, output };
        let row = RowId::new(row as u32);
        let outcome = match self.nma.submit(kind, page, share, row, now, flexible) {
            Ok(()) => Outcome::InFlight,
            Err(_) => {
                if let Some(t) = &mut self.telemetry {
                    let stage = if flexible {
                        LifecycleStage::Compress
                    } else {
                        LifecycleStage::Fault
                    };
                    t.rejected(window, stage);
                }
                Outcome::Rejected
            }
        };
        self.outcomes.push(outcome);
    }

    /// Steps the device through window `window`, which closes at `end`.
    ///
    /// # Panics
    ///
    /// Panics if the device reports an op finished twice, or one it was
    /// never handed.
    fn advance(&mut self, window: u64, end: Nanos) {
        for event in self.nma.advance_to(end) {
            let (page, outcome) = match event {
                NmaEvent::Completed { page, .. } => (page, Outcome::Completed),
                NmaEvent::Fallback { page, .. } => (page, Outcome::Fallback),
            };
            let slot = &mut self.outcomes[page.index() as usize];
            assert_eq!(*slot, Outcome::InFlight, "op {page} finished twice");
            *slot = outcome;
            if let Some(t) = &self.telemetry {
                if outcome == Outcome::Completed {
                    t.completed.inc();
                } else {
                    t.deadline_spills.inc();
                    t.event(LifecycleStage::Fault, window, Cause::DeadlineSpill);
                }
            }
        }
        if let Some(t) = &mut self.telemetry {
            t.deferrals(window, self.nma.stats().sched);
        }
    }

    fn count(&self, outcome: Outcome) -> u64 {
        self.outcomes.iter().filter(|&&o| o == outcome).count() as u64
    }

    fn report(&self) -> FallbackReport {
        let stats = self.nma.stats();
        FallbackReport {
            completed: self.count(Outcome::Completed),
            fallbacks: self.count(Outcome::Fallback) + self.count(Outcome::Rejected),
            conditional_accesses: stats.sched.conditional,
            random_accesses: stats.sched.random,
            spm_high_water: stats.spm_high_water,
            subarray_conflicts: stats.sched.subarray_conflicts,
        }
    }
}

/// Knuth's Poisson sampler (rates here are ≪ 10).
fn poisson(rng: &mut StdRng, rate: f64) -> u32 {
    let limit = (-rate).exp();
    let mut p = 1.0;
    let mut n = 0;
    loop {
        p *= rng.gen::<f64>();
        if p <= limit {
            return n;
        }
        n += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FallbackConfig {
        FallbackConfig {
            duration: Nanos::from_ms(100),
            ..FallbackConfig::default()
        }
    }

    #[test]
    fn utilization_math_matches_footnote() {
        // 100% PR on 512 GB: 8.5 GB/s per direction; with ratio 2.5 and
        // 3 accesses/tRFC the per-DIMM service load sits just below 1.
        let c = cfg();
        let u = c.utilization();
        assert!((0.85..1.0).contains(&u), "{u}");
        // One access per window is hopelessly overloaded.
        assert!(c.with_accesses(1).utilization() > 2.0);
    }

    #[test]
    fn eight_mib_spm_eliminates_fallbacks_at_three_accesses() {
        // Fig. 12: "regardless of the promotion rate, an 8MB SPM can
        // eliminate all CPU fall backs for an XFM implementation that
        // accommodates 3 NMA accesses per REF command."
        for pr in [0.5, 1.0] {
            let report = simulate(
                &FallbackConfig {
                    promotion_rate: pr,
                    ..cfg()
                }
                .with_spm(ByteSize::from_mib(8)),
            );
            assert!(
                report.fallback_fraction() < 0.01,
                "PR {pr}: fallback {}",
                report.fallback_fraction()
            );
        }
    }

    #[test]
    fn one_access_per_window_cannot_keep_up() {
        let report = simulate(&cfg().with_accesses(1).with_spm(ByteSize::from_mib(16)));
        assert!(
            report.fallback_fraction() > 0.3,
            "fallback {}",
            report.fallback_fraction()
        );
    }

    #[test]
    fn fallbacks_decrease_with_spm_size() {
        let mut prev = f64::INFINITY;
        for mib in [1u64, 2, 4, 8] {
            let report = simulate(&cfg().with_spm(ByteSize::from_mib(mib)));
            let f = report.fallback_fraction();
            assert!(f <= prev + 0.02, "{mib} MiB: {f} > prev {prev}");
            prev = f;
        }
    }

    #[test]
    fn majority_of_accesses_are_conditional() {
        // §8: "the majority of accesses can be accommodated with
        // conditional accesses."
        let report = simulate(&cfg().with_spm(ByteSize::from_mib(8)));
        assert!(
            report.conditional_fraction() > 0.7,
            "conditional {}",
            report.conditional_fraction()
        );
    }

    #[test]
    fn random_share_scales_with_promotion_rate() {
        // §8: "the rate of random accesses is shown to scale with the
        // promotion rate."
        let at = |promotion_rate| {
            simulate(
                &FallbackConfig {
                    promotion_rate,
                    ..cfg()
                }
                .with_spm(ByteSize::from_mib(8)),
            )
        };
        assert!(at(1.0).random_accesses > at(0.25).random_accesses);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate(&cfg());
        assert_eq!(a, simulate(&cfg()));
        let other = simulate(&FallbackConfig { seed: 7, ..cfg() });
        assert_ne!(a, other, "the seed drives the draws");
    }

    #[test]
    fn spm_high_water_bounded_by_capacity() {
        let c = cfg();
        let report = simulate(&c);
        assert!(report.spm_high_water <= c.nma.spm_capacity);
    }

    #[test]
    fn every_offered_op_ends_exactly_once() {
        for point in crate::figures::fig12_points(Nanos::from_ms(10)) {
            let driver = Driver::run(&point, None);
            let offered = driver.outcomes.len() as u64;
            let [completed, fallbacks, rejected, in_flight] = [
                Outcome::Completed,
                Outcome::Fallback,
                Outcome::Rejected,
                Outcome::InFlight,
            ]
            .map(|o| driver.count(o));
            assert!(offered > 0);
            assert_eq!(
                offered,
                completed + fallbacks + rejected + in_flight,
                "{point:?}"
            );
            let s = driver.nma.stats();
            assert_eq!(
                (s.submitted, s.completed, s.fallbacks, s.rejected),
                (offered - rejected, completed, fallbacks, rejected),
            );
        }
    }
}

#[cfg(test)]
mod probe {
    use super::*;

    /// The old stdout sweep probe, rebuilt on telemetry: instead of
    /// printing per-point numbers for eyeballing, each sweep point runs
    /// traced and the per-cause counters must reconstruct the report.
    #[test]
    fn traced_sweep_attributes_every_fallback() {
        for (acc, mib) in [(1u32, 16u64), (3, 1), (3, 8)] {
            let c = FallbackConfig {
                duration: Nanos::from_ms(50),
                ..FallbackConfig::default()
            }
            .with_accesses(acc)
            .with_spm(ByteSize::from_mib(mib));
            let registry = Registry::new();
            let r = simulate_traced(&c, &registry);
            let s = registry.snapshot();
            // Every fallback is either a queue rejection or a deadline
            // spill; deferrals (SPM stalls, subarray conflicts) retry
            // and are counted separately.
            assert_eq!(
                s.counters["xfm_sim_queue_full_fallbacks_total"]
                    + s.counters["xfm_sim_deadline_spills_total"],
                r.fallbacks,
                "acc={acc} spm={mib}MiB"
            );
            assert_eq!(s.counters["xfm_sim_nma_completed_total"], r.completed);
            assert_eq!(
                s.counters["xfm_sim_subarray_conflicts_total"],
                r.subarray_conflicts
            );
        }
    }

    #[test]
    fn the_default_point_trail_drops_no_event() {
        // One event per fallback and one per run of deferring windows
        // per cause: the 50 ms default point fits the trail's ring, and
        // every deadline spill is on it.
        let c = FallbackConfig {
            duration: Nanos::from_ms(50),
            ..FallbackConfig::default()
        };
        let registry = Registry::new();
        let r = simulate_traced(&c, &registry);
        let s = registry.snapshot();
        assert_eq!(s.events_dropped, 0);
        let count = |cause| s.events.iter().filter(|e| e.cause == cause).count();
        assert_eq!(count(Cause::DeadlineSpill) as u64, r.fallbacks);
        assert_eq!(count(Cause::DeadlineSpill), 164);
        // A run is one event, however many deferrals it counts: 37 723
        // stalls in 634 runs, 2 418 conflicts in 138.
        assert_eq!(count(Cause::SpmExhausted), 634);
        assert_eq!(count(Cause::SubarrayConflict), 138);
        assert_eq!(s.events.len(), 164 + 634 + 138);
    }

    #[test]
    fn the_overloaded_point_trail_drops_no_event() {
        // At 1 access per tRFC the device rejects 11 115 submissions in
        // 50 ms. One event per run of rejecting windows, like the
        // deferrals, keeps the point on the trail's ring with every
        // deadline spill; the counter still counts each rejection.
        let c = FallbackConfig {
            duration: Nanos::from_ms(50),
            ..FallbackConfig::default()
        }
        .with_accesses(1);
        let registry = Registry::new();
        let r = simulate_traced(&c, &registry);
        let s = registry.snapshot();
        assert_eq!(s.events_dropped, 0);
        let rejected = s.counters["xfm_sim_queue_full_fallbacks_total"];
        assert_eq!(rejected, 11_115);
        let count = |cause| s.events.iter().filter(|e| e.cause == cause).count();
        assert_eq!(count(Cause::DeadlineSpill) as u64, r.fallbacks - rejected);
        assert_eq!(count(Cause::DeadlineSpill), 150);
        // 11 115 rejections in 9 runs, 18 623 stalls in 1 691 and 2 470
        // conflicts in 162: 2 012 events, where one per rejection made
        // 13 118 and overflowed the 4 096-slot ring.
        assert_eq!(count(Cause::QueueFull), 9);
        assert_eq!(count(Cause::SpmExhausted), 1_691);
        assert_eq!(count(Cause::SubarrayConflict), 162);
        assert_eq!(s.events.len(), 9 + 150 + 1_691 + 162);
    }

    #[test]
    fn traced_run_matches_untraced_report() {
        let c = FallbackConfig {
            duration: Nanos::from_ms(50),
            ..FallbackConfig::default()
        };
        let registry = Registry::new();
        assert_eq!(simulate(&c), simulate_traced(&c, &registry));
        // An overloaded point leaves cause-tagged events on the trail,
        // stamped with the simulated time of their refresh window.
        let overloaded = c.with_accesses(1);
        let registry = Registry::new();
        let _ = simulate_traced(&overloaded, &registry);
        let t_refi = overloaded.nma.timings.t_refi;
        let spills: Vec<_> = registry
            .snapshot()
            .events
            .into_iter()
            .filter(|e| matches!(e.cause, Cause::DeadlineSpill | Cause::QueueFull))
            .collect();
        assert!(!spills.is_empty());
        assert!(spills.iter().all(|e| e.virt_ns == (t_refi * e.aux).as_ns()));
    }
}
