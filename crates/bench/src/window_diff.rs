//! The two refresh-window models side by side (`xfm-repro window-diff`).
//!
//! Fig. 12 reads `xfm_sim::fallback`, a per-window loop that counts a
//! window's service in bytes and re-aligns missed flexible work. The
//! device `XfmBackend` runs is [`NearMemoryAccelerator`] over
//! `xfm_core::sched::WindowScheduler`, which counts access slots and
//! spills missed flexible work. [`window_diff`] feeds each of Fig. 12's
//! 30 sweep points to both and reports them together.
//!
//! The NMA arm is built from the point's `spm_capacity`,
//! `queue_capacity`, `accesses_per_trfc`, `timings` and `geometry`, and
//! is offered `fallback.rs`'s arrival process with draws of its own
//! (seeded with the point's seed):
//!
//! - every `burst_interval` windows a demotion burst of `burst_pages`
//!   compress offloads (read a page, write back `PAGE_SIZE / ratio`),
//!   and half an interval later a burst of `burst_pages ×
//!   prefetch_accuracy` prefetched decompress offloads, all flexible,
//!   each on a row whose refresh slot is drawn within the alignment
//!   lookahead;
//! - every window a Poisson number of urgent demand decompress
//!   offloads, each to a uniformly drawn row.
//!
//! Every offered op ends as exactly one of completed, fallback (spilled
//! by the scheduler) or rejected at submit, or is still in flight when
//! the point's duration ends.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xfm_core::nma::{NearMemoryAccelerator, NmaConfig, NmaEvent, NmaStats, OffloadShare};
use xfm_core::sched::SchedConfig;
use xfm_core::OffloadKind;
use xfm_dram::timing::REFS_PER_RETENTION;
use xfm_sim::fallback::{simulate_traced, FallbackConfig, FallbackReport};
use xfm_sim::figures::fig12_points;
use xfm_sim::report::{pct, Table};
use xfm_telemetry::Registry;
use xfm_types::{Nanos, PageNumber, RowId, PAGE_SIZE};

/// `fallback.rs` at one sweep point, with its fallbacks split by cause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimArm {
    /// The simulation's report.
    pub report: FallbackReport,
    /// Fallbacks refused at admission (request queue full).
    pub rejects: u64,
    /// Fallbacks spilled after the urgent deadline.
    pub spills: u64,
}

/// What became of the ops offered to the NMA arm at one sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NmaArm {
    /// Offloads offered to `submit`.
    pub offered: u64,
    /// Completed on the device.
    pub completed: u64,
    /// Spilled back to the CPU after admission.
    pub fallbacks: u64,
    /// Refused at submit (request queue or SPM full).
    pub rejected: u64,
    /// Admitted and not finished when the point's duration ended.
    pub in_flight: u64,
    /// The device's own statistics.
    pub stats: NmaStats,
}

impl NmaArm {
    /// CPU share of the finished ops, counted as `fallback.rs` counts
    /// it: refusals and spills over everything that finished.
    #[must_use]
    pub fn fallback_fraction(&self) -> f64 {
        let cpu = self.fallbacks + self.rejected;
        let finished = cpu + self.completed;
        if finished == 0 {
            0.0
        } else {
            cpu as f64 / finished as f64
        }
    }
}

/// One Fig. 12 sweep point through both models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowDiffRow {
    /// The sweep point.
    pub point: FallbackConfig,
    /// `xfm_sim::fallback`.
    pub sim: SimArm,
    /// The NMA device.
    pub nma: NmaArm,
}

/// Runs all 30 Fig. 12 sweep points through both models, `duration` of
/// simulated time each, with `seed` for both arms' draws.
#[must_use]
pub fn window_diff(duration: Nanos, seed: u64) -> Vec<WindowDiffRow> {
    fig12_points(duration)
        .into_iter()
        .map(|point| {
            let point = FallbackConfig { seed, ..point };
            WindowDiffRow {
                point,
                sim: sim_arm(&point),
                nma: nma_arm(&point),
            }
        })
        .collect()
}

/// `fallback.rs` at `point`, traced so its fallbacks split by cause.
#[must_use]
pub fn sim_arm(point: &FallbackConfig) -> SimArm {
    let registry = Registry::new();
    let report = simulate_traced(point, &registry);
    let counters = registry.snapshot().counters;
    SimArm {
        report,
        rejects: counters["xfm_sim_queue_full_fallbacks_total"],
        spills: counters["xfm_sim_deadline_spills_total"],
    }
}

/// Where an offered op is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    InFlight,
    Completed,
    Fallback,
    Rejected,
}

/// The NMA under `fallback.rs`'s arrival process at `point`.
///
/// # Panics
///
/// Panics if the device reports an op finished twice, or one it was
/// never handed.
#[must_use]
pub fn nma_arm(point: &FallbackConfig) -> NmaArm {
    let nma = NearMemoryAccelerator::new(NmaConfig {
        spm_capacity: point.spm_capacity,
        queue_capacity: point.queue_capacity,
        sched: SchedConfig {
            accesses_per_trfc: point.accesses_per_trfc,
            ..SchedConfig::default()
        },
        timings: point.timings,
        geometry: point.geometry,
    });
    let mut rng = StdRng::seed_from_u64(point.seed);
    let t_refi = point.timings.t_refi;
    let ops_per_window = point.ops_per_sec_per_dimm() * t_refi.as_secs_f64();
    let burst_interval = (f64::from(point.burst_pages) / ops_per_window).max(1.0) as u64;
    let promotions = (f64::from(point.burst_pages) * point.prefetch_accuracy).round() as u32;
    let demand_rate = ops_per_window * (1.0 - point.prefetch_accuracy);
    let stored = (PAGE_SIZE as f64 / point.compression_ratio) as u32;
    let page = PAGE_SIZE as u32;
    let lookahead = u64::from(point.alignment_lookahead.max(1));
    let rows = point.geometry.rows_per_bank;

    let mut arm = Offers {
        nma,
        outcomes: Vec::new(),
    };
    for w in 0..point.duration.periods(t_refi) {
        let now = t_refi * w;
        let aligned = |rng: &mut StdRng| (w + 1 + rng.gen_range(0..lookahead)) % REFS_PER_RETENTION;
        if w.is_multiple_of(burst_interval) {
            for _ in 0..point.burst_pages {
                let row = aligned(&mut rng);
                arm.offer(OffloadKind::Compress, (page, stored), row, now, true);
            }
        }
        if (w + burst_interval / 2).is_multiple_of(burst_interval) {
            for _ in 0..promotions {
                let row = aligned(&mut rng);
                arm.offer(OffloadKind::Decompress, (stored, page), row, now, true);
            }
        }
        for _ in 0..poisson(&mut rng, demand_rate) {
            let row = u64::from(rng.gen_range(0..rows));
            arm.offer(OffloadKind::Decompress, (stored, page), row, now, false);
        }
        // Window `w` closes `tRFC` after it opens.
        arm.advance_to(now + point.timings.t_rfc);
    }

    let count = |o: Outcome| arm.outcomes.iter().filter(|&&x| x == o).count() as u64;
    NmaArm {
        offered: arm.outcomes.len() as u64,
        completed: count(Outcome::Completed),
        fallbacks: count(Outcome::Fallback),
        rejected: count(Outcome::Rejected),
        in_flight: count(Outcome::InFlight),
        stats: arm.nma.stats(),
    }
}

/// The NMA arm's device and the outcome of every op offered to it, by
/// op number (which is also the op's page number).
struct Offers {
    nma: NearMemoryAccelerator,
    outcomes: Vec<Outcome>,
}

impl Offers {
    fn offer(
        &mut self,
        kind: OffloadKind,
        (input, output): (u32, u32),
        row: u64,
        now: Nanos,
        flexible: bool,
    ) {
        let page = PageNumber::new(self.outcomes.len() as u64);
        let share = OffloadShare { input, output };
        let row = RowId::new(row as u32);
        self.outcomes.push(
            match self.nma.submit(kind, page, share, row, now, flexible) {
                Ok(()) => Outcome::InFlight,
                Err(_) => Outcome::Rejected,
            },
        );
    }

    fn advance_to(&mut self, now: Nanos) {
        for event in self.nma.advance_to(now) {
            let (page, outcome) = match event {
                NmaEvent::Completed { page, .. } => (page, Outcome::Completed),
                NmaEvent::Fallback { page, .. } => (page, Outcome::Fallback),
            };
            let slot = &mut self.outcomes[page.index() as usize];
            assert_eq!(
                *slot,
                Outcome::InFlight,
                "op {} finished twice",
                page.index()
            );
            *slot = outcome;
        }
    }
}

/// Knuth's Poisson sampler, as `fallback.rs` draws demand (rates here
/// are ≪ 10).
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

/// Renders the comparison, one table per accesses-per-`tRFC` panel.
#[must_use]
pub fn render_window_diff(rows: &[WindowDiffRow]) -> String {
    let mut out = String::new();
    for acc in [1u32, 2, 3] {
        let mut t = Table::new(vec![
            "PR",
            "SPM MiB",
            "fallback: sim / NMA",
            "rejects: sim / NMA",
            "spills: sim / NMA",
            "conditional: sim / NMA",
            "NMA in flight",
        ]);
        t.title(format!(
            "Window models: fallback.rs vs the NMA on Fig. 12's points, {acc} access(es) per tRFC"
        ));
        for r in rows.iter().filter(|r| r.point.accesses_per_trfc == acc) {
            let (sim, nma) = (&r.sim, &r.nma);
            t.row(vec![
                pct(r.point.promotion_rate),
                (r.point.spm_capacity.as_bytes() >> 20).to_string(),
                format!(
                    "{} / {}",
                    pct(sim.report.fallback_fraction()),
                    pct(nma.fallback_fraction())
                ),
                format!("{} / {}", sim.rejects, nma.rejected),
                format!("{} / {}", sim.spills, nma.stats.sched.spilled),
                format!(
                    "{} / {}",
                    pct(sim.report.conditional_fraction()),
                    pct(nma.stats.sched.conditional_fraction())
                ),
                nma.in_flight.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(point: FallbackConfig) -> FallbackConfig {
        FallbackConfig {
            duration: Nanos::from_ms(10),
            ..point
        }
    }

    #[test]
    fn every_offered_op_ends_exactly_once() {
        for point in fig12_points(Nanos::from_ms(10)) {
            let arm = nma_arm(&point);
            assert!(arm.offered > 0);
            assert_eq!(
                arm.offered,
                arm.completed + arm.fallbacks + arm.rejected + arm.in_flight,
                "{point:?}"
            );
            let s = arm.stats;
            assert_eq!(
                (s.submitted, s.completed, s.fallbacks, s.rejected),
                (
                    arm.offered - arm.rejected,
                    arm.completed,
                    arm.fallbacks,
                    arm.rejected
                ),
            );
        }
    }

    #[test]
    fn output_is_deterministic_per_seed() {
        let point = short(FallbackConfig::default());
        assert_eq!(nma_arm(&point), nma_arm(&point));
        assert_eq!(sim_arm(&point), sim_arm(&point));
        let other = nma_arm(&FallbackConfig { seed: 7, ..point });
        assert_ne!(nma_arm(&point), other, "the seed drives the draws");
        let rows = window_diff(Nanos::from_ms(2), 11);
        assert_eq!(rows.len(), 30);
        assert_eq!(
            render_window_diff(&rows),
            render_window_diff(&window_diff(Nanos::from_ms(2), 11))
        );
    }

    #[test]
    fn sim_arm_splits_every_fallback_by_cause() {
        let point = short(FallbackConfig {
            accesses_per_trfc: 1,
            ..FallbackConfig::default()
        });
        let arm = sim_arm(&point);
        assert_eq!(arm.rejects + arm.spills, arm.report.fallbacks);
        assert!(arm.report.fallbacks > 0);
    }
}
