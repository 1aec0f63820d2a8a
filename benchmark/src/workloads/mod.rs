//! The five workloads and the run protocol they share: repeated
//! set-up, a replay check for the deterministic ones, one discarded
//! warm-up, the measured epochs, and a final sweep of every key.

use std::time::{Duration, Instant};

use crate::harness::{host_speed_now, Budget, Pass, Tracer};
use crate::stats::{median, LatencySeries};

pub mod kv;
pub mod plane_swap;
pub mod tier_prefetch;
pub mod xfm_offload;

/// Workload names, fixed: later issues cite them.
pub const NAMES: [&str; 5] = [
    "kv-hot",
    "kv-churn",
    "plane-swap",
    "tier-prefetch",
    "xfm-offload",
];

/// Set-ups per run, at least; `setup_s` is the median of them all.
const MIN_SETUPS: usize = 3;
/// A run keeps setting up until it has spent this long at it, so that
/// a set-up of a tenth of a second is timed a dozen times.
const SETUP_SECONDS: f64 = 1.5;
/// Host-speed burst before the first set-up and after each: a set-up is
/// taken at the mean speed of the bursts on either side of it.
const SETUP_BURST: Duration = Duration::from_millis(20);

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 0x5EED_F00D;

/// What a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Shrink populations eightfold (the `--smoke` run).
    pub smoke: bool,
}

impl Config {
    /// `full` at full scale, an eighth of it (at least `floor`) in a
    /// smoke run.
    #[must_use]
    pub fn scaled(&self, full: u64, floor: u64) -> u64 {
        if self.smoke {
            (full / 8).max(floor)
        } else {
            full
        }
    }
}

/// One workload's state: inputs, the stack under test, cursors.
pub trait World<T: Tracer>: Sized {
    /// Client threads of the measured pass.
    const CLIENTS: usize;
    /// Single-client and fully seeded: two replays must agree exactly.
    const DETERMINISTIC: bool = false;

    /// Generates inputs, builds the stack through the tracer's seams,
    /// and populates it. Everything a timed loop touches exists after.
    fn setup(workload: &str, cfg: &Config, tracer: &T) -> Self;

    /// Bytes the system holds per byte the user stored, read at the
    /// quiescent point right after populate.
    fn mem_bytes_per_user_byte(&self) -> f64;

    /// Measures closed-loop epochs on `clients` threads for `budget`.
    fn measure(&mut self, tracer: &T, clients: usize, budget: Budget) -> Pass;

    /// Latencies of the reads served from far memory (the
    /// `fault_p50_us` / `fault_p99_us` metrics): class 0 of the measured
    /// pass, unless the workload measures them apart from it.
    fn fault_latency(&mut self, tracer: &T, pass: &Pass) -> LatencySeries {
        let _ = tracer;
        pass.lat[0].clone()
    }

    /// Counts and simulated values that must repeat exactly.
    fn fingerprint(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Re-reads every key or page; returns `(attempted, failed)`.
    fn sweep(&mut self) -> (u64, u64);
}

/// Everything an end-to-end run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Median set-up time at reference host speed, seconds.
    pub setup_s: f64,
    /// Set-ups timed, and their median as the wall clock saw it.
    pub setups: (usize, f64),
    /// The measured pass.
    pub pass: Pass,
    /// Latencies of the reads served from far memory.
    pub fault: LatencySeries,
    /// See [`World::mem_bytes_per_user_byte`].
    pub mem_bytes_per_user_byte: f64,
    /// Timed operations plus the final sweep's reads.
    pub attempted: u64,
    /// Operations that failed any check (plus one for a failed replay
    /// check or unbalanced accounting).
    pub failed: u64,
}

/// Runs the shared protocol on one world type.
pub fn run_world<T: Tracer, W: World<T>>(workload: &str, cfg: &Config, tracer: &T) -> RunResult {
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut prints = Vec::new();
    let mut world = None;
    let setup_seconds = if cfg.smoke { 0.0 } else { SETUP_SECONDS };
    let mut speed_before = host_speed_now(SETUP_BURST);
    while setups.len() < MIN_SETUPS || raw_setups.iter().sum::<f64>() < setup_seconds {
        drop(world.take());
        let began = Instant::now();
        let mut w = W::setup(workload, cfg, tracer);
        let took = began.elapsed().as_secs_f64();
        let speed_after = host_speed_now(SETUP_BURST);
        raw_setups.push(took);
        setups.push(took * (speed_before + speed_after) / 2.0);
        speed_before = speed_after;
        if W::DETERMINISTIC && prints.len() < 2 {
            // Replay check, outside the set-up timer: one cycle on a
            // world that is then thrown away (the last set-up is the
            // one measured, and is never replayed on).
            w.measure(tracer, 1, Budget::Epochs(1));
            prints.push(w.fingerprint());
            continue;
        }
        world = Some(w);
    }
    let mut world = world.expect("at least one set-up");
    let replay_failed = u64::from(prints.windows(2).any(|p| p[0] != p[1]));
    let mem = world.mem_bytes_per_user_byte();

    world.measure(tracer, W::CLIENTS, Budget::Epochs(1)); // warm-up, discarded
    let pass = world.measure(tracer, W::CLIENTS, Budget::Seconds(cfg.seconds));
    let fault = world.fault_latency(tracer, &pass);
    let (swept, lost) = world.sweep();
    RunResult {
        setup_s: median(&setups).expect("at least one set-up"),
        setups: (
            raw_setups.len(),
            median(&raw_setups).expect("at least one set-up"),
        ),
        fault,
        mem_bytes_per_user_byte: mem,
        attempted: pass.ops + swept,
        failed: pass.failed + lost + replay_failed,
        pass,
    }
}

/// Runs `workload` by name; `None` for an unknown name.
pub fn run<T: Tracer>(workload: &str, cfg: &Config, tracer: &T) -> Option<RunResult> {
    Some(match workload {
        "kv-hot" | "kv-churn" => run_world::<T, kv::KvWorld>(workload, cfg, tracer),
        "plane-swap" => run_world::<T, plane_swap::PlaneSwapWorld>(workload, cfg, tracer),
        "tier-prefetch" => {
            run_world::<T, tier_prefetch::TierPrefetchWorld<T>>(workload, cfg, tracer)
        }
        "xfm-offload" => run_world::<T, xfm_offload::XfmOffloadWorld>(workload, cfg, tracer),
        _ => return None,
    })
}
