//! The closed-loop epoch runner every workload measures with, and the
//! seam hooks the traced binary plugs its decorators into.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use xfm_compress::Codec;
use xfm_sfm::{SwapPlane, TieredPlane};
use xfm_telemetry::Registry;

use crate::host::cpu_seconds;
use crate::stats::{median, LatencySeries, Samples};

/// A codec as the planes hold it.
pub type DynCodec = Arc<dyn Codec + Send + Sync>;

/// Slot of the swap-out phase in `phase_pages_per_s`.
pub const SWAP_OUT: usize = 0;
/// Slot of the swap-in phase in `phase_pages_per_s`.
pub const SWAP_IN: usize = 1;

/// Latency classes a workload can record per epoch.
pub const CLASSES: usize = 5;

/// The client calls a root span wraps (one per timed operation kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootOp {
    /// `FarKvService::get`.
    KvGet,
    /// `FarKvService::put`.
    KvPut,
    /// `swap_out_batch_ctx` on a bare plane.
    SwapOutBatch,
    /// `swap_in_into_ctx` on a bare plane.
    SwapIn,
    /// `PrefetchEngine::swap_in_into`.
    PrefetchFault,
    /// `PrefetchEngine::swap_out` re-demoting the faulted page.
    PrefetchSwapOut,
    /// `PrefetchEngine::pump`.
    PrefetchPump,
    /// `XfmBackend::advance_to`.
    XfmAdvance,
}

/// The public trait seams of the stack, as the places a tracer may
/// interpose. The end-to-end binary uses [`Untraced`], whose hooks are
/// identities the optimiser removes; the decorators themselves live
/// only in the trace binary.
pub trait Tracer: Sync {
    /// What `PrefetchEngine` wraps (it needs a sized plane type).
    type EngineInner: SwapPlane + 'static;

    /// Seam `ShardedSfm::with_codec` / `PlaneBuilder::codec`.
    fn codec(&self, inner: DynCodec) -> DynCodec {
        inner
    }

    /// Seam between a caller and the plane it holds, named by `seam`.
    fn plane(&self, seam: &'static str, inner: Arc<dyn SwapPlane>) -> Arc<dyn SwapPlane> {
        let _ = seam;
        inner
    }

    /// A telemetry registry to attach to the plane under test, for the
    /// pass that prices attached telemetry. `None` everywhere else.
    fn registry(&self) -> Option<&Registry> {
        None
    }

    /// Seam `PrefetchEngine` → `TieredPlane`.
    fn engine_inner(&self, tiered: Arc<TieredPlane>) -> Arc<Self::EngineInner>;

    /// Root span around one client call.
    #[inline(always)]
    fn root<R>(&self, op: RootOp, f: impl FnOnce() -> R) -> R {
        let _ = op;
        f()
    }
}

/// No tracing: what every end-to-end number is measured with.
#[derive(Debug, Clone, Copy, Default)]
pub struct Untraced;

impl Tracer for Untraced {
    type EngineInner = TieredPlane;

    fn engine_inner(&self, tiered: Arc<TieredPlane>) -> Arc<TieredPlane> {
        tiered
    }
}

/// Bytes of one calibration slice (about 3 µs, and as long again to
/// bring the page into the first-level cache beforehand).
const SLICE_BYTES: usize = 2048;
/// Bytes of one value in the calibration page: runs this long.
const SLICE_RUN: usize = 128;
/// Client time between calibration slices.
const SLICE_EVERY: Duration = Duration::from_micros(200);

/// A fixed piece of work that is slowed by what slows the stack under
/// test, whatever the stack does: a byte histogram of a page whose
/// bytes come in runs, so that each increment waits for the store
/// before it. That is a dependency chain through the core's load and
/// store path. (A register-only multiply chain, tried first, saw a
/// third of each slowdown the workloads saw on the reference host;
/// this one sees them one for one. See *A noisy host* in the README.)
#[inline(never)]
fn tally(page: &[u8], counts: &mut [u32; 256]) {
    for &byte in page {
        counts[usize::from(byte)] = counts[usize::from(byte)].wrapping_add(1);
    }
}

/// Host-speed probe a client interleaves with its operations: about
/// every 200 µs it times one short calibration slice, so each epoch
/// knows how fast the host was while it ran.
#[derive(Debug)]
pub struct Calib {
    next: Instant,
    page: Vec<u8>,
    counts: [u32; 256],
    bytes: u64,
    ns: u64,
}

impl Default for Calib {
    fn default() -> Self {
        Self {
            next: Instant::now(),
            page: (0..SLICE_BYTES).map(|i| (i / SLICE_RUN) as u8).collect(),
            counts: [0; 256],
            bytes: 0,
            ns: 0,
        }
    }
}

impl Calib {
    /// Runs a slice if one is due; `now` is a timestamp the caller
    /// already holds.
    #[inline]
    pub fn tick(&mut self, now: Instant) {
        if now >= self.next {
            self.slice();
        }
    }

    /// Runs one slice and schedules the next.
    fn slice(&mut self) {
        // Once untimed: whatever the workload left in the cache, the
        // timed pass finds the page and the counters near.
        tally(std::hint::black_box(&self.page), &mut self.counts);
        let began = Instant::now();
        tally(std::hint::black_box(&self.page), &mut self.counts);
        std::hint::black_box(&mut self.counts);
        let end = Instant::now();
        self.bytes += SLICE_BYTES as u64;
        self.ns += (end - began).as_nanos() as u64;
        self.next = end + SLICE_EVERY;
    }

    /// Calibration bytes per nanosecond since the last drain.
    pub fn drain(&mut self) -> f64 {
        let rate = self.bytes as f64 / self.ns.max(1) as f64;
        (self.bytes, self.ns) = (0, 0);
        rate
    }
}

/// Host speed right now, relative to [`REFERENCE_CALIB`]: calibration
/// slices back to back for `burst`, for work that has no operations to
/// interleave them with (a set-up).
#[must_use]
pub fn host_speed_now(burst: Duration) -> f64 {
    let mut calib = Calib::default();
    let began = Instant::now();
    while began.elapsed() < burst {
        calib.slice();
    }
    calib.drain() / REFERENCE_CALIB
}

/// Calibration rate (bytes per nanosecond) of the reference host at
/// full speed: `speed` 1.0. Throughputs, latencies and CPU figures are
/// reported at this speed, so that a host that is slow, or slowed by
/// its neighbours, for part or all of a run does not read as a slow
/// program.
pub const REFERENCE_CALIB: f64 = 0.6;

/// What a client's epoch body records into: latency samples by class
/// and the interleaved host-speed probe.
#[derive(Debug)]
pub struct Meter {
    /// When a time-sliced epoch ends.
    pub deadline: Instant,
    lat: [Samples; CLASSES],
    calib: Calib,
}

impl Meter {
    /// Nanoseconds since `t0`; also runs a calibration slice if one is
    /// due (after the lap is taken, so the slice is in no latency).
    #[inline]
    pub fn lap(&mut self, t0: Instant) -> u64 {
        let end = Instant::now();
        self.calib.tick(end);
        (end - t0).as_nanos() as u64
    }

    /// Records a latency of `class`.
    #[inline]
    pub fn push(&mut self, class: usize, ns: u64) {
        self.lat[class].push(ns);
    }
}

/// What one client did in one epoch.
#[derive(Debug, Default, Clone)]
pub struct EpochPart {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed any correctness check.
    pub failed: u64,
    /// First op start to last op end.
    pub elapsed: Duration,
    /// Pages per second of the epoch's swap-out and swap-in phases
    /// ([`SWAP_OUT`], [`SWAP_IN`]), on the workloads that have phases.
    pub phase_pages_per_s: [f64; 2],
}

/// Everything one measurement pass produced.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Operations attempted over all epochs.
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Epochs measured.
    pub epochs: usize,
    /// Throughput of each epoch (sum over clients of ops ÷ elapsed),
    /// as the wall clock saw it.
    pub raw_ops_per_s: Vec<f64>,
    /// Host speed during each epoch, relative to [`REFERENCE_CALIB`]
    /// (mean over clients).
    pub speed: Vec<f64>,
    /// Per-class per-epoch percentiles, over all clients' samples, at
    /// reference speed.
    pub lat: [LatencySeries; CLASSES],
    /// Per-epoch phase rates (client 0's), at reference speed.
    pub phase_pages_per_s: [Vec<f64>; 2],
    /// Process CPU seconds spent inside the epochs, at reference speed.
    pub cpu_s: f64,
    /// Sum of the clients' epoch wall times.
    pub client_s: f64,
}

impl Pass {
    /// Median-epoch throughput at reference host speed.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        let at_reference: Vec<f64> = self
            .raw_ops_per_s
            .iter()
            .zip(&self.speed)
            .map(|(raw, speed)| raw / speed)
            .collect();
        median(&at_reference).unwrap_or(0.0)
    }

    /// Process CPU microseconds per operation at reference host speed.
    #[must_use]
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s * 1e6 / self.ops.max(1) as f64
    }

    /// Median host speed over the epochs.
    #[must_use]
    pub fn host_speed(&self) -> f64 {
        median(&self.speed).unwrap_or(1.0)
    }
}

/// How long a pass measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Whole epochs until this many seconds have been measured.
    Seconds(f64),
    /// Exactly this many epochs: fixed work, so counts repeat.
    Epochs(usize),
}

/// How a pass is measured.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// When to stop.
    pub budget: Budget,
    /// Seconds per time-sliced epoch (a cycle-based body ignores its
    /// deadline).
    pub epoch_s: f64,
    /// Latency samples each client can hold per class and epoch; its
    /// buffers are sized once, before the first epoch.
    pub samples: [usize; CLASSES],
}

/// Runs closed-loop epochs on `states.len()` client threads until
/// `plan.budget` is spent (at least one epoch).
///
/// Each epoch every client calls `body(client, state, meter)` once,
/// between two barriers; `body` runs operations until `meter.deadline`
/// (a time-sliced workload) or for one fixed cycle (ignoring it), and
/// returns its [`EpochPart`]. Process CPU is sampled between the same
/// barriers, so reducing an epoch's samples to percentiles is not
/// billed to the workload.
pub fn run_epochs<S: Send>(
    plan: Plan,
    states: &mut [S],
    body: impl Fn(usize, &mut S, &mut Meter) -> EpochPart + Sync,
) -> Pass {
    let clients = states.len();
    let start_line = Barrier::new(clients + 1);
    let finish_line = Barrier::new(clients + 1);
    let go = AtomicBool::new(true);
    let (tx, rx) = mpsc::channel::<(usize, EpochPart, f64)>();
    let pooled: [Mutex<Vec<u32>>; CLASSES] = std::array::from_fn(|_| Mutex::new(Vec::new()));
    let mut pass = Pass::default();

    std::thread::scope(|scope| {
        for (client, state) in states.iter_mut().enumerate() {
            let tx = tx.clone();
            let (start_line, finish_line, go, body, pooled) =
                (&start_line, &finish_line, &go, &body, &pooled);
            let mut meter = Meter {
                deadline: Instant::now(),
                lat: plan.samples.map(Samples::with_capacity),
                calib: Calib::default(),
            };
            scope.spawn(move || loop {
                start_line.wait();
                if !go.load(Ordering::Acquire) {
                    break;
                }
                meter.deadline = Instant::now() + Duration::from_secs_f64(plan.epoch_s);
                let part = body(client, state, &mut meter);
                for (pool, samples) in pooled.iter().zip(&mut meter.lat) {
                    samples.move_into(&mut pool.lock().expect("sample pool"));
                }
                finish_line.wait();
                tx.send((client, part, meter.calib.drain()))
                    .expect("runner outlives clients");
            });
        }

        let began = Instant::now();
        loop {
            let cpu0 = cpu_seconds();
            start_line.wait();
            finish_line.wait();
            let cpu = cpu_seconds() - cpu0;
            let (mut rate, mut calib, mut phases) = (0.0, 0.0, [0.0; 2]);
            for _ in 0..clients {
                let (client, part, rate_of_calib) = rx.recv().expect("client reports its epoch");
                pass.ops += part.ops;
                pass.failed += part.failed;
                pass.client_s += part.elapsed.as_secs_f64();
                rate += part.ops as f64 / part.elapsed.as_secs_f64().max(1e-9);
                calib += rate_of_calib / clients as f64;
                if client == 0 {
                    phases = part.phase_pages_per_s;
                }
            }
            // An epoch too short for a calibration slice counts as
            // reference speed.
            let speed = if calib > 0.0 {
                calib / REFERENCE_CALIB
            } else {
                1.0
            };
            pass.raw_ops_per_s.push(rate);
            pass.speed.push(speed);
            pass.cpu_s += cpu * speed;
            for (all, one) in pass.phase_pages_per_s.iter_mut().zip(phases) {
                all.push(one / speed);
            }
            for (series, pool) in pass.lat.iter_mut().zip(&pooled) {
                let mut pool = pool.lock().expect("sample pool");
                series.add(&mut pool, speed);
                pool.clear();
            }
            pass.epochs += 1;
            let spent = match plan.budget {
                Budget::Seconds(s) => began.elapsed().as_secs_f64() >= s,
                Budget::Epochs(n) => pass.epochs >= n,
            };
            if spent {
                break;
            }
        }
        go.store(false, Ordering::Release);
        start_line.wait();
    });
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(budget: Budget) -> Plan {
        Plan {
            budget,
            epoch_s: 0.01,
            samples: [4096; CLASSES],
        }
    }

    #[test]
    fn epochs_run_on_every_client_and_sum_up() {
        let mut states = vec![0u64; 2];
        let pass = run_epochs(
            plan(Budget::Seconds(0.05)),
            &mut states,
            |client, calls, meter| {
                *calls += 1;
                let began = Instant::now();
                let mut part = EpochPart::default();
                loop {
                    let t0 = Instant::now();
                    if t0 >= meter.deadline {
                        break;
                    }
                    part.ops += 1;
                    let ns = meter.lap(t0);
                    meter.push(client, ns);
                }
                part.failed = u64::from(client == 1);
                part.elapsed = began.elapsed();
                part
            },
        );
        assert!(pass.epochs >= 3, "{} epochs", pass.epochs);
        assert_eq!(states, [pass.epochs as u64; 2]);
        assert_eq!(pass.failed, pass.epochs as u64);
        assert_eq!(pass.raw_ops_per_s.len(), pass.epochs);
        assert_eq!(pass.speed.len(), pass.epochs);
        assert!(pass.ops_per_s() > 0.0 && pass.host_speed() > 0.0);
        assert!(pass.client_s > 0.04);
        // Each client recorded into its own class; both were pooled.
        assert!(pass.lat[0].samples > 0 && pass.lat[1].samples > 0);
        assert_eq!(pass.lat[2].samples, 0);
    }

    #[test]
    fn an_epoch_budget_is_exact() {
        let fixed = run_epochs(plan(Budget::Epochs(3)), &mut [(), ()], |_, _, _| {
            EpochPart::default()
        });
        assert_eq!(fixed.epochs, 3);
        assert_eq!(fixed.speed, [1.0; 3], "no calibration slice ran");
    }

    #[test]
    fn calibration_measures_a_plausible_speed() {
        let mut calib = Calib::default();
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(5) {
            calib.tick(Instant::now());
        }
        let rate = calib.drain();
        assert!(rate > 0.01 && rate < 10.0, "{rate} bytes per ns");
        assert_eq!(calib.drain(), 0.0);
    }
}
