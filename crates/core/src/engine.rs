//! The near-memory (de)compression engine model.
//!
//! The engine is a *timing* model over sizes. Timing is modeled by
//! throughput parameters calibrated to the paper's builds: the FPGA
//! prototype sustains 1.4/1.7 GB/s (compress/decompress, §8 "highly
//! overprovisioned for XFM"), and the AxDIMM-class accelerator IP
//! reaches 14.8/17.2 GB/s (§7).
//!
//! The engine never sees a payload: the `XFM_Backend` runs the codec
//! once per page on the host, to store the page or to restore it, and
//! hands each job the two sizes of that work — the bytes read and the
//! bytes written back. A compression pass is charged its input over the
//! compress throughput, a decompression pass its output over the
//! decompress throughput. The compressor and the decompressor are
//! separate functional units (the prototype's inventory lists a
//! `deflate-compress` and a `deflate-decompress` block), each serial.

use std::collections::VecDeque;
use std::sync::Arc;

use xfm_faults::{FaultInjector, FaultSite};
use xfm_types::{Bandwidth, ByteSize, Error, Nanos, Result};

use crate::regs::OffloadKind;

/// Completion of a pipelined engine job (emitted by [`EngineModel::poll`]).
#[derive(Debug)]
pub struct EngineEvent {
    /// Caller-chosen job id (the NMA maps it back to an offload).
    pub id: u64,
    /// Virtual time the pass finished (input time + queueing + transform
    /// time at the modeled throughput).
    pub at: Nanos,
    /// `Err` when the pass timed out (an injected fault).
    pub result: Result<()>,
}

#[derive(Debug)]
struct PipelinedJob {
    id: u64,
    start: Nanos,
    done_at: Nanos,
    result: Result<()>,
    urgent: bool,
}

/// The engine: a throughput model and busy-time accounting.
///
/// # Examples
///
/// ```
/// use xfm_core::engine::EngineModel;
/// use xfm_core::OffloadKind;
/// use xfm_types::Nanos;
///
/// let mut engine = EngineModel::fpga_prototype();
/// // A 4 KiB page that compresses to 1 KiB.
/// let done = engine.submit_job(1, OffloadKind::Compress, (4096, 1024), Nanos::ZERO, false);
/// assert!(done.as_us_f64() < 10.0); // 4 KiB at 1.4 GB/s ≈ 2.9 us
/// ```
#[derive(Debug)]
pub struct EngineModel {
    compress_bw: Bandwidth,
    decompress_bw: Bandwidth,
    busy: Nanos,
    compressed_bytes: u64,
    decompressed_bytes: u64,
    /// Fault hooks: an armed [`FaultSite::NmaEngineTimeout`] site makes
    /// an engine pass error out, which the NMA surfaces as a fallback.
    faults: Option<Arc<FaultInjector>>,
    /// The jobs in flight on the compress and decompress units, in
    /// [`OffloadKind`] order, each completion-ordered (a serial unit
    /// finishes its jobs in the order it runs them).
    units: [VecDeque<PipelinedJob>; 2],
}

impl EngineModel {
    /// Builds an engine from its throughputs.
    #[must_use]
    pub fn new(compress_bw: Bandwidth, decompress_bw: Bandwidth) -> Self {
        Self {
            compress_bw,
            decompress_bw,
            busy: Nanos::ZERO,
            compressed_bytes: 0,
            decompressed_bytes: 0,
            faults: None,
            units: Default::default(),
        }
    }

    /// Arms fault-injection hooks: when the
    /// [`FaultSite::NmaEngineTimeout`] site fires, a (de)compress pass
    /// errors out as if the engine hung past its window deadline.
    pub fn attach_faults(&mut self, faults: Arc<FaultInjector>) {
        self.faults = Some(faults);
    }

    fn injected_timeout(&self) -> Result<()> {
        if let Some(f) = &self.faults {
            if f.should_fire(FaultSite::NmaEngineTimeout) {
                return Err(Error::Device("injected fault: engine timeout".into()));
            }
        }
        Ok(())
    }

    /// The paper's FPGA prototype: open-source Deflate at 1.4 / 1.7 GB/s.
    #[must_use]
    pub fn fpga_prototype() -> Self {
        Self::new(Bandwidth::from_gbps(1.4), Bandwidth::from_gbps(1.7))
    }

    /// AxDIMM-class accelerator IP: 14.8 / 17.2 GB/s (§7).
    #[must_use]
    pub fn axdimm_class() -> Self {
        Self::new(Bandwidth::from_gbps(14.8), Bandwidth::from_gbps(17.2))
    }

    /// Submits a pipelined job that reads `input` bytes and writes
    /// `output` bytes. Its kind's unit is serial, so the job starts when
    /// that unit frees up (or at `at`) and finishes one pass-time later;
    /// an `urgent` job (a demand fault's pass) overtakes every queued job
    /// of its unit that is not urgent and has not started by `at`, and
    /// each of those finishes one pass later. Returns the modeled
    /// completion time; [`EngineModel::poll`] delivers the job once
    /// virtual time reaches it.
    ///
    /// A job that times out (an injected fault) completes immediately
    /// at its start time with the error in [`EngineEvent::result`] and
    /// adds no busy time.
    pub fn submit_job(
        &mut self,
        id: u64,
        kind: OffloadKind,
        (input, output): (u32, u32),
        at: Nanos,
        urgent: bool,
    ) -> Nanos {
        let result = self.injected_timeout();
        let pass = if result.is_ok() {
            self.charge(kind, input, output)
        } else {
            Nanos::ZERO
        };
        let unit = &mut self.units[kind as usize];
        let overtaken = urgent
            .then(|| unit.iter().position(|j| !j.urgent && j.start > at))
            .flatten();
        let start = match overtaken {
            // The unit is busy up to the overtaken job's start, and from
            // there on everything queued moves back by this pass.
            Some(pos) => {
                for job in unit.range_mut(pos..) {
                    job.start += pass;
                    job.done_at += pass;
                }
                unit[pos].start - pass
            }
            None => unit.back().map_or(at, |last| last.done_at.max(at)),
        };
        let done_at = start + pass;
        let job = PipelinedJob {
            id,
            start,
            done_at,
            result,
            urgent,
        };
        unit.insert(overtaken.unwrap_or(unit.len()), job);
        done_at
    }

    /// Books one pass and returns its time: a compression is bound by
    /// the bytes it reads, a decompression by the bytes it produces.
    fn charge(&mut self, kind: OffloadKind, input: u32, output: u32) -> Nanos {
        let (bw, bytes, counter) = match kind {
            OffloadKind::Compress => (self.compress_bw, input, &mut self.compressed_bytes),
            OffloadKind::Decompress => (self.decompress_bw, output, &mut self.decompressed_bytes),
        };
        *counter += u64::from(bytes);
        let t = bw.time_for(ByteSize::from_bytes(u64::from(bytes)));
        self.busy += t;
        t
    }

    /// The unit whose oldest in-flight job finishes first (the
    /// compressor at a tie), and that job's completion time.
    fn next_done(&self) -> Option<(usize, Nanos)> {
        let front = |u: usize| self.units[u].front().map(|j| (u, j.done_at));
        match (front(0), front(1)) {
            (Some(c), Some(d)) => Some(if d.1 < c.1 { d } else { c }),
            (c, d) => c.or(d),
        }
    }

    /// Completion time of the oldest in-flight pipelined job.
    #[must_use]
    pub fn next_completion(&self) -> Option<Nanos> {
        self.next_done().map(|(_, t)| t)
    }

    /// Number of pipelined jobs not yet delivered.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.units.iter().map(VecDeque::len).sum()
    }

    /// Delivers every job that completed at or before `now`, in
    /// completion order, appending one [`EngineEvent`] each to `out`.
    pub fn poll(&mut self, now: Nanos, out: &mut Vec<EngineEvent>) {
        while let Some((u, _)) = self.next_done().filter(|&(_, t)| t <= now) {
            let job = self.units[u].pop_front().expect("a front job");
            out.push(EngineEvent {
                id: job.id,
                at: job.done_at,
                result: job.result,
            });
        }
    }

    /// Total modeled busy time.
    #[must_use]
    pub fn busy_time(&self) -> Nanos {
        self.busy
    }

    /// Engine utilization over an elapsed interval — §8 notes the
    /// prototype's engines are "mostly underutilized" because the NMA's
    /// DRAM-side bandwidth (< 1 GB/s) is the binding constraint.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero.
    #[must_use]
    pub fn utilization(&self, elapsed: Nanos) -> f64 {
        assert!(!elapsed.is_zero(), "elapsed must be non-zero");
        (self.busy.as_ps() as f64 / elapsed.as_ps() as f64).min(1.0)
    }

    /// Bytes compressed and decompressed so far.
    #[must_use]
    pub fn throughput_counters(&self) -> (ByteSize, ByteSize) {
        (
            ByteSize::from_bytes(self.compressed_bytes),
            ByteSize::from_bytes(self.decompressed_bytes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use OffloadKind::{Compress, Decompress};

    #[test]
    fn round_trip_through_engine() {
        // Both directions are charged on the page's bytes, whatever the
        // size of the stream between them.
        let mut e = EngineModel::fpga_prototype();
        let compressed = e.submit_job(1, Compress, (4096, 700), Nanos::ZERO, false);
        let restored = e.submit_job(2, Decompress, (700, 4096), compressed, false);
        let page = ByteSize::from_bytes(4096);
        assert_eq!(compressed, Bandwidth::from_gbps(1.4).time_for(page));
        assert_eq!(
            restored - compressed,
            Bandwidth::from_gbps(1.7).time_for(page)
        );
    }

    #[test]
    fn timing_scales_with_bandwidth() {
        let mut slow = EngineModel::fpga_prototype();
        let mut fast = EngineModel::axdimm_class();
        let t_slow = slow.submit_job(1, Compress, (4096, 32), Nanos::ZERO, false);
        let t_fast = fast.submit_job(1, Compress, (4096, 32), Nanos::ZERO, false);
        // 14.8 / 1.4 ≈ 10.6x faster.
        let ratio = t_slow.as_ps() as f64 / t_fast.as_ps() as f64;
        assert!((ratio - 10.57).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn busy_time_accumulates() {
        let mut e = EngineModel::fpga_prototype();
        e.submit_job(1, Compress, (4096, 32), Nanos::ZERO, false);
        e.submit_job(2, Compress, (4096, 32), Nanos::ZERO, false);
        // 2 x (4096 B / 1.4 GB/s) ≈ 5.85 us.
        assert!((e.busy_time().as_us_f64() - 5.85).abs() < 0.1);
        let (c, d) = e.throughput_counters();
        assert_eq!(c.as_bytes(), 8192);
        assert_eq!(d.as_bytes(), 0);
    }

    #[test]
    fn utilization_is_low_at_xfm_rates() {
        // One page per refresh interval (3.9 us) at FPGA speed: the
        // engine is busy ~2.9 us/3.9 us... but at AxDIMM speed, <10%.
        let mut e = EngineModel::axdimm_class();
        e.submit_job(1, Compress, (4096, 32), Nanos::ZERO, false);
        let trefi = Nanos::from_ms(32) / 8192;
        assert!(e.utilization(trefi) < 0.1);
    }

    #[test]
    fn pipelined_jobs_serialize_on_the_functional_unit() {
        let mut e = EngineModel::fpga_prototype();
        let t0 = Nanos::from_us(10);
        // Two jobs arriving together: the second queues behind the first.
        let d1 = e.submit_job(1, Compress, (4096, 32), t0, false);
        let d2 = e.submit_job(2, Compress, (4096, 32), t0, false);
        assert!(d1 > t0);
        let pass = d1 - t0;
        assert_eq!(d2, d1 + pass, "second job starts when the first ends");
        assert_eq!(e.in_flight(), 2);
        assert_eq!(e.next_completion(), Some(d1));
    }

    #[test]
    fn units_overlap_and_urgent_jobs_overtake_queued_ones() {
        let mut e = EngineModel::fpga_prototype();
        let t0 = Nanos::from_us(10);
        let c1 = e.submit_job(1, Compress, (4096, 32), t0, false);
        // The decompressor does not wait for the compressor.
        let d1 = e.submit_job(2, Decompress, (900, 4096), t0, false);
        assert_eq!(
            d1 - t0,
            Bandwidth::from_gbps(1.7).time_for(ByteSize::from_kib(4))
        );
        // Job 3 queues behind job 1; urgent job 4 takes its turn, and job
        // 3 finishes one pass later.
        let c3 = e.submit_job(3, Compress, (4096, 32), t0, false);
        assert_eq!(e.submit_job(4, Compress, (4096, 32), t0, true), c3);
        let mut out = Vec::new();
        e.poll(Nanos::from_ms(1), &mut out);
        let order: Vec<_> = out.iter().map(|j| (j.id, j.at)).collect();
        assert_eq!(order, [(2, d1), (1, c1), (4, c3), (3, c3 + (c1 - t0))]);
    }

    #[test]
    fn poll_delivers_in_completion_order_up_to_now() {
        let mut e = EngineModel::fpga_prototype();
        let d1 = e.submit_job(1, Compress, (4096, 32), Nanos::from_us(1), false);
        let d2 = e.submit_job(2, Compress, (4096, 32), Nanos::from_us(1), false);
        let mut out = Vec::new();
        e.poll(d1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 1);
        assert!(out[0].result.is_ok());
        out.clear();
        e.poll(d2, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 2);
        assert_eq!(e.in_flight(), 0);
        assert_eq!(e.next_completion(), None);
    }

    #[test]
    fn failed_job_completes_immediately_with_error() {
        use xfm_faults::{FaultPlan, SiteSpec};
        let plan = FaultPlan::new(1)
            .with_site(FaultSite::NmaEngineTimeout, SiteSpec::with_probability(1.0));
        let mut e = EngineModel::fpga_prototype();
        e.attach_faults(Arc::new(FaultInjector::new(&plan)));
        let at = Nanos::from_us(3);
        let done = e.submit_job(9, Decompress, (1200, 4096), at, false);
        assert_eq!(done, at, "errors add no engine occupancy");
        assert_eq!(e.busy_time(), Nanos::ZERO);
        assert_eq!(e.throughput_counters().1, ByteSize::ZERO);
        let mut out = Vec::new();
        e.poll(at, &mut out);
        assert!(out[0].result.is_err());
    }
}
