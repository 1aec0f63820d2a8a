//! The near-memory (de)compression engine model.
//!
//! The engine is a *timing* model over real bytes. Timing is modeled
//! by throughput parameters calibrated to the paper's builds: the FPGA
//! prototype sustains 1.4/1.7 GB/s (compress/decompress, §8 "highly
//! overprovisioned for XFM"), and the AxDIMM-class accelerator IP
//! reaches 14.8/17.2 GB/s (§7).
//!
//! Who computes the bytes: a job submitted with its output already
//! *prepared* — the `XFM_Backend` has by then run the same codec over
//! the same share on the host, to store the page or to restore it —
//! carries that output through the pipeline and the engine charges the
//! pass without redoing it. A job submitted bare (a device driven
//! directly, and the synchronous [`EngineModel::compress`] /
//! [`EngineModel::decompress`]) runs the engine's own [`xfm_compress`]
//! codec when it is submitted. Fault draw, start time, occupancy and
//! the busy/byte counters are the same either way.

use std::collections::VecDeque;
use std::sync::Arc;

use xfm_compress::{Codec, Scratch, XDeflate};
use xfm_event::{Events, Simulated};
use xfm_faults::{FaultInjector, FaultSite};
use xfm_types::{Bandwidth, ByteSize, Error, Nanos, Result, PAGE_SIZE};

/// Which pass a pipelined engine job performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineJobKind {
    /// Page compression (swap-out direction).
    Compress,
    /// Stream decompression (swap-in direction).
    Decompress,
}

/// Completion of a pipelined engine job (emitted by [`EngineModel::poll`]).
#[derive(Debug)]
pub struct EngineEvent {
    /// Caller-chosen job id (the NMA maps it back to an offload).
    pub id: u64,
    /// Which pass ran.
    pub kind: EngineJobKind,
    /// Virtual time the pass finished (input time + queueing + transform
    /// time at the modeled throughput).
    pub at: Nanos,
    /// The transformed bytes, or the codec/fault error.
    pub result: Result<Vec<u8>>,
}

#[derive(Debug)]
struct PipelinedJob {
    id: u64,
    kind: EngineJobKind,
    done_at: Nanos,
    result: Result<Vec<u8>>,
}

/// The engine: a codec plus a throughput model and busy-time accounting.
///
/// # Examples
///
/// ```
/// use xfm_core::EngineModel;
///
/// let mut engine = EngineModel::fpga_prototype();
/// let page = vec![5u8; 4096];
/// let (compressed, t) = engine.compress(&page)?;
/// assert!(compressed.len() < 64);
/// assert!(t.as_us_f64() < 10.0); // 4 KiB at 1.4 GB/s ≈ 2.9 us
/// # Ok::<(), xfm_types::Error>(())
/// ```
pub struct EngineModel {
    codec: Box<dyn Codec + Send>,
    compress_bw: Bandwidth,
    decompress_bw: Bandwidth,
    busy: Nanos,
    compressed_bytes: u64,
    decompressed_bytes: u64,
    /// Reusable codec state — the engine services a stream of pages, so
    /// after warm-up the (de)compress paths allocate only their outputs.
    scratch: Scratch,
    /// Fault hooks: an armed [`FaultSite::NmaEngineTimeout`] site makes
    /// an engine pass error out, which the NMA surfaces as a fallback.
    faults: Option<Arc<FaultInjector>>,
    /// Pipelined jobs in flight, completion-ordered (the engine is a
    /// single serial functional unit, so jobs finish in submit order).
    pipeline: VecDeque<PipelinedJob>,
    /// Virtual time the functional unit frees up.
    busy_until: Nanos,
}

impl std::fmt::Debug for EngineModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineModel")
            .field("codec", &self.codec.name())
            .field("compress_bw", &self.compress_bw)
            .field("decompress_bw", &self.decompress_bw)
            .finish_non_exhaustive()
    }
}

impl EngineModel {
    /// Builds an engine from a codec and throughputs.
    #[must_use]
    pub fn new(
        codec: Box<dyn Codec + Send>,
        compress_bw: Bandwidth,
        decompress_bw: Bandwidth,
    ) -> Self {
        Self {
            codec,
            compress_bw,
            decompress_bw,
            busy: Nanos::ZERO,
            compressed_bytes: 0,
            decompressed_bytes: 0,
            scratch: Scratch::new(),
            faults: None,
            pipeline: VecDeque::new(),
            busy_until: Nanos::ZERO,
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
        Self::new(
            Box::new(XDeflate::default()),
            Bandwidth::from_gbps(1.4),
            Bandwidth::from_gbps(1.7),
        )
    }

    /// AxDIMM-class accelerator IP: 14.8 / 17.2 GB/s (§7).
    #[must_use]
    pub fn axdimm_class() -> Self {
        Self::new(
            Box::new(XDeflate::default()),
            Bandwidth::from_gbps(14.8),
            Bandwidth::from_gbps(17.2),
        )
    }

    /// The codec behind the engine.
    #[must_use]
    pub fn codec(&self) -> &dyn Codec {
        self.codec.as_ref()
    }

    /// Compresses a page, returning the output and the modeled engine
    /// occupancy time (input bytes over compression throughput).
    ///
    /// # Errors
    ///
    /// Propagates codec failures.
    pub fn compress(&mut self, src: &[u8]) -> Result<(Vec<u8>, Nanos)> {
        self.transform_compress(src, None)
    }

    /// Decompresses a stream, returning the output and the modeled engine
    /// occupancy time (output bytes over decompression throughput).
    ///
    /// # Errors
    ///
    /// Returns [`xfm_types::Error::Corrupt`] for invalid streams.
    pub fn decompress(&mut self, src: &[u8]) -> Result<(Vec<u8>, Nanos)> {
        self.transform_decompress(src, None)
    }

    /// Submits a pipelined job: its output is `prepared` when the
    /// submitter already holds it, and otherwise computed here, eagerly
    /// (the bytes are real); completion is *scheduled* either way — the
    /// engine is a single serial unit, so the job starts at
    /// `max(at, busy_until)` and finishes one transform-time later.
    /// Returns the modeled completion time; the result is delivered by
    /// [`EngineModel::poll`] once virtual time reaches it.
    ///
    /// A job that errors (codec failure or injected timeout) completes
    /// immediately at its start time with the error in
    /// [`EngineEvent::result`] and adds no busy time, mirroring the
    /// synchronous paths.
    pub fn submit_job(
        &mut self,
        id: u64,
        kind: EngineJobKind,
        src: &[u8],
        prepared: Option<Vec<u8>>,
        at: Nanos,
    ) -> Nanos {
        let start = at.max(self.busy_until);
        let result = match kind {
            EngineJobKind::Compress => self.transform_compress(src, prepared),
            EngineJobKind::Decompress => self.transform_decompress(src, prepared),
        };
        let done_at = match &result {
            Ok((_, t)) => start + *t,
            Err(_) => start,
        };
        self.busy_until = done_at;
        self.pipeline.push_back(PipelinedJob {
            id,
            kind,
            done_at,
            result: result.map(|(out, _)| out),
        });
        done_at
    }

    /// One compression pass over `src`; `prepared` is its output when
    /// the submitter already ran the codec.
    fn transform_compress(
        &mut self,
        src: &[u8],
        prepared: Option<Vec<u8>>,
    ) -> Result<(Vec<u8>, Nanos)> {
        self.injected_timeout()?;
        let out = match prepared {
            Some(out) => out,
            None => {
                let mut out = Vec::with_capacity(src.len());
                self.codec.compress_into(src, &mut out, &mut self.scratch)?;
                out
            }
        };
        let t = self
            .compress_bw
            .time_for(ByteSize::from_bytes(src.len() as u64));
        self.busy += t;
        self.compressed_bytes += src.len() as u64;
        Ok((out, t))
    }

    /// One decompression pass over `src`; `prepared` as for
    /// [`Self::transform_compress`].
    fn transform_decompress(
        &mut self,
        src: &[u8],
        prepared: Option<Vec<u8>>,
    ) -> Result<(Vec<u8>, Nanos)> {
        self.injected_timeout()?;
        let out = match prepared {
            Some(out) => out,
            None => {
                let mut out = Vec::with_capacity(PAGE_SIZE);
                self.codec
                    .decompress_into(src, &mut out, &mut self.scratch)?;
                out
            }
        };
        let t = self
            .decompress_bw
            .time_for(ByteSize::from_bytes(out.len() as u64));
        self.busy += t;
        self.decompressed_bytes += out.len() as u64;
        Ok((out, t))
    }

    /// Completion time of the oldest in-flight pipelined job.
    #[must_use]
    pub fn next_completion(&self) -> Option<Nanos> {
        self.pipeline.front().map(|j| j.done_at)
    }

    /// Number of pipelined jobs not yet delivered.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pipeline.len()
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

impl Simulated for EngineModel {
    type Event = EngineEvent;

    fn next_ready(&self) -> Option<Nanos> {
        self.next_completion()
    }

    fn poll(&mut self, now: Nanos, out: &mut Events<EngineEvent>) {
        while self.pipeline.front().is_some_and(|j| j.done_at <= now) {
            let job = self.pipeline.pop_front().expect("checked front");
            out.emit(EngineEvent {
                id: job.id,
                kind: job.kind,
                at: job.done_at,
                result: job.result,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_engine() {
        let mut e = EngineModel::fpga_prototype();
        let page = b"near-memory page ".repeat(241);
        let (c, _) = e.compress(&page).unwrap();
        let (d, _) = e.decompress(&c).unwrap();
        assert_eq!(d, page);
    }

    #[test]
    fn timing_scales_with_bandwidth() {
        let mut slow = EngineModel::fpga_prototype();
        let mut fast = EngineModel::axdimm_class();
        let page = vec![3u8; 4096];
        let (_, t_slow) = slow.compress(&page).unwrap();
        let (_, t_fast) = fast.compress(&page).unwrap();
        // 14.8 / 1.4 ≈ 10.6x faster.
        let ratio = t_slow.as_ps() as f64 / t_fast.as_ps() as f64;
        assert!((ratio - 10.57).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn busy_time_accumulates() {
        let mut e = EngineModel::fpga_prototype();
        let page = vec![1u8; 4096];
        e.compress(&page).unwrap();
        e.compress(&page).unwrap();
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
        let page = vec![9u8; 4096];
        e.compress(&page).unwrap();
        let trefi = Nanos::from_ms(32) / 8192;
        assert!(e.utilization(trefi) < 0.1);
    }

    #[test]
    fn corrupt_stream_reported() {
        let mut e = EngineModel::fpga_prototype();
        assert!(e.decompress(&[0xff, 0x00, 0x13]).is_err());
    }

    #[test]
    fn pipelined_jobs_serialize_on_the_functional_unit() {
        let mut e = EngineModel::fpga_prototype();
        let page = vec![7u8; 4096];
        let t0 = Nanos::from_us(10);
        // Two jobs arriving together: the second queues behind the first.
        let d1 = e.submit_job(1, EngineJobKind::Compress, &page, None, t0);
        let d2 = e.submit_job(2, EngineJobKind::Compress, &page, None, t0);
        assert!(d1 > t0);
        let pass = d1 - t0;
        assert_eq!(d2, d1 + pass, "second job starts when the first ends");
        assert_eq!(e.in_flight(), 2);
        assert_eq!(e.next_completion(), Some(d1));
    }

    #[test]
    fn poll_delivers_in_completion_order_up_to_now() {
        let mut e = EngineModel::fpga_prototype();
        let page = vec![7u8; 4096];
        let d1 = e.submit_job(1, EngineJobKind::Compress, &page, None, Nanos::from_us(1));
        let d2 = e.submit_job(2, EngineJobKind::Compress, &page, None, Nanos::from_us(1));
        let mut out = Events::new();
        e.poll(d1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.as_slice()[0].id, 1);
        assert!(out.as_slice()[0].result.is_ok());
        out.clear();
        e.poll(d2, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.as_slice()[0].id, 2);
        assert_eq!(e.in_flight(), 0);
        assert_eq!(e.next_completion(), None);
    }

    #[test]
    fn pipelined_round_trip_preserves_bytes() {
        let mut e = EngineModel::fpga_prototype();
        let page = b"pipelined page ".repeat(273);
        let done = e.submit_job(5, EngineJobKind::Compress, &page, None, Nanos::ZERO);
        let mut out = Events::new();
        e.poll(done, &mut out);
        let compressed = out.drain().next().unwrap().result.unwrap();
        let done = e.submit_job(6, EngineJobKind::Decompress, &compressed, None, done);
        e.poll(done, &mut out);
        let restored = out.drain().next().unwrap().result.unwrap();
        assert_eq!(restored, page);
    }

    #[test]
    fn failed_job_completes_immediately_with_error() {
        let mut e = EngineModel::fpga_prototype();
        let at = Nanos::from_us(3);
        let done = e.submit_job(9, EngineJobKind::Decompress, &[0xff, 0x00, 0x13], None, at);
        assert_eq!(done, at, "errors add no engine occupancy");
        assert_eq!(e.busy_time(), Nanos::ZERO);
        let mut out = Events::new();
        e.poll(at, &mut out);
        assert!(out.as_slice()[0].result.is_err());
    }
}
