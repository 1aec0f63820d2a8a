//! The per-DIMM near-memory accelerator.
//!
//! Composes the SPM, the (de)compression engine and the refresh-window
//! scheduler into the device of the paper's Fig. 4, behind the request
//! queue's in-flight limit. The device is a timing model over sizes: an
//! offload is handed as an [`OffloadShare`], the bytes it reads and the
//! bytes it writes back (the host has already run the codec). It flows
//! through two scheduled DRAM accesses (Fig. 10):
//!
//! 1. **Read** — the page (or compressed blob) is read out of DRAM
//!    during a refresh window into the engine, whose output lands in the
//!    SPM tagged *PENDING* → *COMPLETED*;
//! 2. **Write-back** — a later refresh window writes the COMPLETED
//!    bytes back to DRAM with fresh side-band parity, freeing them in
//!    the SPM.
//!
//! Each offload has one record from admission to its event, which holds
//! its share and its phase; the phase is the paper's slot tag. The SPM
//! itself is a count of the bytes those records hold.
//!
//! The minimum offload latency is therefore two refresh intervals
//! (`2 × tREFI`). The stages genuinely overlap:
//! [`NearMemoryAccelerator::advance_to`] steps to whichever comes first,
//! the next refresh-window close or the next pipelined engine
//! completion, so while one offload's (de)compression pass runs, the
//! next window's reads are already being served.
//!
//! A queued offload is a descriptor only: admission fails only when the
//! request queue already holds `queue_capacity` reads that have not
//! been served. The SPM is reserved for a read's output when the window
//! serves the read (a read the SPM cannot take yet steps aside), and
//! freed when its write-back is served. The XFM driver's lazy
//! host-side count books [`NearMemoryAccelerator::reservation_for`] at
//! submit and frees it when the offload is polled, so between capacity
//! reads it stays an upper bound of the device's occupancy (§6).

use std::sync::Arc;

use xfm_dram::geometry::DeviceGeometry;
use xfm_dram::timing::DramTimings;
use xfm_faults::{FaultInjector, FaultSite};
use xfm_types::hash::IntMap;
use xfm_types::{ByteSize, Error, Nanos, PageNumber, Result, RowId, PAGE_SIZE};

use crate::engine::{EngineEvent, EngineModel};
use crate::regs::{OffloadKind, RegisterFile};
use crate::sched::{AccessOp, AccessPhase, SchedConfig, SchedEvent, SchedStats, WindowScheduler};

/// NMA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NmaConfig {
    /// ScratchPad Memory size (FPGA prototype: 2 MiB; Fig. 12 sweeps it).
    pub spm_capacity: ByteSize,
    /// Request-queue depth: the most offloads in flight at once.
    pub queue_capacity: usize,
    /// Window-scheduler parameters.
    pub sched: SchedConfig,
    /// DRAM timings (refresh calendar).
    pub timings: DramTimings,
    /// DRAM device geometry (refresh row sets, subarrays).
    pub geometry: DeviceGeometry,
}

impl Default for NmaConfig {
    /// The paper's prototype: 2 MiB SPM, 256-deep queue, default
    /// scheduler, DDR4 emulator timings.
    fn default() -> Self {
        Self {
            spm_capacity: ByteSize::from_mib(2),
            queue_capacity: 256,
            sched: SchedConfig::default(),
            timings: DramTimings::paper_emulator(),
            geometry: DeviceGeometry::ddr4_8gb(),
        }
    }
}

/// One DIMM's share of an offload, as its device is handed it: the
/// sizes of the work, which the host has already done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadShare {
    /// Bytes the NMA reads out of DRAM: the page share (compress) or the
    /// stored stream (decompress).
    pub input: u32,
    /// Bytes the engine writes back: the stored stream (compress) or the
    /// page share (decompress).
    pub output: u32,
}

/// One finished (or failed-over) offload delivered by
/// [`NearMemoryAccelerator::advance_to`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NmaEvent {
    /// The offload completed on the NMA.
    Completed {
        /// Page involved.
        page: PageNumber,
        /// Operation direction.
        kind: OffloadKind,
        /// The share as submitted.
        share: OffloadShare,
        /// Submission time.
        submitted_at: Nanos,
        /// Write-back completion time.
        completed_at: Nanos,
    },
    /// Structural hazard: the scheduler spilled the op, or the engine
    /// timed out; the host must redo it with `CPU_Fallback`.
    Fallback {
        /// Page involved.
        page: PageNumber,
        /// Operation direction.
        kind: OffloadKind,
        /// The share as submitted.
        share: OffloadShare,
        /// Bytes the host takes over: the share's input, or its output
        /// when only the write-back spilled.
        bytes: u32,
        /// Spill time.
        at: Nanos,
    },
}

/// Aggregate NMA statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NmaStats {
    /// Offloads accepted into the queue.
    pub submitted: u64,
    /// Offloads completed on the accelerator.
    pub completed: u64,
    /// Offloads spilled back to the CPU mid-flight.
    pub fallbacks: u64,
    /// Submissions rejected up front (request queue full, or an
    /// injected admission fault).
    pub rejected: u64,
    /// Scheduler counters.
    pub sched: SchedStats,
    /// Peak SPM occupancy.
    pub spm_high_water: ByteSize,
    /// Sum of completed offload latencies.
    pub total_latency: Nanos,
    /// Side-band ECC parity bytes the NMA regenerated on write-backs
    /// (paper §4.1: the NMA must keep the host controller's SECDED
    /// checks valid).
    pub ecc_parity_bytes: u64,
}

impl NmaStats {
    /// Folds another DIMM's statistics into this aggregate: counters
    /// add; the scratchpad high-water mark and the window count are
    /// per-DIMM quantities on one shared timeline, so the aggregate
    /// keeps the largest. The struct literals name every field: a new
    /// one does not compile until it is merged here.
    pub fn merge(&mut self, o: &Self) {
        *self = Self {
            submitted: self.submitted + o.submitted,
            completed: self.completed + o.completed,
            fallbacks: self.fallbacks + o.fallbacks,
            rejected: self.rejected + o.rejected,
            sched: SchedStats {
                conditional: self.sched.conditional + o.sched.conditional,
                random: self.sched.random + o.sched.random,
                spilled: self.sched.spilled + o.sched.spilled,
                windows: self.sched.windows.max(o.sched.windows),
                stolen_windows: self.sched.stolen_windows + o.sched.stolen_windows,
                side_channel_bytes: self.sched.side_channel_bytes + o.sched.side_channel_bytes,
                subarray_conflicts: self.sched.subarray_conflicts + o.sched.subarray_conflicts,
                spm_stalls: self.sched.spm_stalls + o.sched.spm_stalls,
                ops_touched: self.sched.ops_touched + o.sched.ops_touched,
            },
            spm_high_water: self.spm_high_water.max(o.spm_high_water),
            total_latency: self.total_latency + o.total_latency,
            ecc_parity_bytes: self.ecc_parity_bytes + o.ecc_parity_bytes,
        };
    }

    /// Mean completed-offload latency (zero when none completed).
    #[must_use]
    pub fn mean_latency(&self) -> Nanos {
        if self.completed == 0 {
            Nanos::ZERO
        } else {
            self.total_latency / self.completed
        }
    }
}

/// Where an offload is in the Fig. 10 pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the read window; nothing in the SPM yet.
    Read,
    /// In the engine pipeline, its output's bytes held in the SPM (the
    /// paper's PENDING tag); no DRAM access is scheduled, so the op
    /// cannot spill while here.
    Compute,
    /// Output final in the SPM (COMPLETED), waiting for the write-back
    /// window.
    WriteBack,
}

/// The one record of an admitted offload.
#[derive(Debug)]
struct InFlight {
    kind: OffloadKind,
    page: PageNumber,
    /// Submission time (drives window scheduling and the latency).
    at: Nanos,
    /// `true` when the controller can align the op to the refresh
    /// calendar (demotions and prefetches); `false` for demand ops.
    flexible: bool,
    share: OffloadShare,
    phase: Phase,
}

/// The accelerator device for one DIMM.
///
/// # Examples
///
/// ```
/// use xfm_core::nma::{NearMemoryAccelerator, NmaConfig, NmaEvent, OffloadShare};
/// use xfm_core::OffloadKind;
/// use xfm_types::{Nanos, PageNumber, RowId};
///
/// let mut nma = NearMemoryAccelerator::new(NmaConfig::default());
/// // A 4 KiB page that compresses to 900 bytes.
/// let share = OffloadShare { input: 4096, output: 900 };
/// let page = PageNumber::new(1);
/// nma.submit(OffloadKind::Compress, page, share, RowId::new(42), Nanos::ZERO, true)?;
/// // Two refresh windows later the compressed page is written back.
/// let events = nma.advance_to(Nanos::from_ms(32) * 2);
/// assert!(matches!(events[0], NmaEvent::Completed { .. }));
/// # Ok::<(), xfm_types::Error>(())
/// ```
#[derive(Debug)]
pub struct NearMemoryAccelerator {
    config: NmaConfig,
    regs: RegisterFile,
    /// SPM bytes held: the outputs of the offloads past their read.
    spm_used: u64,
    engine: EngineModel,
    sched: WindowScheduler,
    /// In-flight offloads by id, only ever looked up by key; the map
    /// keeps its largest size, so a warm device admits without
    /// allocating.
    ops: IntMap<u64, InFlight>,
    /// Admitted reads not served yet: the request queue's occupancy.
    queued_reads: usize,
    next_op: u64,
    stats: NmaStats,
    /// Fault hooks consulted at admission (`SpmExhaustion`,
    /// `QueueFull`); the engine and scheduler hold their own handles.
    faults: Option<Arc<FaultInjector>>,
    /// Reusable sink for scheduler events (allocation-free stepping).
    sched_events: Vec<SchedEvent>,
    /// Reusable sink for engine completions.
    engine_events: Vec<EngineEvent>,
}

impl NearMemoryAccelerator {
    /// Creates an accelerator with the FPGA-prototype engine.
    ///
    /// # Panics
    ///
    /// Panics if `config.queue_capacity` is zero.
    #[must_use]
    pub fn new(config: NmaConfig) -> Self {
        assert!(config.queue_capacity > 0, "queue capacity must be non-zero");
        Self {
            regs: RegisterFile::new(),
            spm_used: 0,
            engine: EngineModel::fpga_prototype(),
            sched: WindowScheduler::new(config.sched, config.timings, config.geometry),
            ops: IntMap::default(),
            queued_reads: 0,
            next_op: 0,
            stats: NmaStats::default(),
            faults: None,
            sched_events: Vec::new(),
            engine_events: Vec::new(),
            config,
        }
    }

    /// Arms fault-injection hooks on this device and its components:
    /// admission ([`FaultSite::SpmExhaustion`], [`FaultSite::QueueFull`]),
    /// the engine ([`FaultSite::NmaEngineTimeout`]), and the window
    /// scheduler ([`FaultSite::RefreshWindowMiss`]).
    pub fn attach_faults(&mut self, faults: Arc<FaultInjector>) {
        self.engine.attach_faults(Arc::clone(&faults));
        self.sched.attach_faults(Arc::clone(&faults));
        self.faults = Some(faults);
    }

    /// The MMIO register file (what the driver touches).
    pub fn regs_mut(&mut self) -> &mut RegisterFile {
        let free = self.spm_free();
        self.regs.set_sp_capacity(free.as_bytes());
        self.regs.set_status(!self.ops.is_empty(), free.is_zero());
        &mut self.regs
    }

    /// Current free SPM bytes (ground truth; the register mirrors it).
    #[must_use]
    pub fn spm_free(&self) -> ByteSize {
        let used = ByteSize::from_bytes(self.spm_used);
        self.config.spm_capacity.saturating_sub(used)
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &NmaConfig {
        &self.config
    }

    /// Statistics so far (scheduler stats folded in).
    #[must_use]
    pub fn stats(&self) -> NmaStats {
        NmaStats {
            sched: self.sched.stats(),
            ..self.stats
        }
    }

    /// Refresh-window utilization of this device's rank
    /// ([`WindowScheduler::utilization`]).
    #[must_use]
    pub fn window_utilization(&self) -> f64 {
        self.sched.utilization()
    }

    /// Worst-case SPM bytes for an offload's output: compression of
    /// incompressible data falls back to a stored container with a few
    /// bytes of framing; decompression can expand to a full page. The
    /// device reserves the actual output; the driver books this bound.
    #[must_use]
    pub fn reservation_for(kind: OffloadKind, input_len: usize) -> usize {
        match kind {
            OffloadKind::Compress => input_len + 64,
            OffloadKind::Decompress => PAGE_SIZE,
        }
    }

    /// Submits one share of an offload — the doorbell behind both
    /// `xfm_compress()` and `xfm_decompress()`.
    ///
    /// `row` is the DIMM-local row holding the share; `flexible`
    /// distinguishes controller-scheduled operations (true) from urgent
    /// ones.
    ///
    /// # Errors
    ///
    /// Returns [`Error::QueueFull`] when the request queue is full, or an
    /// injected [`Error::SpmFull`] / [`Error::QueueFull`] — the caller
    /// must `CPU_Fallback` — and
    /// [`Error::InvalidConfig`] for a compression input that is empty or
    /// longer than a page, or an output larger than the offload's
    /// reservation.
    pub fn submit(
        &mut self,
        kind: OffloadKind,
        page: PageNumber,
        share: OffloadShare,
        row: RowId,
        now: Nanos,
        flexible: bool,
    ) -> Result<()> {
        let OffloadShare { input, output } = share;
        if kind == OffloadKind::Compress && (input == 0 || input as usize > PAGE_SIZE) {
            return Err(Error::InvalidConfig(format!(
                "compress offload requires 1..=4096 bytes, got {input}"
            )));
        }
        if output as usize > Self::reservation_for(kind, input as usize) {
            return Err(Error::InvalidConfig(format!(
                "{kind:?} offload of {input} bytes cannot write back {output}"
            )));
        }
        // Injected admission failures reject before any state changes,
        // exactly as a real rejection leaves the device.
        if let Some(f) = &self.faults {
            if f.should_fire(FaultSite::SpmExhaustion) {
                self.stats.rejected += 1;
                return Err(Error::SpmFull {
                    requested: Self::reservation_for(kind, input as usize) as u64,
                    available: 0,
                });
            }
            if f.should_fire(FaultSite::QueueFull) {
                self.stats.rejected += 1;
                return Err(Error::QueueFull);
            }
        }
        // The request queue holds descriptors of reads not served yet.
        if self.queued_reads >= self.config.queue_capacity {
            self.stats.rejected += 1;
            return Err(Error::QueueFull);
        }
        let id = self.next_op;
        self.next_op += 1;
        let access = AccessOp {
            id,
            row,
            bytes: input,
            phase: AccessPhase::Read { output },
            enqueued_window: self.sched.window_index_at(now),
        };
        if flexible {
            self.sched.enqueue_flexible(access);
        } else {
            self.sched.enqueue_urgent(access);
        }
        let op = InFlight {
            kind,
            page,
            at: now,
            flexible,
            share,
            phase: Phase::Read,
        };
        self.ops.insert(id, op);
        self.queued_reads += 1;
        self.stats.submitted += 1;
        Ok(())
    }

    /// Advances the device to `now`, returning completions and fallbacks
    /// in time order.
    ///
    /// The device interleaves two event sources in virtual time:
    /// refresh-window closes (the scheduler) and engine-pass
    /// completions (the pipelined engine). Stepping processes whichever
    /// comes first, so a read served in window `k` feeds the engine,
    /// whose output — ready one pass-time later — has its write-back
    /// placed into a *later* window while window `k+1`'s reads proceed
    /// in parallel: the Fig. 10 pipeline with genuine stage overlap.
    /// Engine completions tied with a window close are handled first so
    /// their write-backs can still target the soonest slot.
    pub fn advance_to(&mut self, now: Nanos) -> Vec<NmaEvent> {
        let mut out = Vec::new();
        loop {
            let window_end = self.sched.next_window_end();
            let engine_done = self.engine.next_completion();
            if let Some(t) = engine_done.filter(|&t| t <= window_end) {
                if t > now {
                    break;
                }
                let mut events = std::mem::take(&mut self.engine_events);
                self.engine.poll(t, &mut events);
                for ev in events.drain(..) {
                    self.handle_engine_event(ev, &mut out);
                }
                self.engine_events = events;
            } else {
                if window_end > now {
                    break;
                }
                let mut events = std::mem::take(&mut self.sched_events);
                let spm_free = self.spm_free().as_bytes();
                self.sched.advance_window_into(spm_free, &mut events);
                for ev in events.drain(..) {
                    self.handle_sched_event(ev, &mut out);
                }
                self.sched_events = events;
            }
        }
        out
    }

    /// A served read takes the SPM bytes of its output (the scheduler
    /// served it only if the room was there) and hands the op to the
    /// engine pipeline; the op sits in [`Phase::Compute`] (no DRAM
    /// access scheduled) until the pass completes. A served or spilled
    /// write-back gives the bytes back.
    fn handle_sched_event(&mut self, event: SchedEvent, out: &mut Vec<NmaEvent>) {
        match event {
            SchedEvent::Served { id, at, .. } => {
                let Some(mut op) = self.ops.remove(&id) else {
                    return;
                };
                match op.phase {
                    Phase::Read => {
                        self.queued_reads -= 1;
                        let OffloadShare { input, output } = op.share;
                        self.spm_used += u64::from(output);
                        let used = ByteSize::from_bytes(self.spm_used);
                        assert!(used <= self.config.spm_capacity, "served with SPM room");
                        self.stats.spm_high_water = self.stats.spm_high_water.max(used);
                        self.engine
                            .submit_job(id, op.kind, (input, output), at, !op.flexible);
                        op.phase = Phase::Compute;
                        self.ops.insert(id, op);
                    }
                    Phase::Compute => unreachable!("no DRAM access scheduled during compute"),
                    Phase::WriteBack => {
                        let written = op.share.output;
                        self.spm_used -= u64::from(written);
                        // Writing back to DRAM chips requires fresh
                        // side-band parity for the ECC chips
                        // (paper §4.1); the NMA computes it here.
                        self.stats.ecc_parity_bytes +=
                            xfm_dram::ecc::parity_bytes(written as usize) as u64;
                        self.stats.completed += 1;
                        self.stats.total_latency += at.saturating_sub(op.at);
                        out.push(NmaEvent::Completed {
                            page: op.page,
                            kind: op.kind,
                            share: op.share,
                            submitted_at: op.at,
                            completed_at: at,
                        });
                    }
                }
            }
            SchedEvent::Spilled { id, at } => {
                let Some(op) = self.ops.remove(&id) else {
                    return;
                };
                let bytes = match op.phase {
                    Phase::Read => {
                        self.queued_reads -= 1;
                        op.share.input
                    }
                    Phase::Compute => unreachable!("no DRAM access scheduled during compute"),
                    Phase::WriteBack => {
                        // Output computed but write-back spilled: the
                        // host takes the completed output and stores it
                        // itself (still counts as a fallback).
                        self.spm_used -= u64::from(op.share.output);
                        op.share.output
                    }
                };
                out.push(self.fallback(&op, bytes, at));
            }
        }
    }

    /// Books `op` as handed back to the CPU, which takes over `bytes`.
    fn fallback(&mut self, op: &InFlight, bytes: u32, at: Nanos) -> NmaEvent {
        self.stats.fallbacks += 1;
        NmaEvent::Fallback {
            page: op.page,
            kind: op.kind,
            share: op.share,
            bytes,
            at,
        }
    }

    /// An engine completion either schedules the write-back access (the
    /// pass succeeded) or surfaces the op as a fallback (an injected
    /// engine timeout).
    fn handle_engine_event(&mut self, event: EngineEvent, out: &mut Vec<NmaEvent>) {
        let Some(mut op) = self.ops.remove(&event.id) else {
            return;
        };
        debug_assert_eq!(op.phase, Phase::Compute);
        match event.result {
            Ok(()) => {
                let wb = AccessOp {
                    id: event.id,
                    row: self.sched.place_write_back(event.id, !op.flexible),
                    bytes: op.share.output,
                    phase: AccessPhase::WriteBack,
                    enqueued_window: self.sched.window_index_at(event.at),
                };
                if op.flexible {
                    self.sched.enqueue_flexible(wb);
                } else {
                    self.sched.enqueue_urgent(wb);
                }
                op.phase = Phase::WriteBack;
                self.ops.insert(event.id, op);
            }
            Err(_) => {
                // Injected timeout: surface as fallback so the host
                // handles it; the output never came.
                self.spm_used -= u64::from(op.share.output);
                out.push(self.fallback(&op, op.share.input, event.at));
            }
        }
    }
}

#[cfg(test)]
mod tests;
