//! The refresh-window NMA access scheduler — the mechanism at the core
//! of XFM (paper §4.3/§5), and the one per-window service loop of the
//! reproduction: `XfmBackend` runs it, and so does the Fig. 12 driver
//! (`xfm_sim::fallback`).
//!
//! The scheduler batches NMA DRAM accesses and serves them only inside
//! `tRFC` windows, when the rank is locked to the CPU anyway. A window's
//! service capacity is counted in *bytes* — `accesses_per_trfc × 4096`
//! — so sub-page compressed write-backs batch, as the SPM-drain design
//! implies.
//!
//! - **Random accesses** use the Fig. 7 subarray latches to reach a row
//!   in a subarray *not* being refreshed. Urgent operations (fixed row,
//!   bounded wait) are served first, by at most `max_random_per_trfc`
//!   random accesses a window (methodology: 1), or conditionally if
//!   their row happens to be refreshing. A subarray conflict is resolved
//!   by reordering (the conflicting op yields to the next one), and an
//!   urgent op still waiting after `urgent_max_wait` windows spills.
//! - **Conditional accesses** target a row in the set being refreshed
//!   during the window: the row is kept activated while its data bursts
//!   to the NMA — no extra activation, no interference. *Flexible*
//!   operations (controller-scheduled compressions and prefetches, and
//!   their write-backs) are bucketed by `row mod 8192` and wait —
//!   descriptor-only — for their row's window.
//!
//! A read is served only when the SPM can take its engine output, which
//! it holds until its write-back is served. A flexible read the SPM
//! cannot take, and the ops the window's bytes did not reach, re-align to
//! one of the next 16 slots; only a window stolen by
//! [`FaultSite::RefreshWindowMiss`] spills them. Spilled ops (and urgent
//! ops past their deadline) go back to the caller's `CPU_Fallback`
//! (§4.3), the quantity Fig. 12 plots.
//!
//! What the scheduler did is recorded once, in [`SchedStats`]: the
//! window utilization is computed from its counters
//! ([`WindowScheduler::utilization`]), and the ops waiting are the live
//! entries of its backlog plus the urgent queue
//! ([`WindowScheduler::pending`]).
//!
//! **The backlog costs what it serves.** Every window is walked, and
//! each one asks the fault hook once, but what it computes follows the
//! ops queued, not the windows walked:
//!
//! - each flexible op is stored once, in a slab with a free list, and
//!   each of the 8 192 slots queues the 4-byte slab indices of its ops.
//!   A window drains its slot's queue whole; the ops it misses are dealt
//!   round-robin into the next 16 slots' queues by index, each
//!   destination taking its share in one pass. No op is copied and no
//!   row rewritten: an op's slot is the queue its index sits in, and no
//!   event carries a row. A drained queue's buffer is recycled for the
//!   next slot that needs one, so an idle slot holds no capacity;
//! - the refreshed rows and their subarrays (the "lucky" and "conflict"
//!   tests) are computed only when an urgent op is queued;
//! - so a window with nothing queued counts itself, asks the fault hook
//!   and reads one empty queue. A loaded window still takes up every op
//!   of its slot ([`SchedStats::ops_touched`] counts them), at the cost
//!   of moving an index.

use std::collections::VecDeque;
use std::sync::Arc;

use xfm_dram::geometry::DeviceGeometry;
use xfm_dram::refresh::{RefreshAccessKind, RefreshScheduler};
use xfm_dram::timing::{DramTimings, REFS_PER_RETENTION};
use xfm_faults::{FaultInjector, FaultSite};
use xfm_types::{ByteSize, Nanos, RowId, SubarrayId, PAGE_SIZE};

/// Slots ahead a missed flexible op may be re-aligned to.
const REALIGN_SLOTS: usize = 16;

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// 4 KiB accesses' worth of bytes one `tRFC` serves (Fig. 12 sweeps
    /// 1–3; the bound is [`DramTimings::max_conditional_accesses`]).
    pub accesses_per_trfc: u32,
    /// Of those, how many may be random (methodology: 1).
    pub max_random_per_trfc: u32,
    /// Windows an urgent op may wait before spilling to the CPU.
    pub urgent_max_wait: u64,
    /// Windows ahead a write-back (and a Fig. 12 flexible arrival) lands.
    pub placement_lookahead: u32,
}

impl Default for SchedConfig {
    /// The paper's §7 methodology: 1 random access per `tRFC`; a total
    /// budget of 3; urgent ops wait at most 4 windows; 64-slot lookahead.
    fn default() -> Self {
        Self {
            accesses_per_trfc: 3,
            max_random_per_trfc: 1,
            urgent_max_wait: 4,
            placement_lookahead: 64,
        }
    }
}

/// Which half of an offload an access is (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPhase {
    /// Reads the input into the engine; served only when the SPM can
    /// take the `output` bytes, which its service reserves.
    Read {
        /// SPM bytes the engine output occupies until its write-back.
        output: u32,
    },
    /// Writes the access's bytes back from the SPM, freeing them.
    WriteBack,
}

/// One DRAM access the NMA wants to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOp {
    /// Caller-chosen identifier (the NMA maps it back to an offload).
    pub id: u64,
    /// Target row (DIMM-local).
    pub row: RowId,
    /// Bytes moved.
    pub bytes: u32,
    /// Read or write-back.
    pub phase: AccessPhase,
    /// Window index at which the op was enqueued.
    pub enqueued_window: u64,
}

/// What happened to an op during a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// Served inside a window; carries completion time and access kind.
    Served {
        /// The op's caller-chosen id.
        id: u64,
        /// Completion time (end of the serving window).
        at: Nanos,
        /// Conditional or random.
        kind: RefreshAccessKind,
    },
    /// Structural hazard: the op could not be absorbed and must fall
    /// back to the CPU.
    Spilled {
        /// The op's caller-chosen id.
        id: u64,
        /// Time of the spill decision.
        at: Nanos,
    },
}

/// Aggregate scheduler statistics (drives Fig. 12 and the §8 energy
/// numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Ops served as conditional accesses.
    pub conditional: u64,
    /// Ops served as random accesses.
    pub random: u64,
    /// Ops spilled to the CPU (structural hazards).
    pub spilled: u64,
    /// Windows processed.
    pub windows: u64,
    /// Of those, windows whose whole budget was stolen
    /// ([`FaultSite::RefreshWindowMiss`]).
    pub stolen_windows: u64,
    /// Bytes moved over the refresh side channel.
    pub side_channel_bytes: ByteSize,
    /// Random-access attempts skipped due to subarray conflicts.
    pub subarray_conflicts: u64,
    /// Flexible reads that stepped aside because the SPM could not take
    /// their output.
    pub spm_stalls: u64,
    /// Queued ops the window loop took up: each urgent op in every
    /// window it waits through, each flexible op in every window whose
    /// slot holds it (a re-aligned op again in its new slot). The loop's
    /// work, counted; no trail event records it.
    pub ops_touched: u64,
}

impl SchedStats {
    /// Fraction of served accesses that were conditional (paper §8: "the
    /// majority of accesses can be accommodated with conditional
    /// accesses").
    #[must_use]
    pub fn conditional_fraction(&self) -> f64 {
        let served = self.conditional + self.random;
        if served == 0 {
            0.0
        } else {
            self.conditional as f64 / served as f64
        }
    }
}

/// One window's service capacity as it is spent: bytes, random
/// accesses, and the SPM room reads reserve and write-backs return.
struct Capacity {
    bytes: u64,
    random: u32,
    spm_free: u64,
}

impl Capacity {
    /// Spends what serving `op` takes (its bytes, which the caller
    /// checked, and a read's SPM room), or nothing and `false` when the
    /// SPM cannot take the read's output.
    fn take(&mut self, op: &AccessOp) -> bool {
        match op.phase {
            AccessPhase::Read { output } if u64::from(output) > self.spm_free => return false,
            AccessPhase::Read { output } => self.spm_free -= u64::from(output),
            AccessPhase::WriteBack => self.spm_free += u64::from(op.bytes),
        }
        self.bytes -= u64::from(op.bytes);
        true
    }
}

/// The window scheduler for one rank/DIMM.
///
/// # Examples
///
/// ```
/// use xfm_core::sched::{AccessOp, AccessPhase, SchedConfig, SchedEvent, WindowScheduler};
/// use xfm_dram::{DeviceGeometry, DramTimings};
/// use xfm_types::{Nanos, RowId};
///
/// let mut sched = WindowScheduler::new(
///     SchedConfig::default(),
///     DramTimings::paper_emulator(),
///     DeviceGeometry::ddr4_8gb(),
/// );
/// // A flexible read of row 5 waits for window with ref-index 5, and
/// // needs 1 KiB of SPM for its output.
/// sched.enqueue_flexible(AccessOp {
///     id: 1,
///     row: RowId::new(5),
///     bytes: 4096,
///     phase: AccessPhase::Read { output: 1024 },
///     enqueued_window: 0,
/// });
/// let events = sched.advance_to(Nanos::from_ms(1), 4096);
/// assert!(matches!(events[0], SchedEvent::Served { id: 1, .. }));
/// ```
#[derive(Debug, Clone)]
pub struct WindowScheduler {
    config: SchedConfig,
    refresh: RefreshScheduler,
    /// Each queued flexible op, stored once from its enqueue to its
    /// event; `free` lists the vacant entries, so a warm scheduler
    /// enqueues without allocating. An entry keeps the row it was
    /// enqueued with: a re-aligned op moves by index, and the slot whose
    /// queue holds its index is where it is served (no event carries a
    /// row).
    slab: Vec<AccessOp>,
    free: Vec<u32>,
    /// Slab indices of the flexible ops of each conditional slot (`row
    /// mod 8192`), in service order. A slot's window drains its queue
    /// whole, so a queue only grows in between; the drained buffer waits
    /// in `spare_queues` for the next slot that needs one, so an idle
    /// slot holds no capacity.
    slots: Vec<Vec<u32>>,
    spare_queues: Vec<Vec<u32>>,
    /// Urgent ops (fixed row, bounded wait), FIFO.
    urgent: VecDeque<AccessOp>,
    next_window: u64,
    /// Which of the next [`REALIGN_SLOTS`] slots the next missed op
    /// re-aligns to.
    realign_cursor: usize,
    stats: SchedStats,
    /// Fault hooks: an armed [`FaultSite::RefreshWindowMiss`] site
    /// steals entire windows (their access budget drops to zero).
    faults: Option<Arc<FaultInjector>>,
    /// Reusable scratch of a window with urgent ops (the refreshed rows
    /// of its slot); an idle window fills none of the three.
    scratch_rows: Vec<RowId>,
    /// Reusable scratch (subarrays of `scratch_rows`).
    scratch_subarrays: Vec<SubarrayId>,
    /// Reusable scratch (urgent ops retained past the window).
    scratch_retained: VecDeque<AccessOp>,
}

impl WindowScheduler {
    /// Creates a scheduler over the given refresh calendar.
    #[must_use]
    pub fn new(config: SchedConfig, timings: DramTimings, geometry: DeviceGeometry) -> Self {
        Self {
            config,
            refresh: RefreshScheduler::new(timings, geometry),
            slab: Vec::new(),
            free: Vec::new(),
            slots: vec![Vec::new(); REFS_PER_RETENTION as usize],
            spare_queues: Vec::new(),
            urgent: VecDeque::new(),
            next_window: 0,
            realign_cursor: 0,
            stats: SchedStats::default(),
            faults: None,
            scratch_rows: Vec::new(),
            scratch_subarrays: Vec::new(),
            scratch_retained: VecDeque::new(),
        }
    }

    /// Arms fault-injection hooks: when the
    /// [`FaultSite::RefreshWindowMiss`] site fires, the entire window's
    /// access budget is stolen — its slot's flexible ops spill to the
    /// CPU and urgent ops burn one window of their deadline.
    pub fn attach_faults(&mut self, faults: Arc<FaultInjector>) {
        self.faults = Some(faults);
    }

    /// The refresh calendar in use.
    #[must_use]
    pub fn refresh(&self) -> &RefreshScheduler {
        &self.refresh
    }

    /// The window index that contains (or most recently preceded) `now`.
    #[must_use]
    pub fn window_index_at(&self, now: Nanos) -> u64 {
        now.periods(self.refresh.timings().t_refi)
    }

    /// Enqueues a flexible op: it will be served as a *conditional*
    /// access when its row's refresh window arrives (at most one
    /// retention interval away).
    pub fn enqueue_flexible(&mut self, op: AccessOp) {
        let slot = op.row.index() % REFS_PER_RETENTION as u32;
        let index = match self.free.pop() {
            Some(index) => {
                self.slab[index as usize] = op;
                index
            }
            None => {
                self.slab.push(op);
                (self.slab.len() - 1) as u32
            }
        };
        self.queue(slot).push(index);
    }

    /// The queue of `slot`, handed a recycled buffer if it holds none.
    fn queue(&mut self, slot: u32) -> &mut Vec<u32> {
        let queue = &mut self.slots[slot as usize];
        if queue.capacity() == 0 {
            if let Some(spare) = self.spare_queues.pop() {
                *queue = spare;
            }
        }
        queue
    }

    /// Enqueues an urgent op (fixed row, latency-bounded): served as a
    /// random access, or as a conditional one if its row happens to be
    /// refreshing, and spilled to the CPU after
    /// [`SchedConfig::urgent_max_wait`] windows.
    pub fn enqueue_urgent(&mut self, op: AccessOp) {
        self.urgent.push_back(op);
    }

    /// A destination row for a write-back, drawn by `key` (the output may
    /// go to any free page). A flexible one lands on one of the
    /// [`SchedConfig::placement_lookahead`] slots after the next window's
    /// (an offload spans two refresh intervals at least, Fig. 10); an
    /// urgent one half a retention interval from the refresh sweep, in a
    /// subarray no window refreshes for thousands of windows.
    #[must_use]
    pub fn place_write_back(&self, key: u64, urgent: bool) -> RowId {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let lookahead = u64::from(self.config.placement_lookahead.max(1));
        let away = if urgent { REFS_PER_RETENTION / 2 } else { 0 };
        let slot = (self.next_window + 1 + away + (h >> 32) % lookahead) % REFS_PER_RETENTION;
        let rows_per_slot = u64::from(self.refresh.geometry().rows_per_ref());
        RowId::new((slot + REFS_PER_RETENTION * (h % rows_per_slot)) as u32)
    }

    /// Ops waiting (flexible + urgent).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.urgent.len() + self.slab.len() - self.free.len()
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Refresh-window utilization of this scheduler's rank: the share of
    /// its unstolen windows' byte budget that the side channel used (the
    /// paper's "just-enough bandwidth" claim, measured), and 0 before
    /// any such window. Stolen windows count in [`SchedStats::windows`]
    /// but not here, so a starved rank does not read as an idle one.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let s = &self.stats;
        let budget = u64::from(self.config.accesses_per_trfc)
            * PAGE_SIZE as u64
            * (s.windows - s.stolen_windows);
        if budget == 0 {
            0.0
        } else {
            s.side_channel_bytes.as_bytes() as f64 / budget as f64
        }
    }

    /// Processes every refresh window that *ends* at or before `now`,
    /// with `spm_free` bytes of SPM as the first of them opens, and
    /// returns the resulting events in time order.
    ///
    /// Allocating wrapper around [`WindowScheduler::advance_to_into`].
    ///
    /// Ops enqueued *while handling* returned events can only be served
    /// by later windows; callers that feed results back (like the NMA's
    /// read → write-back chain) step window by window with
    /// [`WindowScheduler::advance_window_into`].
    pub fn advance_to(&mut self, now: Nanos, spm_free: u64) -> Vec<SchedEvent> {
        let mut events = Vec::new();
        self.advance_to_into(now, spm_free, &mut events);
        events
    }

    /// [`WindowScheduler::advance_to`] into a reusable sink: performs no
    /// allocation beyond the sink's own growth, so a reused sink makes
    /// steady-state stepping allocation-free.
    pub fn advance_to_into(&mut self, now: Nanos, spm_free: u64, events: &mut Vec<SchedEvent>) {
        let mut spm_free = spm_free;
        while self.next_window_end() <= now {
            spm_free = self.advance_window_into(spm_free, events);
        }
    }

    /// End time of the next unprocessed window.
    #[must_use]
    pub fn next_window_end(&self) -> Nanos {
        self.refresh.window(self.next_window).end
    }

    /// Processes exactly one refresh window with `spm_free` bytes of SPM
    /// as it opens, appending its events to `events` (a reused sink keeps
    /// stepping allocation-free), and returns the SPM bytes free as it
    /// closes. The caller applies the events in order: a served read
    /// reserves its output, a served write-back frees its bytes.
    pub fn advance_window_into(&mut self, spm_free: u64, events: &mut Vec<SchedEvent>) -> u64 {
        let w = self.refresh.window(self.next_window);
        self.next_window += 1;
        self.process_window(w.index, w.end, spm_free, events)
    }

    fn served(&mut self, op: &AccessOp, end: Nanos, kind: RefreshAccessKind) -> SchedEvent {
        match kind {
            RefreshAccessKind::Conditional => self.stats.conditional += 1,
            RefreshAccessKind::Random => self.stats.random += 1,
        }
        self.stats.side_channel_bytes += ByteSize::from_bytes(u64::from(op.bytes));
        SchedEvent::Served {
            id: op.id,
            at: end,
            kind,
        }
    }

    fn spilled(&mut self, op: &AccessOp, end: Nanos) -> SchedEvent {
        self.stats.spilled += 1;
        SchedEvent::Spilled { id: op.id, at: end }
    }

    /// Serves one window and returns the SPM bytes free as it closes.
    /// A window with no op queued counts itself, asks the fault hook and
    /// finds its slot's queue empty, and does nothing else.
    fn process_window(
        &mut self,
        index: u64,
        end: Nanos,
        spm_free: u64,
        events: &mut Vec<SchedEvent>,
    ) -> u64 {
        self.stats.windows += 1;
        let ref_index = (index % REFS_PER_RETENTION) as u32;

        // A stolen window (injected contention) offers the NMA nothing:
        // this slot's flexible ops spill below, and urgent ops keep
        // aging toward their deadline.
        let stolen = self
            .faults
            .as_deref()
            .is_some_and(|f| f.should_fire(FaultSite::RefreshWindowMiss));
        self.stats.stolen_windows += u64::from(stolen);
        let (bytes, random) = if stolen {
            (0, 0)
        } else {
            let total = u64::from(self.config.accesses_per_trfc) * PAGE_SIZE as u64;
            (total, self.config.max_random_per_trfc)
        };
        let mut cap = Capacity {
            bytes,
            random,
            spm_free,
        };
        if !self.urgent.is_empty() {
            self.serve_urgent(index, ref_index, end, &mut cap, events);
        }
        if !self.slots[ref_index as usize].is_empty() {
            self.serve_slot(ref_index, end, stolen, &mut cap, events);
        }
        cap.spm_free
    }

    /// Serves the urgent ops, first in the window and latency-critical:
    /// lucky-conditional or random, each needing the window's bytes and,
    /// for a read, SPM room for its output. A subarray conflict
    /// reorders: the op yields to the next one and tries again next
    /// window. An op that waited `urgent_max_wait` windows spills.
    fn serve_urgent(
        &mut self,
        index: u64,
        ref_index: u32,
        end: Nanos,
        cap: &mut Capacity,
        events: &mut Vec<SchedEvent>,
    ) {
        let geometry = *self.refresh.geometry();
        geometry.refreshed_rows_into(ref_index, &mut self.scratch_rows);
        self.scratch_subarrays.clear();
        self.scratch_subarrays
            .extend(self.scratch_rows.iter().map(|&r| geometry.subarray_of(r)));
        self.stats.ops_touched += self.urgent.len() as u64;

        let mut retained = std::mem::take(&mut self.scratch_retained);
        while let Some(op) = self.urgent.pop_front() {
            let lucky = self.scratch_rows.contains(&op.row);
            let reachable = u64::from(op.bytes) <= cap.bytes && (lucky || cap.random > 0);
            let subarray = geometry.subarray_of(op.row);
            let conflict = reachable && !lucky && self.scratch_subarrays.contains(&subarray);
            self.stats.subarray_conflicts += u64::from(conflict);
            if !reachable || conflict || !cap.take(&op) {
                retained.push_back(op);
                continue;
            }
            let kind = if lucky {
                RefreshAccessKind::Conditional
            } else {
                cap.random -= 1;
                RefreshAccessKind::Random
            };
            events.push(self.served(&op, end, kind));
        }
        // Deadline spilling for urgent ops that waited too long.
        while let Some(op) = retained.pop_front() {
            if index.saturating_sub(op.enqueued_window) >= self.config.urgent_max_wait {
                events.push(self.spilled(&op, end));
            } else {
                self.urgent.push_back(op);
            }
        }
        self.scratch_retained = retained;
    }

    /// Serves the slot's flexible ops conditionally, after the urgent
    /// ones, in order while the window's bytes last. A read the SPM
    /// cannot take steps aside (no head-of-line blocking); it and the ops
    /// the bytes did not reach re-align to the next slots, except in a
    /// stolen window, which spills them. Every op moves by its slab
    /// index.
    fn serve_slot(
        &mut self,
        ref_index: u32,
        end: Nanos,
        stolen: bool,
        cap: &mut Capacity,
        events: &mut Vec<SchedEvent>,
    ) {
        let mut queue = std::mem::take(&mut self.slots[ref_index as usize]);
        self.stats.ops_touched += queue.len() as u64;
        let mut reached = 0;
        for &index in &queue {
            let op = self.slab[index as usize];
            if u64::from(op.bytes) > cap.bytes {
                break;
            }
            reached += 1;
            if cap.take(&op) {
                events.push(self.served(&op, end, RefreshAccessKind::Conditional));
                self.free.push(index);
            } else {
                self.stats.spm_stalls += 1;
                self.realign(ref_index, &[index]);
            }
        }
        let missed = &queue[reached..];
        if stolen {
            for &index in missed {
                let op = self.slab[index as usize];
                events.push(self.spilled(&op, end));
                self.free.push(index);
            }
        } else {
            self.realign(ref_index, missed);
        }
        queue.clear();
        self.spare_queues.push(queue);
    }

    /// Re-aligns the `missed` ops (slab indices) to the next
    /// [`REALIGN_SLOTS`] slots, dealt in turn from the cursor: ops `k`,
    /// `k + 16`, … of `missed` go, in order, to the `k`-th slot from the
    /// cursor, one pass per destination — the order dealing them one at
    /// a time gives. An op's new slot is the queue its index sits in;
    /// its row, which no event carries, is not rewritten.
    fn realign(&mut self, ref_index: u32, missed: &[u32]) {
        let cursor = self.realign_cursor;
        for k in 0..REALIGN_SLOTS.min(missed.len()) {
            let ahead = (cursor + k) % REALIGN_SLOTS;
            let slot = (ref_index + 1 + ahead as u32) % REFS_PER_RETENTION as u32;
            let share = missed[k..].iter().step_by(REALIGN_SLOTS).copied();
            self.queue(slot).extend(share);
        }
        self.realign_cursor = (cursor + missed.len()) % REALIGN_SLOTS;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(budget: u32) -> WindowScheduler {
        WindowScheduler::new(
            SchedConfig {
                accesses_per_trfc: budget,
                ..SchedConfig::default()
            },
            DramTimings::paper_emulator(),
            DeviceGeometry::ddr4_8gb(),
        )
    }

    /// A page read of `row` whose output needs no SPM.
    fn op(id: u64, row: u32) -> AccessOp {
        AccessOp {
            id,
            row: RowId::new(row),
            bytes: 4096,
            phase: AccessPhase::Read { output: 0 },
            enqueued_window: 0,
        }
    }

    /// (served, spilled) among `events`.
    fn count(events: &[SchedEvent]) -> (usize, usize) {
        let served = events
            .iter()
            .filter(|e| matches!(e, SchedEvent::Served { .. }))
            .count();
        (served, events.len() - served)
    }

    #[test]
    fn flexible_op_served_conditionally_in_its_window() {
        let mut s = sched(3);
        s.enqueue_flexible(op(1, 100));
        // Window 100 ends at 100*tREFI + tRFC.
        let t_refi = s.refresh().timings().t_refi;
        let before = s.advance_to(t_refi * 100, 0);
        assert!(before.is_empty(), "must not serve before window 100");
        let events = s.advance_to(t_refi * 101, 0);
        assert_eq!(events.len(), 1);
        match events[0] {
            SchedEvent::Served { id, kind, at } => {
                assert_eq!(id, 1);
                assert_eq!(kind, RefreshAccessKind::Conditional);
                assert_eq!(at, s.refresh().window(100).end);
            }
            SchedEvent::Spilled { .. } => panic!("unexpected spill"),
        }
        assert_eq!(s.stats().conditional, 1);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn slot_overflow_re_aligns_to_the_next_slots() {
        let mut s = sched(2);
        // Four ops bound to slot 7; 2 pages of bytes a window -> 2 served
        // there, the other 2 re-aligned and served within 16 slots.
        for id in 0..4 {
            s.enqueue_flexible(op(id, 7));
        }
        let t_refi = s.refresh().timings().t_refi;
        assert_eq!(count(&s.advance_to(t_refi * 8, 0)), (2, 0));
        assert_eq!(s.pending(), 2);
        assert_eq!(count(&s.advance_to(t_refi * 24, 0)), (2, 0));
        assert_eq!((s.stats().spilled, s.stats().conditional), (0, 4));
    }

    #[test]
    fn a_drained_slot_recycles_its_buffer_and_slab_entries() {
        let mut s = sched(2);
        let held = |s: &WindowScheduler| s.slots.iter().filter(|q| q.capacity() > 0).count();
        // Slot 7 serves two of its four ops and deals the other two to
        // slots 8 and 9; then its buffer waits for the next slot.
        for id in 0..4 {
            s.enqueue_flexible(op(id, 7));
        }
        let t_refi = s.refresh().timings().t_refi;
        s.advance_to(t_refi * 8, 0);
        assert_eq!((held(&s), s.spare_queues.len(), s.pending()), (2, 1, 2));
        // Once served, no idle slot holds capacity, and the next op takes
        // a recycled buffer and a vacant slab entry.
        s.advance_to(t_refi * 10, 0);
        assert_eq!((held(&s), s.spare_queues.len(), s.pending()), (0, 3, 0));
        s.enqueue_flexible(op(4, 100));
        assert_eq!((held(&s), s.spare_queues.len(), s.slab.len()), (1, 2, 4));
    }

    #[test]
    fn a_stolen_window_spills_its_slot_instead_of_re_aligning() {
        use xfm_faults::{FaultPlan, SiteSpec};
        // The fault hook is the one path on which flexible ops spill:
        // with every window stolen, the slot's ops go back to the CPU at
        // once and nothing is re-aligned.
        let plan = FaultPlan::new(1).with_site(
            FaultSite::RefreshWindowMiss,
            SiteSpec::with_probability(1.0),
        );
        let mut s = sched(3);
        s.attach_faults(Arc::new(FaultInjector::new(&plan)));
        for id in 0..4 {
            s.enqueue_flexible(op(id, 7));
        }
        let t_refi = s.refresh().timings().t_refi;
        let events = s.advance_to(t_refi * 8, 0);
        let slot_end = s.refresh().window(7).end;
        assert_eq!(count(&events), (0, 4));
        assert!(events
            .iter()
            .all(|e| matches!(e, SchedEvent::Spilled { at, .. } if *at == slot_end)));
        assert_eq!((s.stats().spilled, s.pending()), (4, 0));
        assert_eq!(s.stats().stolen_windows, 8);
    }

    #[test]
    fn a_read_the_spm_cannot_take_steps_aside() {
        let mut s = sched(3);
        let needs = |id, output| AccessOp {
            phase: AccessPhase::Read { output },
            ..op(id, 7)
        };
        // Room for 3 KiB: the 4 KiB output stalls, the 1 KiB one behind
        // it is still served, and the stalled read re-aligns.
        s.enqueue_flexible(needs(1, 4096));
        s.enqueue_flexible(needs(2, 1024));
        let t_refi = s.refresh().timings().t_refi;
        let events = s.advance_to(t_refi * 8, 3072);
        assert!(matches!(events[..], [SchedEvent::Served { id: 2, .. }]));
        assert_eq!((s.stats().spm_stalls, s.pending()), (1, 1));
        // A write-back served earlier in the same window frees its bytes
        // for the reads behind it.
        let mut s = sched(3);
        s.enqueue_flexible(AccessOp {
            phase: AccessPhase::WriteBack,
            bytes: 2048,
            ..op(3, 7)
        });
        s.enqueue_flexible(needs(4, 4096));
        let events = s.advance_to(t_refi * 8, 2048);
        assert_eq!(count(&events), (2, 0), "{events:?}");
    }

    #[test]
    fn urgent_op_served_randomly_soon() {
        let mut s = sched(3);
        // Row 5000 is not refreshed in windows 0..4; subarray 5000/512=9,
        // refreshed rows in window k have subarrays {k/512 + 16i}.
        s.enqueue_urgent(op(9, 5000));
        let t_refi = s.refresh().timings().t_refi;
        let events = s.advance_to(t_refi * 2, 0);
        assert_eq!(events.len(), 1);
        match events[0] {
            SchedEvent::Served { id: 9, kind, .. } => {
                assert_eq!(kind, RefreshAccessKind::Random);
            }
            ref e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn urgent_ops_beyond_random_budget_eventually_spill() {
        let mut s = WindowScheduler::new(
            SchedConfig {
                accesses_per_trfc: 1,
                max_random_per_trfc: 1,
                urgent_max_wait: 2,
                placement_lookahead: 64,
            },
            DramTimings::paper_emulator(),
            DeviceGeometry::ddr4_8gb(),
        );
        // 10 urgent ops, 1 random slot/window, deadline 2 windows:
        // the tail must spill.
        for id in 0..10 {
            s.enqueue_urgent(op(id, 5000 + id as u32 * 600));
        }
        let t_refi = s.refresh().timings().t_refi;
        let events = s.advance_to(t_refi * 12, 0);
        assert!(count(&events).1 > 0, "deadline must force spills");
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn subarray_conflict_reorders_not_serves() {
        let mut s = sched(3);
        // Window 0 refreshes rows {0, 8192, 16384, ...} with subarrays
        // {0, 16, 32, ...}. Row 1 is subarray 0: conflict in window 0.
        s.enqueue_urgent(op(1, 1));
        let t_refi = s.refresh().timings().t_refi;
        let events = s.advance_to(t_refi, 0);
        assert!(events.is_empty(), "conflicting op must be reordered");
        assert_eq!(s.stats().subarray_conflicts, 1);
        // Window 1 refreshes row 1 -> lucky conditional.
        let events = s.advance_to(t_refi * 2, 0);
        assert!(matches!(
            events[0],
            SchedEvent::Served {
                kind: RefreshAccessKind::Conditional,
                ..
            }
        ));
    }

    #[test]
    fn conditional_fraction_reflects_mix() {
        let mut s = sched(3);
        s.enqueue_flexible(op(1, 3));
        s.enqueue_urgent(op(2, 5000));
        let t_refi = s.refresh().timings().t_refi;
        s.advance_to(t_refi * 5, 0);
        let st = s.stats();
        assert_eq!(st.conditional, 1);
        assert_eq!(st.random, 1);
        assert!((st.conditional_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn write_backs_land_within_the_lookahead() {
        let s = sched(3);
        let lookahead = SchedConfig::default().placement_lookahead;
        for key in 0..1000 {
            let row = s.place_write_back(key, false);
            assert!(row.index() % REFS_PER_RETENTION as u32 <= lookahead);
            assert!(row.index() < s.refresh().geometry().rows_per_bank);
        }
    }

    #[test]
    fn side_channel_bytes_accumulate() {
        let mut s = sched(3);
        s.enqueue_flexible(op(1, 0));
        s.enqueue_flexible(op(2, 1));
        let t_refi = s.refresh().timings().t_refi;
        s.advance_to(t_refi * 3, 0);
        assert_eq!(s.stats().side_channel_bytes.as_bytes(), 8192);
    }

    #[test]
    fn window_accounting_matches_time() {
        let mut s = sched(3);
        let t_refi = s.refresh().timings().t_refi;
        s.advance_to(t_refi * 100, 0);
        assert_eq!(s.stats().windows, 100);
    }

    #[test]
    fn utilization_counts_used_over_budget() {
        let mut s = sched(2);
        // Two ops in slot 5, one in slot 9: windows 0..10 offer a budget
        // of 2 pages each; 3 pages' worth get used in total.
        s.enqueue_flexible(op(1, 5));
        s.enqueue_flexible(op(2, 5));
        s.enqueue_flexible(op(3, 9));
        let t_refi = s.refresh().timings().t_refi;
        s.advance_to(t_refi * 10, 0);
        assert_eq!(s.stats().windows, 10);
        assert!((s.utilization() - 3.0 / 20.0).abs() < 1e-9);
    }

    #[test]
    fn stolen_windows_count_but_do_not_dilute_utilization() {
        use xfm_faults::{FaultPlan, SiteSpec};
        // Windows 0 and 1 are stolen; slot 5's two pages are the only
        // traffic. The fraction is over the eight windows the NMA could
        // use: 2 of 16 pages, not 2 of 20.
        let plan = FaultPlan::new(1).with_site(
            FaultSite::RefreshWindowMiss,
            SiteSpec::with_probability(1.0).max_fires(2),
        );
        let mut s = sched(2);
        s.attach_faults(Arc::new(FaultInjector::new(&plan)));
        s.enqueue_flexible(op(1, 5));
        s.enqueue_flexible(op(2, 5));
        let t_refi = s.refresh().timings().t_refi;
        s.advance_to(t_refi * 10, 0);
        assert_eq!((s.stats().windows, s.stats().stolen_windows), (10, 2));
        assert!((s.utilization() - 2.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_reads_zero_without_a_budget() {
        use xfm_faults::{FaultPlan, SiteSpec};
        // Before any window, and when every window was stolen.
        assert_eq!(sched(3).utilization(), 0.0);
        let plan = FaultPlan::new(1).with_site(
            FaultSite::RefreshWindowMiss,
            SiteSpec::with_probability(1.0),
        );
        let mut s = sched(3);
        s.attach_faults(Arc::new(FaultInjector::new(&plan)));
        s.enqueue_flexible(op(1, 2));
        s.advance_to(s.refresh().timings().t_refi * 4, 0);
        assert_eq!((s.stats().windows, s.stats().stolen_windows), (4, 4));
        assert_eq!(s.utilization(), 0.0);
    }
}
