//! The refresh-window NMA access scheduler — the mechanism at the core
//! of XFM (paper §4.3/§5).
//!
//! The scheduler batches NMA DRAM accesses and serves them only inside
//! `tRFC` windows, when the rank is locked to the CPU anyway:
//!
//! - **Conditional accesses** target a row that is in the set being
//!   refreshed during the window. The row is simply kept activated while
//!   its data bursts to the NMA — no extra activation, no interference.
//!   *Flexible* operations (controller-scheduled compressions, zpool
//!   write-backs with free destination choice) are bucketed by
//!   `row mod 8192` and wait — descriptor-only — for their row's window,
//!   at most one retention interval (32 ms) away.
//! - **Random accesses** use the Fig. 7 subarray latches to reach a row
//!   in a subarray *not* being refreshed. The paper's methodology allows
//!   one random access per `tRFC`; subarray conflicts are resolved by
//!   reordering (a conflicting op yields its slot to the next one).
//!
//! When a window's access budget cannot absorb the ops bound to it, the
//! surplus is a *structural hazard*: the scheduler spills those ops back
//! to the caller, which resolves them with `CPU_Fallback` (§4.3) — the
//! quantity Fig. 12 plots.

use std::collections::VecDeque;
use std::sync::Arc;

use xfm_dram::bank::RefreshAccessKind;
use xfm_dram::geometry::DeviceGeometry;
use xfm_dram::refresh::{RefreshScheduler, WindowUtilization};
use xfm_dram::timing::{DramTimings, REFS_PER_RETENTION};
use xfm_faults::{FaultInjector, FaultSite};
use xfm_types::{ByteSize, Nanos, RowId, SubarrayId};

use crate::KeyedMap;

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// Total NMA accesses that fit in one `tRFC` (Fig. 12 sweeps 1–3;
    /// the timing bound is [`DramTimings::max_conditional_accesses`]).
    pub accesses_per_trfc: u32,
    /// Of those, how many may be random (methodology: 1).
    pub max_random_per_trfc: u32,
    /// Windows an urgent op may wait before spilling to the CPU.
    pub urgent_max_wait: u64,
    /// Slots the flexible-write placer looks ahead when choosing a
    /// destination row.
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

/// One DRAM access the NMA wants to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOp {
    /// Caller-chosen identifier (the NMA maps it back to an offload).
    pub id: u64,
    /// Target row (DIMM-local).
    pub row: RowId,
    /// Bytes moved.
    pub bytes: u32,
    /// Window index at which the op was enqueued.
    pub enqueued_window: u64,
}

/// What happened to an op during `advance_to`.
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
    /// Bytes moved over the refresh side channel.
    pub side_channel_bytes: ByteSize,
    /// Random-access attempts skipped due to subarray conflicts.
    pub subarray_conflicts: u64,
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

/// A processed window's identity (returned by
/// [`WindowScheduler::advance_window`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshWindowRef {
    /// Monotonic window number.
    pub index: u64,
    /// Time the window closed.
    pub end: Nanos,
}

/// The window scheduler for one rank/DIMM.
///
/// # Examples
///
/// ```
/// use xfm_core::sched::{AccessOp, SchedConfig, SchedEvent, WindowScheduler};
/// use xfm_dram::{DeviceGeometry, DramTimings};
/// use xfm_types::{Nanos, RowId};
///
/// let mut sched = WindowScheduler::new(
///     SchedConfig::default(),
///     DramTimings::paper_emulator(),
///     DeviceGeometry::ddr4_8gb(),
/// );
/// // A flexible read of row 5 waits for window with ref-index 5.
/// sched.enqueue_flexible(AccessOp {
///     id: 1,
///     row: RowId::new(5),
///     bytes: 4096,
///     enqueued_window: 0,
/// });
/// let events = sched.advance_to(Nanos::from_ms(1));
/// assert!(matches!(events[0], SchedEvent::Served { id: 1, .. }));
/// ```
#[derive(Debug, Clone)]
pub struct WindowScheduler {
    config: SchedConfig,
    refresh: RefreshScheduler,
    /// Flexible ops keyed by their conditional slot (`row mod 8192`),
    /// only ever looked up by key. A slot's queue leaves the map when its
    /// window empties it and waits in `spare_queues` for the next slot
    /// that needs one, so a warm scheduler enqueues without allocating.
    by_slot: KeyedMap<u32, VecDeque<AccessOp>>,
    spare_queues: Vec<VecDeque<AccessOp>>,
    /// Urgent ops (fixed row, bounded wait), FIFO.
    urgent: VecDeque<AccessOp>,
    /// Booked flexible ops per future slot (for write placement).
    next_window: u64,
    pending: usize,
    stats: SchedStats,
    /// This rank's side-channel usage, window by window.
    utilization: WindowUtilization,
    /// Fault hooks: an armed [`FaultSite::RefreshWindowMiss`] site
    /// steals entire windows (their access budget drops to zero).
    faults: Option<Arc<FaultInjector>>,
    /// Reusable per-window scratch (refreshed rows of the current slot).
    scratch_rows: Vec<RowId>,
    /// Reusable per-window scratch (subarrays of `scratch_rows`).
    scratch_subarrays: Vec<SubarrayId>,
    /// Reusable per-window scratch (urgent ops retained past the window).
    scratch_retained: VecDeque<AccessOp>,
}

impl WindowScheduler {
    /// Creates a scheduler over the given refresh calendar.
    #[must_use]
    pub fn new(config: SchedConfig, timings: DramTimings, geometry: DeviceGeometry) -> Self {
        Self {
            config,
            refresh: RefreshScheduler::new(timings, geometry),
            by_slot: KeyedMap::default(),
            spare_queues: Vec::new(),
            urgent: VecDeque::new(),
            next_window: 0,
            pending: 0,
            stats: SchedStats::default(),
            utilization: WindowUtilization::new(1),
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
        let spare = &mut self.spare_queues;
        self.by_slot
            .entry(slot)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push_back(op);
        self.pending += 1;
    }

    /// Enqueues an urgent op (fixed row, latency-bounded): served as a
    /// conditional access if it gets lucky, as a random access otherwise,
    /// and spilled to the CPU after
    /// [`SchedConfig::urgent_max_wait`] windows.
    pub fn enqueue_urgent(&mut self, op: AccessOp) {
        self.urgent.push_back(op);
        self.pending += 1;
    }

    /// Chooses a destination row for a flexible write-back: the row whose
    /// upcoming refresh slot (within the lookahead) has the least booked
    /// work. Models the zpool's freedom to place compressed data in any
    /// free slot of the SFM region.
    #[must_use]
    pub fn place_flexible_write(&mut self, preferred_rows: &[RowId]) -> RowId {
        // Among the preferred rows (free zpool locations), pick the one
        // whose slot is least contended and soonest.
        let budget = self.config.accesses_per_trfc as usize;
        let horizon = self.config.placement_lookahead as u64;
        let base = self.next_window % REFS_PER_RETENTION;
        let mut best: Option<(usize, u64, RowId)> = None;
        for &row in preferred_rows.iter().take(64) {
            let slot = row.index() % REFS_PER_RETENTION as u32;
            let booked = self.by_slot.get(&slot).map_or(0, VecDeque::len);
            let distance = (u64::from(slot) + REFS_PER_RETENTION - base) % REFS_PER_RETENTION;
            if distance > horizon && booked >= budget {
                continue;
            }
            let key = (booked, distance, row);
            if best.is_none_or(|b| (b.0, b.1) > (booked, distance)) {
                best = Some(key);
            }
        }
        best.map_or_else(
            || preferred_rows.first().copied().unwrap_or(RowId::new(0)),
            |b| b.2,
        )
    }

    /// Ops waiting (flexible + urgent).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Refresh-window utilization of this scheduler's rank: what
    /// fraction of the per-`tRFC` access budget the NMA actually used
    /// (the paper's "just-enough bandwidth" claim, measured).
    #[must_use]
    pub fn utilization(&self) -> &WindowUtilization {
        &self.utilization
    }

    /// Processes every refresh window that *ends* at or before `now`,
    /// returning the resulting events in time order.
    ///
    /// Allocating wrapper around [`WindowScheduler::advance_to_into`];
    /// hot loops should pass a reusable sink instead.
    ///
    /// Note: ops enqueued *while handling* returned events can only be
    /// served by later windows; callers that feed results back (like the
    /// NMA's read → write-back chain) should step window by window with
    /// [`WindowScheduler::advance_window`].
    pub fn advance_to(&mut self, now: Nanos) -> Vec<SchedEvent> {
        let mut events = Vec::new();
        self.advance_to_into(now, &mut events);
        events
    }

    /// Processes every refresh window that *ends* at or before `now`,
    /// appending the resulting events (in time order) to `events`.
    /// Performs no allocation beyond the sink's own growth, so a reused
    /// sink makes steady-state stepping allocation-free.
    pub fn advance_to_into(&mut self, now: Nanos, events: &mut Vec<SchedEvent>) {
        while self.next_window_end() <= now {
            self.advance_window_into(events);
        }
    }

    /// End time of the next unprocessed window.
    #[must_use]
    pub fn next_window_end(&self) -> Nanos {
        self.refresh.window(self.next_window).end
    }

    /// Processes exactly one refresh window, returning it and its events.
    ///
    /// Allocating wrapper around [`WindowScheduler::advance_window_into`].
    pub fn advance_window(&mut self) -> (crate::sched::RefreshWindowRef, Vec<SchedEvent>) {
        let mut events = Vec::new();
        let w = self.advance_window_into(&mut events);
        (w, events)
    }

    /// Processes exactly one refresh window, appending its events to
    /// `events` and returning the window's identity.
    pub fn advance_window_into(&mut self, events: &mut Vec<SchedEvent>) -> RefreshWindowRef {
        let w = self.refresh.window(self.next_window);
        self.process_window(w.index, w.end, events);
        self.next_window += 1;
        RefreshWindowRef {
            index: w.index,
            end: w.end,
        }
    }

    fn process_window(&mut self, index: u64, end: Nanos, events: &mut Vec<SchedEvent>) {
        self.stats.windows += 1;
        let ref_index = (index % REFS_PER_RETENTION) as u32;
        let geometry = *self.refresh.geometry();
        geometry.refreshed_rows_into(ref_index, &mut self.scratch_rows);
        self.scratch_subarrays.clear();
        self.scratch_subarrays
            .extend(self.scratch_rows.iter().map(|&r| geometry.subarray_of(r)));
        let refreshed = &self.scratch_rows;
        let refreshed_subarrays = &self.scratch_subarrays;

        let mut budget = self.config.accesses_per_trfc;
        let mut random_budget = self.config.max_random_per_trfc;

        // A stolen window (injected contention) offers the NMA nothing:
        // this slot's flexible ops spill below, and urgent ops keep
        // aging toward their deadline.
        let stolen = self
            .faults
            .as_deref()
            .is_some_and(|f| f.should_fire(FaultSite::RefreshWindowMiss));
        if stolen {
            budget = 0;
            random_budget = 0;
        }

        // 1. Conditional service of this slot's flexible ops.
        if let Some(bucket) = self.by_slot.get_mut(&ref_index) {
            while budget > 0 {
                let Some(op) = bucket.pop_front() else { break };
                self.pending -= 1;
                budget -= 1;
                self.stats.conditional += 1;
                self.stats.side_channel_bytes += ByteSize::from_bytes(u64::from(op.bytes));
                events.push(SchedEvent::Served {
                    id: op.id,
                    at: end,
                    kind: RefreshAccessKind::Conditional,
                });
            }
            // Structural hazard: this slot's window is gone; leftover ops
            // would wait a whole extra retention interval. Spill them.
            while let Some(op) = bucket.pop_front() {
                self.pending -= 1;
                self.stats.spilled += 1;
                events.push(SchedEvent::Spilled { id: op.id, at: end });
            }
            if bucket.is_empty() {
                let queue = self
                    .by_slot
                    .remove(&ref_index)
                    .expect("the bucket just served");
                self.spare_queues.push(queue);
            }
        }

        // 2. Urgent ops: lucky-conditional or random (with subarray
        //    conflict reordering), then deadline spilling. `scratch_retained`
        //    is empty between windows; reusing it keeps this loop
        //    allocation-free at steady state.
        let retained = &mut self.scratch_retained;
        while let Some(op) = self.urgent.pop_front() {
            if budget == 0 {
                retained.push_back(op);
                continue;
            }
            let lucky = refreshed.contains(&op.row);
            if lucky {
                budget -= 1;
                self.pending -= 1;
                self.stats.conditional += 1;
                self.stats.side_channel_bytes += ByteSize::from_bytes(u64::from(op.bytes));
                events.push(SchedEvent::Served {
                    id: op.id,
                    at: end,
                    kind: RefreshAccessKind::Conditional,
                });
                continue;
            }
            if random_budget > 0 {
                let conflict = refreshed_subarrays.contains(&geometry.subarray_of(op.row));
                if conflict {
                    // Reorder: this op yields; try it again next window.
                    self.stats.subarray_conflicts += 1;
                    retained.push_back(op);
                    continue;
                }
                budget -= 1;
                random_budget -= 1;
                self.pending -= 1;
                self.stats.random += 1;
                self.stats.side_channel_bytes += ByteSize::from_bytes(u64::from(op.bytes));
                events.push(SchedEvent::Served {
                    id: op.id,
                    at: end,
                    kind: RefreshAccessKind::Random,
                });
            } else {
                retained.push_back(op);
            }
        }
        // Deadline spilling for urgent ops that waited too long.
        while let Some(op) = self.scratch_retained.pop_front() {
            if index.saturating_sub(op.enqueued_window) >= self.config.urgent_max_wait {
                self.pending -= 1;
                self.stats.spilled += 1;
                events.push(SchedEvent::Spilled { id: op.id, at: end });
            } else {
                self.urgent.push_back(op);
            }
        }
        let total = u64::from(self.config.accesses_per_trfc);
        if stolen {
            self.utilization.record_stolen_window(0, total);
        } else {
            self.utilization
                .record_window(0, total - u64::from(budget), total);
        }
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

    fn op(id: u64, row: u32) -> AccessOp {
        AccessOp {
            id,
            row: RowId::new(row),
            bytes: 4096,
            enqueued_window: 0,
        }
    }

    #[test]
    fn flexible_op_served_conditionally_in_its_window() {
        let mut s = sched(3);
        s.enqueue_flexible(op(1, 100));
        // Window 100 ends at 100*tREFI + tRFC.
        let t_refi = s.refresh().timings().t_refi;
        let before = s.advance_to(t_refi * 100);
        assert!(before.is_empty(), "must not serve before window 100");
        let events = s.advance_to(t_refi * 101);
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
    fn slot_overflow_spills_structural_hazard() {
        let mut s = sched(2);
        // Four ops bound to the same slot; budget 2 -> 2 served, 2 spill.
        for id in 0..4 {
            s.enqueue_flexible(op(id, 7));
        }
        let t_refi = s.refresh().timings().t_refi;
        let events = s.advance_to(t_refi * 8);
        let served = events
            .iter()
            .filter(|e| matches!(e, SchedEvent::Served { .. }))
            .count();
        let spilled = events
            .iter()
            .filter(|e| matches!(e, SchedEvent::Spilled { .. }))
            .count();
        assert_eq!((served, spilled), (2, 2));
        assert_eq!(s.stats().spilled, 2);
    }

    #[test]
    fn urgent_op_served_randomly_soon() {
        let mut s = sched(3);
        // Row 5000 is not refreshed in windows 0..4; subarray 5000/512=9,
        // refreshed rows in window k have subarrays {k/512 + 16i}.
        s.enqueue_urgent(op(9, 5000));
        let t_refi = s.refresh().timings().t_refi;
        let events = s.advance_to(t_refi * 2);
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
        let events = s.advance_to(t_refi * 12);
        let spilled = events
            .iter()
            .filter(|e| matches!(e, SchedEvent::Spilled { .. }))
            .count();
        assert!(spilled > 0, "deadline must force spills");
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn subarray_conflict_reorders_not_serves() {
        let mut s = sched(3);
        // Window 0 refreshes rows {0, 8192, 16384, ...} with subarrays
        // {0, 16, 32, ...}. Row 1 is subarray 0: conflict in window 0.
        s.enqueue_urgent(op(1, 1));
        let t_refi = s.refresh().timings().t_refi;
        let events = s.advance_to(t_refi);
        assert!(events.is_empty(), "conflicting op must be reordered");
        assert_eq!(s.stats().subarray_conflicts, 1);
        // Window 1 refreshes row 1 -> lucky conditional.
        let events = s.advance_to(t_refi * 2);
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
        s.advance_to(t_refi * 5);
        let st = s.stats();
        assert_eq!(st.conditional, 1);
        assert_eq!(st.random, 1);
        assert!((st.conditional_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn placement_prefers_soon_and_empty_slots() {
        let mut s = sched(1);
        // Book slot 2 fully.
        s.enqueue_flexible(op(1, 2));
        let chosen = s.place_flexible_write(&[RowId::new(2), RowId::new(3)]);
        assert_eq!(chosen, RowId::new(3), "booked slot should be avoided");
    }

    #[test]
    fn side_channel_bytes_accumulate() {
        let mut s = sched(3);
        s.enqueue_flexible(op(1, 0));
        s.enqueue_flexible(op(2, 1));
        let t_refi = s.refresh().timings().t_refi;
        s.advance_to(t_refi * 3);
        assert_eq!(s.stats().side_channel_bytes.as_bytes(), 8192);
    }

    #[test]
    fn window_accounting_matches_time() {
        let mut s = sched(3);
        let t_refi = s.refresh().timings().t_refi;
        s.advance_to(t_refi * 100);
        assert_eq!(s.stats().windows, 100);
    }

    #[test]
    fn utilization_counts_used_over_budget() {
        let mut s = sched(2);
        // Two ops in slot 5, one in slot 9: windows 0..10 offer a budget
        // of 2 each; 3 slots get used in total.
        s.enqueue_flexible(op(1, 5));
        s.enqueue_flexible(op(2, 5));
        s.enqueue_flexible(op(3, 9));
        let t_refi = s.refresh().timings().t_refi;
        s.advance_to(t_refi * 10);
        let u = s.utilization();
        assert_eq!(u.windows(0), 10);
        assert!((u.fraction(0) - 3.0 / 20.0).abs() < 1e-9);
    }
}
