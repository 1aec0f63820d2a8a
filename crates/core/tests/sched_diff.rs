//! Differential test of the window scheduler's backlog: the slab-index
//! queues serve, spill, stall, re-align and count exactly as a scheduler
//! that holds each queued op by value — the reference below, which keeps
//! every slot's ops in a `VecDeque<AccessOp>`, stages the ops a window
//! misses in 16 buffers and rewrites each one's row as it re-aligns.
//!
//! Random flexible and urgent reads and write-backs, SPM budgets, stolen
//! windows and advances of 1–40 windows are driven through both, and the
//! events, [`SchedStats`] (the loop's counted work included), `pending()`
//! and the SPM bytes left are compared window by window.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use proptest::prelude::*;
use xfm_core::sched::{AccessOp, AccessPhase, SchedConfig, SchedEvent, WindowScheduler};
use xfm_core::SchedStats;
use xfm_dram::refresh::RefreshAccessKind;
use xfm_dram::timing::REFS_PER_RETENTION;
use xfm_dram::{DeviceGeometry, DramTimings, RefreshScheduler};
use xfm_faults::{FaultInjector, FaultPlan, FaultSite, SiteSpec};
use xfm_types::{ByteSize, Nanos, RowId, PAGE_SIZE};

const REALIGN_SLOTS: usize = 16;

/// The by-value scheduler: each slot's ops in a deque, re-aligned ops
/// staged per slot ahead and copied over with their row rewritten.
struct RefScheduler {
    config: SchedConfig,
    refresh: RefreshScheduler,
    by_slot: HashMap<u32, VecDeque<AccessOp>>,
    urgent: VecDeque<AccessOp>,
    next_window: u64,
    realigned: [VecDeque<AccessOp>; REALIGN_SLOTS],
    realign_cursor: usize,
    stats: SchedStats,
    faults: Option<Arc<FaultInjector>>,
}

impl RefScheduler {
    fn new(config: SchedConfig) -> Self {
        Self {
            config,
            refresh: RefreshScheduler::new(
                DramTimings::paper_emulator(),
                DeviceGeometry::ddr4_8gb(),
            ),
            by_slot: HashMap::new(),
            urgent: VecDeque::new(),
            next_window: 0,
            realigned: Default::default(),
            realign_cursor: 0,
            stats: SchedStats::default(),
            faults: None,
        }
    }

    fn enqueue_flexible(&mut self, op: AccessOp) {
        let slot = op.row.index() % REFS_PER_RETENTION as u32;
        self.by_slot.entry(slot).or_default().push_back(op);
    }

    fn pending(&self) -> usize {
        self.urgent.len() + self.by_slot.values().map(VecDeque::len).sum::<usize>()
    }

    fn served(&mut self, op: &AccessOp, at: Nanos, kind: RefreshAccessKind) -> SchedEvent {
        match kind {
            RefreshAccessKind::Conditional => self.stats.conditional += 1,
            RefreshAccessKind::Random => self.stats.random += 1,
        }
        self.stats.side_channel_bytes += ByteSize::from_bytes(u64::from(op.bytes));
        SchedEvent::Served {
            id: op.id,
            at,
            kind,
        }
    }

    fn spilled(&mut self, op: &AccessOp, at: Nanos) -> SchedEvent {
        self.stats.spilled += 1;
        SchedEvent::Spilled { id: op.id, at }
    }

    /// The window's service, as [`WindowScheduler::advance_window_into`].
    fn advance_window(&mut self, mut spm_free: u64, events: &mut Vec<SchedEvent>) -> u64 {
        let w = self.refresh.window(self.next_window);
        self.next_window += 1;
        let (index, end) = (w.index, w.end);
        self.stats.windows += 1;
        let ref_index = (index % REFS_PER_RETENTION) as u32;
        let geometry = *self.refresh.geometry();
        let rows = geometry.refreshed_rows(ref_index);
        let subarrays: Vec<_> = rows.iter().map(|&r| geometry.subarray_of(r)).collect();
        let stolen = self
            .faults
            .as_deref()
            .is_some_and(|f| f.should_fire(FaultSite::RefreshWindowMiss));
        self.stats.stolen_windows += u64::from(stolen);
        let (mut bytes, mut random) = if stolen {
            (0, 0)
        } else {
            let total = u64::from(self.config.accesses_per_trfc) * PAGE_SIZE as u64;
            (total, self.config.max_random_per_trfc)
        };
        let mut take = |op: &AccessOp, bytes: &mut u64| {
            match op.phase {
                AccessPhase::Read { output } if u64::from(output) > spm_free => return false,
                AccessPhase::Read { output } => spm_free -= u64::from(output),
                AccessPhase::WriteBack => spm_free += u64::from(op.bytes),
            }
            *bytes -= u64::from(op.bytes);
            true
        };

        self.stats.ops_touched += self.urgent.len() as u64;
        let mut retained = VecDeque::new();
        while let Some(op) = self.urgent.pop_front() {
            let lucky = rows.contains(&op.row);
            let reachable = u64::from(op.bytes) <= bytes && (lucky || random > 0);
            let conflict = reachable && !lucky && subarrays.contains(&geometry.subarray_of(op.row));
            self.stats.subarray_conflicts += u64::from(conflict);
            if !reachable || conflict || !take(&op, &mut bytes) {
                retained.push_back(op);
                continue;
            }
            let kind = if lucky {
                RefreshAccessKind::Conditional
            } else {
                random -= 1;
                RefreshAccessKind::Random
            };
            events.push(self.served(&op, end, kind));
        }
        while let Some(op) = retained.pop_front() {
            if index.saturating_sub(op.enqueued_window) >= self.config.urgent_max_wait {
                events.push(self.spilled(&op, end));
            } else {
                self.urgent.push_back(op);
            }
        }

        if let Some(mut bucket) = self.by_slot.remove(&ref_index) {
            self.stats.ops_touched += bucket.len() as u64;
            while let Some(op) = bucket.front().copied() {
                if u64::from(op.bytes) > bytes {
                    break;
                }
                bucket.pop_front();
                if take(&op, &mut bytes) {
                    events.push(self.served(&op, end, RefreshAccessKind::Conditional));
                } else {
                    self.stats.spm_stalls += 1;
                    self.realign(ref_index, op);
                }
            }
            while let Some(op) = bucket.pop_front() {
                if stolen {
                    events.push(self.spilled(&op, end));
                } else {
                    self.realign(ref_index, op);
                }
            }
            for k in 0..REALIGN_SLOTS {
                let moved: Vec<_> = self.realigned[k].drain(..).collect();
                if !moved.is_empty() {
                    let slot = (ref_index + 1 + k as u32) % REFS_PER_RETENTION as u32;
                    self.by_slot.entry(slot).or_default().extend(moved);
                }
            }
        }
        spm_free
    }

    fn realign(&mut self, ref_index: u32, op: AccessOp) {
        let k = self.realign_cursor;
        self.realign_cursor = (k + 1) % REALIGN_SLOTS;
        let slot = (ref_index + 1 + k as u32) % REFS_PER_RETENTION as u32;
        let group = op.row.index() - op.row.index() % REFS_PER_RETENTION as u32;
        self.realigned[k].push_back(AccessOp {
            row: RowId::new(group + slot),
            ..op
        });
    }
}

/// One step of a run: `(kind, slot ahead, refresh group, bytes, output,
/// windows)`. Kinds 0–3 enqueue a flexible read, a flexible write-back,
/// an urgent read near the refresh pointer and an urgent read anywhere;
/// kind 4 advances `windows` windows, the first opening with `output × 4`
/// bytes of SPM free.
type Step = (u8, u64, u32, u32, u32, u64);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0u8..5,
            0u64..48,
            0u32..8,
            0u32..=4096,
            0u32..=4096,
            1u64..=40,
        ),
        0..160,
    )
}

/// Device parameters: `(accesses per tRFC, random per tRFC, urgent
/// wait, stolen windows per 100, fault seed)`.
fn device() -> impl Strategy<Value = (u32, u32, u64, u32, u64)> {
    (1u32..=3, 0u32..=2, 1u64..=8, 0u32..=40, 0u64..1 << 16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn index_backlog_matches_the_by_value_scheduler(
        device in device(),
        steps in steps(),
    ) {
        let (accesses, random, wait, steal, seed) = device;
        let config = SchedConfig {
            accesses_per_trfc: accesses,
            max_random_per_trfc: random,
            urgent_max_wait: wait,
            placement_lookahead: 64,
        };
        let mut sched = WindowScheduler::new(config, DramTimings::paper_emulator(), DeviceGeometry::ddr4_8gb());
        let mut model = RefScheduler::new(config);
        if steal > 0 {
            let plan = FaultPlan::new(seed).with_site(
                FaultSite::RefreshWindowMiss,
                SiteSpec::with_probability(f64::from(steal) / 100.0),
            );
            sched.attach_faults(Arc::new(FaultInjector::new(&plan)));
            model.faults = Some(Arc::new(FaultInjector::new(&plan)));
        }
        let rows_per_bank = DeviceGeometry::ddr4_8gb().rows_per_bank;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (id, (kind, ahead, group, bytes, output, windows)) in steps.into_iter().enumerate() {
            let window = model.next_window;
            let slot = ((window + ahead) % REFS_PER_RETENTION) as u32;
            let near = RowId::new(group * REFS_PER_RETENTION as u32 + slot);
            let read = AccessOp {
                id: id as u64,
                row: near,
                bytes,
                phase: AccessPhase::Read { output },
                enqueued_window: window,
            };
            match kind {
                0 => {
                    sched.enqueue_flexible(read);
                    model.enqueue_flexible(read);
                }
                1 => {
                    let wb = AccessOp { phase: AccessPhase::WriteBack, ..read };
                    sched.enqueue_flexible(wb);
                    model.enqueue_flexible(wb);
                }
                2 | 3 => {
                    let row = if kind == 2 {
                        near
                    } else {
                        RowId::new((u64::from(output) * 7919 + ahead * 104_729) as u32 % rows_per_bank)
                    };
                    let op = AccessOp { row, ..read };
                    sched.enqueue_urgent(op);
                    model.urgent.push_back(op);
                }
                _ => {
                    let (mut spm, mut spm_model) = (u64::from(output) * 4, u64::from(output) * 4);
                    for w in 0..windows {
                        got.clear();
                        want.clear();
                        spm = sched.advance_window_into(spm, &mut got);
                        spm_model = model.advance_window(spm_model, &mut want);
                        prop_assert_eq!(&got, &want, "window {} of step {}", window + w, id);
                        prop_assert_eq!(spm, spm_model, "SPM after window {}", window + w);
                        prop_assert_eq!(sched.stats(), model.stats, "stats after window {}", window + w);
                        prop_assert_eq!(sched.pending(), model.pending(), "pending after window {}", window + w);
                    }
                }
            }
            prop_assert_eq!(sched.pending(), model.pending(), "pending after step {}", id);
        }
    }
}
