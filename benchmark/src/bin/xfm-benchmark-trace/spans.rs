//! Span recording and self-time arithmetic.
//!
//! A span is `{name, start_ns, end_ns, parent, op}`. The parent comes
//! from a thread-local stack of open spans; a span raised on a thread
//! with nothing open (a plane's own batch worker) attaches to the batch
//! span currently open on the submitting client. Spans live in
//! per-thread vectors sized before the first operation and are read
//! back only after the traced pass has ended.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Span identity: recording thread's slot (from 1) in the high half,
/// index in that thread's vector in the low half. 0 is "none".
pub type SpanId = u64;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the recorder's name table.
    pub name: u8,
    /// Start, nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End; 0 while the span is open.
    pub end: u64,
    /// The span that caused this one, or 0 for a root.
    pub parent: SpanId,
    /// Operation id: the id of the root span this one belongs to.
    pub op: SpanId,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Spans a client thread can hold (its vector is sized once, at its
/// first root span); past this the span is dropped and counted.
pub const CLIENT_CAPACITY: usize = 3 << 20;
/// Initial capacity for threads that never open a root span.
const WORKER_CAPACITY: usize = 1 << 12;

type Buffer = Arc<Mutex<Vec<Span>>>;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_SLOT: AtomicU16 = AtomicU16::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// The batch span (and its op) a parentless worker span attaches to.
static BATCH: AtomicU64 = AtomicU64::new(0);
static BATCH_OP: AtomicU64 = AtomicU64::new(0);
static BUFFERS: Mutex<Vec<(u16, Buffer)>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct Local {
    slot: u16,
    buf: Buffer,
    /// Open spans, innermost last: `(id, op)`.
    open: Vec<(SpanId, SpanId)>,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Starts (or stops) recording. Decorators forward untouched while off.
pub fn set_recording(on: bool) {
    now_ns();
    ON.store(on, Ordering::Release);
}

/// Whether spans are being recorded.
#[inline]
pub fn recording() -> bool {
    ON.load(Ordering::Acquire)
}

/// An open span; closing it stamps the end time.
pub struct Open {
    idx: u32,
    /// The batch attachment point to restore on exit, for batch spans.
    outer_batch: Option<(SpanId, SpanId)>,
}

/// Opens a span named `name`; `root` marks a client call (the start of
/// an operation). `None` when recording is off or the buffer is full.
#[inline]
pub fn enter(name: u8, root: bool, batch: bool) -> Option<Open> {
    if !recording() {
        return None;
    }
    LOCAL.with(|cell| {
        let mut cell = cell.borrow_mut();
        let local = cell.get_or_insert_with(|| {
            let slot = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
            let cap = if root {
                CLIENT_CAPACITY
            } else {
                WORKER_CAPACITY
            };
            let buf: Buffer = Arc::new(Mutex::new(Vec::with_capacity(cap)));
            BUFFERS
                .lock()
                .expect("span registry")
                .push((slot, buf.clone()));
            Local {
                slot,
                buf,
                open: Vec::with_capacity(16),
            }
        });
        let mut spans = local.buf.lock().expect("span buffer");
        if root && spans.len() >= CLIENT_CAPACITY - 16 {
            // Never drop the children of a recorded root: refuse the
            // whole operation instead.
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let idx = spans.len() as u32;
        let id = (u64::from(local.slot) << 32) | u64::from(idx);
        let (parent, op) = match local.open.last() {
            Some(&(parent, op)) => (parent, op),
            None if root => (0, id),
            None => (
                BATCH.load(Ordering::Acquire),
                BATCH_OP.load(Ordering::Acquire),
            ),
        };
        spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent,
            op,
        });
        drop(spans);
        local.open.push((id, op));
        let outer_batch = batch.then(|| {
            (
                BATCH.swap(id, Ordering::AcqRel),
                BATCH_OP.swap(op, Ordering::AcqRel),
            )
        });
        Some(Open { idx, outer_batch })
    })
}

/// Closes a span opened by [`enter`] on this thread.
#[inline]
pub fn exit(open: Option<Open>) {
    let Some(open) = open else { return };
    let end = now_ns();
    LOCAL.with(|cell| {
        let mut cell = cell.borrow_mut();
        let local = cell.as_mut().expect("exit follows enter on one thread");
        local.buf.lock().expect("span buffer")[open.idx as usize].end = end;
        local.open.pop();
    });
    if let Some((span, op)) = open.outer_batch {
        BATCH.store(span, Ordering::Release);
        BATCH_OP.store(op, Ordering::Release);
    }
}

/// Runs `f` inside a span.
#[inline]
pub fn within<R>(name: u8, root: bool, batch: bool, f: impl FnOnce() -> R) -> R {
    let open = enter(name, root, batch);
    let r = f();
    exit(open);
    r
}

/// Takes every recorded span, grouped by recording thread (slot), and
/// the number of operations dropped for lack of room. Call only after
/// the traced pass has ended.
pub fn take() -> (Vec<(u16, Vec<Span>)>, u64) {
    let buffers = std::mem::take(&mut *BUFFERS.lock().expect("span registry"));
    let threads = buffers
        .into_iter()
        .map(|(slot, buf)| (slot, std::mem::take(&mut *buf.lock().expect("span buffer"))))
        .filter(|(_, spans)| !spans.is_empty())
        .collect();
    (threads, DROPPED.swap(0, Ordering::Relaxed))
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span). Children recorded on
/// other threads may overlap each other; the union counts the covered
/// time once.
pub struct SelfTimes {
    /// `self_ns[thread][index]`, parallel to the span vectors.
    pub self_ns: Vec<Vec<u64>>,
    /// Roots whose tree stayed on one thread and whose self times did
    /// not sum to the root's duration exactly (must be 0).
    pub partition_violations: u64,
    /// Roots checked for the exact partition.
    pub partitioned_roots: u64,
}

/// Maps a span id to `(thread, index)` in `threads` as returned by
/// [`take`]; `None` for 0 and for ids recorded nowhere.
pub fn locator(threads: &[(u16, Vec<Span>)]) -> impl Fn(SpanId) -> Option<(usize, usize)> {
    let thread_of_slot: std::collections::BTreeMap<u16, usize> = threads
        .iter()
        .enumerate()
        .map(|(t, (slot, _))| (*slot, t))
        .collect();
    move |id| {
        let thread = *thread_of_slot.get(&((id >> 32) as u16))?;
        Some((thread, (id & 0xFFFF_FFFF) as usize))
    }
}

/// Computes [`SelfTimes`] for `threads` as returned by [`take`].
pub fn self_times(threads: &[(u16, Vec<Span>)]) -> SelfTimes {
    let locate = locator(threads);

    // Children intervals keyed by parent, then merged per parent.
    let mut edges: Vec<(SpanId, u64, u64)> = threads
        .iter()
        .flat_map(|(_, spans)| spans.iter())
        .filter(|s| s.parent != 0)
        .map(|s| (s.parent, s.start, s.end))
        .collect();
    edges.sort_unstable();
    let mut self_ns: Vec<Vec<u64>> = threads
        .iter()
        .map(|(_, spans)| spans.iter().map(Span::dur).collect())
        .collect();
    let mut i = 0;
    while i < edges.len() {
        let parent = edges[i].0;
        let (t, idx) = locate(parent).expect("a parent is a recorded span");
        let p = threads[t].1[idx];
        let (mut covered, mut reach) = (0u64, p.start);
        while i < edges.len() && edges[i].0 == parent {
            let (start, end) = (edges[i].1.max(reach), edges[i].2.min(p.end));
            if end > start {
                covered += end - start;
                reach = end;
            }
            i += 1;
        }
        self_ns[t][idx] = p.dur() - covered;
    }

    // Partition property: on a tree that never left its thread, self
    // times add up to the root's duration to the nanosecond; with
    // overlapping worker children they can only add up to more.
    let mut sums: std::collections::HashMap<SpanId, (u64, bool)> = std::collections::HashMap::new();
    for (t, (slot, spans)) in threads.iter().enumerate() {
        for (idx, s) in spans.iter().enumerate() {
            let entry = sums.entry(s.op).or_insert((0, false));
            entry.0 += self_ns[t][idx];
            entry.1 |= (s.op >> 32) as u16 != *slot;
        }
    }
    let (mut violations, mut checked) = (0, 0);
    for (op, (sum, crossed)) in sums {
        let Some((t, idx)) = locate(op) else {
            continue;
        };
        let dur = threads[t].1[idx].dur();
        if crossed {
            violations += u64::from(sum < dur);
        } else {
            checked += 1;
            violations += u64::from(sum != dur);
        }
    }
    SelfTimes {
        self_ns,
        partition_violations: violations,
        partitioned_roots: checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u8, start: u64, end: u64, parent: SpanId, op: SpanId) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op,
        }
    }

    const A: u64 = 1 << 32; // thread slot 1
    const B: u64 = 2 << 32; // thread slot 2
    const C: u64 = 3 << 32; // thread slot 3

    #[test]
    fn nested_spans_partition_the_root_exactly() {
        // root [0,100] > plane [10,80] > codec [20,50]; root > other [85,95]
        let threads = vec![(
            1,
            vec![
                span(0, 0, 100, 0, A),
                span(1, 10, 80, A, A),
                span(2, 20, 50, A | 1, A),
                span(3, 85, 95, A, A),
            ],
        )];
        let st = self_times(&threads);
        assert_eq!(st.self_ns[0], vec![20, 40, 30, 10]);
        assert_eq!(st.self_ns[0].iter().sum::<u64>(), 100);
        assert_eq!((st.partition_violations, st.partitioned_roots), (0, 1));
    }

    #[test]
    fn overlapping_worker_children_are_counted_once() {
        // batch [0,100] on thread 1; two workers compress in parallel:
        // [10,60] and [30,90] — union [10,90] = 80, so batch self = 20.
        let threads = vec![
            (1, vec![span(0, 0, 100, 0, A)]),
            (2, vec![span(2, 10, 60, A, A)]),
            (3, vec![span(2, 30, 90, A, A)]),
        ];
        let st = self_times(&threads);
        assert_eq!(st.self_ns[0], vec![20]);
        assert_eq!(st.self_ns[1], vec![50]);
        assert_eq!(st.self_ns[2], vec![60]);
        // 20 + 50 + 60 ≥ 100: allowed for a tree that left its thread.
        assert_eq!((st.partition_violations, st.partitioned_roots), (0, 0));
        let _ = (B, C);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let threads = vec![
            (1, vec![span(0, 50, 100, 0, A)]),
            (2, vec![span(2, 40, 70, A, A), span(2, 90, 120, A, A)]),
        ];
        let st = self_times(&threads);
        // Covered: [50,70] and [90,100] = 30.
        assert_eq!(st.self_ns[0], vec![20]);
    }

    #[test]
    fn a_broken_tree_is_reported() {
        // A child that claims more than its parent's interval on the
        // same thread cannot happen with a monotonic clock; if spans
        // were mis-parented the sums stop matching.
        let threads = vec![(
            1,
            vec![
                span(0, 0, 100, 0, A),
                span(1, 10, 30, A, A),
                span(1, 20, 40, A, A),
            ],
        )];
        let st = self_times(&threads);
        // Union [10,40] = 30 → root self 70; children self 20 + 20.
        assert_eq!(st.self_ns[0], vec![70, 20, 20]);
        assert_eq!(st.partition_violations, 1);
    }

    #[test]
    fn recorder_nests_by_thread_and_attaches_workers_to_the_batch() {
        set_recording(true);
        let root = enter(0, true, false).unwrap();
        let batch = enter(1, false, true);
        std::thread::scope(|s| {
            s.spawn(|| within(2, false, false, || ()));
        });
        within(3, false, false, || ());
        exit(batch);
        exit(Some(root));
        set_recording(false);
        assert!(enter(0, true, false).is_none());

        let (threads, dropped) = take();
        assert_eq!(dropped, 0);
        assert_eq!(threads.len(), 2);
        let (client, worker) = if threads[0].1.len() == 3 {
            (&threads[0], &threads[1])
        } else {
            (&threads[1], &threads[0])
        };
        let root_id = u64::from(client.0) << 32;
        assert_eq!(client.1[0].parent, 0);
        assert_eq!(client.1[1].parent, root_id);
        assert_eq!(client.1[2].parent, root_id | 1);
        assert_eq!(
            worker.1[0].parent,
            root_id | 1,
            "worker attaches to the batch"
        );
        assert!(client
            .1
            .iter()
            .chain(&worker.1)
            .all(|s| s.op == root_id && s.end >= s.start));
        let st = self_times(&threads);
        assert_eq!(st.partition_violations, 0);
    }
}
