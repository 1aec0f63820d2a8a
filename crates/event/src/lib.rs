//! Deterministic discrete-event core shared by every timing layer in the
//! XFM reproduction.
//!
//! XFM's central claim is temporal — the NMA steals exactly the all-bank
//! refresh windows while the CPU, the (de)compression engine, and
//! co-runners keep advancing in parallel — so the repo's fidelity hinges
//! on one answer to "what happens next?". This crate is that answer:
//!
//! - [`VirtualClock`] — a monotonic virtual-time cursor (no wall clock,
//!   no `Instant`, fully replayable);
//! - [`EventQueue`] — a binary-heap priority queue ordered by
//!   `(timestamp, sequence)` so events at equal timestamps pop in FIFO
//!   insertion order (stable tie-breaking is what makes same-seed replay
//!   byte-identical);
//! - [`EventId`] — a typed handle for every scheduled event;
//! - [`Events`] — a reusable, allocation-free event sink for hot loops;
//! - [`Simulated`] — the participation trait: a component reports when
//!   its next internally scheduled action fires ([`Simulated::next_ready`])
//!   and is advanced with [`Simulated::poll`], emitting whatever happened
//!   into the caller's sink.
//!
//! Layered on top: `MemSystem` (xfm-dram) buffers out-of-order
//! cross-channel arrivals in an `EventQueue<MemRequest>`, the
//! `WindowScheduler` and `EngineModel` (xfm-core) interleave refresh
//! windows with engine completions so offload stages overlap adjacent
//! windows, and `xfm-sim`'s fallback/ablation loops drive their periodic
//! bursts from the queue instead of bespoke `while t < end` steppers.
//!
//! # Example
//!
//! ```
//! use xfm_event::{EventQueue, VirtualClock};
//! use xfm_types::Nanos;
//!
//! let mut clock = VirtualClock::new();
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.push(Nanos::from_ns(300), "late");
//! queue.push(Nanos::from_ns(100), "first");
//! queue.push(Nanos::from_ns(100), "second"); // same timestamp: FIFO
//!
//! let mut seen = Vec::new();
//! while let Some(ev) = queue.pop_before(Nanos::from_ns(200)) {
//!     clock.advance_to(ev.at);
//!     seen.push(ev.payload);
//! }
//! assert_eq!(seen, ["first", "second"]);
//! assert_eq!(clock.now(), Nanos::from_ns(100));
//! assert_eq!(queue.len(), 1); // "late" still pending
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use xfm_types::Nanos;

/// Typed handle for a scheduled event.
///
/// Ids are unique per [`EventQueue`] and allocated in push order, so they
/// double as the FIFO tie-break sequence: two events scheduled at the same
/// timestamp pop in the order they were pushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Raw numeric value (stable across a run; useful for logging).
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ev#{}", self.0)
    }
}

/// A monotonic virtual-time cursor.
///
/// The clock never reads the wall clock; it only moves when the driver
/// tells it to, and never backwards. All timing layers in the workspace
/// share one clock per simulation so "now" means the same thing in the
/// DRAM model, the scheduler, the engine pipeline, and the co-run sims.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now: Nanos,
}

impl VirtualClock {
    /// A clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self { now: Nanos::ZERO }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Move the clock forward to `to`. Saturating: moving to a time at or
    /// before `now` is a no-op (the clock is monotonic by construction,
    /// so out-of-order *observations* can never rewind simulated time).
    pub fn advance_to(&mut self, to: Nanos) {
        if to > self.now {
            self.now = to;
        }
    }

    /// Publish the clock's current time to a shared [`ClockMirror`].
    ///
    /// [`VirtualClock`] is a plain `Copy` value owned by one driver;
    /// observers on other threads (telemetry, tracing) read the mirror
    /// instead. Call this after each advance that observers should see.
    pub fn publish_to(&self, mirror: &ClockMirror) {
        mirror.publish(self.now);
    }
}

/// A shared, lock-free read-only view of a [`VirtualClock`].
///
/// The driver that owns the clock calls [`ClockMirror::publish`] (or
/// [`VirtualClock::publish_to`]) after advancing; any number of observer
/// threads read [`ClockMirror::now_ns`] with a single relaxed atomic
/// load. Like the clock itself, the mirror is monotonic: publishing an
/// earlier time than already published is a no-op.
///
/// # Examples
///
/// ```
/// use xfm_event::{ClockMirror, VirtualClock};
/// use xfm_types::Nanos;
///
/// let mirror = ClockMirror::new();
/// let mut clock = VirtualClock::new();
/// clock.advance_to(Nanos::from_us(3));
/// clock.publish_to(&mirror);
/// assert_eq!(mirror.now_ns(), 3_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClockMirror {
    ns: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl ClockMirror {
    /// A mirror at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish `now` to all observers (monotonic: earlier times are
    /// ignored).
    pub fn publish(&self, now: Nanos) {
        self.ns
            .fetch_max(now.as_ns(), std::sync::atomic::Ordering::Relaxed);
    }

    /// The most recently published virtual time, in nanoseconds.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.ns.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The most recently published virtual time.
    #[must_use]
    pub fn now(&self) -> Nanos {
        Nanos::from_ns(self.now_ns())
    }
}

/// A scheduled event popped from an [`EventQueue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: Nanos,
    /// The queue-unique id assigned at push time.
    pub id: EventId,
    /// The caller's payload.
    pub payload: E,
}

#[derive(Debug)]
struct Entry<E> {
    at: Nanos,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (at, seq) pair
        // is at the top. `seq` strictly increases per push, which gives
        // FIFO order at equal timestamps.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Deterministic priority queue of timed events.
///
/// Ordering is by `(timestamp, push sequence)`: earlier timestamps first,
/// and FIFO among events that share a timestamp. That second key is the
/// whole point — a plain binary heap is unstable at ties, which is enough
/// to make two same-seed runs diverge once any two events collide on a
/// timestamp.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Clone> Clone for EventQueue<E> {
    fn clone(&self) -> Self {
        let mut heap = BinaryHeap::with_capacity(self.heap.len());
        for e in self.heap.iter() {
            heap.push(Entry {
                at: e.at,
                seq: e.seq,
                payload: e.payload.clone(),
            });
        }
        Self {
            heap,
            next_seq: self.next_seq,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// An empty queue with pre-reserved capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at `at`. Returns the event's id.
    pub fn push(&mut self, at: Nanos, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
        EventId(seq)
    }

    /// Timestamp of the next event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the next event if it fires at or before `now`.
    pub fn pop_before(&mut self, now: Nanos) -> Option<Scheduled<E>> {
        if self.heap.peek().is_some_and(|e| e.at <= now) {
            self.heap.pop().map(|e| Scheduled {
                at: e.at,
                id: EventId(e.seq),
                payload: e.payload,
            })
        } else {
            None
        }
    }

    /// Pop the next event unconditionally.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop().map(|e| Scheduled {
            at: e.at,
            id: EventId(e.seq),
            payload: e.payload,
        })
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events (sequence numbering keeps advancing so ids
    /// stay unique across a clear).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// Reusable event sink for hot simulation loops.
///
/// `poll` implementations append into an `Events<E>` owned by the driver;
/// the driver drains it and calls [`Events::clear`] between polls, so
/// steady-state stepping performs no allocation once the backing buffer
/// has grown to its high-water mark.
#[derive(Debug, Clone)]
pub struct Events<E> {
    buf: Vec<E>,
}

impl<E> Default for Events<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Events<E> {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// An empty sink with pre-reserved capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append an event.
    pub fn emit(&mut self, event: E) {
        self.buf.push(event);
    }

    /// Clear without releasing the backing buffer.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the sink is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Iterate over buffered events.
    pub fn iter(&self) -> std::slice::Iter<'_, E> {
        self.buf.iter()
    }

    /// Drain buffered events front-to-back.
    pub fn drain(&mut self) -> std::vec::Drain<'_, E> {
        self.buf.drain(..)
    }

    /// View buffered events as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[E] {
        &self.buf
    }

    /// Mutable access to the backing buffer, for interop with APIs that
    /// fill a `&mut Vec<E>` sink directly.
    pub fn as_vec_mut(&mut self) -> &mut Vec<E> {
        &mut self.buf
    }
}

impl<'a, E> IntoIterator for &'a Events<E> {
    type Item = &'a E;
    type IntoIter = std::slice::Iter<'a, E>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

impl<E> Extend<E> for Events<E> {
    fn extend<I: IntoIterator<Item = E>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

/// A component that participates in discrete-event time.
///
/// The contract is pull-based: the driver asks every participant for its
/// next internally scheduled action ([`Simulated::next_ready`]), advances
/// the shared [`VirtualClock`] to the minimum, and polls the winning
/// participant. `poll(now, out)` must process everything the component
/// scheduled at or before `now`, emit observable results into `out`, and
/// never act on anything scheduled after `now`.
pub trait Simulated {
    /// Observable result type emitted by [`Simulated::poll`].
    type Event;

    /// Virtual time of the component's next internally scheduled action,
    /// or `None` if it is idle (nothing will happen until new work is
    /// submitted).
    fn next_ready(&self) -> Option<Nanos>;

    /// Advance the component to `now`, emitting results into `out`.
    fn poll(&mut self, now: Nanos, out: &mut Events<Self::Event>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let mut c = VirtualClock::new();
        c.advance_to(Nanos::from_ns(50));
        c.advance_to(Nanos::from_ns(10)); // ignored
        assert_eq!(c.now(), Nanos::from_ns(50));
    }

    #[test]
    fn clock_mirror_is_monotonic_and_shared() {
        let m = ClockMirror::new();
        let m2 = m.clone();
        m.publish(Nanos::from_ns(40));
        m.publish(Nanos::from_ns(10)); // ignored: mirror is monotonic
        assert_eq!(m2.now_ns(), 40);
        assert_eq!(m2.now(), Nanos::from_ns(40));
        let mut c = VirtualClock::new();
        c.advance_to(Nanos::from_ns(90));
        c.publish_to(&m);
        assert_eq!(m2.now_ns(), 90);
    }

    #[test]
    fn queue_orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_ns(20), "c");
        q.push(Nanos::from_ns(10), "a");
        q.push(Nanos::from_ns(10), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn fifo_tie_break_survives_heavy_collisions() {
        let mut q = EventQueue::new();
        let t = Nanos::from_us(7);
        for i in 0..1000u32 {
            q.push(t, i);
        }
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        let expect: Vec<_> = (0..1000u32).collect();
        assert_eq!(popped, expect);
    }

    #[test]
    fn pop_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_ns(100), 1);
        q.push(Nanos::from_ns(200), 2);
        assert_eq!(
            q.pop_before(Nanos::from_ns(150)).map(|e| e.payload),
            Some(1)
        );
        assert_eq!(q.pop_before(Nanos::from_ns(150)), None);
        assert_eq!(q.peek_time(), Some(Nanos::from_ns(200)));
    }

    #[test]
    fn event_ids_are_unique_and_ordered_by_push() {
        let mut q = EventQueue::new();
        let a = q.push(Nanos::from_ns(5), ());
        let b = q.push(Nanos::from_ns(1), ());
        assert_ne!(a, b);
        assert!(b > a);
        assert_eq!(a.as_u64(), 0);
        assert_eq!(format!("{b}"), "ev#1");
    }

    #[test]
    fn events_sink_reuses_backing_buffer() {
        let mut sink: Events<u32> = Events::with_capacity(4);
        sink.emit(1);
        sink.emit(2);
        assert_eq!(sink.as_slice(), &[1, 2]);
        let drained: Vec<_> = sink.drain().collect();
        assert_eq!(drained, [1, 2]);
        assert!(sink.is_empty());
        sink.emit(3);
        assert_eq!(sink.iter().copied().collect::<Vec<_>>(), [3]);
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_global_order() {
        // Self-rescheduling periodic events must interleave correctly.
        let mut q = EventQueue::new();
        q.push(Nanos::from_ns(0), "tick");
        let mut log = Vec::new();
        let mut next = Nanos::from_ns(0);
        while let Some(ev) = q.pop_before(Nanos::from_ns(50)) {
            log.push(ev.at.as_ns());
            next = ev.at.saturating_add(Nanos::from_ns(10));
            q.push(next, "tick");
        }
        assert_eq!(log, [0, 10, 20, 30, 40, 50]);
        assert_eq!(next.as_ns(), 60);
        assert_eq!(q.len(), 1);
    }
}
