//! Deterministic, cancellable event queue.
//!
//! [`EventQueue`] is the heart of every discrete-event loop in the
//! workspace. Two properties matter:
//!
//! * **Determinism** — events scheduled for the same instant pop in
//!   insertion order (a monotone sequence number breaks ties), so a run
//!   is a pure function of its inputs and seed.
//! * **Cancellation** is lazy and O(1): the queue keeps the set of
//!   *pending* ids, `cancel` removes the id from it, and the orphaned
//!   heap entry is discarded when it surfaces. An id that already fired
//!   or was already cancelled is simply not in the set, so cancelling it
//!   changes nothing — `len()` is the size of that set and cannot drift.
//!
//! An owner whose next event keeps moving (the flow model's earliest
//! completion changes with every bandwidth share) need not churn the
//! heap at all: it can hold that event itself, under sequence numbers
//! taken with [`EventQueue::reserve_seqs`], and compare it against
//! [`EventQueue::peek`] — the order is the same `(time, id)` order the
//! heap uses.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Handle to a scheduled event, usable to cancel it later. Ids order
/// by issue: of two events at the same instant the lower id pops first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    /// The raw sequence number behind the handle. Only meaningful for
    /// snapshotting: an id round-trips through
    /// [`from_raw`](Self::from_raw) against the same queue generation.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a handle from [`raw`](Self::raw). The caller is
    /// responsible for pairing it with the queue state it was captured
    /// from — a stale id silently refers to a different event.
    pub fn from_raw(raw: u64) -> Self {
        EventId(raw)
    }
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    id: EventId,
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
        // BinaryHeap is a max-heap; invert so the earliest (and, on ties,
        // first-inserted) entry is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of domain events `E`.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Ids scheduled and neither popped nor cancelled. A heap entry
    /// whose id is missing here is a tombstone.
    pending: HashSet<EventId>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: HashSet::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// In debug builds, scheduling into the past panics — it always
    /// indicates a model bug (an event handler computed a completion
    /// time before "now").
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let id = EventId(self.next_seq);
        self.heap.push(Entry {
            at,
            seq: self.next_seq,
            id,
            payload,
        });
        self.pending.insert(id);
        self.next_seq += 1;
        id
    }

    /// Take `n` consecutive ids without queueing anything and return the
    /// first: exactly what scheduling `n` events and cancelling them at
    /// once would leave behind. For a caller that keeps an event of its
    /// own beside the queue (see the module docs) — the ids it hands out
    /// afterwards, and so every same-instant tie-break, are those of a
    /// run in which all `n` had been scheduled.
    pub fn reserve_seqs(&mut self, n: u64) -> EventId {
        let first = EventId(self.next_seq);
        self.next_seq += n;
        first
    }

    /// Cancel a previously scheduled event. Cancelling an already-popped
    /// or already-cancelled id is a harmless no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.pending.remove(&id);
    }

    /// Pop the next live event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if !self.pending.remove(&entry.id) {
                continue;
            }
            self.now = entry.at;
            return Some((entry.at, entry.payload));
        }
        None
    }

    /// Timestamp and id of the next live event without popping it.
    pub fn peek(&mut self) -> Option<(SimTime, EventId)> {
        loop {
            match self.heap.peek() {
                None => return None,
                Some(e) if self.pending.contains(&e.id) => return Some((e.at, e.id)),
                Some(_) => {
                    self.heap.pop();
                }
            }
        }
    }

    /// Timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek().map(|(at, _)| at)
    }

    /// Number of live (non-cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.pending.len()
    }
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Heap entries held, tombstones included: `raw_len() - len()` is
    /// the number of cancelled events not yet discarded.
    pub fn raw_len(&self) -> usize {
        self.heap.len()
    }

    /// Force the clock forward (used by drivers that interleave external
    /// activity between events). Never moves the clock backwards.
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            debug_assert!(self.peek_time().is_none_or(|n| n >= t) || t <= self.now,);
            self.now = t;
        }
    }

    /// Capture the queue's complete state for a checkpoint: every live
    /// (non-cancelled) entry as `(at, seq, payload)` in deterministic
    /// pop order, plus the clock and the sequence counter. Cancelled
    /// tombstones are compacted away — they are unobservable.
    pub fn snapshot(&self) -> QueueSnapshot<E>
    where
        E: Clone,
    {
        let mut entries: Vec<(SimTime, u64, E)> = self
            .heap
            .iter()
            .filter(|e| self.pending.contains(&e.id))
            .map(|e| (e.at, e.seq, e.payload.clone()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        QueueSnapshot {
            now: self.now,
            next_seq: self.next_seq,
            entries,
        }
    }

    /// Rebuild a queue from a [`snapshot`](Self::snapshot). Event ids
    /// equal their sequence numbers, so handles captured alongside the
    /// snapshot (via [`EventId::raw`]) stay valid against the restored
    /// queue.
    pub fn restore(snapshot: QueueSnapshot<E>) -> Self {
        let mut heap = BinaryHeap::with_capacity(snapshot.entries.len());
        let mut pending = HashSet::with_capacity(snapshot.entries.len());
        for (at, seq, payload) in snapshot.entries {
            pending.insert(EventId(seq));
            heap.push(Entry {
                at,
                seq,
                id: EventId(seq),
                payload,
            });
        }
        EventQueue {
            heap,
            pending,
            next_seq: snapshot.next_seq,
            now: snapshot.now,
        }
    }
}

/// Everything an [`EventQueue`] needs to be rebuilt exactly.
pub struct QueueSnapshot<E> {
    pub now: SimTime,
    pub next_seq: u64,
    /// Live entries as `(at, seq, payload)`, sorted in pop order.
    pub entries: Vec<(SimTime, u64, E)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_is_idempotent_and_safe_after_pop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 1u32);
        assert!(q.pop().is_some());
        q.cancel(a); // no effect, id already popped
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        q.cancel(a);
        assert_eq!(q.len(), 0);
        let b = q.schedule(SimTime::from_secs(2), 2u32);
        q.schedule(SimTime::from_secs(3), 3u32);
        q.cancel(b);
        q.cancel(b); // double cancel of a queued id counts once
        assert_eq!((q.len(), q.raw_len()), (1, 2));
        assert_eq!(q.pop().map(|(_, e)| e), Some(3));
        assert!(q.is_empty());
        assert_eq!(q.raw_len(), 0, "the tombstone went at pop");
    }

    #[test]
    fn reserved_seqs_leave_the_ids_of_a_scheduled_batch() {
        // a batch of four scheduled and cancelled, against four ids
        // reserved: everything scheduled afterwards gets the same id
        let t = SimTime::from_secs(1);
        let mut full = EventQueue::new();
        full.schedule(t, "before");
        let batch: Vec<_> = (0..4).map(|_| full.schedule(t, "batch")).collect();
        batch.iter().for_each(|&id| full.cancel(id));
        let after_full = full.schedule(t, "after");

        let mut spare = EventQueue::new();
        spare.schedule(t, "before");
        assert_eq!(spare.reserve_seqs(4), batch[0]);
        let after_spare = spare.schedule(t, "after");

        assert_eq!(after_spare, after_full);
        assert!(batch[3] < after_spare, "ids order by issue");
        assert_eq!((spare.len(), spare.raw_len()), (2, 2));
        assert_eq!((full.len(), full.raw_len()), (2, 6));
        assert_eq!(spare.peek(), full.peek());
    }

    #[test]
    fn peek_skips_cancelled_prefix() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        let b = q.schedule(SimTime::from_secs(2), "b");
        q.schedule(SimTime::from_secs(3), "c");
        q.cancel(a);
        q.cancel(b);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("c"));
    }

    #[test]
    fn clock_never_runs_backwards() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_secs(10));
        q.advance_to(SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    fn snapshot_restore_preserves_order_ids_and_counter() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        let a = q.schedule(SimTime::from_secs(1), "a");
        let b = q.schedule(SimTime::from_secs(1), "b");
        let dead = q.schedule(SimTime::from_secs(2), "dead");
        q.cancel(dead);
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));

        let snap = q.snapshot();
        assert_eq!(snap.entries.len(), 2, "cancelled entry compacted");
        let mut r = EventQueue::restore(snap);
        assert_eq!(r.now(), q.now());
        assert_eq!(r.len(), 2);
        // a captured-alongside id still cancels the same event
        assert_eq!(EventId::from_raw(b.raw()), b);
        r.cancel(b);
        assert_eq!(r.pop().map(|(_, e)| e), Some("c"));
        assert!(r.pop().is_none());
        // new ids continue past the old counter, never colliding
        let next = r.schedule(SimTime::from_secs(9), "d");
        assert_eq!(next.raw(), 4);
        let _ = a;
    }
}
