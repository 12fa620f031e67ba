//! A cancellable discrete-event queue.
//!
//! [`EventQueue`] is a min-heap of `(time, sequence)`-ordered events with
//! O(log n) insertion and O(1) cancellation: a bitset indexed by the
//! monotonic [`EventKey`] marks every event that has fired or been
//! cancelled, and cancelled entries are skipped when they reach the top
//! of the heap. Ties in time are broken by insertion order, which keeps
//! simulations deterministic.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// A handle to a scheduled event, usable to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventKey(u64);

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    key: EventKey,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.key).cmp(&(other.time, other.key))
    }
}

/// A deterministic discrete-event queue.
///
/// # Examples
///
/// ```
/// use asym_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "late");
/// q.schedule(SimTime::from_nanos(10), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_nanos(), e), (10, "early"));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Bit `k` is set once the event with key `k` has fired or been
    /// cancelled.
    retired: Vec<u64>,
    next_key: u64,
    live: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            retired: Vec::new(),
            next_key: 0,
            live: 0,
        }
    }

    /// Schedules `payload` to fire at `time`; returns a key that can cancel
    /// it. Events scheduled at equal times fire in scheduling order.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventKey {
        let key = EventKey(self.next_key);
        self.next_key += 1;
        if key.0.is_multiple_of(64) {
            self.retired.push(0);
        }
        self.heap.push(Reverse(Entry { time, key, payload }));
        self.live += 1;
        key
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending (not yet fired or cancelled).
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if key.0 >= self.next_key || self.is_retired(key) {
            return false;
        }
        self.retire(key);
        self.live -= 1;
        true
    }

    fn is_retired(&self, key: EventKey) -> bool {
        self.retired[(key.0 / 64) as usize] & (1 << (key.0 % 64)) != 0
    }

    fn retire(&mut self, key: EventKey) {
        self.retired[(key.0 / 64) as usize] |= 1 << (key.0 % 64);
    }

    /// Removes and returns the earliest live event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse(entry)) = self.heap.pop() {
            if self.is_retired(entry.key) {
                continue; // cancelled
            }
            self.retire(entry.key);
            self.live -= 1;
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// The time of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(Reverse(entry)) = self.heap.peek() {
            if !self.is_retired(entry.key) {
                return Some(entry.time);
            }
            self.heap.pop();
        }
        None
    }

    /// The number of live (scheduled, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.live)
            .field("heap_size", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(nanos: u64) -> SimTime {
        SimTime::from_nanos(nanos)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_fire_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_suppresses_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_a_no_op() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.schedule(t(3), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(!q.cancel(a), "an event that already fired is not pending");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_key_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventKey(99)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(5), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(5)));
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
