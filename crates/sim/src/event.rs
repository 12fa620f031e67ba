//! A deterministic discrete-event queue.
//!
//! [`EventQueue`] is a min-heap of `(time, key)`-ordered events with
//! O(log n) insertion and removal. Every key comes from one monotonic
//! counter, so events at equal times fire in scheduling order, which
//! keeps simulations deterministic.
//!
//! [`EventQueue::reserve_key`] draws the next key without scheduling
//! anything. A caller that keeps a timer outside the heap (the kernel's
//! per-core slice ends) reserves a key at the moment it would have
//! scheduled the event, and fires the timer when its `(time, key)` is
//! smaller than [`EventQueue::peek`]'s. The timer then keeps exactly the
//! place in the order that a scheduled event would have had.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// The tie-breaking sequence number of an event or reserved timer:
/// among equal times, the smaller key fires first.
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
    next_key: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_key: 0,
        }
    }

    /// Schedules `payload` to fire at `time`. Events scheduled at equal
    /// times fire in scheduling order.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let key = self.reserve_key();
        self.heap.push(Reverse(Entry { time, key, payload }));
    }

    /// Draws the next key from the scheduling sequence without
    /// scheduling anything: a timer kept outside the queue under this key
    /// orders against queued events exactly as if it had been scheduled
    /// now.
    ///
    /// ```
    /// use asym_sim::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// let t = SimTime::from_nanos(5);
    /// q.schedule(t, "before");
    /// let timer = (t, q.reserve_key());
    /// q.schedule(t, "after");
    /// assert!(q.peek().unwrap() < timer);
    /// q.pop();
    /// assert!(timer < q.peek().unwrap());
    /// ```
    pub fn reserve_key(&mut self) -> EventKey {
        let key = EventKey(self.next_key);
        self.next_key += 1;
        key
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap
            .pop()
            .map(|Reverse(entry)| (entry.time, entry.payload))
    }

    /// The `(time, key)` of the earliest event, without removing it.
    pub fn peek(&self) -> Option<(SimTime, EventKey)> {
        self.heap
            .peek()
            .map(|Reverse(entry)| (entry.time, entry.key))
    }

    /// The number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
            .field("len", &self.heap.len())
            .field("next_key", &self.next_key)
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
    fn reserved_keys_share_the_scheduling_sequence() {
        let mut q = EventQueue::new();
        let a = q.reserve_key();
        q.schedule(t(1), "x");
        let b = q.reserve_key();
        assert!(a < q.peek().unwrap().1 && q.peek().unwrap().1 < b);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek().is_none());
        q.schedule(t(2), "b");
        q.schedule(t(1), "a");
        assert_eq!(q.peek().map(|(time, _)| time), Some(t(1)));
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.peek().map(|(time, _)| time), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(q.peek().is_none() && q.pop().is_none());
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.reserve_key();
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
