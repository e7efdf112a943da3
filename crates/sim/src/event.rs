//! Deterministic discrete-event queue.

use crate::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-heap of timestamped events with FIFO tie-breaking: events pushed
/// earlier pop first among equal timestamps, making simulations fully
/// deterministic regardless of payload type.
///
/// ```
/// use versa_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime(20), "late");
/// q.push(SimTime(10), "early");
/// q.push(SimTime(10), "early-but-second");
/// assert_eq!(q.pop(), Some((SimTime(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime(10), "early-but-second")));
/// assert_eq!(q.pop(), Some((SimTime(20), "late")));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue::default()
    }

    /// Schedule `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        self.heap.push(Reverse(Entry { time, seq: self.seq, payload }));
        self.seq += 1;
    }

    /// Pop the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), 1);
        q.push(SimTime(5), 0);
        assert_eq!(q.pop(), Some((SimTime(5), 0)));
        q.push(SimTime(7), 2);
        q.push(SimTime(7), 3);
        assert_eq!(q.pop(), Some((SimTime(7), 2)));
        assert_eq!(q.pop(), Some((SimTime(7), 3)));
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
    }
}
