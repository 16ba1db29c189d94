//! Future-event list with deterministic tie-breaking.
//!
//! Events scheduled at the same instant pop in schedule order (FIFO), so a
//! simulation run is a pure function of its inputs and seed. There is no
//! cancellation: the reliability simulator invalidates a superseded
//! rebuild by bumping its block's epoch and drops the stale completion
//! when it pops, so `pop` never pays for a cancelled-set lookup.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq breaks ties FIFO.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A future-event list: the heart of the discrete-event simulator.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Reset to the freshly-constructed state while keeping the heap's
    /// allocation. The tie-break sequence restarts at zero, so a recycled
    /// queue orders simultaneous events exactly as a new queue would —
    /// part of the trial determinism contract.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5.0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        // Event-driven style: popping an event schedules a follow-up.
        let mut q = EventQueue::new();
        q.schedule(t(0.0), 0u32);
        let mut fired = Vec::new();
        let mut now = SimTime::ZERO;
        while let Some((time, n)) = q.pop() {
            assert!(time >= now, "time must never go backwards");
            now = time;
            fired.push(n);
            if n < 5 {
                q.schedule(time + Duration::from_secs(10.0), n + 1);
            }
        }
        assert_eq!(fired, vec![0, 1, 2, 3, 4, 5]);
        assert!((now.as_secs() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn matches_naive_reference_model() {
        // Pseudo-random schedule/pop sequence cross-checked against a
        // sorted-vec reference implementation.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (time_ms, seq = payload)
        let mut seq = 0u64;
        let mut popped = Vec::new();
        let mut popped_ref = Vec::new();
        let pop_ref = |reference: &mut Vec<(u64, u64)>| {
            let min = reference
                .iter()
                .enumerate()
                .min_by_key(|(_, &key)| key)
                .map(|(i, _)| i)
                .expect("reference non-empty when queue non-empty");
            reference.swap_remove(min)
        };
        for _ in 0..2000 {
            if rng.gen_range(0..2) == 0 {
                let time_ms = rng.gen_range(0..1000u64);
                q.schedule(t(time_ms as f64 / 1000.0), seq);
                reference.push((time_ms, seq));
                seq += 1;
            } else if let Some((time, e)) = q.pop() {
                popped.push(e);
                let (tm, payload) = pop_ref(&mut reference);
                popped_ref.push(payload);
                assert!((time.as_secs() - tm as f64 / 1000.0).abs() < 1e-12);
            } else {
                assert!(reference.is_empty());
            }
            assert_eq!(q.len(), reference.len());
        }
        while let Some((_, e)) = q.pop() {
            popped.push(e);
            popped_ref.push(pop_ref(&mut reference).1);
        }
        assert_eq!(popped, popped_ref);
    }
}
