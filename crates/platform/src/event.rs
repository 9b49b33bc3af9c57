//! Simulation events and the event queue.
//!
//! The simulator is a classic discrete-event loop: external request arrivals
//! (already sorted by the workload generator) are merged with internal events
//! (request completions, pod expiries, periodic policy ticks) drawn from a
//! priority queue ordered by timestamp with a deterministic sequence-number
//! tie-break, so simulations are exactly reproducible.
//!
//! # One binary heap
//!
//! [`EventQueue`] is a [`BinaryHeap`] ordered by `(time_ms, seq)`. The queue
//! stays shallow, so O(log n) pushes and pops on a contiguous array are all
//! it needs: it holds one completion per in-flight request, one expiry per
//! idle transition still inside its keep-alive period (a stale one fires as
//! a no-op), the admission-delayed requests and one pre-warm tick. A 14-day
//! `longhaul` run at function scale 0.05 (seed 7, 1,278,393 arrivals, two
//! pushes per arrival) never has more than 138 events pending, and no cell
//! of `sweep --smoke` more than 31.
//!
//! # Determinism contract
//!
//! Events pop in ascending `(time_ms, seq)` order, where `seq` is the
//! queue's own push counter — i.e. time order with same-timestamp FIFO
//! stability. `tests/event_queue_properties.rs` pins that order against a
//! separate heap oracle under randomized push/pop/pop_due interleavings,
//! including far-future times and same-timestamp bursts. Every committed
//! envelope and BENCH baseline was produced under this order and must stay
//! byte-identical.

use std::collections::BinaryHeap;

use crate::arena::{FnIdx, PodIdx};

/// An internal simulation event.
///
/// Events reference pods and functions by their dense arena indices
/// ([`PodIdx`], [`FnIdx`]) rather than by hashed 64-bit identifiers, so
/// handling an internal event never touches a hash table — see
/// [`crate::arena`] for the id-allocation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A request finishes executing on a pod.
    RequestComplete {
        /// The pod serving the request.
        pod: PodIdx,
        /// How long the request kept the pod busy, in milliseconds.
        busy_ms: u64,
    },
    /// A pod's keep-alive timer fires; the pod is deleted if still idle and
    /// the expiry generation matches.
    PodExpire {
        /// The pod to expire.
        pod: PodIdx,
        /// Generation counter to invalidate stale expiry events.
        generation: u64,
    },
    /// A request whose admission was deferred (peak shaving) becomes runnable.
    DelayedArrival {
        /// The function to invoke.
        function: FnIdx,
    },
    /// Periodic tick that lets the pre-warm policy act.
    ///
    /// Pool replenishment has no event of its own: it happens at epoch
    /// boundaries, outside the queue.
    PrewarmTick,
}

/// A timestamped event with a deterministic tie-break sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    time_ms: u64,
    seq: u64,
    event: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time_ms
            .cmp(&self.time_ms)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Priority queue of internal events ordered by `(time, push order)`.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    /// Global push counter used as the FIFO tie-break.
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event at the given absolute time.
    pub fn push(&mut self, time_ms: u64, event: Event) {
        self.seq += 1;
        self.heap.push(Scheduled {
            time_ms,
            seq: self.seq,
            event,
        });
    }

    /// Pops the next event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        self.heap.pop().map(|s| (s.time_ms, s.event))
    }

    /// Pops the next event only if it is due at or before `time_ms`.
    pub fn pop_due(&mut self, time_ms: u64) -> Option<(u64, Event)> {
        if self.heap.peek()?.time_ms > time_ms {
            return None;
        }
        self.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::PrewarmTick);
        q.push(10, Event::PrewarmTick);
        q.push(
            20,
            Event::RequestComplete {
                pod: PodIdx::new(1),
                busy_ms: 5,
            },
        );
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for pod in 1..=3 {
            q.push(
                5,
                Event::PodExpire {
                    pod: PodIdx::new(pod),
                    generation: 0,
                },
            );
        }
        let pods: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::PodExpire { pod, .. } => pod.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pods, vec![1, 2, 3]);
    }

    #[test]
    fn pop_due_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(100, Event::PrewarmTick);
        q.push(50, Event::PrewarmTick);
        assert!(q.pop_due(40).is_none());
        assert_eq!(q.pop_due(60).unwrap().0, 50);
        assert!(q.pop_due(60).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(100).unwrap().0, 100);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.pop_due(1000).is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cross_level_and_overflow_events_keep_time_order() {
        let mut q = EventQueue::new();
        // Deadlines from milliseconds to past 2^32 ms (~49.7 days), pushed
        // latest first.
        let times = [3u64, 7_000, 3_000_000, 900_000_000, (1u64 << 32) + 12_345];
        for (i, &t) in times.iter().rev().enumerate() {
            q.push(
                t,
                Event::PodExpire {
                    pod: PodIdx::new(i as u32),
                    generation: 0,
                },
            );
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(popped, times);
    }

    #[test]
    fn same_timestamp_burst_drains_fifo_in_one_batch() {
        let mut q = EventQueue::new();
        // A keep-alive expiry storm: hundreds of co-scheduled events, pushed
        // interleaved with events at other times.
        q.push(59_999, Event::PrewarmTick);
        for pod in 0..300u32 {
            q.push(
                60_000,
                Event::PodExpire {
                    pod: PodIdx::new(pod),
                    generation: 0,
                },
            );
        }
        q.push(60_001, Event::PrewarmTick);
        assert_eq!(q.pop().unwrap().0, 59_999);
        for pod in 0..300u32 {
            let (t, e) = q.pop().unwrap();
            assert_eq!(t, 60_000);
            assert_eq!(
                e,
                Event::PodExpire {
                    pod: PodIdx::new(pod),
                    generation: 0
                }
            );
        }
        assert_eq!(q.pop().unwrap().0, 60_001);
        assert!(q.is_empty());
    }

    #[test]
    fn pushes_behind_the_cursor_pop_first() {
        let mut q = EventQueue::new();
        q.push(1_000_000, Event::PrewarmTick);
        // A pop_due that finds nothing due leaves the queue as it was...
        assert!(q.pop_due(10).is_none());
        // ...so later pushes at smaller times still pop first.
        q.push(500, Event::PrewarmTick);
        q.push(600, Event::PrewarmTick);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(times, vec![500, 600, 1_000_000]);
    }

    #[test]
    fn same_time_push_while_batch_is_draining_stays_fifo() {
        let mut q = EventQueue::new();
        q.push(42, Event::PrewarmTick);
        q.push(42, Event::PrewarmTick);
        assert_eq!(q.pop().unwrap(), (42, Event::PrewarmTick));
        // t=42 is draining; a same-timestamp push pops after the events
        // already due then (it has the largest seq).
        q.push(
            42,
            Event::PodExpire {
                pod: PodIdx::new(9),
                generation: 1,
            },
        );
        assert_eq!(q.pop().unwrap(), (42, Event::PrewarmTick));
        assert_eq!(
            q.pop().unwrap(),
            (
                42,
                Event::PodExpire {
                    pod: PodIdx::new(9),
                    generation: 1
                }
            )
        );
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_tracks_all_stores() {
        let mut q = EventQueue::new();
        q.push(1, Event::PrewarmTick);
        q.push(70_000, Event::PrewarmTick);
        q.push(1 << 40, Event::PrewarmTick);
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }
}
