//! Simulation events and the event queue.
//!
//! The simulator is a classic discrete-event loop: external request arrivals
//! (already sorted by the workload generator) are merged with internal events
//! (request completions, pod expiries, periodic policy ticks) drawn from a
//! priority queue ordered by timestamp with a deterministic sequence-number
//! tie-break, so simulations are exactly reproducible.
//!
//! # Hierarchical timing wheel
//!
//! [`EventQueue`] is a four-level hashed timing wheel (the structure used by
//! kernel timers and async runtimes) rather than a binary heap. The simulated
//! load is dominated by short relative delays — request completions a few
//! hundred milliseconds out, keep-alive expiries about a minute out, periodic
//! ticks — exactly the distribution a wheel turns into O(1) pushes and
//! amortised O(1) pops, where a heap pays O(log n) with poor locality on
//! every operation.
//!
//! * Level `L` has 256 slots of 256^L milliseconds each; the four levels
//!   together span 2^32 ms (~49.7 days) from the queue's internal cursor.
//!   An event is filed on the level of the highest bit in which its time
//!   differs from the cursor (`time ^ now`), so every slot holds events of
//!   exactly one 256^L-ms granule and a slot scan never has to wrap.
//! * Level-0 slots are exact milliseconds. When the cursor reaches one, the
//!   whole slot is drained **as a single batch**: a burst of co-scheduled
//!   same-timestamp events (dense periodic ticks, keep-alive expiry storms)
//!   is sorted by sequence number once and then popped by cursor increment,
//!   one cascade step for the entire burst.
//! * Events beyond the outer horizon go to a small overflow [`BinaryHeap`]
//!   and migrate into the wheel lazily as the cursor approaches them.
//! * Events scheduled behind the cursor (never produced by the engine, but
//!   allowed by the API) go to an overdue heap that always pops first.
//!
//! # Determinism contract
//!
//! The wheel is observationally identical to the binary-heap queue it
//! replaced: events pop in ascending `(time_ms, seq)` order, where `seq` is
//! the queue's own push counter — i.e. time order with same-timestamp FIFO
//! stability.
//! `tests/wheel_properties.rs` pins the queue order with a heap oracle
//! under randomized push/pop/pop_due interleavings, including far-future
//! overflow and same-timestamp bursts. Every committed envelope and BENCH
//! baseline was produced under this order and must stay byte-identical
//! across scheduler implementations.

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
    /// boundaries, outside the wheel.
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

/// Slots per wheel level (one byte of the timestamp per level).
const SLOTS: usize = 256;
/// Number of wheel levels; times further than `2^(8 * LEVELS)` ms from the
/// cursor overflow into a heap.
const LEVELS: usize = 4;
/// Total bits covered by the wheel.
const WHEEL_BITS: u32 = 8 * LEVELS as u32;

/// Capacity a drained slot may keep for reuse. Every slot of every level is
/// eventually cycled through by the cursor, so letting each retain its
/// high-water allocation would pin memory proportional to the busiest granule
/// times the slot count; beyond this cap the buffer is released instead.
const SLOT_KEEP_CAP: usize = 32;

/// One wheel level: 256 slots plus an occupancy bitmap for O(1) scans to the
/// next non-empty slot.
#[derive(Debug)]
struct Level {
    occupied: [u64; SLOTS / 64],
    slots: [Vec<Scheduled>; SLOTS],
}

impl Level {
    fn new() -> Self {
        Self {
            occupied: [0; SLOTS / 64],
            slots: std::array::from_fn(|_| Vec::new()),
        }
    }

    #[inline]
    fn mark(&mut self, slot: usize) {
        self.occupied[slot >> 6] |= 1 << (slot & 63);
    }

    #[inline]
    fn clear(&mut self, slot: usize) {
        self.occupied[slot >> 6] &= !(1 << (slot & 63));
    }

    /// First occupied slot with index `>= from`, scanning the bitmap words.
    #[inline]
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let mut word_idx = from >> 6;
        let mut word = self.occupied[word_idx] & (!0u64 << (from & 63));
        loop {
            if word != 0 {
                return Some((word_idx << 6) + word.trailing_zeros() as usize);
            }
            word_idx += 1;
            if word_idx == SLOTS / 64 {
                return None;
            }
            word = self.occupied[word_idx];
        }
    }
}

/// Priority queue of internal events ordered by `(time, push order)`.
///
/// Implemented as a hierarchical timing wheel (see the module docs); the
/// public API and the pop order are exactly those of the binary-heap queue
/// it replaced.
#[derive(Debug)]
pub struct EventQueue {
    /// Internal cursor: a lower bound on every pending wheel/overflow event.
    /// Advances monotonically as events pop; never exceeds the time of a
    /// pending event.
    now: u64,
    /// Global push counter used as the FIFO tie-break.
    seq: u64,
    /// Total pending events across batch, wheel, overdue, and overflow.
    len: usize,
    levels: Box<[Level; LEVELS]>,
    /// The level-0 slot currently being drained: all entries share one
    /// timestamp (== `now`) and are sorted by `seq`. `batch_pos` is the next
    /// entry to pop; same-timestamp pushes append (their seq is larger).
    batch: Vec<Scheduled>,
    batch_pos: usize,
    /// Events pushed with a time before the cursor; they always pop first.
    /// The engine never schedules into the past, so this stays empty in
    /// simulation runs.
    overdue: BinaryHeap<Scheduled>,
    /// Events beyond the wheel horizon, migrated inward lazily.
    overflow: BinaryHeap<Scheduled>,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            now: 0,
            seq: 0,
            len: 0,
            levels: Box::new(std::array::from_fn(|_| Level::new())),
            batch: Vec::new(),
            batch_pos: 0,
            overdue: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
        }
    }

    /// Schedules an event at the given absolute time.
    pub fn push(&mut self, time_ms: u64, event: Event) {
        self.seq += 1;
        let sch = Scheduled {
            time_ms,
            seq: self.seq,
            event,
        };
        self.len += 1;
        if time_ms < self.now {
            self.overdue.push(sch);
        } else if time_ms == self.now && self.batch_pos < self.batch.len() {
            // The active batch holds exactly the events due at `now`; seq is
            // monotonic, so appending preserves its sorted-by-seq order.
            self.batch.push(sch);
        } else {
            self.place(sch);
        }
    }

    /// Files an event (at or after the cursor) into the wheel or overflow.
    #[inline]
    fn place(&mut self, sch: Scheduled) {
        let diff = sch.time_ms ^ self.now;
        if diff >> WHEEL_BITS != 0 {
            self.overflow.push(sch);
            return;
        }
        // Level of the highest differing bit: each slot then holds exactly
        // one granule of the current window, so scans never wrap.
        let level = if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros()) as usize / 8
        };
        let slot = ((sch.time_ms >> (8 * level)) & 0xFF) as usize;
        self.levels[level].slots[slot].push(sch);
        self.levels[level].mark(slot);
    }

    /// Ensures `batch[batch_pos]` is the earliest pending wheel/overflow
    /// event, cascading higher levels downward as needed. Returns `false`
    /// when nothing (outside `overdue`) is pending.
    fn prepare_batch(&mut self) -> bool {
        if self.batch_pos < self.batch.len() {
            return true;
        }
        loop {
            // Migrate overflow entries that now fall inside the horizon.
            while let Some(top) = self.overflow.peek() {
                if (top.time_ms ^ self.now) >> WHEEL_BITS != 0 {
                    break;
                }
                let sch = self.overflow.pop().expect("peeked");
                self.place(sch);
            }
            // Level 0: exact-millisecond slots of the current 256 ms window.
            if let Some(slot) = self.levels[0].next_occupied((self.now & 0xFF) as usize) {
                self.now = (self.now & !0xFF) | slot as u64;
                let mut due = std::mem::take(&mut self.levels[0].slots[slot]);
                self.levels[0].clear(slot);
                // One sort per distinct timestamp: the whole same-ms burst
                // is then popped by cursor increment.
                due.sort_unstable_by_key(|s| s.seq);
                self.batch.clear();
                std::mem::swap(&mut self.batch, &mut due);
                // Hand the batch's old allocation back to the emptied slot,
                // unless it ballooned past the retention cap.
                if due.capacity() <= SLOT_KEEP_CAP {
                    self.levels[0].slots[slot] = due;
                }
                self.batch_pos = 0;
                return true;
            }
            // Higher levels: cascade the first occupied slot down one or
            // more levels. Advancing the cursor to the slot's granule start
            // is safe — every lower level and earlier slot is empty, so no
            // pending event precedes it.
            let mut cascaded = false;
            for level in 1..LEVELS {
                let cursor = ((self.now >> (8 * level)) & 0xFF) as usize;
                let Some(slot) = self.levels[level].next_occupied(cursor) else {
                    continue;
                };
                let granule = 1u64 << (8 * level);
                let window = self.now & !((granule << 8) - 1);
                let start = window + slot as u64 * granule;
                self.now = self.now.max(start);
                let mut pending = std::mem::take(&mut self.levels[level].slots[slot]);
                self.levels[level].clear(slot);
                for sch in pending.drain(..) {
                    // Relative to the advanced cursor every entry differs
                    // only below this level's bits: strictly descends.
                    self.place(sch);
                }
                if pending.capacity() <= SLOT_KEEP_CAP {
                    self.levels[level].slots[slot] = pending;
                }
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }
            // Wheel fully drained: jump the cursor to the earliest
            // far-future event; the migration above files it next round.
            match self.overflow.peek() {
                Some(top) => self.now = top.time_ms,
                None => return false,
            }
        }
    }

    /// Time of the next event, if any.
    pub fn peek_time(&self) -> Option<u64> {
        // Overdue events precede the cursor, which bounds everything else.
        if let Some(top) = self.overdue.peek() {
            return Some(top.time_ms);
        }
        if self.batch_pos < self.batch.len() {
            return Some(self.batch[self.batch_pos].time_ms);
        }
        // A level-0 slot's index *is* its time within the current window.
        if let Some(slot) = self.levels[0].next_occupied((self.now & 0xFF) as usize) {
            return Some((self.now & !0xFF) | slot as u64);
        }
        // The first occupied slot of the lowest non-empty level holds the
        // globally earliest events; scan it for the minimum.
        for level in 1..LEVELS {
            let cursor = ((self.now >> (8 * level)) & 0xFF) as usize;
            if let Some(slot) = self.levels[level].next_occupied(cursor) {
                return self.levels[level].slots[slot]
                    .iter()
                    .map(|s| s.time_ms)
                    .min();
            }
        }
        self.overflow.peek().map(|s| s.time_ms)
    }

    /// Pops the next event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        if let Some(&top) = self.overdue.peek() {
            self.overdue.pop();
            self.len -= 1;
            return Some((top.time_ms, top.event));
        }
        if !self.prepare_batch() {
            return None;
        }
        let sch = self.batch[self.batch_pos];
        self.batch_pos += 1;
        self.len -= 1;
        Some((sch.time_ms, sch.event))
    }

    /// Pops the next event only if it is due at or before `time_ms`.
    ///
    /// A single conditional pop: the due batch is located once and the
    /// deadline checked on it directly, instead of the peek-then-pop double
    /// descent the old heap paid.
    pub fn pop_due(&mut self, time_ms: u64) -> Option<(u64, Event)> {
        if let Some(&top) = self.overdue.peek() {
            if top.time_ms > time_ms {
                return None;
            }
            self.overdue.pop();
            self.len -= 1;
            return Some((top.time_ms, top.event));
        }
        if !self.prepare_batch() || self.batch[self.batch_pos].time_ms > time_ms {
            return None;
        }
        let sch = self.batch[self.batch_pos];
        self.batch_pos += 1;
        self.len -= 1;
        Some((sch.time_ms, sch.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        assert_eq!(q.peek_time(), Some(50));
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
        assert!(q.peek_time().is_none());
        assert!(q.pop_due(1000).is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cross_level_and_overflow_events_keep_time_order() {
        let mut q = EventQueue::new();
        // One event per wheel level plus one past the 2^32 ms horizon.
        let times = [
            3u64,                  // level 0
            7_000,                 // level 1
            3_000_000,             // level 2
            900_000_000,           // level 3
            (1u64 << 32) + 12_345, // overflow
        ];
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
        // pop_due advances the internal cursor to the next pending event
        // even when it is past the deadline...
        assert!(q.pop_due(10).is_none());
        // ...so a later push at a smaller time lands behind the cursor and
        // must still pop in correct time order.
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
        // The batch at t=42 is active; a same-timestamp push joins it at
        // the back (it has the largest seq).
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
