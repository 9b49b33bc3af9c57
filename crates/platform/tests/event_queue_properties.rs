//! Property-based tests for [`faas_platform::EventQueue`].
//!
//! The simulator's determinism contract fixes the queue's pop order: every
//! pop sequence must match what a `BinaryHeap<(time, seq)>` would produce —
//! ascending time, FIFO within a timestamp, whether an event is due in a
//! millisecond or past 2^32 ms. These tests drive the queue against exactly
//! that heap as an oracle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use faas_platform::{Event, EventQueue, PodIdx};
use proptest::prelude::*;

/// Reference model: a `BinaryHeap` of `(time, seq)`. Push order is the
/// tie-break for equal timestamps, matching the queue's FIFO guarantee.
#[derive(Default)]
struct HeapOracle {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
}

impl HeapOracle {
    fn push(&mut self, time_ms: u64, tag: u64) {
        self.heap.push(Reverse((time_ms, self.seq)));
        // The oracle stores no tag: every test tags the i-th push with `i`,
        // and the sequence number grows by `TAG_SPAN` per push, so
        // `seq / TAG_SPAN` is the push index and thus the tag.
        debug_assert!(tag < TAG_SPAN);
        self.seq += TAG_SPAN;
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse((t, s))| (t, s))
    }

    fn pop_due(&mut self, horizon: u64) -> Option<(u64, u64)> {
        match self.heap.peek() {
            Some(Reverse((t, _))) if *t <= horizon => self.pop(),
            _ => None,
        }
    }
}

/// Tags are carried through the queue inside `RequestComplete::busy_ms`, so
/// a pop can be matched back to the push that produced it.
const TAG_SPAN: u64 = 1 << 20;

fn tagged(tag: u64) -> Event {
    Event::RequestComplete {
        pod: PodIdx::new(0),
        busy_ms: tag,
    }
}

fn tag_of(event: Event) -> u64 {
    match event {
        Event::RequestComplete { busy_ms, .. } => busy_ms,
        other => panic!("unexpected event {other:?}"),
    }
}

/// Times in four classes: dense near times that collide, mid-range times,
/// times past 2^26 ms, and far-future times up to 2^34 ms (past 2^32 ms).
fn arb_time() -> impl Strategy<Value = u64> {
    (0u64..4, 0u64..1 << 10, 0u64..1 << 26, 0u64..1 << 34).prop_map(|(class, near, mid, far)| {
        match class {
            0 => near,            // same-timestamp collisions
            1 => mid,             // up to ~18.6 hours
            2 => (1 << 26) + mid, // ~18.6 to ~37.3 hours
            _ => far,             // up to ~199 days
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    // Draining a fully loaded queue yields the heap's exact total order:
    // ascending time, push-order FIFO for equal timestamps, with far-future
    // events in their right position.
    #[test]
    fn drain_matches_heap_oracle(times in proptest::collection::vec(arb_time(), 1..400)) {
        let mut queue = EventQueue::new();
        let mut oracle = HeapOracle::default();
        for (i, &t) in times.iter().enumerate() {
            queue.push(t, tagged(i as u64));
            oracle.push(t, i as u64);
        }
        prop_assert_eq!(queue.len(), times.len());
        let mut popped = 0usize;
        while let Some((t, event)) = queue.pop() {
            let (ot, oseq) = oracle.pop().expect("oracle has as many events");
            prop_assert_eq!(t, ot, "pop {} time diverged", popped);
            prop_assert_eq!(tag_of(event), oseq / TAG_SPAN, "pop {} order diverged", popped);
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
        prop_assert!(oracle.pop().is_none());
        prop_assert!(queue.is_empty());
    }

    // Same-timestamp bursts drain in exactly their push order (FIFO), even
    // when interleaved with events at other timestamps.
    #[test]
    fn equal_timestamps_drain_fifo(
        burst_time in 0u64..1 << 20,
        burst in 2usize..64,
        others in proptest::collection::vec(arb_time(), 0..50),
    ) {
        let mut queue = EventQueue::new();
        let mut oracle = HeapOracle::default();
        let mut tag = 0u64;
        for &t in &others {
            queue.push(t, tagged(tag));
            oracle.push(t, tag);
            tag += 1;
        }
        for _ in 0..burst {
            queue.push(burst_time, tagged(tag));
            oracle.push(burst_time, tag);
            tag += 1;
        }
        let mut burst_tags = Vec::new();
        while let Some((t, event)) = queue.pop() {
            let (ot, oseq) = oracle.pop().expect("oracle in sync");
            prop_assert_eq!((t, tag_of(event)), (ot, oseq / TAG_SPAN));
            if t == burst_time {
                burst_tags.push(tag_of(event));
            }
        }
        // FIFO within the burst: tags come back sorted ascending.
        let mut sorted = burst_tags.clone();
        sorted.sort_unstable();
        prop_assert_eq!(burst_tags, sorted);
    }

    // Random interleavings of pushes and bounded pops (`pop_due` with an
    // advancing horizon) stay in lockstep with the oracle — including
    // pushes that land behind the horizon after it advanced.
    #[test]
    fn interleaved_push_and_pop_due_match_oracle(
        ops in proptest::collection::vec((0u64..3, arb_time()), 1..300),
    ) {
        let mut queue = EventQueue::new();
        let mut oracle = HeapOracle::default();
        let mut horizon = 0u64;
        let mut tag = 0u64;
        for &(kind, t) in &ops {
            if kind == 0 {
                // Push, possibly behind the current pop horizon.
                queue.push(t, tagged(tag));
                oracle.push(t, tag);
                tag += 1;
            } else {
                // Advance the horizon and drain everything due.
                horizon = horizon.max(t);
                loop {
                    let got = queue.pop_due(horizon);
                    let want = oracle.pop_due(horizon);
                    match (got, want) {
                        (None, None) => break,
                        (Some((qt, event)), Some((ot, oseq))) => {
                            prop_assert_eq!((qt, tag_of(event)), (ot, oseq / TAG_SPAN));
                            prop_assert!(qt <= horizon);
                        }
                        (got, want) => {
                            panic!("pop_due({horizon}) diverged: queue {got:?}, oracle {want:?}")
                        }
                    }
                }
            }
        }
        // Final full drain must also agree.
        loop {
            match (queue.pop(), oracle.pop()) {
                (None, None) => break,
                (Some((qt, event)), Some((ot, oseq))) => {
                    prop_assert_eq!((qt, tag_of(event)), (ot, oseq / TAG_SPAN));
                }
                (got, want) => {
                    panic!("final drain diverged: queue {got:?}, oracle {want:?}")
                }
            }
        }
    }

    // Far-future events (past 2^32 ms, ~49.7 days) pop in order after the
    // near ones.
    #[test]
    fn far_future_events_pop_in_order(
        near in proptest::collection::vec(0u64..1 << 16, 1..40),
        far in proptest::collection::vec((1u64 << 32)..(1 << 36), 1..40),
    ) {
        let mut queue = EventQueue::new();
        let mut oracle = HeapOracle::default();
        for (tag, &t) in near.iter().chain(far.iter()).enumerate() {
            queue.push(t, tagged(tag as u64));
            oracle.push(t, tag as u64);
        }
        let mut last = 0u64;
        while let Some((t, event)) = queue.pop() {
            let (ot, oseq) = oracle.pop().expect("oracle in sync");
            prop_assert_eq!((t, tag_of(event)), (ot, oseq / TAG_SPAN));
            prop_assert!(t >= last);
            last = t;
        }
        prop_assert!(queue.is_empty());
    }
}
