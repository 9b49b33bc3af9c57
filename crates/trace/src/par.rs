//! Index-ordered scoped fan-out.
//!
//! [`map`] evaluates `f(0), f(1), …, f(n - 1)` on up to `threads` workers and
//! returns the results in index order, so its output never depends on which
//! worker ran an item or when it finished. The calling thread is one of the
//! workers: a fan-out over `w` workers spawns `w - 1` scoped threads, and
//! with one worker nothing is spawned at all. [`map_streamed`] additionally
//! hands each result, in index order, to a callback as soon as every result
//! before it is ready.
//!
//! This is the workspace's one parallel loop over independent items: the
//! experiment session's cells, the synthetic multi-region build, the
//! per-region analyses (through
//! [`Dataset::map_regions`](crate::Dataset::map_regions)) and the
//! characterization report's flat fan-out of analysis steps all run on it. It
//! never reads an option or the environment; `threads == 0` means one worker
//! per available core.
//!
//! A panic in any item stops the fan-out: no further items are handed out,
//! the workers finish the items they hold, and the first panic is re-raised
//! in the caller with its original payload.
//!
//! # Examples
//!
//! ```
//! use fntrace::par;
//!
//! let squares = par::map(10, 3, |i| i * i);
//! assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
//!
//! let mut seen = Vec::new();
//! let doubled = par::map_streamed(5, 2, |i| 2 * i, &mut |i, v: &usize| seen.push((i, *v)));
//! assert_eq!(doubled, vec![0, 2, 4, 6, 8]);
//! assert_eq!(seen, vec![(0, 0), (1, 2), (2, 4), (3, 6), (4, 8)]);
//! ```

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Workers a fan-out of `n` items runs on: `threads`, or one per available
/// core when `threads` is 0, and never more than `n`.
fn workers(n: usize, threads: usize) -> usize {
    let threads = if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
    };
    threads.min(n)
}

/// Maps `f` over `0..n` on up to `threads` workers (0 means one per available
/// core), the caller included, and returns the results in index order.
pub fn map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_streamed(n, threads, f, &mut |_, _| {})
}

/// [`map`] that additionally streams each result, in index order, to
/// `on_ready` as soon as the contiguous prefix up to it has completed.
///
/// Workers buffer out-of-order completions; whichever worker closes a gap
/// drains the ready prefix while holding the merge lock, so `on_ready`
/// observes exactly the sequence `(0, &r0), (1, &r1), …` regardless of
/// thread scheduling. This is what lets session sinks stream cells
/// deterministically while the fan-out is still running.
pub fn map_streamed<T, F>(
    n: usize,
    threads: usize,
    f: F,
    on_ready: &mut (dyn FnMut(usize, &T) + Send),
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers(n, threads);
    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let value = f(i);
            on_ready(i, &value);
            out.push(value);
        }
        return out;
    }

    struct Merge<'a, T> {
        /// Completed indices waiting for the prefix before them.
        pending: BTreeMap<usize, T>,
        /// Next index to release to `on_ready`.
        next: usize,
        /// Released results, in index order.
        done: Vec<T>,
        on_ready: &'a mut (dyn FnMut(usize, &T) + Send),
    }

    let next_item = AtomicUsize::new(0);
    let merge = Mutex::new(Merge {
        pending: BTreeMap::new(),
        next: 0,
        done: Vec::with_capacity(n),
        on_ready,
    });
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let work = || loop {
        let i = next_item.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let step = panic::catch_unwind(AssertUnwindSafe(|| {
            let value = f(i);
            // A poisoned lock means another worker panicked while merging;
            // its payload is the one re-raised, so this worker just stops.
            let Ok(mut guard) = merge.lock() else {
                return false;
            };
            let state = &mut *guard;
            state.pending.insert(i, value);
            while let Some(value) = state.pending.remove(&state.next) {
                (state.on_ready)(state.next, &value);
                state.done.push(value);
                state.next += 1;
            }
            true
        }));
        match step {
            Ok(true) => {}
            Ok(false) => break,
            Err(payload) => {
                // Hand out no further items, keep the earliest panic.
                next_item.store(n, Ordering::Relaxed);
                first_panic
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(payload);
                break;
            }
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        work();
        // An explicit join waits for each thread to exit, not just for its
        // closure to return, so its malloc arena is free again before the
        // next fan-out spawns: back-to-back fan-outs then reuse one arena
        // per helper instead of sometimes opening new ones.
        for helper in helpers {
            helper.join().expect("workers catch their items' panics");
        }
    });
    if let Some(payload) = first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
    let state = merge.into_inner().expect("no panic while merging");
    debug_assert!(state.pending.is_empty() && state.done.len() == n);
    state.done
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::thread;
    use std::time::Duration;

    /// Doubles its index. With more than one worker, item 0 cannot finish
    /// before the last item has started, so every other result completes
    /// ahead of it and the merge must reorder them.
    fn last_first(n: usize, threads: usize) -> impl Fn(usize) -> usize + Sync {
        let barrier = Barrier::new(if workers(n, threads) > 1 { 2 } else { 1 });
        move |i| {
            if i == 0 || i == n - 1 {
                barrier.wait();
            }
            2 * i
        }
    }

    #[test]
    fn results_come_back_in_index_order_at_every_thread_count() {
        for threads in [1, 2, 8] {
            let out = map(100, threads, last_first(100, threads));
            assert_eq!(out, (0..100).map(|i| 2 * i).collect::<Vec<_>>());
            assert!(map(0, threads, |i| i).is_empty());
            assert_eq!(map(3, threads, |i| i), vec![0, 1, 2]);
        }
    }

    #[test]
    fn streamed_results_reach_the_callback_in_index_order() {
        for threads in [1, 2, 8] {
            let mut seen = Vec::new();
            let out = map_streamed(50, threads, last_first(50, threads), &mut |i, v: &usize| {
                seen.push((i, *v))
            });
            assert_eq!(out, (0..50).map(|i| 2 * i).collect::<Vec<_>>());
            assert_eq!(seen, (0..50).map(|i| (i, 2 * i)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        let caller = thread::current().id();
        // Items 0 and 1 meet at the barrier, so they run on two different
        // workers at once: with two workers, those are all of them.
        let barrier = Barrier::new(2);
        let ran_on: Vec<thread::ThreadId> = map(64, 2, |i| {
            if i < 2 {
                barrier.wait();
            }
            thread::current().id()
        });
        assert_ne!(ran_on[0], ran_on[1]);
        assert!(ran_on[..2].contains(&caller), "the caller ran no item");
        let distinct: HashSet<thread::ThreadId> = ran_on.into_iter().collect();
        assert_eq!(distinct.len(), 2, "workers other than the two requested");
        // One worker runs everything on the caller.
        assert!(map(8, 1, |_| thread::current().id())
            .iter()
            .all(|id| *id == caller));
    }

    #[test]
    fn worker_count_is_bounded_by_items_and_defaults_to_the_cores() {
        assert_eq!(workers(3, 8), 3);
        assert_eq!(workers(10, 2), 2);
        assert_eq!(workers(0, 4), 0);
        let cores = thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1);
        assert_eq!(workers(1000, 0), cores.min(1000));
    }

    #[test]
    fn a_panicking_item_is_reraised_in_the_caller_after_the_workers_stop() {
        for threads in [1, 2, 8] {
            let started = AtomicUsize::new(0);
            let finished = AtomicUsize::new(0);
            let panicking = AtomicBool::new(false);
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                map(200, threads, |i| {
                    started.fetch_add(1, Ordering::SeqCst);
                    if i == 5 {
                        panicking.store(true, Ordering::SeqCst);
                        panic!("item 5 failed");
                    }
                    if i == 6 {
                        // Item 6 runs on another worker whenever it is handed
                        // out at all: it is still busy while item 5 unwinds.
                        while !panicking.load(Ordering::SeqCst) {
                            thread::yield_now();
                        }
                        thread::sleep(Duration::from_millis(20));
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    i
                })
            }));
            let payload = result.expect_err("the item's panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"item 5 failed"),
                "threads {threads}"
            );
            // Every item that started has finished, save the one that
            // panicked: no worker outlives the call.
            assert_eq!(
                started.load(Ordering::SeqCst),
                finished.load(Ordering::SeqCst) + 1,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn a_panicking_callback_is_reraised_without_a_hang() {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            map_streamed(40, 4, |i| i, &mut |i, _: &usize| {
                if i == 3 {
                    panic!("sink failed");
                }
            })
        }));
        let payload = result.expect_err("the callback's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"sink failed"));
    }
}
