//! The discrete-event simulation loop.
//!
//! [`SimulationEngine`] owns one run's policies and drives a
//! [`SimState`] through a workload: arrivals, completions, keep-alive
//! expiries, pre-warm ticks, and admission-control delays. Engines are
//! single-use by design — they are stamped out by a
//! [`SimulationSpec`](crate::SimulationSpec) whose policy factory builds a
//! fresh set of policies per run.
//!
//! The loop is *epoch-quantized*: simulated time is cut at fixed
//! [`epoch_ms`](crate::PlatformConfig::epoch_ms) boundaries, and shared
//! capacity (resource pools, cluster load, nodes) is settled only there, by
//! the run's epoch ledger. Pool replenishment happens as part of the
//! boundary settlement rather than as a queued event.
//!
//! The primary entry point is [`SimulationEngine::run_streamed`], which
//! consumes any [`ArrivalStream`] — arrivals are pulled one at a time, so
//! memory stays proportional to the live simulation state (pods, queue,
//! histories) rather than the event count. [`SimulationEngine::run`] is a
//! thin adapter that wraps a materialised spec's event slice in a
//! [`SliceStream`] and feeds it to the same loop.

use faas_workload::stream::{ArrivalStream, SliceStream};
use faas_workload::WorkloadSpec;
use fntrace::{FunctionId, RegionTrace};

use crate::arena::PodIdx;
use crate::config::PlatformConfig;
use crate::event::Event;
use crate::keepalive::KeepAlivePolicy;
use crate::policy::{AdmissionPolicy, PlatformView, PrewarmPolicy};
use crate::report::SimReport;
use crate::state::SimState;

/// Single-use discrete-event engine for one region replay.
pub struct SimulationEngine {
    config: PlatformConfig,
    keep_alive: Box<dyn KeepAlivePolicy>,
    prewarm: Box<dyn PrewarmPolicy>,
    admission: Box<dyn AdmissionPolicy>,
    seed: u64,
    /// The pre-warm policy's platform view, refilled in place on every tick.
    view: PlatformView,
}

impl SimulationEngine {
    /// Assembles an engine from a configuration, one policy of each kind, and
    /// the random seed of this run.
    pub fn new(
        config: PlatformConfig,
        keep_alive: Box<dyn KeepAlivePolicy>,
        prewarm: Box<dyn PrewarmPolicy>,
        admission: Box<dyn AdmissionPolicy>,
        seed: u64,
    ) -> Self {
        Self {
            config,
            keep_alive,
            prewarm,
            admission,
            seed,
            view: PlatformView {
                now_ms: 0,
                functions: Vec::new(),
                total_warm_pods: 0,
                pooled_idle_pods: 0,
            },
        }
    }

    /// Runs a materialised workload, returning the report and, when trace
    /// recording is enabled, the full simulated region trace.
    ///
    /// Thin adapter over [`run_streamed`](Self::run_streamed): the spec's
    /// event slice is wrapped in a [`SliceStream`], so the eager and
    /// streaming paths share one event loop and produce identical reports
    /// for identical event sequences.
    pub fn run(self, workload: &WorkloadSpec) -> (SimReport, Option<RegionTrace>) {
        let stream = SliceStream::new(&workload.events, workload.duration_ms());
        self.run_streamed(workload, stream)
    }

    /// Runs the engine over a lazily produced [`ArrivalStream`].
    ///
    /// `workload` supplies the static tables (function specs, profile,
    /// calibration, region); its `events` field is **ignored** — the stream
    /// is the event source, which is what lets multi-day horizons run
    /// without ever materialising their event list. The number of events
    /// consumed is recorded in
    /// [`SimReport::events_processed`](crate::SimReport).
    ///
    /// The boundary sequence is `{k * epoch_ms : k >= 1} ∪ {horizon}`
    /// clipped to the stream's horizon. Internal events strictly before a
    /// boundary are drained first; events exactly *at* a boundary run after
    /// it, against the fresh snapshot.
    ///
    /// # Example
    ///
    /// ```
    /// use faas_platform::SimulationSpec;
    /// use faas_workload::population::PopulationConfig;
    /// use faas_workload::profile::{Calibration, RegionProfile};
    /// use faas_workload::StreamedWorkload;
    ///
    /// let workload = StreamedWorkload::generate(
    ///     &RegionProfile::r2(),
    ///     Calibration { duration_days: 1, ..Calibration::default() },
    ///     &PopulationConfig {
    ///         function_scale: 0.002,
    ///         volume_scale: 2.0e-6,
    ///         max_requests_per_day: 2_000.0,
    ///         min_functions: 15,
    ///     },
    ///     7,
    /// );
    /// let spec = SimulationSpec::new();
    /// let engine = spec.engine(workload.header());
    /// let (report, _) = engine.run_streamed(workload.header(), workload.stream());
    /// assert!(report.requests > 0);
    /// assert_eq!(report.events_processed, report.requests);
    /// ```
    pub fn run_streamed(
        mut self,
        workload: &WorkloadSpec,
        events: impl ArrivalStream,
    ) -> (SimReport, Option<RegionTrace>) {
        let mut state = SimState::new(workload, &self.config, self.seed);
        // The stream's horizon is the simulation end: periodic ticks stop
        // rescheduling past it and surviving pods are finalised at it.
        let duration = events.horizon_ms();
        let epoch = self.config.epoch_ms.max(1);

        // Initial periodic tick, scheduled exactly like its reschedules.
        state.queue.push(
            tick_after(0, self.config.prewarm_interval_ms),
            Event::PrewarmTick,
        );

        let mut next_boundary = Some(epoch.min(duration));
        for event in events {
            state.report.events_processed += 1;
            while let Some(b) = next_boundary {
                if event.timestamp_ms < b {
                    break;
                }
                self.cross_boundary(&mut state, b, duration);
                next_boundary = next_boundary_after(b, epoch, duration);
            }
            while let Some((t, e)) = state.queue.pop_due(event.timestamp_ms) {
                self.handle_internal(&mut state, t, e, duration);
            }
            self.handle_arrival(&mut state, event.function, event.timestamp_ms);
        }
        // Cross the boundaries the arrivals never reached: each still
        // settles pool draws, replenishment and the live-pod peak, and the
        // pre-warm ticks between them read the refreshed snapshot.
        while let Some(b) = next_boundary {
            self.cross_boundary(&mut state, b, duration);
            next_boundary = next_boundary_after(b, epoch, duration);
        }
        // Drain the remaining internal events (completions and expiries at
        // or past the final boundary) against the frozen final snapshot.
        while let Some((t, e)) = state.queue.pop() {
            self.handle_internal(&mut state, t, e, duration);
        }
        // Terminate anything still alive at the end of the horizon. Arena
        // slot order is deterministic, so this walk is too.
        let live: Vec<PodIdx> = state.pods.live_indices().collect();
        for pod_idx in live {
            state.finalize_pod(pod_idx, duration);
        }
        state.into_report([
            self.keep_alive.name().to_string(),
            self.prewarm.name().to_string(),
            self.admission.name().to_string(),
        ])
    }

    /// Crosses one epoch boundary: drains internal events strictly before
    /// it, then settles the epoch.
    fn cross_boundary(&mut self, state: &mut SimState<'_>, boundary: u64, duration: u64) {
        if boundary > 0 {
            while let Some((t, e)) = state.queue.pop_due(boundary - 1) {
                self.handle_internal(state, t, e, duration);
            }
        }
        state.settle_epoch(boundary);
    }

    fn handle_internal(&mut self, state: &mut SimState<'_>, t: u64, event: Event, duration: u64) {
        match event {
            Event::RequestComplete { pod, busy_ms } => {
                state.complete_request(pod, t, busy_ms, self.keep_alive.as_ref())
            }
            Event::PodExpire { pod, generation } => state.expire_pod(pod, t, generation),
            Event::DelayedArrival { function } => {
                // Admission and history were handled when the request first
                // arrived; the delayed re-entry dispatches directly.
                state.dispatch(function, t);
            }
            Event::PrewarmTick => {
                if t <= duration {
                    // A no-op policy never reads the view and never pre-warms:
                    // skip refilling the whole-platform view. The
                    // recent-arrival reset and the reschedule still run —
                    // admission policies observe those counters.
                    if !self.prewarm.is_noop() {
                        state.fill_platform_view(t, &mut self.view);
                        let requests = self.prewarm.prewarm(&self.view);
                        for req in requests {
                            if let Some(idx) = state.resolve(req.function) {
                                for _ in 0..req.count {
                                    state.prewarm_pod(idx, t, self.keep_alive.as_ref());
                                }
                            }
                        }
                    }
                    state.reset_recent_arrivals();
                    state.queue.push(
                        tick_after(t, self.config.prewarm_interval_ms),
                        Event::PrewarmTick,
                    );
                }
            }
        }
    }

    /// Handles one external arrival: resolve the public function id to its
    /// local index (the only hash lookup on the arrival path), record it,
    /// run admission control, and dispatch.
    fn handle_arrival(&mut self, state: &mut SimState<'_>, function: FunctionId, t: u64) {
        let Some(idx) = state.resolve(function) else {
            // Unknown function (possible with hand-written replay traces):
            // its arrivals are counted, nothing is dispatched.
            state.observe_unknown_arrival(function);
            return;
        };
        state.observe_arrival(idx, t);
        // A no-op admission policy never delays anything: skip assembling
        // the per-function view (a pure read) and the synchronicity check.
        if !self.admission.is_noop() {
            let view = state.function_view(idx);
            if view.trigger.synchronicity() == fntrace::Synchronicity::Asynchronous {
                let delay = self.admission.delay_ms(&view, t);
                if delay > 0 {
                    state.report.delayed_requests += 1;
                    let delay_s = delay as f64 / 1e3;
                    state.accum[idx.index()].admission_delay_s += delay_s;
                    state.accum[idx.index()].added_latency_s += delay_s;
                    state
                        .queue
                        .push(t + delay, Event::DelayedArrival { function: idx });
                    return;
                }
            }
        }
        state.dispatch(idx, t);
    }
}

/// Schedule time of the next periodic tick after `now`.
///
/// Every periodic tick — initial or rescheduled — goes through this one
/// helper, so a zero interval can never schedule a tick at the current
/// instant and loop forever: the period is clamped to one millisecond.
pub(crate) fn tick_after(now: u64, interval_ms: u64) -> u64 {
    now + interval_ms.max(1)
}

/// The epoch boundary after `boundary`, if any: multiples of `epoch` clipped
/// to `duration`, which is always the final boundary.
pub(crate) fn next_boundary_after(boundary: u64, epoch: u64, duration: u64) -> Option<u64> {
    if boundary >= duration {
        None
    } else {
        Some((boundary + epoch).min(duration))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use crate::report::{ComponentTotals, FunctionStats};
    use crate::SimulationSpec;
    use faas_workload::population::PopulationConfig;
    use faas_workload::profile::{Calibration, RegionProfile};
    use faas_workload::{StreamedWorkload, WorkloadEvent, WorkloadSource};

    fn tiny_workload(seed: u64) -> WorkloadSpec {
        WorkloadSpec::generate(
            &RegionProfile::r2(),
            Calibration {
                duration_days: 1,
                ..Calibration::default()
            },
            &PopulationConfig {
                function_scale: 0.002,
                volume_scale: 2.0e-6,
                max_requests_per_day: 2_000.0,
                min_functions: 15,
            },
            seed,
        )
    }

    #[test]
    fn ticks_are_always_scheduled_strictly_in_the_future() {
        assert_eq!(tick_after(0, 0), 1);
        assert_eq!(tick_after(0, 60_000), 60_000);
        assert_eq!(tick_after(500, 0), 501);
        assert_eq!(tick_after(500, 250), 750);
    }

    #[test]
    fn boundary_sequence_covers_the_horizon_exactly_once() {
        let walk = |epoch: u64, duration: u64| {
            let mut seen = Vec::new();
            let mut next = Some(epoch.max(1).min(duration));
            while let Some(b) = next {
                seen.push(b);
                next = next_boundary_after(b, epoch.max(1), duration);
            }
            seen
        };
        assert_eq!(
            walk(60_000, 250_000),
            vec![60_000, 120_000, 180_000, 240_000, 250_000]
        );
        assert_eq!(
            walk(60_000, 240_000),
            vec![60_000, 120_000, 180_000, 240_000]
        );
        assert_eq!(walk(60_000, 30_000), vec![30_000]);
        assert_eq!(walk(60_000, 0), vec![0]);
    }

    #[test]
    fn zero_tick_intervals_behave_exactly_like_one_millisecond() {
        // Regression test: the initial PrewarmTick used to be pushed at the
        // raw interval while reschedules clamped to >= 1 ms, so a zero
        // interval fired its first tick at t = 0 and every later one on the
        // clamped cadence. Both now route through `tick_after`, making a
        // zero interval indistinguishable from the 1 ms it is clamped to.
        // The replenish interval is boundary-quantized the same way: zero
        // and one millisecond run the same number of intervals per epoch.
        let workload = tiny_workload(41);
        let cut = workload
            .events
            .iter()
            .take_while(|e| e.timestamp_ms < 5_000)
            .count();
        let run_with = |prewarm_ms: u64, replenish_ms: u64| {
            let mut config = PlatformConfig {
                record_trace: false,
                ..PlatformConfig::default()
            };
            config.prewarm_interval_ms = prewarm_ms;
            config.pool.replenish_interval_ms = replenish_ms;
            let spec = SimulationSpec::new().with_config(config);
            let stream = SliceStream::new(&workload.events[..cut], 5_000);
            spec.engine(&workload).run_streamed(&workload, stream).0
        };
        let zero = run_with(0, 0);
        let one = run_with(1, 1);
        assert_eq!(zero, one);
        assert_eq!(zero.events_processed, cut as u64);
    }

    #[test]
    fn streamed_and_materialised_runs_are_identical() {
        let seed = 17;
        let workload = tiny_workload(seed);
        let streamed = StreamedWorkload::generate(
            &RegionProfile::r2(),
            Calibration {
                duration_days: 1,
                ..Calibration::default()
            },
            &PopulationConfig {
                function_scale: 0.002,
                volume_scale: 2.0e-6,
                max_requests_per_day: 2_000.0,
                min_functions: 15,
            },
            seed,
        );
        let spec = SimulationSpec::new().with_seed(3);
        let (eager, eager_trace) = spec.run(&workload);
        let (lazy, lazy_trace) = spec
            .engine(streamed.header())
            .run_streamed(streamed.header(), streamed.stream());
        assert_eq!(eager, lazy);
        assert_eq!(eager_trace, lazy_trace);
        assert_eq!(eager.events_processed, workload.events.len() as u64);
    }

    #[test]
    fn out_of_table_arrivals_are_counted_not_dispatched() {
        let mut table_only = tiny_workload(23);
        table_only.source = WorkloadSource::Replay;
        let stranger = FunctionId::new(u64::MAX);
        assert!(table_only.function(stranger).is_none());
        let stranger_times = [0, 1, 3_600_000, 3_600_000, 50_000_000];
        let mut with_stranger = table_only.clone();
        with_stranger
            .events
            .extend(stranger_times.iter().map(|&timestamp_ms| WorkloadEvent {
                timestamp_ms,
                function: stranger,
            }));
        with_stranger.events.sort_by_key(|e| e.timestamp_ms);

        let spec = SimulationSpec::new().with_seed(5);
        let (report, _) = spec.run(&with_stranger);
        assert_eq!(report, spec.run(&with_stranger).0, "identical reruns");
        let stats = report
            .per_function
            .iter()
            .find(|f| f.function == stranger)
            .expect("the out-of-table function is listed");
        assert_eq!(
            *stats,
            FunctionStats {
                function: stranger,
                requests: stranger_times.len() as u64,
                cold_starts: 0,
                components: ComponentTotals::default(),
            }
        );
        assert_eq!(report.events_processed, with_stranger.events.len() as u64);

        // Nothing else moves: the run without the stranger's arrivals
        // differs only by them.
        let (mut expected, _) = spec.run(&table_only);
        assert_eq!(expected.requests, table_only.events.len() as u64);
        expected.events_processed += stranger_times.len() as u64;
        // `per_function` is sorted by id, and the stranger's id is the largest.
        expected.per_function.push(*stats);
        assert_eq!(report, expected);
    }
}
