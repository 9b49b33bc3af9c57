//! Predictive pre-warming policies.
//!
//! The paper observes that (a) timer-triggered functions could be pre-warmed
//! right before their next firing, (b) diurnal patterns make short-horizon
//! demand prediction feasible, and (c) synchronous workflow invocations can
//! be predicted from calls earlier in the chain. These three policies plug
//! into the simulator's [`PrewarmPolicy`] hook.

use std::collections::HashMap;

use faas_platform::{PlatformView, PrewarmPolicy, PrewarmRequest};
use faas_workload::FunctionSpec;
use fntrace::{FunctionId, TriggerType};

/// Pre-warms timer-triggered functions shortly before their next firing.
///
/// Timer periods are known from the function configuration; the policy keeps
/// a pod warm only when the next firing falls inside the upcoming tick
/// interval, so pods are not wasted idling through long periods.
#[derive(Debug, Clone)]
pub struct TimerPrewarm {
    periods_ms: HashMap<FunctionId, u64>,
    horizon_ms: u64,
}

impl TimerPrewarm {
    /// Creates the policy from the workload's function specifications.
    ///
    /// `horizon_ms` should match (or slightly exceed) the simulator's
    /// pre-warm tick interval. Timers whose period rounds down to 0 ms have
    /// no cadence to project and are not tracked.
    pub fn from_specs(specs: &[FunctionSpec], horizon_ms: u64) -> Self {
        let periods_ms = specs
            .iter()
            .filter(|s| s.primary_trigger() == TriggerType::Timer)
            .map(|s| (s.function, (s.timer_period_secs * 1000.0) as u64))
            .filter(|&(_, period)| period > 0)
            .collect();
        Self {
            periods_ms,
            horizon_ms,
        }
    }

    /// Number of timer functions the policy tracks.
    pub fn tracked_functions(&self) -> usize {
        self.periods_ms.len()
    }
}

impl PrewarmPolicy for TimerPrewarm {
    fn prewarm(&mut self, view: &PlatformView) -> Vec<PrewarmRequest> {
        let mut out = Vec::new();
        for f in &view.functions {
            let Some(&period) = self.periods_ms.get(&f.function) else {
                continue;
            };
            if f.warm_pods > 0 {
                continue;
            }
            // Estimate the next firing from the most recent arrival; before
            // any arrival has been seen, pre-warm conservatively so the first
            // firing is also covered.
            let due_soon = match f.last_arrival_ms {
                Some(last) => {
                    next_firing_ms(last, period, view.now_ms) <= view.now_ms + self.horizon_ms
                }
                None => true,
            };
            if due_soon {
                out.push(PrewarmRequest {
                    function: f.function,
                    count: 1,
                });
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "timer-prewarm"
    }
}

/// The first firing after `now_ms` of a timer that last fired at `last_ms`
/// with a period of `period_ms` (at least 1 ms): `last_ms + k * period_ms`
/// for the smallest `k >= 1` that lands past `now_ms`, projected forward in
/// O(1) however many periods have elapsed since the last observed arrival.
pub(crate) fn next_firing_ms(last_ms: u64, period_ms: u64, now_ms: u64) -> u64 {
    debug_assert!(period_ms > 0, "a timer period of at least 1 ms");
    last_ms + period_ms * (now_ms.saturating_sub(last_ms) / period_ms + 1)
}

/// Pre-warms functions whose recent demand indicates they will be invoked
/// again within the next interval but that currently have no warm pod.
#[derive(Debug, Clone, Copy)]
pub struct DemandPrewarm {
    /// Minimum arrivals in the last interval to consider a function active.
    pub min_recent_arrivals: u64,
    /// Maximum pods to pre-warm per function per tick.
    pub max_pods_per_function: u32,
}

impl Default for DemandPrewarm {
    fn default() -> Self {
        Self {
            min_recent_arrivals: 1,
            max_pods_per_function: 1,
        }
    }
}

impl PrewarmPolicy for DemandPrewarm {
    fn prewarm(&mut self, view: &PlatformView) -> Vec<PrewarmRequest> {
        view.functions
            .iter()
            .filter(|f| f.recent_arrivals >= self.min_recent_arrivals && f.warm_pods == 0)
            .map(|f| PrewarmRequest {
                function: f.function,
                count: self.max_pods_per_function.max(1),
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "demand-prewarm"
    }
}

/// Pre-warms synchronous workflow functions when their upstream caller has
/// recently been invoked (call-chain prediction).
///
/// This is the one policy that reads *another* function's view (the
/// upstream's recent arrivals). The [`PlatformView`] lists every function
/// in the table, so a downstream function's caller is always in it.
#[derive(Debug, Clone)]
pub struct WorkflowChainPrewarm {
    /// Downstream workflow function → upstream caller.
    upstream: HashMap<FunctionId, FunctionId>,
}

impl WorkflowChainPrewarm {
    /// Creates the policy from the workload's function specifications.
    pub fn from_specs(specs: &[FunctionSpec]) -> Self {
        let upstream = specs
            .iter()
            .filter_map(|s| s.upstream.map(|up| (s.function, up)))
            .collect();
        Self { upstream }
    }

    /// Number of workflow chains the policy tracks.
    pub fn tracked_chains(&self) -> usize {
        self.upstream.len()
    }
}

impl PrewarmPolicy for WorkflowChainPrewarm {
    fn prewarm(&mut self, view: &PlatformView) -> Vec<PrewarmRequest> {
        // Index recent upstream activity.
        let recent: HashMap<FunctionId, u64> = view
            .functions
            .iter()
            .map(|f| (f.function, f.recent_arrivals))
            .collect();
        view.functions
            .iter()
            .filter(|f| f.warm_pods == 0)
            .filter_map(|f| {
                let up = self.upstream.get(&f.function)?;
                if recent.get(up).copied().unwrap_or(0) > 0 {
                    Some(PrewarmRequest {
                        function: f.function,
                        count: 1,
                    })
                } else {
                    None
                }
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "workflow-chain-prewarm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_platform::FunctionView;
    use fntrace::{ResourceConfig, Runtime, UserId};

    fn spec(id: u64, trigger: TriggerType, period: f64, upstream: Option<u64>) -> FunctionSpec {
        FunctionSpec {
            function: FunctionId::new(id),
            user: UserId::new(1),
            runtime: Runtime::Python3,
            triggers: vec![trigger],
            config: ResourceConfig::SMALL_300_128,
            base_requests_per_day: 100.0,
            timer_period_secs: period,
            diurnal_amplitude: 0.5,
            peak_offset_hours: 0.0,
            median_execution_secs: 0.05,
            cpu_millicores: 100.0,
            memory_bytes: 64 << 20,
            has_dependencies: false,
            concurrency: 1,
            upstream: upstream.map(FunctionId::new),
        }
    }

    fn fview(id: u64, warm: u32, recent: u64, last: Option<u64>) -> FunctionView {
        FunctionView {
            function: FunctionId::new(id),
            runtime: Runtime::Python3,
            trigger: TriggerType::Timer,
            config: ResourceConfig::SMALL_300_128,
            timer_period_secs: 300.0,
            warm_pods: warm,
            arrivals: 10,
            cold_starts: 8,
            recent_arrivals: recent,
            last_arrival_ms: last,
        }
    }

    fn platform(functions: Vec<FunctionView>, now_ms: u64) -> PlatformView {
        PlatformView {
            now_ms,
            total_warm_pods: functions.iter().map(|f| f.warm_pods).sum(),
            pooled_idle_pods: 8,
            functions,
        }
    }

    #[test]
    fn timer_prewarm_targets_due_timers_only() {
        let specs = vec![
            spec(1, TriggerType::Timer, 300.0, None),
            spec(2, TriggerType::Timer, 3600.0, None),
            spec(3, TriggerType::ApigSync, 0.0, None),
        ];
        let mut policy = TimerPrewarm::from_specs(&specs, 60_000);
        assert_eq!(policy.tracked_functions(), 2);
        // Function 1 fired at t=0 with a 5-minute period; at t=250s its next
        // firing (300 s) is within the 60 s horizon. Function 2 fired at t=0
        // with a 1-hour period and is not due.
        let view = platform(
            vec![
                fview(1, 0, 0, Some(0)),
                fview(2, 0, 0, Some(0)),
                fview(3, 0, 5, Some(240_000)),
            ],
            250_000,
        );
        let requests = policy.prewarm(&view);
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].function, FunctionId::new(1));
        assert_eq!(policy.name(), "timer-prewarm");
        // A function that already has a warm pod is skipped.
        let view = platform(vec![fview(1, 1, 0, Some(0))], 250_000);
        assert!(policy.prewarm(&view).is_empty());
    }

    #[test]
    fn timer_prewarm_skips_periods_that_round_to_zero_ms() {
        // 0.4 ms rounds to a 0-ms period, which has no cadence to project:
        // tracking it would spin forever looking for the next firing.
        let specs = vec![spec(1, TriggerType::Timer, 0.0004, None)];
        let mut policy = TimerPrewarm::from_specs(&specs, 60_000);
        assert_eq!(policy.tracked_functions(), 0);
        let view = platform(vec![fview(1, 0, 0, Some(0))], 250_000);
        assert!(policy.prewarm(&view).is_empty());
    }

    #[test]
    fn next_firing_matches_the_stepping_loop() {
        for period in 1..=7u64 {
            for last in 0..20u64 {
                for now in 0..40u64 {
                    let mut next = last + period;
                    while next <= now {
                        next += period;
                    }
                    assert_eq!(
                        next_firing_ms(last, period, now),
                        next,
                        "last {last}, period {period}, now {now}"
                    );
                }
            }
        }
    }

    #[test]
    fn demand_prewarm_targets_active_functions_without_pods() {
        let mut policy = DemandPrewarm::default();
        let view = platform(
            vec![
                fview(1, 0, 3, Some(1)),
                fview(2, 1, 5, Some(1)),
                fview(3, 0, 0, None),
            ],
            60_000,
        );
        let requests = policy.prewarm(&view);
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].function, FunctionId::new(1));
        assert_eq!(policy.name(), "demand-prewarm");
    }

    #[test]
    fn chain_prewarm_follows_upstream_activity() {
        let specs = vec![
            spec(10, TriggerType::ApigSync, 0.0, None),
            spec(20, TriggerType::WorkflowSync, 0.0, Some(10)),
            spec(30, TriggerType::WorkflowSync, 0.0, Some(99)),
        ];
        let mut policy = WorkflowChainPrewarm::from_specs(&specs);
        assert_eq!(policy.tracked_chains(), 2);
        let view = platform(
            vec![
                fview(10, 1, 4, Some(100)), // Upstream recently active.
                fview(20, 0, 0, None),      // Downstream with no warm pod.
                fview(30, 0, 0, None),      // Upstream (99) not in view.
            ],
            60_000,
        );
        let requests = policy.prewarm(&view);
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].function, FunctionId::new(20));
        assert_eq!(policy.name(), "workflow-chain-prewarm");
    }
}
