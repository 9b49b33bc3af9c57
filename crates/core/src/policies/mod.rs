//! Mitigation policies from the paper's discussion section (Section 5).
//!
//! Each sub-module implements one of the improvement directions the paper
//! identifies, as a pluggable policy for the [`faas_platform`] simulator or
//! as a standalone planner/advisor where simulation is not required:
//!
//! * [`prewarm`] — predictive pre-warming of pods (timer schedules, recent
//!   demand, and workflow call chains).
//! * [`keepalive`] — adaptive and timer-aware keep-alive selection.
//! * [`peak_shaving`] — delaying asynchronous, non-latency-critical requests
//!   away from the daily peak.
//! * [`pool_prediction`] — predicting per-configuration resource-pool sizes.
//! * [`cross_region`] — migrating functions between regions to exploit the
//!   differing peak hours and cold-start costs.
//! * [`concurrency`] — advising per-function concurrency increases.
//! * [`adaptive`] — the autonomic layer: histogram-based adaptive
//!   keep-alive, forecast-driven pre-warming, and a per-function hybrid
//!   switcher that routes each traffic class to the sub-policy suiting it.
//!
//! The named ablation [`Scenario`]s combine these policies, and
//! [`ScenarioPolicies`] builds one scenario's policy set per simulation run.

pub mod adaptive;
pub mod concurrency;
pub mod cross_region;
pub mod keepalive;
pub mod peak_shaving;
pub mod pool_prediction;
pub mod prewarm;

pub use adaptive::{
    Classifier, ForecastPrewarm, HybridAdaptive, HybridKeepAlive, HybridPrewarm, QuantileKeepAlive,
    TrafficClass,
};
pub use concurrency::{ConcurrencyAdvisor, ConcurrencyRecommendation};
pub use cross_region::{CrossRegionPlan, CrossRegionScheduler, FunctionMigration};
pub use keepalive::keep_alive_for_scenario;
pub use peak_shaving::AsyncPeakShaving;
pub use pool_prediction::{PoolDemandPredictor, PoolSizingPlan};
pub use prewarm::{DemandPrewarm, TimerPrewarm, WorkflowChainPrewarm};

use serde::{Deserialize, Serialize};

use faas_platform::{
    AdmissionPolicy, KeepAlivePolicy, NoAdmissionControl, NoPrewarm, PlatformConfig, PolicyFactory,
    PrewarmPolicy,
};
use faas_workload::WorkloadSpec;

use keepalive::KeepAliveScenario;

/// Maximum delay of the peak-shaving scenarios, in milliseconds.
pub const DEFAULT_PEAK_SHAVING_DELAY_MS: u64 = 180_000;

/// Named policy scenarios evaluated by the ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scenario {
    /// Production baseline: fixed keep-alive, no pre-warming, no shaving.
    Baseline,
    /// Adaptive keep-alive only.
    AdaptiveKeepAlive,
    /// Timer-aware keep-alive only.
    TimerAwareKeepAlive,
    /// Timer-schedule pre-warming only.
    TimerPrewarm,
    /// Recent-demand pre-warming only.
    DemandPrewarm,
    /// Workflow call-chain pre-warming only.
    ChainPrewarm,
    /// Peak shaving of asynchronous triggers only.
    PeakShaving,
    /// Everything combined: timer-aware keep-alive, timer pre-warming, and
    /// peak shaving.
    Combined,
}

impl Scenario {
    /// All scenarios in evaluation order.
    pub const ALL: [Scenario; 8] = [
        Scenario::Baseline,
        Scenario::AdaptiveKeepAlive,
        Scenario::TimerAwareKeepAlive,
        Scenario::TimerPrewarm,
        Scenario::DemandPrewarm,
        Scenario::ChainPrewarm,
        Scenario::PeakShaving,
        Scenario::Combined,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Baseline => "baseline",
            Scenario::AdaptiveKeepAlive => "adaptive-keep-alive",
            Scenario::TimerAwareKeepAlive => "timer-aware-keep-alive",
            Scenario::TimerPrewarm => "timer-prewarm",
            Scenario::DemandPrewarm => "demand-prewarm",
            Scenario::ChainPrewarm => "chain-prewarm",
            Scenario::PeakShaving => "peak-shaving",
            Scenario::Combined => "combined",
        }
    }
}

/// [`PolicyFactory`] that builds the policy set of one named [`Scenario`].
///
/// The factory is stateless and `Send + Sync`; policy state (keep-alive
/// histories, demand trackers, timer schedules) is created per run from the
/// workload being replayed, which is what lets one factory serve every cell
/// of a parallel session.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioPolicies {
    /// The scenario whose policies this factory builds.
    pub scenario: Scenario,
    /// Horizon handed to timer pre-warming, normally the platform's pre-warm
    /// tick interval, in milliseconds.
    pub prewarm_horizon_ms: u64,
}

impl ScenarioPolicies {
    /// Creates the factory for `scenario` using the platform's pre-warm
    /// interval as the timer pre-warm horizon.
    pub fn new(scenario: Scenario, platform: &PlatformConfig) -> Self {
        Self {
            scenario,
            prewarm_horizon_ms: platform.prewarm_interval_ms,
        }
    }
}

impl PolicyFactory for ScenarioPolicies {
    fn keep_alive(&self, workload: &WorkloadSpec) -> Box<dyn KeepAlivePolicy> {
        let scenario = match self.scenario {
            Scenario::AdaptiveKeepAlive => KeepAliveScenario::Adaptive,
            Scenario::TimerAwareKeepAlive | Scenario::Combined => KeepAliveScenario::TimerAware,
            _ => KeepAliveScenario::FixedDefault,
        };
        keep_alive_for_scenario(scenario, &workload.functions)
    }

    fn prewarm(&self, workload: &WorkloadSpec) -> Box<dyn PrewarmPolicy> {
        match self.scenario {
            Scenario::TimerPrewarm | Scenario::Combined => Box::new(TimerPrewarm::from_specs(
                &workload.functions,
                self.prewarm_horizon_ms,
            )),
            Scenario::DemandPrewarm => Box::new(DemandPrewarm::default()),
            Scenario::ChainPrewarm => {
                Box::new(WorkflowChainPrewarm::from_specs(&workload.functions))
            }
            _ => Box::new(NoPrewarm),
        }
    }

    fn admission(&self, workload: &WorkloadSpec) -> Box<dyn AdmissionPolicy> {
        match self.scenario {
            Scenario::PeakShaving | Scenario::Combined => Box::new(AsyncPeakShaving::new(
                workload.profile.peak_hour,
                1.5,
                DEFAULT_PEAK_SHAVING_DELAY_MS,
            )),
            _ => Box::new(NoAdmissionControl),
        }
    }

    fn label(&self) -> &str {
        self.scenario.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_are_unique() {
        let mut names: Vec<&str> = Scenario::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Scenario::ALL.len());
    }

    #[test]
    fn scenario_policies_label_matches_scenario() {
        let platform = PlatformConfig::default();
        for scenario in Scenario::ALL {
            let f = ScenarioPolicies::new(scenario, &platform);
            assert_eq!(f.label(), scenario.name());
        }
    }
}
