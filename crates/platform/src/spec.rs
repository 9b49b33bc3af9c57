//! Replicable simulation specifications.
//!
//! [`SimulationSpec`] is the one way to run a simulation, whether a one-off
//! run or one of hundreds of identical runs across threads: it holds a
//! [`PolicyFactory`] (cheap to share, `Send + Sync`) instead of policy
//! instances, and builds a fresh [`SimulationEngine`] — with fresh policy
//! state — for every [`run`](SimulationSpec::run). Two runs of the same spec
//! on the same workload are bit-identical, whichever thread they execute on.
//!
//! This pair is the integration point the `coldstarts` session API builds
//! on: a session turns each of its typed policy configurations into one
//! shared `Arc<dyn PolicyFactory>`, stamps out one spec per cell, and relies
//! on the run-for-run freshness above for its parallel == sequential
//! byte-equality guarantee.

use std::sync::Arc;

use faas_workload::stream::ArrivalStream;
use faas_workload::WorkloadSpec;
use fntrace::RegionTrace;

use crate::config::PlatformConfig;
use crate::engine::SimulationEngine;
use crate::keepalive::{FixedKeepAlive, KeepAlivePolicy};
use crate::policy::{AdmissionPolicy, NoAdmissionControl, NoPrewarm, PrewarmPolicy};
use crate::report::SimReport;

/// Builds one run's worth of policies for a given workload.
///
/// Implementations must be `Send + Sync` so one factory can stamp out policy
/// sets concurrently across experiment-session worker threads. The factory
/// is invoked once per run, so stateful policies (adaptive keep-alive
/// histories, demand pre-warmers) start every run from a clean slate —
/// exactly the property that makes parallel and sequential session
/// execution agree.
pub trait PolicyFactory: Send + Sync {
    /// Builds the keep-alive policy for one run over `workload`.
    fn keep_alive(&self, workload: &WorkloadSpec) -> Box<dyn KeepAlivePolicy>;

    /// Builds the pre-warm policy for one run over `workload`.
    fn prewarm(&self, workload: &WorkloadSpec) -> Box<dyn PrewarmPolicy>;

    /// Builds the admission (peak-shaving) policy for one run over `workload`.
    fn admission(&self, workload: &WorkloadSpec) -> Box<dyn AdmissionPolicy>;

    /// Short label describing the policy combination (used in logs and
    /// experiment summaries).
    fn label(&self) -> &str {
        "custom"
    }
}

/// Baseline production policies: fixed one-minute keep-alive, no pre-warming,
/// no admission control.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselinePolicies;

impl PolicyFactory for BaselinePolicies {
    fn keep_alive(&self, _workload: &WorkloadSpec) -> Box<dyn KeepAlivePolicy> {
        Box::new(FixedKeepAlive::default())
    }

    fn prewarm(&self, _workload: &WorkloadSpec) -> Box<dyn PrewarmPolicy> {
        Box::new(NoPrewarm)
    }

    fn admission(&self, _workload: &WorkloadSpec) -> Box<dyn AdmissionPolicy> {
        Box::new(NoAdmissionControl)
    }

    fn label(&self) -> &str {
        "baseline"
    }
}

/// A cheap-to-replicate description of a simulation run: configuration, seed,
/// and a policy factory.
///
/// Cloning a spec (or sharing it across threads) costs one `Arc` bump; every
/// [`run`](SimulationSpec::run) builds its own engine and policy instances,
/// so a single spec can replay any number of workloads, sequentially or in
/// parallel, with identical results for identical inputs.
#[derive(Clone)]
pub struct SimulationSpec {
    /// Platform configuration shared by every run of this spec.
    pub config: PlatformConfig,
    /// Random seed for each run.
    pub seed: u64,
    /// Factory producing one fresh policy set per run.
    pub policies: Arc<dyn PolicyFactory>,
}

impl SimulationSpec {
    /// Creates a spec with the default configuration and baseline policies.
    pub fn new() -> Self {
        Self {
            config: PlatformConfig::default(),
            seed: 1,
            policies: Arc::new(BaselinePolicies),
        }
    }

    /// Sets the platform configuration.
    pub fn with_config(mut self, config: PlatformConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the policy factory.
    pub fn with_policies(mut self, policies: Arc<dyn PolicyFactory>) -> Self {
        self.policies = policies;
        self
    }

    /// Builds the single-use engine for one run over `workload`.
    pub fn engine(&self, workload: &WorkloadSpec) -> SimulationEngine {
        SimulationEngine::new(
            self.config.clone(),
            self.policies.keep_alive(workload),
            self.policies.prewarm(workload),
            self.policies.admission(workload),
            self.seed,
        )
    }

    /// Runs the workload once. The spec is borrowed, not consumed: call this
    /// as many times as needed, from as many threads as needed.
    pub fn run(&self, workload: &WorkloadSpec) -> (SimReport, Option<RegionTrace>) {
        self.engine(workload).run(workload)
    }

    /// Runs one lazily produced arrival stream against the workload's static
    /// tables (see [`SimulationEngine::run_streamed`]). `workload` may be an
    /// event-free header — only its function specs, profile, and calibration
    /// are read.
    pub fn run_streamed(
        &self,
        workload: &WorkloadSpec,
        events: impl ArrivalStream,
    ) -> (SimReport, Option<RegionTrace>) {
        self.engine(workload).run_streamed(workload, events)
    }
}

impl Default for SimulationSpec {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_workload::population::PopulationConfig;
    use faas_workload::profile::{Calibration, RegionProfile};

    fn tiny_workload(days: u32, seed: u64) -> WorkloadSpec {
        WorkloadSpec::generate(
            &RegionProfile::r2(),
            Calibration {
                duration_days: days,
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

    /// Baseline policies with a fixed keep-alive of the given milliseconds.
    struct FixedFor(u64);

    impl PolicyFactory for FixedFor {
        fn keep_alive(&self, _workload: &WorkloadSpec) -> Box<dyn KeepAlivePolicy> {
            Box::new(FixedKeepAlive {
                duration_ms: self.0,
            })
        }

        fn prewarm(&self, _workload: &WorkloadSpec) -> Box<dyn PrewarmPolicy> {
            Box::new(NoPrewarm)
        }

        fn admission(&self, _workload: &WorkloadSpec) -> Box<dyn AdmissionPolicy> {
            Box::new(NoAdmissionControl)
        }
    }

    #[test]
    fn spec_is_reusable_and_deterministic() {
        let workload = tiny_workload(1, 21);
        let spec = SimulationSpec::new().with_seed(4);
        let (a, ta) = spec.run(&workload);
        let (b, tb) = spec.run(&workload);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
        assert!(a.requests > 0);
    }

    #[test]
    fn spec_is_shareable_across_threads() {
        let workload = tiny_workload(1, 23);
        let spec = SimulationSpec::new().with_seed(9);
        let (sequential, _) = spec.run(&workload);
        let reports: Vec<SimReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let spec = &spec;
                    let workload = &workload;
                    scope.spawn(move || spec.run(workload).0)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for report in reports {
            assert_eq!(report, sequential);
        }
    }

    #[test]
    fn baseline_factory_labels_policies() {
        let workload = tiny_workload(1, 24);
        let factory = BaselinePolicies;
        assert_eq!(factory.label(), "baseline");
        assert_eq!(factory.keep_alive(&workload).name(), "fixed");
        assert_eq!(factory.prewarm(&workload).name(), "no-prewarm");
        assert_eq!(factory.admission(&workload).name(), "no-admission-control");
    }

    #[test]
    fn simulation_accounts_for_every_request() {
        let workload = tiny_workload(1, 1);
        let (report, trace) = SimulationSpec::new().run(&workload);
        assert_eq!(report.requests, workload.len() as u64);
        assert_eq!(report.requests, report.warm_starts + report.cold_starts);
        assert!(report.cold_starts > 0);
        let trace = trace.expect("trace recorded by default");
        assert_eq!(trace.requests.len() as u64, report.requests);
        assert_eq!(trace.cold_starts.len() as u64, report.cold_starts);
    }

    #[test]
    fn simulation_is_deterministic() {
        let workload = tiny_workload(1, 2);
        let (a, ta) = SimulationSpec::new().with_seed(9).run(&workload);
        let (b, tb) = SimulationSpec::new().with_seed(9).run(&workload);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
        let (c, _) = SimulationSpec::new().with_seed(10).run(&workload);
        assert_eq!(a.requests, c.requests);
        assert_ne!(a.cold_start_latency.mean_s, c.cold_start_latency.mean_s);
    }

    #[test]
    fn trace_recording_can_be_disabled() {
        let workload = tiny_workload(1, 3);
        let (report, trace) = SimulationSpec::new()
            .with_config(PlatformConfig {
                record_trace: false,
                ..PlatformConfig::default()
            })
            .run(&workload);
        assert!(trace.is_none());
        assert!(report.requests > 0);
    }

    #[test]
    fn cold_start_components_sum_in_simulated_trace() {
        let workload = tiny_workload(1, 4);
        let (_, trace) = SimulationSpec::new().run(&workload);
        let trace = trace.unwrap();
        assert!(!trace.cold_starts.is_empty());
        for cs in trace.cold_starts.records() {
            assert_eq!(cs.component_sum_us(), cs.cold_start_us);
        }
        // Every cold-started pod serves at least one request.
        let request_pods: std::collections::HashSet<_> =
            trace.requests.records().iter().map(|r| r.pod).collect();
        for cs in trace.cold_starts.records() {
            assert!(request_pods.contains(&cs.pod));
        }
    }

    #[test]
    fn longer_keep_alive_reduces_cold_starts() {
        let workload = tiny_workload(2, 5);
        let run = |duration_ms| {
            SimulationSpec::new()
                .with_policies(Arc::new(FixedFor(duration_ms)))
                .run(&workload)
                .0
        };
        let (short, long) = (run(10_000), run(600_000));
        assert!(
            long.cold_starts < short.cold_starts,
            "long {} short {}",
            long.cold_starts,
            short.cold_starts
        );
        // But longer keep-alive wastes more idle pod time.
        assert!(long.idle_pod_time_s > short.idle_pod_time_s);
    }

    #[test]
    fn pods_are_reused_for_frequent_functions() {
        let workload = tiny_workload(1, 6);
        let (report, _) = SimulationSpec::new().run(&workload);
        assert!(report.warm_starts > 0, "no warm starts at all");
        assert!(report.cold_start_rate() < 1.0);
        assert!(report.peak_live_pods > 0);
        assert!(report.pod_lifetime_s > 0.0);
        assert!(report.idle_pod_time_s > 0.0);
        assert!(report.idle_fraction() <= 1.0);
    }

    #[test]
    fn report_names_reflect_policies() {
        let workload = tiny_workload(1, 7);
        let (report, _) = SimulationSpec::new().run(&workload);
        assert_eq!(report.keep_alive_policy, "fixed");
        assert_eq!(report.prewarm_policy, "no-prewarm");
        assert_eq!(report.admission_policy, "no-admission-control");
        assert_eq!(report.delayed_requests, 0);
        assert_eq!(report.prewarmed_pods, 0);
    }
}
