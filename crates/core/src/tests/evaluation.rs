//! Section 5 scenarios over one workload, read as baseline-relative outcomes.

mod tests {
    use std::sync::Arc;

    use faas_platform::SimulationSpec;
    use faas_workload::population::PopulationConfig;
    use faas_workload::profile::{Calibration, RegionProfile};
    use faas_workload::WorkloadSpec;

    use crate::session::{seeds, ExperimentSession, FixedWorkloadSource};
    use crate::{Scenario, ScenarioOutcome};

    fn tiny_workload(days: u32, seed: u64) -> WorkloadSpec {
        WorkloadSpec::generate(
            &RegionProfile::r2(),
            Calibration {
                duration_days: days,
                ..Calibration::default()
            },
            &PopulationConfig {
                function_scale: 0.003,
                volume_scale: 2.0e-6,
                max_requests_per_day: 2_000.0,
                min_functions: 20,
            },
            seed,
        )
    }

    /// The baseline plus `scenarios` over `workload`, in a session.
    fn evaluation(workload: WorkloadSpec, scenarios: &[Scenario]) -> ExperimentSession {
        ExperimentSession::new()
            .scenarios(&[Scenario::Baseline])
            .scenarios(scenarios)
            .source(FixedWorkloadSource::new("r2", Arc::new(workload)))
    }

    fn outcomes(workload: WorkloadSpec, scenarios: &[Scenario]) -> Vec<ScenarioOutcome> {
        evaluation(workload, scenarios)
            .run()
            .outcomes(0, seeds::DEFAULT_SEED)
            .expect("the baseline is declared")
    }

    #[test]
    fn baseline_outcome_has_zero_deltas() {
        let baseline = outcomes(tiny_workload(1, 3), &[]);
        assert_eq!(baseline.len(), 1);
        assert_eq!(baseline[0].cold_start_reduction, 0.0);
        assert_eq!(baseline[0].added_latency_reduction, 0.0);
        assert_eq!(baseline[0].idle_time_change, 0.0);
        // A baseline with no cold starts, latency or idle time gives every
        // scenario 0.0 deltas, not NaN.
        let empty = outcomes(tiny_workload(0, 3), &Scenario::ALL[1..]);
        assert_eq!(empty.len(), 8);
        assert_eq!(empty[0].report.cold_starts, 0);
        for o in &empty {
            assert_eq!(o.cold_start_reduction, 0.0, "{}", o.policy);
            assert_eq!(o.added_latency_reduction, 0.0, "{}", o.policy);
            assert_eq!(o.idle_time_change, 0.0, "{}", o.policy);
        }
    }

    #[test]
    fn run_matches_run_scenario_per_scenario() {
        // The concurrent session must agree with a one-off simulation cell
        // by cell — same spec, same seed, same report.
        let workload = tiny_workload(1, 6);
        let session = evaluation(
            workload.clone(),
            &[Scenario::AdaptiveKeepAlive, Scenario::PeakShaving],
        );
        let report = session.run();
        for (cell, policy) in report.cells.iter().zip(&session.policies) {
            let platform = policy.platform(&session.platform);
            let (solo, _) = SimulationSpec::new()
                .with_seed(seeds::DEFAULT_SEED)
                .with_policies(policy.factory(&platform))
                .with_config(platform)
                .run(&workload);
            assert_eq!(solo, cell.report, "{} diverged", cell.policy);
        }
    }

    #[test]
    fn prewarm_and_timer_aware_policies_reduce_cold_starts() {
        let scenarios = [
            Scenario::TimerPrewarm,
            Scenario::DemandPrewarm,
            Scenario::Combined,
        ];
        let outcomes = outcomes(tiny_workload(1, 4), &scenarios);
        assert_eq!(outcomes.len(), 4);
        let baseline = &outcomes[0].report;
        assert!(baseline.cold_starts > 0);
        for (o, scenario) in outcomes[1..].iter().zip(scenarios) {
            // No policy may make cold starts worse, and requests are
            // conserved across scenarios.
            assert_eq!(o.policy, scenario.name());
            assert!(o.report.cold_starts <= baseline.cold_starts);
            assert_eq!(o.report.requests, baseline.requests);
            // The predictive policies that know the timer schedules must
            // deliver a strict reduction (demand-only pre-warming cannot
            // anticipate slow timers, so it is only required not to regress).
            if scenario != Scenario::DemandPrewarm {
                assert!(o.report.cold_starts < baseline.cold_starts, "{}", o.policy);
                assert!(o.cold_start_reduction > 0.0);
                assert!(o.report.prewarmed_pods > 0);
            }
        }
    }

    #[test]
    fn peak_shaving_delays_async_requests_without_losing_any() {
        let outcomes = outcomes(tiny_workload(1, 5), &[Scenario::PeakShaving]);
        let baseline = &outcomes[0];
        let shaved = &outcomes[1];
        assert_eq!(shaved.report.requests, baseline.report.requests);
        assert!(
            shaved.report.delayed_requests > 0,
            "no requests were shaved"
        );
        assert!(shaved.report.total_admission_delay_s > 0.0);
    }
}
