//! The experiment grid: scenarios × calibrated regions × seeds in one session.

mod tests {
    use std::sync::Arc;

    use faas_workload::population::PopulationConfig;
    use faas_workload::profile::{Calibration, RegionProfile};

    use crate::session::{seeds, ExperimentSession, RegionSource, WorkloadSource};
    use crate::Scenario;

    fn regions(profiles: &[RegionProfile]) -> impl Iterator<Item = Arc<dyn WorkloadSource>> {
        let calibration = Calibration {
            duration_days: 1,
            ..Calibration::default()
        };
        let population = PopulationConfig {
            function_scale: 0.002,
            volume_scale: 2.0e-6,
            max_requests_per_day: 2_000.0,
            min_functions: 15,
        };
        RegionSource::multi(profiles, calibration, &population)
            .into_iter()
            .map(|s| Arc::new(s) as Arc<dyn WorkloadSource>)
    }

    fn tiny_grid() -> ExperimentSession {
        ExperimentSession::new()
            .scenarios(&[Scenario::Baseline, Scenario::TimerPrewarm])
            .source_arcs(regions(&[RegionProfile::r2(), RegionProfile::r3()]))
            .with_seeds(vec![3, 4])
            // Real worker threads even on single-core machines, so the
            // parallel path is exercised rather than the n==1 fast path.
            .with_threads(4)
    }

    #[test]
    fn grid_runs_every_declared_cell_in_order() {
        let grid = tiny_grid();
        assert_eq!(grid.cell_count(), 8);
        let result = grid.run();
        assert_eq!(result.cells.len(), 8);
        // Scenario-major, then region, then seed.
        let coords: Vec<(&str, u16, u64)> = result
            .cells
            .iter()
            .map(|c| (c.policy.as_str(), c.region.index(), c.seed))
            .collect();
        assert_eq!(coords[0], ("baseline", 2, 3));
        assert_eq!(coords[1], ("baseline", 2, 4));
        assert_eq!(coords[2], ("baseline", 3, 3));
        assert_eq!(coords[4], ("timer-prewarm", 2, 3));
        for c in &result.cells {
            assert!(c.report.requests > 0, "empty cell {}", c.policy);
        }
    }

    #[test]
    fn parallel_and_sequential_execution_agree() {
        let grid = tiny_grid();
        let parallel = grid.run();
        let sequential = grid.with_threads(1).run();
        assert_eq!(parallel, sequential);
        assert_eq!(parallel.render(), sequential.render());
    }

    #[test]
    fn outcomes_are_relative_to_the_column_baseline() {
        let result = tiny_grid().run();
        let outcomes = result.outcomes(0, 3).expect("baseline present");
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].policy, "baseline");
        assert_eq!(outcomes[0].cold_start_reduction, 0.0);
        assert_eq!(outcomes[0].added_latency_reduction, 0.0);
        assert_eq!(outcomes[0].idle_time_change, 0.0);
        let prewarm = &outcomes[1];
        assert_eq!(prewarm.policy, "timer-prewarm");
        assert_eq!(prewarm.report, result.cell(1, 0, 3).unwrap().report);
        assert!(prewarm.report.cold_starts <= outcomes[0].report.cold_starts);
        // No such column, and no baseline to compare with.
        assert!(result.outcomes(9, 3).is_none());
        let without_baseline = ExperimentSession::new()
            .scenarios(&[Scenario::TimerPrewarm])
            .source_arcs(regions(&[RegionProfile::r3()]))
            .run();
        assert!(without_baseline.outcomes(0, seeds::DEFAULT_SEED).is_none());
    }
}
