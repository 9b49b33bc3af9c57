//! A scenarios × regions × seeds session, the paper's ablation, is a pure
//! function of its declaration: every thread count gives identical cells,
//! each equal to the same simulation run on its own.

use std::sync::Arc;

use coldstarts::session::{ExperimentSession, RegionSource, WorkloadSource};
use coldstarts::Scenario;
use faas_platform::SimulationSpec;
use faas_workload::population::PopulationConfig;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::WorkloadSpec;

fn calibration() -> Calibration {
    Calibration {
        duration_days: 1,
        ..Calibration::default()
    }
}

fn population() -> PopulationConfig {
    PopulationConfig {
        function_scale: 0.002,
        volume_scale: 2.0e-6,
        max_requests_per_day: 2_000.0,
        min_functions: 15,
    }
}

fn grid(scenarios: &[Scenario], regions: &[RegionProfile]) -> ExperimentSession {
    ExperimentSession::new().scenarios(scenarios).source_arcs(
        RegionSource::multi(regions, calibration(), &population())
            .into_iter()
            .map(|s| Arc::new(s) as Arc<dyn WorkloadSource>),
    )
}

fn tiny_grid() -> ExperimentSession {
    grid(
        &[
            Scenario::Baseline,
            Scenario::AdaptiveKeepAlive,
            Scenario::TimerPrewarm,
            Scenario::PeakShaving,
            Scenario::Combined,
        ],
        &[RegionProfile::r2(), RegionProfile::r3()],
    )
    .with_seeds(vec![31, 32])
    // Force real worker threads even on single-core CI machines so the
    // parallel path (cross-thread scheduling + merge) is exercised.
    .with_threads(4)
}

#[test]
fn parallel_grid_matches_sequential_grid_cell_by_cell() {
    let grid = tiny_grid();
    assert_eq!(grid.cell_count(), 20);

    let parallel = grid.run();
    let sequential = grid.clone().with_threads(1).run();

    assert_eq!(parallel.cells.len(), grid.cell_count());
    assert_eq!(sequential.cells.len(), grid.cell_count());
    // Cell-by-cell: same coordinates in the same order, identical reports.
    for (p, s) in parallel.cells.iter().zip(&sequential.cells) {
        assert_eq!(
            p, s,
            "cell ({}, {}, seed {}) diverged",
            p.policy, p.source, p.seed
        );
    }
    assert_eq!(parallel, sequential);
    // Rendered output is byte-identical.
    assert_eq!(parallel.render(), sequential.render());
}

#[test]
fn parallel_grid_is_stable_across_repeated_runs() {
    let grid = tiny_grid();
    let first = grid.run();
    let second = grid.run();
    assert_eq!(first, second);
}

#[test]
fn grid_cells_match_independent_single_runs() {
    // A cell's report must depend only on its coordinates: replaying the
    // same (scenario, region, seed) through a standalone SimulationSpec
    // outside the session gives the same bytes.
    let grid = tiny_grid();
    let result = grid.run();

    for &seed in &grid.seeds {
        let workload =
            WorkloadSpec::generate(&RegionProfile::r3(), calibration(), &population(), seed);
        for (policy_index, policy) in grid.policies.iter().enumerate() {
            let platform = policy.platform(&grid.platform);
            let (standalone, _) = SimulationSpec::new()
                .with_seed(seed)
                .with_policies(policy.factory(&platform))
                .with_config(platform)
                .run(&workload);
            let cell = result.cell(policy_index, 1, seed).expect("cell exists");
            assert_eq!(standalone, cell.report, "{} seed {seed}", policy.label());
        }
    }
}

#[test]
fn full_ablation_covers_eight_scenarios_and_five_regions() {
    let grid = grid(&Scenario::ALL, &RegionProfile::paper_regions());
    assert_eq!(grid.policies.len(), 8);
    assert_eq!(grid.sources.len(), 5);
    assert_eq!(grid.cell_count(), 40);

    let result = grid.run();
    assert_eq!(result.cells.len(), 40);
    for (source_index, region) in (1..=5u16).enumerate() {
        let label = format!("region/r{region}");
        assert_eq!(result.sources[source_index].label, label);
        // Every region's baseline column yields comparable outcomes.
        let outcomes = result.outcomes(source_index, 7).expect("baseline");
        assert_eq!(outcomes.len(), 8);
        assert_eq!(outcomes[0].cold_start_reduction, 0.0);
        for (o, scenario) in outcomes.iter().zip(Scenario::ALL) {
            assert_eq!(o.policy, scenario.name());
            assert!(o.report.requests > 0, "empty cell {}, {label}", o.policy);
            assert_eq!(o.report.requests, outcomes[0].report.requests);
        }
    }
}
