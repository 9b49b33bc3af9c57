//! The paper's proposed mitigations must actually move the metrics they
//! target when evaluated on the simulator / the characterized trace.

use std::sync::Arc;

use coldstarts::policies::cross_region::CrossRegionScheduler;
use coldstarts::policies::pool_prediction::PoolDemandPredictor;
use coldstarts::session::{seeds, ExperimentSession, FixedWorkloadSource};
use coldstarts::{Scenario, ScenarioOutcome};
use faas_workload::population::PopulationConfig;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::{SyntheticTraceBuilder, TraceScale, WorkloadSpec};
use fntrace::RegionId;

fn calibration(days: u32) -> Calibration {
    Calibration {
        duration_days: days,
        ..Calibration::default()
    }
}

fn region2_workload(seed: u64) -> WorkloadSpec {
    WorkloadSpec::generate(
        &RegionProfile::r2(),
        calibration(1),
        &PopulationConfig {
            function_scale: 0.004,
            volume_scale: 3.0e-6,
            max_requests_per_day: 2_000.0,
            min_functions: 30,
        },
        seed,
    )
}

/// The baseline's and each scenario's outcome over `workload`, baseline first.
fn outcomes(workload: WorkloadSpec, scenarios: &[Scenario]) -> Vec<ScenarioOutcome> {
    ExperimentSession::new()
        .scenarios(&[Scenario::Baseline])
        .scenarios(scenarios)
        .source(FixedWorkloadSource::new("region2", Arc::new(workload)))
        .run()
        .outcomes(0, seeds::DEFAULT_SEED)
        .expect("the baseline is declared")
}

#[test]
fn timer_prewarm_and_combined_policies_cut_cold_starts() {
    let outcomes = outcomes(
        region2_workload(41),
        &[
            Scenario::TimerPrewarm,
            Scenario::TimerAwareKeepAlive,
            Scenario::Combined,
        ],
    );
    let baseline = &outcomes[0].report;
    assert!(baseline.cold_starts > 50);
    let find = |s: Scenario| {
        outcomes
            .iter()
            .find(|o| o.policy == s.name())
            .unwrap_or_else(|| panic!("missing scenario {s:?}"))
    };
    // Timer pre-warming removes a large share of timer-driven cold starts.
    let prewarm = find(Scenario::TimerPrewarm);
    assert!(
        prewarm.cold_start_reduction > 0.1,
        "timer prewarm reduction {}",
        prewarm.cold_start_reduction
    );
    assert!(prewarm.report.prewarmed_pods > 0);
    // The combined configuration is at least as good as pre-warming alone on
    // user-visible cold starts.
    let combined = find(Scenario::Combined);
    assert!(combined.report.cold_starts <= prewarm.report.cold_starts);
    // No scenario loses requests.
    for o in &outcomes {
        assert_eq!(o.report.requests, baseline.requests);
    }
}

#[test]
fn adaptive_keep_alive_trades_idle_time_for_cold_starts() {
    let outcomes = outcomes(region2_workload(43), &[Scenario::AdaptiveKeepAlive]);
    let baseline = &outcomes[0];
    let adaptive = &outcomes[1];
    // Adaptive keep-alive retains pods across the gaps the fixed minute
    // misses, so cold starts must not increase.
    assert!(adaptive.report.cold_starts <= baseline.report.cold_starts);
    assert_eq!(adaptive.report.requests, baseline.report.requests);
}

#[test]
fn peak_shaving_defers_async_work_and_nothing_else() {
    let outcomes = outcomes(region2_workload(47), &[Scenario::PeakShaving]);
    let baseline = &outcomes[0].report;
    let shaved = &outcomes[1].report;
    assert_eq!(shaved.requests, baseline.requests);
    assert!(shaved.delayed_requests > 0);
    // Only a minority of the workload is deferred, and the added delay stays
    // within the configured budget per deferred request.
    assert!(shaved.delayed_requests < shaved.requests / 2);
    let mean_delay = shaved.total_admission_delay_s / shaved.delayed_requests as f64;
    assert!(mean_delay <= 180.0 + 1e-9, "mean delay {mean_delay}");
}

#[test]
fn pool_prediction_and_cross_region_plans_improve_their_targets() {
    let dataset = SyntheticTraceBuilder::new()
        .with_regions(vec![
            RegionProfile::r1(),
            RegionProfile::r2(),
            RegionProfile::r3(),
        ])
        .with_scale(TraceScale::tiny())
        .with_calibration(calibration(2))
        .with_seed(53)
        .build();

    // Pool prediction: the hour-of-day plan covers at least as much demand as
    // a small fixed pool while reserving fewer pods than a huge fixed pool.
    let r2 = dataset.region(RegionId::new(2)).unwrap();
    let predictor = PoolDemandPredictor::default();
    let plan = predictor.recommend(&r2.cold_starts, &r2.functions);
    let fixed_small = PoolDemandPredictor::replay_fixed(&r2.cold_starts, &r2.functions, 2);
    let fixed_huge = PoolDemandPredictor::replay_fixed(&r2.cold_starts, &r2.functions, 1_000);
    let predicted = PoolDemandPredictor::replay_plan(&r2.cold_starts, &r2.functions, &plan);
    assert!(predicted.hit_rate() >= fixed_small.hit_rate());
    assert!(predicted.hit_rate() > 0.5);
    assert!(predicted.mean_reserved_pods < fixed_huge.mean_reserved_pods);

    // Cross-region migration from the congested region to the fast one
    // reduces estimated cold-start delay.
    let r1 = dataset.region(RegionId::new(1)).unwrap();
    let r3 = dataset.region(RegionId::new(3)).unwrap();
    let plan = CrossRegionScheduler::default().plan(r1, r3);
    assert!(!plan.is_empty());
    assert!(plan.estimated_delay_change_s() < 0.0);
}
