//! Evaluate the paper's Section-5 mitigation strategies against the
//! production baseline: pre-warming (timers, demand, workflow chains),
//! adaptive / timer-aware keep-alive, peak shaving, resource-pool prediction,
//! and cross-region migration.
//!
//! The ablation is declared once as a `coldstarts::session::ExperimentSession`
//! — all eight scenario policies × one workload source per paper region —
//! and every cell runs concurrently through the session's deterministic
//! merge.
//!
//! ```text
//! cargo run --release --example policy_comparison
//! ```

use std::sync::Arc;
use std::time::Instant;

use coldstarts::policies::cross_region::CrossRegionScheduler;
use coldstarts::policies::pool_prediction::PoolDemandPredictor;
use coldstarts::session::{ExperimentSession, RegionSource, SessionReport, WorkloadSource};
use coldstarts::Scenario;
use faas_workload::population::PopulationConfig;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::{SyntheticTraceBuilder, TraceScale};
use fntrace::RegionId;

/// Prints one region's ablation table: per-scenario cold starts and the
/// reductions relative to that region's baseline cell.
fn print_region_table(report: &SessionReport, source_index: usize, seed: u64) {
    let Some(outcomes) = report.outcomes(source_index, seed) else {
        return;
    };
    println!(
        "{:<24} {:>12} {:>10} {:>14} {:>12}",
        "scenario", "cold starts", "reduction", "mean added (s)", "idle change"
    );
    for o in &outcomes {
        println!(
            "{:<24} {:>12} {:>9.1}% {:>14.4} {:>11.1}%",
            o.policy,
            o.report.cold_starts,
            100.0 * o.cold_start_reduction,
            o.report.mean_added_latency_s,
            100.0 * o.idle_time_change,
        );
    }
}

fn main() {
    let calibration = Calibration {
        duration_days: 3,
        ..Calibration::default()
    };
    let population = PopulationConfig {
        function_scale: 0.008,
        volume_scale: 8.0e-6,
        max_requests_per_day: 5_000.0,
        min_functions: 40,
    };
    let regions: Vec<RegionProfile> = (1..=5)
        .map(|i| RegionProfile::paper_region(i).expect("regions 1..=5 exist"))
        .collect();
    let seed = 11;

    // Declarative multi-region ablation: 8 scenario policies × 5 region
    // sources × 1 seed, executed concurrently (one worker per core).
    let session = ExperimentSession::new()
        .scenarios(&Scenario::ALL)
        .source_arcs(
            RegionSource::multi(&regions, calibration, &population)
                .into_iter()
                .map(|s| Arc::new(s) as Arc<dyn WorkloadSource>),
        )
        .with_seeds(vec![seed]);
    println!(
        "policy ablation session: {} policies x {} sources x 1 seed = {} cells ({} days each)",
        session.policies.len(),
        session.sources.len(),
        session.cell_count(),
        calibration.duration_days
    );
    let start = Instant::now();
    let report = session.run();
    println!(
        "ran {} cells in {:.2?}\n",
        report.cells.len(),
        start.elapsed()
    );

    // Per-region ablation tables, relative to each region's baseline cell.
    for (i, source) in report.sources.iter().enumerate() {
        println!("{}:", source.label);
        print_region_table(&report, i, seed);
        println!();
    }

    // Scenario comparison for the paper's region of interest.
    let combined_index = Scenario::ALL
        .iter()
        .position(|&s| s == Scenario::Combined)
        .expect("combined is declared");
    if let Some(cell) = report.cell(combined_index, 1, seed) {
        println!(
            "region 2 combined policies: {} cold starts over {} requests ({:.2}% cold)",
            cell.report.cold_starts,
            cell.report.requests,
            100.0 * cell.report.cold_start_rate()
        );
    }

    // Trace-level planners: pool prediction and cross-region migration.
    let dataset = SyntheticTraceBuilder::new()
        .with_regions(vec![
            RegionProfile::r1(),
            RegionProfile::r2(),
            RegionProfile::r3(),
        ])
        .with_scale(TraceScale::tiny())
        .with_calibration(calibration)
        .with_seed(seed)
        .build();

    if let Some(r2) = dataset.region(RegionId::new(2)) {
        let predictor = PoolDemandPredictor::default();
        let plan = predictor.recommend(&r2.cold_starts, &r2.functions);
        let fixed = PoolDemandPredictor::replay_fixed(&r2.cold_starts, &r2.functions, 8);
        let predicted = PoolDemandPredictor::replay_plan(&r2.cold_starts, &r2.functions, &plan);
        println!(
            "\nresource-pool prediction (R2): fixed pools of 8 cover {:.1}% of demand with {:.0} reserved pods;\n\
             the hour-of-day plan covers {:.1}% with {:.0} reserved pods",
            100.0 * fixed.hit_rate(),
            fixed.mean_reserved_pods,
            100.0 * predicted.hit_rate(),
            predicted.mean_reserved_pods
        );
    }

    if let (Some(r1), Some(r3)) = (
        dataset.region(RegionId::new(1)),
        dataset.region(RegionId::new(3)),
    ) {
        let plan = CrossRegionScheduler::default().plan(r1, r3);
        println!(
            "\ncross-region scheduling: migrating {} asynchronous functions from R1 to R3 changes total\n\
             cold-start delay by an estimated {:.1} s over the trace (negative is an improvement)",
            plan.len(),
            plan.estimated_delay_change_s()
        );
    }
}
