//! Run the discrete-event platform simulator on a generated Region-2
//! workload, then analyse the *simulated* trace with the same pipeline used
//! for synthetic traces — demonstrating that the simulator emits the Table 1
//! schema end to end — compare two keep-alive settings, and replay the same
//! workload through the streaming path (`run_streamed`) to show the lazy
//! and materialised pipelines produce identical reports.
//!
//! ```text
//! cargo run --release --example simulate_platform
//! ```

use std::sync::Arc;

use coldstarts::analysis::distributions::DistributionAnalysis;
use coldstarts::sweep::{ParamValue, PolicyFamily, SweepConfig};
use faas_platform::{PlatformConfig, SimulationSpec};
use faas_workload::population::PopulationConfig;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::{StreamedWorkload, WorkloadSpec};
use fntrace::Dataset;

fn main() {
    let calibration = Calibration {
        duration_days: 3,
        ..Calibration::default()
    };
    let workload = WorkloadSpec::generate(
        &RegionProfile::r2(),
        calibration,
        &PopulationConfig {
            function_scale: 0.01,
            volume_scale: 1.0e-5,
            max_requests_per_day: 8_000.0,
            min_functions: 40,
        },
        7,
    );
    println!(
        "workload: {} invocation events over {} days, {} functions\n",
        workload.len(),
        calibration.duration_days,
        workload.functions.len()
    );

    // Baseline: the production one-minute keep-alive.
    let (baseline, trace) = SimulationSpec::new().with_seed(3).run(&workload);
    println!("baseline (60 s keep-alive):\n{}\n", baseline.render());

    // Ten-minute keep-alive: fewer cold starts, more idle pod time. The
    // sweep's keep-alive family names this point
    // `keepalive/duration_ms=600000` (its mode defaults to fixed).
    let spec = SimulationSpec::new()
        .with_seed(3)
        .with_config(PlatformConfig {
            record_trace: false,
            ..PlatformConfig::default()
        });
    let ten_minutes = SweepConfig::new(
        PolicyFamily::KeepAlive,
        vec![("duration_ms", ParamValue::U64(600_000))],
    );
    let (long_ka, _) = spec
        .clone()
        .with_policies(Arc::new(ten_minutes))
        .run(&workload);
    println!("10-minute keep-alive:\n{}\n", long_ka.render());
    println!(
        "cold starts {} -> {} ({:+.1}%), idle pod time {:.0}s -> {:.0}s ({:+.1}%)\n",
        baseline.cold_starts,
        long_ka.cold_starts,
        100.0 * (long_ka.cold_starts as f64 / baseline.cold_starts.max(1) as f64 - 1.0),
        baseline.idle_pod_time_s,
        long_ka.idle_pod_time_s,
        100.0 * (long_ka.idle_pod_time_s / baseline.idle_pod_time_s.max(1e-9) - 1.0),
    );

    // The streaming path: the same workload generated lazily (per-function
    // arrival streams merged by a binary heap) and consumed event by event —
    // no event vector, same report. This is what multi-day horizons use.
    let streamed = StreamedWorkload::generate(
        &RegionProfile::r2(),
        calibration,
        &PopulationConfig {
            function_scale: 0.01,
            volume_scale: 1.0e-5,
            max_requests_per_day: 8_000.0,
            min_functions: 40,
        },
        7,
    );
    let (eager, _) = spec.run(&workload);
    let (lazy, _) = spec.run_streamed(streamed.header(), streamed.stream());
    assert_eq!(eager, lazy, "streamed and materialised runs are identical");
    println!(
        "streamed replay: {} events consumed lazily, report identical to the eager run\n",
        lazy.events_processed
    );

    // The simulator's trace feeds straight into the analysis pipeline.
    let trace = trace.expect("trace recording enabled by default");
    let mut dataset = Dataset::new();
    dataset.insert_region(trace);
    let distributions = DistributionAnalysis::compute(&dataset);
    let fit = &distributions.overall_fit;
    println!(
        "simulated cold-start durations: LogNormal fit mean {:.2}s std {:.2}s (KS {:.3}) over {} cold starts",
        fit.fitted_mean, fit.fitted_std, fit.ks_distance, fit.sample_count
    );
}
