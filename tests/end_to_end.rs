//! Cross-crate integration: synthesize a trace, round-trip it through the
//! CSV layer, characterize it, simulate the same population on the platform
//! simulator, and check that the two paths stay consistent.

use coldstarts::analysis::distributions::DistributionAnalysis;
use coldstarts::pipeline::CharacterizationPipeline;
use faas_platform::SimulationSpec;
use faas_workload::population::PopulationConfig;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::{SyntheticTraceBuilder, TraceScale, WorkloadSpec};
use fntrace::{Dataset, RegionId, RegionTrace};

fn calibration(days: u32) -> Calibration {
    Calibration {
        duration_days: days,
        ..Calibration::default()
    }
}

#[test]
fn synthesize_analyze_and_roundtrip_csv() {
    let calibration = calibration(2);
    let dataset = SyntheticTraceBuilder::new()
        .with_regions(vec![RegionProfile::r2()])
        .with_scale(TraceScale::tiny())
        .with_calibration(calibration)
        .with_seed(100)
        .build();
    assert!(dataset.total_requests() > 1_000);
    assert!(dataset.total_cold_starts() > 100);

    // CSV round trip in the public data-release layout.
    let dir = std::env::temp_dir().join("coldstarts_end_to_end_csv");
    std::fs::remove_dir_all(&dir).ok();
    dataset.write_csv_dir(&dir).expect("write CSVs");
    let reloaded = RegionTrace::read_csv_dir(RegionId::new(2), &dir).expect("read CSVs");
    let original = dataset.region(RegionId::new(2)).unwrap();
    assert_eq!(reloaded.requests.len(), original.requests.len());
    assert_eq!(reloaded.cold_starts.len(), original.cold_starts.len());
    assert_eq!(reloaded.functions.len(), original.functions.len());
    std::fs::remove_dir_all(&dir).ok();

    // The characterization of the reloaded region matches the original.
    let mut reloaded_dataset = Dataset::new();
    reloaded_dataset.insert_region(reloaded);
    let original_fit = DistributionAnalysis::compute(&dataset).overall_fit;
    let reloaded_fit = DistributionAnalysis::compute(&reloaded_dataset).overall_fit;
    assert_eq!(original_fit.sample_count, reloaded_fit.sample_count);
    assert!((original_fit.fitted_mean - reloaded_fit.fitted_mean).abs() < 1e-9);

    // Full pipeline runs and produces every section.
    let report = CharacterizationPipeline::new()
        .with_calibration(calibration)
        .with_region_of_interest(RegionId::new(2))
        .analyze(&dataset);
    assert!(report.composition.is_some());
    assert!(report.attribution.is_some());
    assert!(report.utility.is_some());
    assert!(!report.render().is_empty());
}

#[test]
fn simulated_trace_feeds_the_same_analysis() {
    let calibration = calibration(1);
    let workload = WorkloadSpec::generate(
        &RegionProfile::r2(),
        calibration,
        &PopulationConfig {
            function_scale: 0.003,
            volume_scale: 3.0e-6,
            max_requests_per_day: 2_000.0,
            min_functions: 25,
        },
        200,
    );
    let (report, trace) = SimulationSpec::new().with_seed(5).run(&workload);
    let trace = trace.expect("trace recorded");
    assert_eq!(report.requests, workload.len() as u64);
    assert_eq!(trace.requests.len() as u64, report.requests);
    assert_eq!(trace.cold_starts.len() as u64, report.cold_starts);

    let mut dataset = Dataset::new();
    dataset.insert_region(trace);
    let characterization = CharacterizationPipeline::new()
        .with_calibration(calibration)
        .with_region_of_interest(RegionId::new(2))
        .analyze(&dataset);
    // The simulator's cold starts are analysable exactly like synthetic ones.
    let fit = characterization.distributions.overall_fit;
    assert_eq!(fit.sample_count, report.cold_starts);
    assert!(fit.fitted_mean > 0.0);
    let attribution = characterization.attribution.expect("region present");
    for point in &attribution.per_function {
        assert!(point.cold_starts <= point.requests);
    }
}

#[test]
fn synthetic_and_simulated_cold_start_scales_agree() {
    // The direct synthesizer and the event-driven simulator implement the
    // same keep-alive mechanism, so for the same population their cold-start
    // counts should be within a factor of two of each other.
    let calibration = calibration(1);
    let builder = SyntheticTraceBuilder::new()
        .with_regions(vec![RegionProfile::r2()])
        .with_scale(TraceScale::tiny())
        .with_calibration(calibration)
        .with_seed(300);
    let synthetic = builder.build();
    let synthetic_region = synthetic.region(RegionId::new(2)).unwrap();

    let population = builder.build_population(&RegionProfile::r2());
    let mut rng = faas_stats::rng::Xoshiro256pp::seed_from_u64(301);
    let workload = WorkloadSpec::from_population(&population, calibration, &mut rng);
    let (sim_report, _) = SimulationSpec::new().with_seed(300).run(&workload);

    let synthetic_rate =
        synthetic_region.cold_starts.len() as f64 / synthetic_region.requests.len() as f64;
    let simulated_rate = sim_report.cold_start_rate();
    assert!(synthetic_rate > 0.0 && simulated_rate > 0.0);
    let ratio = synthetic_rate / simulated_rate;
    assert!(
        (0.4..2.5).contains(&ratio),
        "cold-start rates diverge: synthetic {synthetic_rate:.3} vs simulated {simulated_rate:.3}"
    );
}
