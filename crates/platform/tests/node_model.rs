//! Node-model invariants: deterministic node/cache state and exact
//! per-component cold-start attribution.
//!
//! Two contracts from the node layer's design (see `faas_platform::node` and
//! ARCHITECTURE.md):
//!
//! 1. With the node model enabled — any placement policy, any scenario
//!    preset — two runs of one spec over one stream give the same report
//!    and trace: placement, cache hits, and pull contention are all
//!    epoch-quantized functions of seeded state.
//! 2. The per-component attribution block is exact: the integer component
//!    sums in `SimReport.cold_components` always equal the independently
//!    accumulated `cold_us_total`, and every traced cold-start record's
//!    components sum to its total, mirroring the `fntrace::synth` invariant.

use faas_platform::{
    NodeModelConfig, NodeScenario, PlacementPolicy, PlatformConfig, SimReport, SimulationSpec,
};
use faas_workload::population::PopulationConfig;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::stream::StreamedWorkload;
use fntrace::RegionTrace;
use proptest::prelude::*;

fn streamed_workload(seed: u64, min_functions: usize) -> StreamedWorkload {
    StreamedWorkload::generate(
        &RegionProfile::paper_region(2).expect("paper region 2 exists"),
        Calibration {
            duration_days: 1,
            ..Calibration::default()
        },
        &PopulationConfig {
            function_scale: 0.002,
            volume_scale: 2.0e-6,
            max_requests_per_day: 2_000.0,
            min_functions,
        },
        seed,
    )
}

/// Components must sum exactly — in the report and in every trace record.
fn assert_components_exact(report: &SimReport, trace: &Option<RegionTrace>) {
    assert_eq!(
        report.cold_components.total_us(),
        report.cold_us_total,
        "component totals must sum exactly to the charged total"
    );
    if let Some(trace) = trace {
        let mut sum = 0u64;
        for cs in trace.cold_starts.records() {
            assert_eq!(cs.component_sum_us(), cs.cold_start_us);
            sum += cs.cold_start_us;
        }
        // Traced cold starts are exactly the charged (non-prewarmed) ones.
        assert_eq!(sum, report.cold_us_total);
        assert_eq!(trace.cold_starts.len() as u64, report.cold_starts);
    }
    for f in &report.per_function {
        assert!(f.components.total_us() <= report.cold_us_total);
    }
}

/// Runs one engine twice over the same stream: the report and trace must
/// repeat exactly, attribute components exactly, and show layer traffic.
fn assert_node_run_exact(spec: &SimulationSpec, streamed: &StreamedWorkload) {
    let header = streamed.header();
    let (report, trace) = spec.run_streamed(header, streamed.stream());
    assert_components_exact(&report, &trace);
    assert!(report.layer_pulls > 0, "the node model must pull layers");
    let (again, again_trace) = spec.run_streamed(header, streamed.stream());
    assert_eq!(report, again, "the same spec and stream gave two reports");
    assert_eq!(
        trace, again_trace,
        "the same spec and stream gave two traces"
    );
}

#[test]
fn every_placement_policy_runs_exactly() {
    for (i, placement) in PlacementPolicy::ALL.into_iter().enumerate() {
        let streamed = streamed_workload(21 + i as u64, 14);
        let config = PlatformConfig {
            node: Some(NodeModelConfig {
                placement,
                ..NodeModelConfig::default()
            }),
            ..PlatformConfig::default()
        };
        let spec = SimulationSpec::new()
            .with_seed(31 + i as u64)
            .with_config(config);
        assert_node_run_exact(&spec, &streamed);
    }
}

#[test]
fn every_node_scenario_runs_exactly() {
    for (i, scenario) in NodeScenario::ALL.into_iter().enumerate() {
        let streamed = streamed_workload(41 + i as u64, 12);
        let config = scenario.platform(&PlatformConfig::default());
        let spec = SimulationSpec::new()
            .with_seed(51 + i as u64)
            .with_config(config);
        assert_node_run_exact(&spec, &streamed);
    }
}

#[test]
fn rolling_deploy_in_horizon_runs_exactly() {
    // The stock RollingDeploy preset redeploys at six hours; also pin an
    // aggressive variant whose deploy lands mid-epoch early in the run so
    // the rolling invalidation overlaps live pull traffic.
    let streamed = streamed_workload(61, 12);
    let mut node = NodeScenario::RollingDeploy.node_config();
    node.redeploy_at_ms = Some(90_000);
    let config = PlatformConfig {
        node: Some(node),
        ..PlatformConfig::default()
    };
    let spec = SimulationSpec::new().with_seed(62).with_config(config);
    assert_node_run_exact(&spec, &streamed);
}

#[test]
fn short_epochs_with_node_contention_stay_invariant() {
    let streamed = streamed_workload(63, 10);
    // Tiny caches plus 5-second epochs: pressure and cache churn settle at
    // every boundary, maximising the chances of catching an order-dependent
    // settlement.
    let mut node = NodeScenario::CacheColdFailover.node_config();
    node.classes_per_cluster[0].0.cache_layers = 2;
    let config = PlatformConfig {
        epoch_ms: 5_000,
        node: Some(node),
        ..PlatformConfig::default()
    };
    let spec = SimulationSpec::new().with_seed(64).with_config(config);
    assert_node_run_exact(&spec, &streamed);
}

#[test]
fn node_model_reports_layer_traffic_and_is_off_by_default() {
    let streamed = streamed_workload(65, 14);
    let header = streamed.header();

    let off = SimulationSpec::new().with_seed(66);
    let (off_report, _) = off.run_streamed(header, streamed.stream());
    assert_eq!(off_report.layer_pulls, 0);
    assert_eq!(off_report.layer_cache_hits, 0);
    assert_components_exact(&off_report, &None);

    let on = SimulationSpec::new()
        .with_seed(66)
        .with_config(NodeScenario::CacheColdFailover.platform(&PlatformConfig::default()));
    let (on_report, _) = on.run_streamed(header, streamed.stream());
    // The generated population always contains dependency-deploying
    // functions, so an enabled node model must observe layer traffic.
    assert!(on_report.layer_pulls > 0, "expected layer pulls");
    assert!(on_report.layer_cache_hits > 0, "expected cache hits");
    // Same seed, same workload: only the dependency component may differ
    // from the model being on, never the request counts.
    assert_eq!(on_report.requests, off_report.requests);
}

proptest! {
    // Mirror the `fntrace::synth` components-sum invariant at the report
    // level: across random seeds, populations, and node-model settings, the
    // summed per-component attribution equals the independently summed
    // cold-start total, exactly.
    #[test]
    fn components_always_sum_exactly_to_total(
        seed in 0u64..64,
        min_functions in 6usize..16,
        scenario in 0usize..4,
    ) {
        let streamed = streamed_workload(seed, min_functions);
        let node = match scenario {
            0 => None,
            i => Some(NodeScenario::ALL[i - 1].node_config()),
        };
        let config = PlatformConfig { node, ..PlatformConfig::default() };
        let spec = SimulationSpec::new()
            .with_seed(seed.wrapping_add(7))
            .with_config(config);
        let (report, trace) = spec.run_streamed(streamed.header(), streamed.stream());
        prop_assert_eq!(report.cold_components.total_us(), report.cold_us_total);
        if let Some(trace) = trace {
            let mut sum = 0u64;
            for cs in trace.cold_starts.records() {
                prop_assert_eq!(cs.component_sum_us(), cs.cold_start_us);
                sum += cs.cold_start_us;
            }
            prop_assert_eq!(sum, report.cold_us_total);
        }
    }
}
