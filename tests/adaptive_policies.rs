//! Determinism and behavioural properties of the adaptive (autonomic)
//! policy layer.
//!
//! The three adaptive policies — quantile keep-alive, forecast-driven
//! pre-warming, and the hybrid per-function switcher — are built fresh for
//! every run, so two runs of one spec over one stream must give the same
//! report and trace, with cold-start components that sum exactly. This
//! suite pins that for each mode, driving the policies through the same
//! [`SweepConfig`] factory the parameter sweep uses, and adds a
//! property-based sweep over seeds, populations, and modes (pinned in CI
//! with a fixed `PROPTEST_CASES` budget).

use std::sync::Arc;

use coldstarts::sweep::{ParamValue, PolicyFamily, SweepConfig};
use faas_platform::SimulationSpec;
use faas_workload::population::PopulationConfig;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::stream::StreamedWorkload;
use proptest::prelude::*;

const MODES: [&str; 3] = ["quantile", "forecast", "hybrid"];

/// The sweep point for one adaptive mode — the exact factory a sweep cell
/// would use, so the determinism pinned here is the determinism the
/// committed BENCH_sweep.json numbers rely on.
fn adaptive_point(mode: &'static str) -> SweepConfig {
    SweepConfig::new(
        PolicyFamily::Adaptive,
        vec![
            ("mode", ParamValue::Str(mode)),
            ("quantile_pct", ParamValue::U64(90)),
            ("hysteresis_pct", ParamValue::U64(20)),
            ("horizon_ticks", ParamValue::U64(2)),
        ],
    )
}

fn streamed_workload(seed: u64, min_functions: usize) -> StreamedWorkload {
    StreamedWorkload::generate(
        &RegionProfile::r2(),
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

/// Runs one engine twice over the same stream: the report and trace must
/// repeat exactly, and the charged cold-start components must sum exactly
/// to the total, in the report and in every traced record.
fn assert_run_exact(spec: &SimulationSpec, streamed: &StreamedWorkload) {
    let header = streamed.header();
    let (report, trace) = spec.run_streamed(header, streamed.stream());
    assert!(report.requests > 0, "workload must exercise the run");
    assert_eq!(report.cold_components.total_us(), report.cold_us_total);
    let traced = trace.as_ref().expect("trace recorded by default");
    let mut sum = 0u64;
    for cs in traced.cold_starts.records() {
        assert_eq!(cs.component_sum_us(), cs.cold_start_us);
        sum += cs.cold_start_us;
    }
    assert_eq!(sum, report.cold_us_total);
    let (again, again_trace) = spec.run_streamed(header, streamed.stream());
    assert_eq!(report, again, "the same spec and stream gave two reports");
    assert_eq!(
        trace, again_trace,
        "the same spec and stream gave two traces"
    );
}

#[test]
fn quantile_keepalive_runs_exactly() {
    let streamed = streamed_workload(21, 16);
    let spec = SimulationSpec::new()
        .with_seed(3)
        .with_policies(Arc::new(adaptive_point("quantile")));
    assert_run_exact(&spec, &streamed);
}

#[test]
fn forecast_prewarm_runs_exactly() {
    let streamed = streamed_workload(22, 16);
    let spec = SimulationSpec::new()
        .with_seed(4)
        .with_policies(Arc::new(adaptive_point("forecast")));
    assert_run_exact(&spec, &streamed);
}

#[test]
fn hybrid_switcher_runs_exactly() {
    let streamed = streamed_workload(23, 16);
    let spec = SimulationSpec::new()
        .with_seed(5)
        .with_policies(Arc::new(adaptive_point("hybrid")));
    assert_run_exact(&spec, &streamed);
}

#[test]
fn adaptive_modes_change_outcomes_not_workload() {
    // The three modes must conserve the request stream (policies shape
    // pods, not arrivals) while actually differing in cold-start behaviour
    // somewhere — otherwise the sweep's adaptive axes are dead knobs.
    let streamed = streamed_workload(24, 20);
    let header = streamed.header();
    let mut requests = Vec::new();
    let mut outcomes = Vec::new();
    for mode in MODES {
        let spec = SimulationSpec::new()
            .with_seed(6)
            .with_policies(Arc::new(adaptive_point(mode)));
        let (report, _) = spec.run_streamed(header, streamed.stream());
        requests.push(report.requests);
        outcomes.push((report.cold_starts, report.idle_pod_time_s.to_bits()));
    }
    assert!(requests.windows(2).all(|w| w[0] == w[1]));
    assert!(
        outcomes.windows(2).any(|w| w[0] != w[1]),
        "all adaptive modes produced identical outcomes: {outcomes:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn adaptive_policies_run_exactly(
        seed in 0u64..120,
        min_functions in 6usize..18,
        mode_choice in 0usize..3,
    ) {
        let streamed = streamed_workload(seed, min_functions);
        let spec = SimulationSpec::new()
            .with_seed(seed.wrapping_add(7))
            .with_policies(Arc::new(adaptive_point(MODES[mode_choice])));
        assert_run_exact(&spec, &streamed);
    }
}
