//! The epoch-quantized engine on its own: every case runs one engine twice
//! and requires the same report and trace, then checks the report's
//! conservation laws (see `faas_platform::engine` and ARCHITECTURE.md).
//!
//! The cases cover the baseline policy set, stateful policy sets that
//! exercise every shared-capacity touchpoint (pre-warm ticks, pool draws,
//! admission delays crossing epoch boundaries, adaptive keep-alive
//! histories, the lazily sorted quantile cache), and the epoch edge cases:
//! one-second epochs, an epoch longer than the whole horizon, trace
//! recording off, and pools so scarce they exhaust within an epoch.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use faas_platform::keepalive::FunctionHistory;
use faas_platform::{
    AdaptiveKeepAlive, AdmissionPolicy, FunctionView, KeepAlivePolicy, PlatformConfig,
    PlatformView, PolicyFactory, PrewarmPolicy, PrewarmRequest, SimReport, SimulationSpec,
};
use faas_workload::population::PopulationConfig;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::stream::{ArrivalStream, StreamedWorkload};
use faas_workload::WorkloadSpec;
use fntrace::{FunctionId, RegionTrace, TriggerType};
use proptest::prelude::*;

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

/// The report's conservation laws.
fn assert_laws(report: &SimReport) {
    assert_eq!(
        report.requests,
        report.warm_starts + report.cold_starts,
        "requests = warm + cold"
    );
    assert_eq!(
        report.events_processed, report.requests,
        "every arrival names a table function, so each is one request"
    );
    assert_eq!(
        report.cold_components.total_us(),
        report.cold_us_total,
        "component sums equal the charged total"
    );
    assert!(
        report.prewarmed_pods_used <= report.prewarmed_pods,
        "pre-warmed pods used <= pre-warmed pods"
    );
    assert!(
        report.idle_pod_time_s <= report.pod_lifetime_s,
        "idle {} <= lifetime {}",
        report.idle_pod_time_s,
        report.pod_lifetime_s
    );
    assert_eq!(
        report.pool_hits + report.scratch_creations,
        report.cold_starts + report.prewarmed_pods,
        "every pod comes from the pool or from scratch"
    );
}

/// Runs one engine twice over the same stream, requires the same report and
/// trace, checks the laws, and returns the run.
fn run_checked(
    spec: &SimulationSpec,
    streamed: &StreamedWorkload,
) -> (SimReport, Option<RegionTrace>) {
    let header = streamed.header();
    let (report, trace) = spec.run_streamed(header, streamed.stream());
    let (again, again_trace) = spec.run_streamed(header, streamed.stream());
    assert_eq!(report, again, "the same spec and stream gave two reports");
    assert_eq!(
        trace, again_trace,
        "the same spec and stream gave two traces"
    );
    assert!(report.requests > 0, "the workload must exercise the run");
    assert_laws(&report);
    (report, trace)
}

// ---------------------------------------------------------------------------
// Deliberately busy policy sets: every policy is stateful and per-function,
// so the cases exercise pre-warm pool draws, delayed arrivals crossing epoch
// boundaries, and keep-alive histories.
// ---------------------------------------------------------------------------

/// Pre-warms one pod for any function that saw traffic in the last interval
/// but has no warm pod — a per-function rule that fires often enough to
/// drain pools.
struct DemandPrewarm;

impl PrewarmPolicy for DemandPrewarm {
    fn prewarm(&mut self, view: &PlatformView) -> Vec<PrewarmRequest> {
        view.functions
            .iter()
            .filter(|f| f.recent_arrivals > 0 && f.warm_pods == 0)
            .map(|f| PrewarmRequest {
                function: f.function,
                count: 1,
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "test-demand-prewarm"
    }
}

/// Delays every other asynchronous arrival of each function by a
/// deterministic, per-function amount long enough to cross epoch boundaries.
struct EveryOtherDelay {
    seen: HashMap<u64, u64>,
}

impl AdmissionPolicy for EveryOtherDelay {
    fn delay_ms(&mut self, view: &FunctionView, _now_ms: u64) -> u64 {
        if view.trigger == TriggerType::ApigSync {
            return 0;
        }
        let count = self.seen.entry(view.function.raw()).or_insert(0);
        *count += 1;
        if (*count).is_multiple_of(2) {
            // Long enough to hop a 1 s epoch, short enough to land in-horizon.
            1_500 + (view.function.raw() % 7) * 400
        } else {
            0
        }
    }

    fn name(&self) -> &'static str {
        "test-every-other-delay"
    }
}

/// Keep-alive driven by the lazily sorted quantile cache with a hysteresis
/// map — the platform substrate the adaptive policy layer builds on. Reads
/// `iat_quantile_ms`/`iat_dispersion` on every decision so the sorted-cache
/// rebuild path runs, and keeps interior-mutable per-function state exactly
/// the way the core-crate quantile policy does.
struct QuantileProbeKeepAlive {
    applied: RefCell<HashMap<u64, u64>>,
}

impl KeepAlivePolicy for QuantileProbeKeepAlive {
    fn keep_alive_ms(&self, function: FunctionId, history: &FunctionHistory) -> u64 {
        let Some(q90) = history.iat_quantile_ms(0.9) else {
            return 45_000;
        };
        // Fold the dispersion in so both accessors sit on the hot path.
        let spread = history.iat_dispersion().unwrap_or(1.0).clamp(1.0, 8.0);
        let target = (((q90 as f64) * spread.sqrt()) as u64).clamp(2_000, 600_000);
        let mut applied = self.applied.borrow_mut();
        let slot = applied.entry(function.raw()).or_insert(target);
        if target.abs_diff(*slot) > *slot / 5 {
            *slot = target;
        }
        *slot
    }

    fn name(&self) -> &'static str {
        "test-quantile-probe"
    }
}

struct QuantileProbePolicies;

impl PolicyFactory for QuantileProbePolicies {
    fn keep_alive(&self, _workload: &WorkloadSpec) -> Box<dyn KeepAlivePolicy> {
        Box::new(QuantileProbeKeepAlive {
            applied: RefCell::new(HashMap::new()),
        })
    }

    fn prewarm(&self, _workload: &WorkloadSpec) -> Box<dyn PrewarmPolicy> {
        Box::new(DemandPrewarm)
    }

    fn admission(&self, _workload: &WorkloadSpec) -> Box<dyn AdmissionPolicy> {
        Box::new(EveryOtherDelay {
            seen: HashMap::new(),
        })
    }

    fn label(&self) -> &str {
        "quantile-probe-policies"
    }
}

struct BusyPolicies;

impl PolicyFactory for BusyPolicies {
    fn keep_alive(&self, _workload: &WorkloadSpec) -> Box<dyn KeepAlivePolicy> {
        Box::new(AdaptiveKeepAlive::default())
    }

    fn prewarm(&self, _workload: &WorkloadSpec) -> Box<dyn PrewarmPolicy> {
        Box::new(DemandPrewarm)
    }

    fn admission(&self, _workload: &WorkloadSpec) -> Box<dyn AdmissionPolicy> {
        Box::new(EveryOtherDelay {
            seen: HashMap::new(),
        })
    }

    fn label(&self) -> &str {
        "busy-test-policies"
    }
}

/// The scarce-pool configuration: one pooled pod per configuration and no
/// replenishment, so the draw budget runs dry mid-epoch and the boundary
/// clamp is on the hot path.
fn scarce_pools() -> PlatformConfig {
    let mut config = PlatformConfig::default();
    config.pool.target_per_config = 1;
    config.pool.replenish_per_tick = 0;
    config
}

// ---------------------------------------------------------------------------
// Fixed cases.
// ---------------------------------------------------------------------------

#[test]
fn baseline_policies_hold_the_laws() {
    let streamed = streamed_workload(11, 18);
    let spec = SimulationSpec::new().with_seed(5);
    let (report, trace) = run_checked(&spec, &streamed);
    let trace = trace.expect("trace recorded by default");
    assert_eq!(trace.requests.len() as u64, report.requests);
    assert_eq!(trace.cold_starts.len() as u64, report.cold_starts);
}

#[test]
fn stateful_policies_hold_the_laws() {
    let streamed = streamed_workload(12, 16);
    let spec = SimulationSpec::new()
        .with_seed(6)
        .with_policies(Arc::new(BusyPolicies));
    let (report, _) = run_checked(&spec, &streamed);
    assert!(report.prewarmed_pods > 0, "the busy set pre-warms");
    assert!(report.delayed_requests > 0, "the busy set delays arrivals");
}

#[test]
fn quantile_cache_backed_keepalive_holds_the_laws() {
    let streamed = streamed_workload(18, 16);
    let spec = SimulationSpec::new()
        .with_seed(12)
        .with_policies(Arc::new(QuantileProbePolicies));
    run_checked(&spec, &streamed);
}

#[test]
fn one_second_epochs_hold_the_laws() {
    let streamed = streamed_workload(15, 10);
    let config = PlatformConfig {
        epoch_ms: 1_000,
        ..PlatformConfig::default()
    };
    let spec = SimulationSpec::new()
        .with_seed(9)
        .with_config(config)
        .with_policies(Arc::new(BusyPolicies));
    run_checked(&spec, &streamed);
}

#[test]
fn trace_recording_off_holds_the_laws() {
    let streamed = streamed_workload(17, 10);
    let spec = SimulationSpec::new()
        .with_seed(11)
        .with_config(PlatformConfig {
            record_trace: false,
            ..PlatformConfig::default()
        });
    let (_, trace) = run_checked(&spec, &streamed);
    assert!(trace.is_none());
}

#[test]
fn scarce_pools_hold_the_laws() {
    let streamed = streamed_workload(16, 14);
    let spec = SimulationSpec::new()
        .with_seed(10)
        .with_policies(Arc::new(BusyPolicies));
    let (scarce, _) = run_checked(&spec.clone().with_config(scarce_pools()), &streamed);
    let (default, _) = run_checked(&spec, &streamed);
    // Same workload and seed: the scarce pools run dry, so fewer pods come
    // from them (5 against 147 at these seeds).
    assert!(
        scarce.pool_hits < default.pool_hits,
        "scarce {} vs default {} pool hits",
        scarce.pool_hits,
        default.pool_hits
    );
}

#[test]
fn an_epoch_past_the_horizon_settles_once_at_the_end() {
    // Both configurations settle exactly one boundary, at the horizon, so
    // they must give the same report and trace.
    let streamed = streamed_workload(14, 12);
    let horizon_ms = streamed.stream().horizon_ms();
    let run = |epoch_ms: u64| {
        let spec = SimulationSpec::new()
            .with_seed(8)
            .with_config(PlatformConfig {
                epoch_ms,
                ..PlatformConfig::default()
            });
        run_checked(&spec, &streamed)
    };
    let month = run(30 * 24 * 60 * 60 * 1_000);
    let horizon = run(horizon_ms);
    assert_eq!(month, horizon);
    assert_ne!(month.0, run(PlatformConfig::default().epoch_ms).0);
}

// ---------------------------------------------------------------------------
// Property-based sweep over seeds, populations, and epochs.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn the_laws_hold_over_seeds_populations_and_epochs(
        seed in 0u64..200,
        min_functions in 6usize..20,
        epoch_choice in 0usize..3,
    ) {
        let streamed = streamed_workload(seed, min_functions);
        let epoch_ms = [60_000, 7_000, 600_000][epoch_choice];
        let spec = SimulationSpec::new()
            .with_seed(seed.wrapping_add(1))
            .with_config(PlatformConfig {
                epoch_ms,
                ..PlatformConfig::default()
            });
        run_checked(&spec, &streamed);
    }
}
