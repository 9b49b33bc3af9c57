//! Seed-derivation regression: the same `(source, seed)` cell must be
//! byte-identical through **every** entry point — a session over a
//! generative or a pre-built source, a policy sweep, and a standalone
//! `SimulationSpec` run. All of them take their simulation seed from
//! `coldstarts::session::seeds`, and this suite pins the equivalence.

use std::sync::Arc;

use coldstarts::session::{
    ExperimentSession, FixedWorkloadSource, PolicyConfig, RegionSource, ReplayTraceSource,
};
use coldstarts::sweep::{ParamAxis, ParamSpace, PolicyFamily, PolicySweep, ReplaySource};
use coldstarts::Scenario;
use faas_platform::{SimReport, SimulationSpec};
use faas_workload::population::PopulationConfig;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::replay::TraceReplayWorkload;
use faas_workload::WorkloadSpec;
use fntrace::synth::{SynthShape, SynthTraceSpec};
use fntrace::RegionId;

const SEED: u64 = 13;

fn replayed_workload() -> Arc<WorkloadSpec> {
    let trace = SynthTraceSpec {
        region: RegionId::new(2),
        shape: SynthShape::Diurnal,
        functions: 8,
        duration_days: 1,
        mean_requests_per_day: 150.0,
        keep_alive_secs: 60.0,
        seed: 21,
    }
    .generate();
    Arc::new(
        TraceReplayWorkload::new()
            .build(&trace)
            .expect("a synthesized trace fits a calibration"),
    )
}

/// The keep-alive sweep point `mode=fixed,duration_ms=60000` builds the
/// baseline scenario's policy set (the platform default keep-alive is 60 s,
/// no pre-warming, no admission control): both must give the same bytes.
fn baseline_sweep_space() -> ParamSpace {
    ParamSpace {
        family: PolicyFamily::KeepAlive,
        axes: vec![
            ParamAxis::strings("mode", &["fixed"]),
            ParamAxis::u64s("duration_ms", &[60_000]),
        ],
    }
}

/// A sweep of the baseline-equivalent point over the replayed trace alone.
fn replay_sweep(workload: &Arc<WorkloadSpec>, seeds: Vec<u64>) -> PolicySweep {
    PolicySweep {
        presets: Vec::new(),
        replays: vec![ReplaySource {
            label: "replay/r2".into(),
            workload: Arc::clone(workload),
        }],
        seeds,
        spaces: vec![baseline_sweep_space()],
        duration_days: 1,
        threads: 4,
        ..PolicySweep::default()
    }
}

/// Runs `policy` over `workload` on a session's platform, outside a session.
fn standalone(policy: &PolicyConfig, workload: &WorkloadSpec, seed: u64) -> SimReport {
    let platform = policy.platform(&ExperimentSession::new().platform);
    SimulationSpec::new()
        .with_seed(seed)
        .with_policies(policy.factory(&platform))
        .with_config(platform)
        .run(workload)
        .0
}

fn assert_same_report(name: &str, report: &SimReport, reference: &SimReport) {
    assert_eq!(report, reference, "{name} diverged from the reference cell");
    // Byte-identical, not merely PartialEq: the debug rendering (which
    // includes every float) must match exactly.
    assert_eq!(format!("{report:?}"), format!("{reference:?}"), "{name}");
}

#[test]
fn replay_cell_is_byte_identical_across_all_entry_points() {
    let workload = replayed_workload();
    let sweep_point = PolicyConfig::sweep(baseline_sweep_space().expand().remove(0));

    // Reference: the baseline scenario in a session over the replay source;
    // the sweep point is declared beside it.
    let session = ExperimentSession::new()
        .scenarios(&[Scenario::Baseline])
        .policy(sweep_point.clone())
        .source(ReplayTraceSource::new("replay/r2", Arc::clone(&workload)))
        .with_seeds(vec![SEED])
        .with_threads(4)
        .run();
    let reference = &session.cell(0, 0, SEED).expect("cell exists").report;

    // Entry point 1: the same session, through the sweep vocabulary.
    let point = &session.cell(1, 0, SEED).expect("cell exists").report;
    assert_same_report("sweep-point session cell", point, reference);

    // Entry point 2: a standalone simulation of the same workload and seed.
    let standalone = standalone(&PolicyConfig::scenario(Scenario::Baseline), &workload, SEED);
    assert_same_report("SimulationSpec", &standalone, reference);

    // Entry point 3: the policy sweep, with the replayed trace as its only
    // column.
    let sweep_report = replay_sweep(&workload, vec![SEED]).run();
    assert_eq!(sweep_report.cells.len(), 1);
    assert_same_report("PolicySweep", &sweep_report.cells[0].report, reference);
}

#[test]
fn generated_cell_is_byte_identical_across_grid_evaluation_and_session() {
    let region = RegionSource::new(
        RegionProfile::r3(),
        Calibration {
            duration_days: 1,
            ..Calibration::default()
        },
        PopulationConfig {
            function_scale: 0.002,
            volume_scale: 2.0e-6,
            max_requests_per_day: 2_000.0,
            min_functions: 15,
        },
    );
    let workload = WorkloadSpec::generate(
        &region.profile,
        region.calibration,
        &region.population,
        SEED,
    );

    // Reference: a session over the generative region source.
    let session = ExperimentSession::new()
        .scenarios(&[Scenario::TimerPrewarm])
        .source(region)
        .with_seeds(vec![SEED]);
    let reference = session.run().cells.remove(0).report;

    // Entry point 1: a standalone simulation of the identical workload.
    assert_same_report(
        "SimulationSpec",
        &standalone(&session.policies[0], &workload, SEED),
        &reference,
    );

    // Entry point 2: a session over the pre-generated workload — fixed and
    // generative sources must agree for the same (workload, seed).
    let fixed = ExperimentSession::new()
        .scenarios(&[Scenario::TimerPrewarm])
        .source(FixedWorkloadSource::new("fixed", Arc::new(workload)))
        .with_seeds(vec![SEED]);
    assert_same_report(
        "FixedWorkloadSource session",
        &fixed.run().cells[0].report,
        &reference,
    );
}

#[test]
fn sweep_replay_columns_share_the_session_seed_derivation_per_seed() {
    // Two declared seeds: the sweep's replay column for each seed must match
    // the session cell for the same seed, so a sweep never re-derives seeds
    // per workload column.
    let workload = replayed_workload();
    let report = replay_sweep(&workload, vec![SEED, SEED + 1]).run();
    assert_eq!(report.cells.len(), 2);

    let session = ExperimentSession::new()
        .policy(PolicyConfig::sweep(
            baseline_sweep_space().expand().remove(0),
        ))
        .source(ReplayTraceSource::new("replay/r2", workload))
        .with_seeds(vec![SEED, SEED + 1]);
    let cells = session.run().cells;
    for (sweep_cell, session_cell) in report.cells.iter().zip(&cells) {
        assert_eq!(sweep_cell.seed, session_cell.seed);
        assert_same_report(
            "sweep replay column",
            &sweep_cell.report,
            &session_cell.report,
        );
    }
    // Different seeds genuinely change the simulation stream.
    assert_ne!(cells[0].report, cells[1].report);
}
