//! End-to-end round trip of the trace-replay pipeline:
//! preset → simulated trace → CSV → replay → SimReport, compared against the
//! direct preset → SimReport run, plus a full policy sweep mixing a replayed
//! trace into the synthetic presets.

use std::sync::Arc;

use coldstarts::sweep::{PolicyFamily, PolicySweep, ReplaySource, SweepWorkloadSource};
use faas_platform::{PlatformConfig, SimulationSpec};
use faas_workload::population::PopulationConfig;
use faas_workload::profile::RegionProfile;
use faas_workload::replay::TraceReplayWorkload;
use faas_workload::{ScenarioPreset, WorkloadSpec};
use fntrace::RegionTrace;

fn tiny_population() -> PopulationConfig {
    PopulationConfig {
        function_scale: 0.002,
        volume_scale: 2.0e-6,
        max_requests_per_day: 2_000.0,
        min_functions: 15,
    }
}

fn preset_workload(preset: ScenarioPreset, seed: u64) -> WorkloadSpec {
    WorkloadSpec::generate(
        &preset.profile(&RegionProfile::r2()),
        preset.calibration(1),
        &tiny_population(),
        seed,
    )
}

#[test]
fn preset_to_trace_to_replay_roundtrip_stays_within_one_percent() {
    let preset = ScenarioPreset::Diurnal;
    let seed = 7;
    let workload = preset_workload(preset, seed);

    // Direct run, recording the simulated trace.
    let (direct, trace) = SimulationSpec::new()
        .with_config(PlatformConfig {
            record_trace: true,
            ..PlatformConfig::default()
        })
        .with_seed(seed)
        .run(&workload);
    let trace = trace.expect("trace recording enabled");
    assert!(
        direct.requests > 1_000,
        "round trip needs a non-trivial run"
    );

    // Trace → CSV → parse: the same path a released dataset takes.
    let dir =
        std::env::temp_dir().join(format!("faas_replay_roundtrip_test_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    trace.write_csv_dir(&dir).unwrap();
    let parsed = RegionTrace::read_csv_dir(trace.region, &dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // CSV → replay-tagged workload, pinned to the preset's profile and
    // calibration so the runs are comparable.
    let replayed = TraceReplayWorkload::new()
        .with_profile(preset.profile(&RegionProfile::r2()))
        .with_calibration(preset.calibration(1))
        .build(&parsed)
        .expect("a one-day trace fits a calibration");
    assert!(replayed.is_replay());
    // Every admitted request becomes exactly one replayed event.
    assert_eq!(replayed.len() as u64, direct.requests);

    let (replay_report, _) = SimulationSpec::new()
        .with_config(PlatformConfig {
            record_trace: false,
            ..PlatformConfig::default()
        })
        .with_seed(seed)
        .run(&replayed);
    assert_eq!(replay_report.requests, direct.requests);

    // Acceptance bound: cold-start-rate deviation below one percentage
    // point against the direct synthetic run.
    let deviation = (replay_report.cold_start_rate() - direct.cold_start_rate()).abs();
    assert!(
        deviation < 0.01,
        "cold-start rate deviated {:.4} pp (direct {:.4}%, replay {:.4}%)",
        100.0 * deviation,
        100.0 * direct.cold_start_rate(),
        100.0 * replay_report.cold_start_rate(),
    );

    // Replay runs attribute their cold starts per function; totals must add
    // up to the aggregate counters.
    assert!(!replay_report.per_function.is_empty());
    let attributed: u64 = replay_report
        .per_function
        .iter()
        .map(|f| f.cold_starts)
        .sum();
    assert_eq!(attributed, replay_report.cold_starts);
    let requests: u64 = replay_report.per_function.iter().map(|f| f.requests).sum();
    assert_eq!(requests, replay_report.requests);
}

#[test]
fn full_policy_sweep_runs_end_to_end_on_a_replayed_trace() {
    // Build a replayed workload out of a recorded simulation trace.
    let seed = 11;
    let workload = preset_workload(ScenarioPreset::Bursty, seed);
    let (_, trace) = SimulationSpec::new()
        .with_config(PlatformConfig {
            record_trace: true,
            ..PlatformConfig::default()
        })
        .with_seed(seed)
        .run(&workload);
    let replayed = Arc::new(
        TraceReplayWorkload::new()
            .with_profile(ScenarioPreset::Bursty.profile(&RegionProfile::r2()))
            .with_calibration(ScenarioPreset::Bursty.calibration(1))
            .build(&trace.expect("trace recorded"))
            .expect("a one-day trace fits a calibration"),
    );

    // Sweep two policy families over one preset plus the replayed trace.
    let sweep = PolicySweep {
        presets: vec![ScenarioPreset::Diurnal],
        replays: vec![ReplaySource {
            label: "replayed-bursty-r2".into(),
            workload: Arc::clone(&replayed),
        }],
        spaces: vec![
            PolicyFamily::KeepAlive.smoke_space(),
            PolicyFamily::Prewarm.smoke_space(),
        ],
        duration_days: 1,
        threads: 4,
        ..PolicySweep::default()
    };
    // 6 configs × (1 preset column + 1 replay column).
    assert_eq!(sweep.cell_count(), 12);
    let report = sweep.run();
    assert_eq!(report.cells.len(), 12);
    assert_eq!(report.replays, vec!["replayed-bursty-r2".to_string()]);
    assert!(!report.pareto.is_empty());

    // Every configuration ran against the replayed trace and saw the same
    // arrival stream (no family drops or delays requests here).
    let replay_cells: Vec<_> = report
        .cells
        .iter()
        .filter(|c| matches!(c.source, SweepWorkloadSource::Replay(_)))
        .collect();
    assert_eq!(replay_cells.len(), 6);
    let expected = replay_cells[0].report.requests;
    assert_eq!(expected, replayed.len() as u64);
    for cell in &replay_cells {
        assert_eq!(cell.report.requests, expected);
        assert!(!cell.report.per_function.is_empty());
    }

    // Deterministic, byte-stable output with replays mixed in.
    let sequential = PolicySweep {
        threads: 1,
        ..sweep
    }
    .run();
    assert_eq!(report, sequential);
    let json = report.to_envelope().to_json();
    assert_eq!(
        json.as_bytes(),
        sequential.to_envelope().to_json().as_bytes()
    );
    assert!(json.contains("\"replays\": [\"replayed-bursty-r2\"]"));
}
