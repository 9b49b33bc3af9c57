//! The policy parameter sweep must be a pure function of its declaration:
//! the same sweep run on one thread, on several, or twice in a row has to
//! produce identical reports, and the serialised `BENCH_sweep.json` document
//! must be byte-identical — that is what lets CI diff benchmark artifacts
//! across commits.

use coldstarts::sweep::{PolicyFamily, PolicySweep};
use faas_workload::ScenarioPreset;

fn tiny_sweep() -> PolicySweep {
    PolicySweep {
        presets: vec![ScenarioPreset::Diurnal, ScenarioPreset::HolidayPeak],
        seeds: vec![13],
        spaces: vec![
            PolicyFamily::KeepAlive.smoke_space(),
            PolicyFamily::Prewarm.smoke_space(),
            PolicyFamily::PoolPrediction.smoke_space(),
        ],
        duration_days: 1,
        // Force real worker threads even on single-core CI machines so the
        // parallel path (cross-thread scheduling + merge) is exercised.
        threads: 4,
        ..PolicySweep::default()
    }
}

#[test]
fn parallel_sweep_matches_sequential_sweep_byte_for_byte() {
    let parallel = tiny_sweep().run();
    let sequential = PolicySweep {
        threads: 1,
        ..tiny_sweep()
    }
    .run();
    assert_eq!(parallel, sequential);
    assert_eq!(parallel.render(), sequential.render());
    assert_eq!(
        parallel.to_envelope().to_json().as_bytes(),
        sequential.to_envelope().to_json().as_bytes()
    );
}

#[test]
fn repeated_runs_are_byte_identical() {
    let sweep = tiny_sweep();
    let a = sweep.run();
    let b = sweep.run();
    assert_eq!(a, b);
    let envelope_a = a.to_envelope().to_json();
    assert_eq!(envelope_a.as_bytes(), b.to_envelope().to_json().as_bytes());
    assert!(envelope_a.contains("\"schema\": \"faas-coldstarts/session/v1\""));
    assert!(envelope_a.contains("\"kind\": \"sweep\""));
}

#[test]
fn different_seeds_change_the_results() {
    let a = tiny_sweep().run();
    let b = PolicySweep {
        seeds: vec![14],
        ..tiny_sweep()
    }
    .run();
    assert_ne!(a, b);
    assert_ne!(a.to_envelope().to_json(), b.to_envelope().to_json());
}
