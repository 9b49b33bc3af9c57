//! The experiment session must be a pure function of its declaration: the
//! same session run on one thread, on several, or twice in a row has to
//! produce identical reports, and the serialised
//! `faas-coldstarts/session/v1` envelope must be byte-identical — across
//! every built-in [`WorkloadSource`] implementation. The property test
//! drives the builder over random small declaration spaces (sources ×
//! scenario subsets × seeds × thread counts); CI pins `PROPTEST_CASES` so
//! its runtime and coverage are deterministic.

use std::sync::Arc;

use coldstarts::session::{
    ExperimentSession, PolicyConfig, PresetSource, RegionSource, ReplayTraceSource, SourceKind,
    SynthTraceSource, WorkloadSource,
};
use coldstarts::Scenario;
use faas_workload::population::PopulationConfig;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::ScenarioPreset;
use fntrace::synth::{SynthShape, SynthTraceSpec};
use fntrace::RegionId;
use proptest::prelude::*;

fn tiny_population() -> PopulationConfig {
    PopulationConfig {
        function_scale: 0.001,
        volume_scale: 1.0e-6,
        max_requests_per_day: 1_000.0,
        min_functions: 8,
    }
}

fn tiny_calibration() -> Calibration {
    Calibration {
        duration_days: 1,
        ..Calibration::default()
    }
}

fn synth_spec(region: u16) -> SynthTraceSpec {
    SynthTraceSpec {
        region: RegionId::new(region),
        shape: SynthShape::Diurnal,
        functions: 6,
        duration_days: 1,
        mean_requests_per_day: 120.0,
        keep_alive_secs: 60.0,
        seed: 17,
    }
}

fn preset_source(preset: ScenarioPreset) -> PresetSource {
    PresetSource::new(preset, RegionProfile::r2(), 1, tiny_population())
}

fn region_source(region: RegionProfile) -> RegionSource {
    RegionSource::new(region, tiny_calibration(), tiny_population())
}

fn replay_source(seed: u64) -> ReplayTraceSource {
    let trace = SynthTraceSpec {
        seed,
        ..synth_spec(3)
    }
    .generate();
    ReplayTraceSource::from_trace("replay-synth-r3", &trace).expect("a synthesized trace lowers")
}

/// Asserts parallel == sequential == repeat == materialised, byte for byte.
///
/// `run` lowers every cell's source to a lazy
/// [`ArrivalStream`](faas_workload::ArrivalStream), on the session's threads
/// and on one; `run_materialized` is the pre-streaming oracle that builds
/// each `(source, seed)` workload eagerly and shares it across policy cells.
/// The envelopes must agree to the byte across all of them.
fn assert_deterministic(session: &ExperimentSession) {
    let parallel = session.run();
    let sequential = session.clone().with_threads(1).run();
    assert_eq!(parallel, sequential);
    let doc = parallel.envelope("determinism").to_json();
    assert_eq!(
        doc.as_bytes(),
        sequential.envelope("determinism").to_json().as_bytes()
    );
    let again = session.run();
    assert_eq!(
        doc.as_bytes(),
        again.envelope("determinism").to_json().as_bytes()
    );
    let materialized = session.run_materialized();
    assert_eq!(parallel, materialized);
    assert_eq!(
        doc.as_bytes(),
        materialized.envelope("determinism").to_json().as_bytes(),
        "streamed and materialised execution must serialise identically"
    );
}

#[test]
fn all_four_source_impls_agree_across_execution_modes() {
    let session = ExperimentSession::new()
        .scenarios(&[Scenario::Baseline, Scenario::AdaptiveKeepAlive])
        .source(preset_source(ScenarioPreset::LowTrafficTail))
        .source(region_source(RegionProfile::r2()))
        .source(replay_source(23))
        .source(SynthTraceSource::new(synth_spec(4)))
        .with_seeds(vec![5])
        // Real worker threads even on single-core machines, so the parallel
        // path (cross-thread scheduling + ordered merge) is exercised.
        .with_threads(4);
    assert_eq!(session.cell_count(), 8);
    let report = session.run();
    let kinds: Vec<SourceKind> = report.sources.iter().map(|s| s.kind).collect();
    assert_eq!(
        kinds,
        vec![
            SourceKind::Preset,
            SourceKind::Region,
            SourceKind::Replay,
            SourceKind::SynthTrace,
        ]
    );
    for cell in &report.cells {
        assert!(
            cell.report.requests > 0,
            "{} x {}",
            cell.policy,
            cell.source
        );
    }
    assert_deterministic(&session);
}

#[test]
fn every_source_lowers_to_the_stream_its_workload_materialises() {
    let sources: Vec<Arc<dyn WorkloadSource>> = vec![
        Arc::new(preset_source(ScenarioPreset::Diurnal)),
        Arc::new(region_source(RegionProfile::r3())),
        Arc::new(replay_source(29)),
        Arc::new(SynthTraceSource::new(synth_spec(2))),
    ];
    for source in sources {
        for seed in [1u64, 42] {
            let materialised = source.workload(seed);
            let lowered = source.lower(seed);
            assert_eq!(
                lowered.header.functions,
                materialised.functions,
                "{} headers must carry the materialised function table",
                source.label()
            );
            assert_eq!(lowered.header.region, materialised.region);
            assert_eq!(lowered.header.calibration, materialised.calibration);
            let events: Vec<_> = lowered.stream.collect();
            assert_eq!(
                events,
                materialised.events,
                "{} stream must yield the materialised events",
                source.label()
            );
        }
    }
}

proptest! {
    // Each case runs several full simulations; scale the pinned case count
    // down so the suite stays within the CI property-test budget while
    // PROPTEST_CASES still controls coverage.
    #![proptest_config(ProptestConfig::with_cases(
        ProptestConfig::default().cases.div_ceil(8).max(2)
    ))]

    #[test]
    fn random_small_sessions_are_byte_deterministic(
        selector in 0u64..4,
        scenario_bits in 1u64..8,
        seed in 1u64..1_000,
        threads in 2usize..5,
    ) {
        // Pick a generative source and a trace-backed source per case; the
        // dedicated test above covers all four impls side by side.
        let generative: Arc<dyn WorkloadSource> = if selector % 2 == 0 {
            Arc::new(preset_source(ScenarioPreset::LowTrafficTail))
        } else {
            Arc::new(region_source(RegionProfile::r2()))
        };
        let trace_backed: Arc<dyn WorkloadSource> = if selector / 2 == 0 {
            Arc::new(replay_source(seed))
        } else {
            Arc::new(SynthTraceSource::new(synth_spec(4)))
        };
        let pool = [
            Scenario::Baseline,
            Scenario::AdaptiveKeepAlive,
            Scenario::TimerPrewarm,
        ];
        let scenarios: Vec<PolicyConfig> = pool
            .iter()
            .enumerate()
            .filter(|(i, _)| scenario_bits & (1 << i) != 0)
            .map(|(_, &s)| PolicyConfig::scenario(s))
            .collect();
        prop_assert!(!scenarios.is_empty());

        let session = ExperimentSession::new()
            .policies(scenarios)
            .source_arc(generative)
            .source_arc(trace_backed)
            .with_seeds(vec![seed])
            .with_threads(threads);
        prop_assert!(session.cell_count() >= 2);
        assert_deterministic(&session);
    }
}
