//! Golden-fixture tests for the trace-replay pipeline.
//!
//! Two hand-written trace CSV filesets live under `tests/fixtures/`. The
//! tests pin down (a) byte-exact CSV parsing — parsing a fixture and
//! re-serialising it reproduces the committed bytes — and (b) byte-identical
//! replay simulation reports whether a replay session runs its cells on
//! several threads or on one.

use std::path::PathBuf;
use std::sync::Arc;

use coldstarts::session::{
    ChunkSource, ExperimentSession, ReplayTraceSource, TraceDirSource, WorkloadSource,
};
use coldstarts::Scenario;
use faas_workload::replay::TraceReplayWorkload;
use faas_workload::WorkloadSpec;
use fntrace::csv::{cold_start_table_to_csv, function_table_to_csv, request_table_to_csv};
use fntrace::{
    FunctionId, RegionId, RegionTrace, Runtime, TraceDirPaths, TriggerType, MILLIS_PER_HOUR,
};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_text(name: &str) -> String {
    let path = fixture_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn fixture_trace() -> RegionTrace {
    RegionTrace::read_csv_dir(RegionId::new(7), &fixture_dir()).expect("fixture parses")
}

fn fixture_workload() -> WorkloadSpec {
    TraceReplayWorkload::new()
        .build(&fixture_trace())
        .expect("the fixture spans minutes")
}

#[test]
fn fixture_parse_is_byte_exact() {
    let trace = fixture_trace();
    // Re-serialising the parsed tables reproduces the committed files byte
    // for byte: nothing is lost, reordered, or reformatted on the way in.
    assert_eq!(
        request_table_to_csv(&trace.requests),
        fixture_text("r7_requests.csv")
    );
    assert_eq!(
        cold_start_table_to_csv(&trace.cold_starts),
        fixture_text("r7_cold_starts.csv")
    );
    assert_eq!(
        function_table_to_csv(&trace.functions),
        fixture_text("r7_functions.csv")
    );
}

#[test]
fn fixture_fields_parse_to_the_expected_values() {
    let trace = fixture_trace();
    assert_eq!(trace.requests.len(), 8);
    assert_eq!(trace.cold_starts.len(), 7);
    assert_eq!(trace.functions.len(), 2);

    let first = &trace.requests.records()[0];
    assert_eq!(first.timestamp_ms, 0);
    assert_eq!(first.function, FunctionId::new(1));
    assert_eq!(first.execution_time_us, 50_000);
    assert!((first.cpu_usage_millicores - 120.0).abs() < 1e-9);
    assert_eq!(first.memory_usage_bytes, 33_554_432);

    let timer_meta = trace.functions.get(FunctionId::new(1)).unwrap();
    assert_eq!(timer_meta.runtime, Runtime::Python3);
    assert_eq!(timer_meta.triggers, vec![TriggerType::Timer]);
    let api_meta = trace.functions.get(FunctionId::new(2)).unwrap();
    assert_eq!(api_meta.runtime, Runtime::Java);
    assert_eq!(api_meta.config.millicores, 600);

    for cs in trace.cold_starts.records() {
        assert_eq!(cs.component_sum_us(), cs.cold_start_us);
    }
    assert_eq!(trace.time_span_ms(), Some((0, 480_000)));
}

#[test]
fn fixture_replay_infers_the_hand_written_structure() {
    let workload = fixture_workload();
    assert!(workload.is_replay());
    assert_eq!(workload.len(), 8);
    assert_eq!(workload.functions.len(), 2);

    let timer = workload.function(FunctionId::new(1)).unwrap();
    // Five invocations exactly 120 s apart.
    assert_eq!(timer.timer_period_secs, 120.0);
    assert_eq!(timer.concurrency, 1);
    assert!(!timer.has_dependencies, "fixture timer has no dep layer");

    let api = workload.function(FunctionId::new(2)).unwrap();
    // Two 30-second requests overlap on pod 21.
    assert_eq!(api.concurrency, 2);
    assert!(api.has_dependencies, "fixture API function deploys deps");
    assert_eq!(api.timer_period_secs, 0.0);
}

#[test]
fn streamed_ingestion_yields_byte_identical_session_envelopes() {
    // The same fixture directory, ingested two ways: eagerly (the whole
    // request table resident, then `ReplayTraceSource`) and streamed from
    // disk (`TraceDirSource`, bounded-memory inference + disk-backed event
    // streams). The rendered session reports and the serialised envelopes
    // must agree byte for byte.
    let scenarios = [
        Scenario::Baseline,
        Scenario::AdaptiveKeepAlive,
        Scenario::TimerPrewarm,
    ];
    let run = |source: Arc<dyn WorkloadSource>| {
        ExperimentSession::new()
            .scenarios(&scenarios)
            .source_arcs(std::iter::once(source))
            .with_seeds(vec![5, 6])
            .with_threads(2)
            .run()
    };

    let eager = run(Arc::new(
        ReplayTraceSource::from_trace("replay/r7", &fixture_trace()).expect("fixture lowers"),
    ));
    let streamed_source =
        TraceDirSource::open("replay/r7", RegionId::new(7), &fixture_dir()).expect("fixture opens");
    let streamed = run(Arc::new(streamed_source));

    assert_eq!(eager, streamed);
    assert_eq!(
        eager.render().as_bytes(),
        streamed.render().as_bytes(),
        "rendered session reports must be byte-identical"
    );
    assert_eq!(
        eager.envelope("replay").to_json(),
        streamed.envelope("replay").to_json(),
        "serialised envelopes must be byte-identical"
    );
}

#[test]
fn replays_never_read_the_request_csv_after_open() {
    // A copy of the fixture directory whose request CSV is deleted as soon
    // as the source is open: the disk stream, a session and the materialised
    // workload must all come from what the open kept, and still equal the
    // eager replay byte for byte.
    let region = RegionId::new(7);
    let dir = std::env::temp_dir().join(format!("replay_golden_csv_once_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the fixture copy");
    let fixture = TraceDirPaths::new(region, &fixture_dir());
    let copy = TraceDirPaths::new(region, &dir);
    for (from, to) in [
        (&fixture.requests, &copy.requests),
        (&fixture.cold_starts, &copy.cold_starts),
        (&fixture.functions, &copy.functions),
    ] {
        std::fs::copy(from, to).expect("copying the fixture");
    }
    let streamed = TraceDirSource::open("replay/r7", region, &dir).expect("fixture opens");
    std::fs::remove_file(&copy.requests).expect("deleting the request CSV");

    let eager =
        ReplayTraceSource::from_trace("replay/r7", &fixture_trace()).expect("fixture lowers");
    let events: Vec<_> = streamed
        .streamed()
        .stream()
        .expect("the stream needs no CSV")
        .collect();
    assert_eq!(events, eager.spec().events);

    let envelope = |source: Arc<dyn WorkloadSource>| {
        ExperimentSession::new()
            .scenarios(&[Scenario::Baseline, Scenario::TimerPrewarm])
            .source_arcs(std::iter::once(source))
            .with_seeds(vec![5])
            .with_threads(2)
            .run()
            .envelope("replay")
            .to_json()
    };
    let streamed = Arc::new(streamed);
    assert_eq!(
        envelope(Arc::new(eager.clone())),
        envelope(Arc::clone(&streamed) as Arc<dyn WorkloadSource>),
        "serialised envelopes must be byte-identical"
    );
    assert_eq!(*streamed.workload(0), **eager.spec());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fixture_replay_simulation_is_byte_deterministic_across_grid_modes() {
    let workload = Arc::new(fixture_workload());
    // Real worker threads so parallel scheduling is actually exercised.
    let session = ExperimentSession::new()
        .scenarios(&[
            Scenario::Baseline,
            Scenario::AdaptiveKeepAlive,
            Scenario::TimerPrewarm,
        ])
        .source(ReplayTraceSource::new("replay/r7", Arc::clone(&workload)))
        .with_seeds(vec![5, 6])
        .with_threads(4);
    let parallel = session.run();
    let sequential = session.clone().with_threads(1).run();
    assert_eq!(parallel, sequential);
    assert_eq!(
        parallel.render().as_bytes(),
        sequential.render().as_bytes(),
        "rendered session reports must be byte-identical"
    );
    // Repeated runs are stable too.
    assert_eq!(parallel, session.run());

    assert_eq!(parallel.cells.len(), 6);
    for cell in &parallel.cells {
        assert_eq!(cell.report.requests, 8);
        assert_eq!(cell.region, RegionId::new(7));
        let attributed: u64 = cell.report.per_function.iter().map(|f| f.cold_starts).sum();
        assert_eq!(attributed, cell.report.cold_starts);
    }

    // Chunked replay covers the same events deterministically: one cell per
    // hour-long window, in chronological order.
    let chunks = ChunkSource::split(&workload, MILLIS_PER_HOUR);
    let chunked = ExperimentSession::new()
        .scenarios(&[Scenario::Baseline])
        .source_arcs(
            chunks
                .iter()
                .map(|c| Arc::new(c.clone()) as Arc<dyn WorkloadSource>),
        )
        .with_seeds(vec![5])
        .with_threads(4);
    let chunk_report = chunked.run();
    let total: u64 = chunk_report
        .cells
        .iter()
        .map(|c| c.report.events_processed)
        .sum();
    assert_eq!(total, 8);
    for w in chunks.windows(2) {
        assert!(w[0].start_ms() < w[1].start_ms());
    }
    assert_eq!(chunk_report, chunked.with_threads(1).run());
}
