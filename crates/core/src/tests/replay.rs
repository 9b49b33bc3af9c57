//! Trace replay sessions over a replay-tagged workload, whole and chunked.

mod tests {
    use std::sync::Arc;

    use faas_workload::replay::TraceReplayWorkload;
    use faas_workload::WorkloadSpec;
    use fntrace::synth::{SynthShape, SynthTraceSpec};
    use fntrace::{RegionId, MILLIS_PER_HOUR};

    use crate::session::{ChunkSource, ExperimentSession, ReplayTraceSource, WorkloadSource};
    use crate::Scenario;

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
        Arc::new(TraceReplayWorkload::new().build(&trace).unwrap())
    }

    fn tiny_grid() -> ExperimentSession {
        ExperimentSession::new()
            .scenarios(&[Scenario::Baseline, Scenario::TimerPrewarm])
            .source(ReplayTraceSource::new("replay/r2", replayed_workload()))
            .with_seeds(vec![3, 4])
            // Real worker threads so the parallel path is exercised.
            .with_threads(4)
    }

    #[test]
    fn replay_grid_runs_every_cell_with_attribution() {
        let grid = tiny_grid();
        assert_eq!(grid.cell_count(), 4);
        let report = grid.run();
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            assert_eq!(cell.region, RegionId::new(2));
            assert!(cell.report.requests > 0);
            // Replay-tagged workloads attribute cold starts per function.
            assert!(!cell.report.per_function.is_empty());
            let total: u64 = cell.report.per_function.iter().map(|f| f.cold_starts).sum();
            assert_eq!(total, cell.report.cold_starts, "{}", cell.policy);
            let requests: u64 = cell.report.per_function.iter().map(|f| f.requests).sum();
            assert_eq!(requests, cell.report.requests);
        }
    }

    #[test]
    fn parallel_and_sequential_replay_agree() {
        let grid = tiny_grid();
        let parallel = grid.run();
        let sequential = grid.with_threads(1).run();
        assert_eq!(parallel, sequential);
        assert_eq!(parallel.render(), sequential.render());
    }

    #[test]
    fn chunked_replay_covers_every_event_once() {
        let workload = replayed_workload();
        let chunks = ChunkSource::split(&workload, MILLIS_PER_HOUR);
        assert!(chunks.len() > 1);
        for w in chunks.windows(2) {
            assert!(w[0].start_ms() < w[1].start_ms());
        }
        let session = ExperimentSession::new()
            .scenarios(&[Scenario::Baseline])
            .source_arcs(
                chunks
                    .into_iter()
                    .map(|c| Arc::new(c) as Arc<dyn WorkloadSource>),
            )
            .with_seeds(vec![3])
            .with_threads(4);
        let report = session.run();
        let replayed: u64 = report.cells.iter().map(|c| c.report.events_processed).sum();
        assert_eq!(replayed, workload.len() as u64);
        let requests: u64 = report.cells.iter().map(|c| c.report.requests).sum();
        assert_eq!(requests, workload.len() as u64);
        // Chunked execution is deterministic across thread counts.
        assert_eq!(report, session.with_threads(1).run());
    }
}
