//! `replay-csv-dir`: a synthetic trace written once as a CSV fileset, then
//! opened with `TraceDirSource::open` (the two-pass inference) and replayed
//! from disk under a few policy scenarios in one `ExperimentSession` — the
//! workload layer fed from files instead of a generator.

use std::path::{Path, PathBuf};

use coldstarts::session::TraceDirSource;
use coldstarts::{ExperimentSession, Scenario, SessionReport};
use fntrace::synth::{SynthShape, SynthTraceSpec};
use fntrace::{RegionId, RequestRecord, TraceDirPaths, TraceReader};

use super::cells::replica_layers;
use super::{secs, sized_seed, timed, Pass, TracedPass, Workload};
use crate::check::{check_report, Digest};

const REGION: u16 = 2;
const FUNCTIONS: usize = 120;
const DAYS: u32 = 4;
const REQUESTS_PER_DAY: f64 = 150.0;
const SCENARIOS: [Scenario; 4] = [
    Scenario::Baseline,
    Scenario::TimerPrewarm,
    Scenario::PeakShaving,
    Scenario::Combined,
];
/// Request rows in the fileset (see [`sized_seed`]).
const NOMINAL_REQUESTS: u64 = 96_000;
/// Output digest at the default seed.
const PINNED: u64 = 0xf263_fe11_35fb_3d97;

/// Directory under the working directory that holds the fileset while the
/// benchmark runs.
const DATA_ROOT: &str = ".perfbench-data";

/// A directory removed again when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(name: &str) -> Result<Self, String> {
        let path = Path::new(DATA_ROOT).join(name);
        // A directory left by a killed run of the same process id is stale.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run uses the root.
        let _ = std::fs::remove_dir(DATA_ROOT);
    }
}

pub struct Replay {
    dir: ScratchDir,
    seed: u64,
    threads: usize,
    requests: usize,
    trace_bytes: u64,
    requests_file: PathBuf,
}

impl Replay {
    pub fn new(seed: u64, threads: usize) -> Result<Self, String> {
        let spec = |seed| SynthTraceSpec {
            region: RegionId::new(REGION),
            shape: SynthShape::Diurnal,
            functions: FUNCTIONS,
            duration_days: DAYS,
            mean_requests_per_day: REQUESTS_PER_DAY,
            keep_alive_secs: 60.0,
            seed,
        };
        let (seed, _) = sized_seed(seed, [NOMINAL_REQUESTS], |s| {
            [spec(s).generate().requests.len() as u64]
        })?;
        let trace = spec(seed).generate();
        let dir = ScratchDir::create(&format!("replay-{}", std::process::id()))?;
        trace
            .write_csv_dir(&dir.0)
            .map_err(|e| format!("writing the trace fileset: {e}"))?;
        let paths = TraceDirPaths::new(RegionId::new(REGION), &dir.0);
        let trace_bytes = [&paths.requests, &paths.cold_starts, &paths.functions]
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum();
        Ok(Self {
            seed,
            threads,
            requests: trace.requests.len(),
            trace_bytes,
            requests_file: paths.requests,
            dir,
        })
    }

    fn open(&self) -> Result<TraceDirSource, String> {
        TraceDirSource::open(
            format!("replay/r{REGION}"),
            RegionId::new(REGION),
            &self.dir.0,
        )
        .map_err(|e| format!("opening the trace fileset: {e}"))
    }

    fn session(&self, source: TraceDirSource) -> ExperimentSession {
        ExperimentSession::new()
            .scenarios(&SCENARIOS)
            .source(source)
            .with_seeds(vec![self.seed])
            .with_threads(self.threads)
    }

    /// Checks and digests every cell, then serialises the session report.
    /// Returns the serialisation time.
    fn finish(pass: &mut Pass, report: &SessionReport) -> f64 {
        let mut digest = Digest::default();
        for cell in &report.cells {
            let what = format!("cell {} x {}", cell.policy, cell.source);
            pass.ops.record(what, check_report(&cell.report, true));
            digest.str(&cell.policy).report(&cell.report);
            pass.records += cell.report.events_processed;
        }
        pass.digest = digest.value();
        let (json, envelope_s) = timed(|| report.envelope("replay").to_json());
        std::hint::black_box(json);
        envelope_s
    }

    /// Streams the request file through the CSV reader once; returns the
    /// records read and the seconds taken.
    fn read_requests(&self) -> Result<(u64, f64), String> {
        let started = std::time::Instant::now();
        let mut records = 0u64;
        let reader = TraceReader::<_, RequestRecord>::from_path(&self.requests_file)
            .map_err(|e| e.to_string())?;
        for record in reader {
            std::hint::black_box(record.map_err(|e| e.to_string())?);
            records += 1;
        }
        Ok((records, secs(started)))
    }
}

impl Workload for Replay {
    fn provenance(&self) -> Vec<(&'static str, String)> {
        vec![
            ("region", format!("r{REGION}")),
            ("functions", FUNCTIONS.to_string()),
            ("days", DAYS.to_string()),
            ("input_seed", self.seed.to_string()),
            ("trace_requests", self.requests.to_string()),
            ("trace_bytes", self.trace_bytes.to_string()),
            ("scenarios", SCENARIOS.len().to_string()),
        ]
    }

    fn operations(&self) -> u64 {
        SCENARIOS.len() as u64
    }

    fn pinned_digest(&self) -> u64 {
        PINNED
    }

    fn run(&self) -> Pass {
        let (source, setup_s) = timed(|| self.open());
        let mut pass = Pass {
            setup_s,
            ..Pass::default()
        };
        match source {
            Ok(source) => {
                let report = self.session(source).run();
                Self::finish(&mut pass, &report);
            }
            Err(e) => pass.ops.fail_all(self.operations(), e),
        }
        pass
    }

    fn run_traced(&self, _untraced_wall_s: f64) -> TracedPass {
        let mut traced = TracedPass::default();
        match self.read_requests() {
            Ok((records, read_s)) if records == self.requests as u64 => {
                let bytes = std::fs::metadata(&self.requests_file).map_or(0, |m| m.len());
                traced.layers.insert("trace.csv.read_s".into(), read_s);
                traced
                    .layers
                    .insert("trace.csv.mb_per_s".into(), bytes as f64 / read_s / 1e6);
            }
            Ok((records, _)) => traced.pass.ops.fail_all(
                1,
                format!("read {records} request rows, wrote {}", self.requests),
            ),
            Err(e) => traced.pass.ops.fail_all(1, e),
        }

        let started = std::time::Instant::now();
        let (source, open_s) = timed(|| self.open());
        traced.pass.setup_s = open_s;
        let source = match source {
            Ok(source) => source,
            Err(e) => {
                traced.pass.ops.fail_all(self.operations(), e);
                return traced;
            }
        };
        let session = self.session(source);
        let (report, phase_s) = timed(|| session.run());
        let envelope_s = Self::finish(&mut traced.pass, &report);
        let wall_s = secs(started);

        replica_layers(&mut traced, &session, &report, phase_s);
        let direct_s = open_s + phase_s + envelope_s;
        for (name, value) in [
            ("replay.open_s", open_s),
            ("replay.open_share", open_s / wall_s),
            ("session.envelope_s", envelope_s),
            ("tracing.direct_share", direct_s / wall_s),
        ] {
            traced.layers.insert(name.to_string(), value);
        }
        traced
    }
}
