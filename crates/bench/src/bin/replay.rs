//! Trace-replay benchmark: drive the policy session from trace records.
//!
//! ```text
//! cargo run --release --bin replay -- --smoke
//! cargo run --release --bin replay -- --preset bursty --region 3 --days 2
//! cargo run --release --bin replay -- --trace-dir data/r2 --region 2
//! ```
//!
//! Without `--trace-dir`, the bin exercises the full round trip the test
//! suite also asserts: generate a preset workload, record its simulated
//! trace, write the trace as CSV, parse it back, lower it into a
//! replay-tagged workload with `faas_workload::replay`, and run the policy
//! scenarios over the replayed events through one
//! `coldstarts::session::ExperimentSession`. With `--trace-dir` it replays
//! an on-disk CSV fileset in the public data-release layout instead — opened
//! through the streaming `TraceDirSource`, which parses the request CSV once
//! and spills it to a temporary file, so every session cell reads its events
//! from disk and nothing materialises the request table: the envelope's
//! `replay` counts come from the lowered header and its stream's exact
//! length.
//!
//! The report is written as `BENCH_replay.json` in the shared
//! `faas-coldstarts/session/v1` envelope (kind `replay`) that CI validates
//! and archives.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use coldstarts::session::envelope::JsonValue;
use coldstarts::session::{
    seeds, ExperimentSession, ProgressLog, ReplayTraceSource, TraceDirSource, WorkloadSource,
};
use coldstarts::Scenario;
use faas_platform::{PlatformConfig, SimReport, SimulationSpec};
use faas_workload::population::PopulationConfig;
use faas_workload::profile::RegionProfile;
use faas_workload::replay::TraceReplayWorkload;
use faas_workload::{ScenarioPreset, WorkloadSpec};
use fntrace::{RegionId, RegionTrace};

struct Args {
    smoke: bool,
    seed: u64,
    days: u32,
    region: u16,
    preset: ScenarioPreset,
    trace_dir: Option<PathBuf>,
    threads: usize,
    out: PathBuf,
}

fn usage() -> String {
    "usage: replay [--smoke] [--seed N] [--days N] [--region N] [--preset NAME]\n\
     \x20             [--trace-dir DIR] [--threads N] [--out PATH]\n\n\
     --smoke      one-day horizon and a reduced scenario set (what CI runs)\n\
     --seed       workload/simulation seed (default 7)\n\
     --days       synthetic trace duration in days (default 1)\n\
     --region     paper region index 1..=5 (default 2)\n\
     --preset     scenario preset shaping the synthetic trace (default diurnal)\n\
     --trace-dir  replay an on-disk CSV fileset instead of a synthetic round trip\n\
     --threads    worker threads, 0 = one per core (default 0)\n\
     --out        output path for the JSON report (default BENCH_replay.json)"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        seed: seeds::DEFAULT_SEED,
        days: 1,
        region: 2,
        preset: ScenarioPreset::Diurnal,
        trace_dir: None,
        threads: 0,
        out: PathBuf::from("BENCH_replay.json"),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--seed" => {
                args.seed = iter
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid seed: {e}"))?;
            }
            "--days" => {
                args.days = iter
                    .next()
                    .ok_or("--days needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid day count: {e}"))?;
            }
            "--region" => {
                args.region = iter
                    .next()
                    .ok_or("--region needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid region: {e}"))?;
            }
            "--preset" => {
                let name = iter.next().ok_or("--preset needs a value")?;
                args.preset = ScenarioPreset::from_name(&name)
                    .ok_or_else(|| format!("unknown preset {name:?}"))?;
            }
            "--trace-dir" => {
                args.trace_dir = Some(PathBuf::from(
                    iter.next().ok_or("--trace-dir needs a value")?,
                ));
            }
            "--threads" => {
                args.threads = iter
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid thread count: {e}"))?;
            }
            "--out" => {
                args.out = PathBuf::from(iter.next().ok_or("--out needs a value")?);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n\n{}", usage())),
        }
    }
    Ok(args)
}

/// Synthesises a preset workload, records its simulated trace, and round-trips
/// it through the CSV layer. Returns the direct report and the parsed trace.
fn synthetic_roundtrip(args: &Args) -> Result<(SimReport, RegionTrace), String> {
    let profile = RegionProfile::paper_region(args.region)
        .ok_or_else(|| format!("unknown region {} (paper regions are 1..=5)", args.region))?;
    let workload = WorkloadSpec::generate(
        &args.preset.profile(&profile),
        args.preset.calibration(args.days.max(1)),
        &PopulationConfig {
            function_scale: 0.002,
            volume_scale: 2.0e-6,
            max_requests_per_day: 2_000.0,
            min_functions: 15,
        },
        args.seed,
    );
    let (direct, trace) = SimulationSpec::new()
        .with_config(PlatformConfig {
            record_trace: true,
            ..PlatformConfig::default()
        })
        .with_seed(args.seed)
        .run(&workload);
    let trace = trace.ok_or("trace recording was enabled but produced no trace")?;

    // Round-trip the recorded trace through the CSV layout so the replay
    // exercises the same path a real released dataset would take.
    let dir = std::env::temp_dir().join(format!("faas_replay_bench_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    trace
        .write_csv_dir(&dir)
        .map_err(|e| format!("writing trace CSV: {e}"))?;
    let parsed = RegionTrace::read_csv_dir(trace.region, &dir)
        .map_err(|e| format!("reading trace CSV back: {e}"))?;
    std::fs::remove_dir_all(&dir).ok();
    Ok((direct, parsed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    // Counts of the ingested trace tables, for the envelope's `trace` block.
    struct TraceCounts {
        requests: u64,
        cold_starts: u64,
        functions: u64,
    }

    let (source_origin, direct, source, counts): (
        String,
        Option<SimReport>,
        Arc<dyn WorkloadSource>,
        TraceCounts,
    ) = match &args.trace_dir {
        Some(dir) => {
            // Stream-first ingestion: one bounded-memory pass validates the
            // fileset, infers the replay header and spills the request
            // stream to a temporary file; a few passes over the spill finish
            // the capped medians, and each session cell streams its events
            // from it.
            let region = RegionId::new(args.region);
            let source = match TraceDirSource::open(format!("replay/r{}", args.region), region, dir)
            {
                Ok(source) => source,
                Err(e) => {
                    eprintln!("failed to read trace from {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            };
            let counts = TraceCounts {
                requests: source.streamed().request_count(),
                cold_starts: source.streamed().cold_start_count(),
                functions: source.streamed().function_count(),
            };
            ("csv-dir".to_string(), None, Arc::new(source), counts)
        }
        None => match synthetic_roundtrip(&args) {
            Ok((direct, trace)) => {
                // Lower the trace into a replay-tagged workload, pinning
                // profile and calibration to the preset's so the replayed
                // run is comparable to the direct run.
                let mut builder = TraceReplayWorkload::new();
                if let Some(profile) = RegionProfile::paper_region(args.region) {
                    builder = builder
                        .with_profile(args.preset.profile(&profile))
                        .with_calibration(args.preset.calibration(args.days.max(1)));
                }
                let source = match ReplayTraceSource::from_trace_with(
                    format!("replay/r{}", trace.region.index()),
                    &builder,
                    &trace,
                ) {
                    Ok(source) => source,
                    Err(e) => {
                        eprintln!("failed to lower the recorded trace: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let counts = TraceCounts {
                    requests: trace.requests.len() as u64,
                    cold_starts: trace.cold_starts.len() as u64,
                    functions: trace.functions.len() as u64,
                };
                (
                    "synthetic-roundtrip".to_string(),
                    Some(direct),
                    Arc::new(source),
                    counts,
                )
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
    };
    // The lowered header and its stream's exact length describe the replay
    // without collecting its events.
    let (header, events) = {
        let lowered = source.lower(args.seed);
        let events = lowered
            .stream
            .events_hint()
            .expect("replay streams know their length");
        (lowered.header, events)
    };
    eprintln!(
        "replaying {events} events over {} functions (region {}, source {source_origin})",
        header.functions.len(),
        header.region.index(),
    );

    let scenarios = if args.smoke {
        vec![
            Scenario::Baseline,
            Scenario::AdaptiveKeepAlive,
            Scenario::TimerPrewarm,
        ]
    } else {
        Scenario::ALL.to_vec()
    };

    // One ExperimentSession is the run: scenarios × the replayed trace.
    let session = ExperimentSession::new()
        .scenarios(&scenarios)
        .source_arcs(std::iter::once(source))
        .with_seeds(vec![args.seed])
        .with_threads(args.threads);
    let mut progress = ProgressLog::stderr();
    let report = session.run_with_sinks(&mut [&mut progress]);
    print!("{}", report.render());

    let baseline = &report
        .cells
        .iter()
        .find(|c| c.policy == Scenario::Baseline.name())
        .expect("the scenario set always includes the baseline")
        .report;
    let replay_rate = baseline.cold_start_rate();
    let direct_rate = direct.as_ref().map(SimReport::cold_start_rate);
    if let Some(direct_rate) = direct_rate {
        eprintln!(
            "round trip: direct rate {:.4}% vs replay rate {:.4}% (deviation {:.4} pp)",
            100.0 * direct_rate,
            100.0 * replay_rate,
            100.0 * (replay_rate - direct_rate).abs(),
        );
    }

    // Emit the shared faas-coldstarts/session/v1 envelope (kind "replay"):
    // the common session section plus the replay payload.
    let mut envelope = report
        .envelope("replay")
        .with("source", JsonValue::str(&source_origin))
        .with(
            "preset",
            match args.trace_dir {
                Some(_) => JsonValue::Null,
                None => JsonValue::str(args.preset.name()),
            },
        )
        .with("region", JsonValue::U64(u64::from(header.region.index())))
        .with("seed", JsonValue::U64(args.seed))
        .with(
            "days",
            JsonValue::U64(u64::from(header.calibration.duration_days)),
        )
        .with(
            "trace",
            JsonValue::object(vec![
                ("requests", JsonValue::U64(counts.requests)),
                ("cold_starts", JsonValue::U64(counts.cold_starts)),
                ("functions", JsonValue::U64(counts.functions)),
            ]),
        )
        .with(
            "replay",
            JsonValue::object(vec![
                ("events", JsonValue::U64(events)),
                ("functions", JsonValue::U64(header.functions.len() as u64)),
            ]),
        );
    envelope.push(
        "roundtrip",
        match (direct.as_ref(), direct_rate) {
            (Some(direct), Some(direct_rate)) => JsonValue::object(vec![
                ("direct_requests", JsonValue::U64(direct.requests)),
                ("direct_cold_starts", JsonValue::U64(direct.cold_starts)),
                ("direct_cold_start_rate", JsonValue::F64(direct_rate)),
                ("replay_cold_start_rate", JsonValue::F64(replay_rate)),
                (
                    "rate_deviation",
                    JsonValue::F64((replay_rate - direct_rate).abs()),
                ),
            ]),
            _ => JsonValue::Null,
        },
    );
    envelope.push(
        "top_functions",
        JsonValue::Array(
            baseline
                .top_cold_start_functions(5)
                .iter()
                .map(|stats| {
                    JsonValue::object(vec![
                        ("function", JsonValue::U64(stats.function.raw())),
                        ("requests", JsonValue::U64(stats.requests)),
                        ("cold_starts", JsonValue::U64(stats.cold_starts)),
                    ])
                })
                .collect(),
        ),
    );
    if let Err(e) = std::fs::write(&args.out, envelope.to_json()) {
        eprintln!("failed to write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", args.out.display());
    ExitCode::SUCCESS
}
