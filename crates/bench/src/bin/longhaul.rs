//! Long-horizon streaming smoke: multi-day workloads in O(1) memory.
//!
//! ```text
//! cargo run --release --bin longhaul -- --days 7
//! cargo run --release --bin longhaul -- --days 7 --materialize   # eager baseline
//! cargo run --release --bin longhaul -- --days 7 --write-trace DIR  # emit a CSV fileset
//! cargo run --release --bin longhaul -- --trace-dir DIR          # disk-streamed replay
//! ```
//!
//! Generates a multi-day scenario-preset workload through
//! `faas_workload::stream` — per-function generators merged by a binary heap
//! — and drives `SimulationEngine::run_streamed` directly, so no event list
//! is ever materialised. CI's `long-horizon-smoke` job runs the 7-day
//! diurnal preset under a hard `ulimit -v` address-space ceiling sized well
//! below what the materialised event vector would need: completing under the
//! ceiling is the proof that generation memory is bounded by the population,
//! not the horizon.
//!
//! With `--materialize` the same workload is built eagerly first (the
//! pre-streaming behaviour) and then simulated; under the CI ceiling that
//! path aborts, which is exactly the contrast the job documents. The
//! `--max-rss-kb` flag turns the printed peak into a hard check.
//!
//! The same contract extends to disk: `--trace-dir DIR` replays an on-disk
//! CSV fileset (the `RegionTrace::write_csv_dir` layout) through
//! `TraceReplayWorkload::open_csv_dir`, which parses the request CSV once and
//! replays from a spill file in the OS temporary directory (removed when the
//! replay is done), so peak RSS is bounded by the function population and
//! the reorder window — not the trace length — while `--trace-dir DIR
//! --materialize` parses the whole request table into memory first (the
//! pre-streaming behaviour). `--write-trace DIR` generates
//! the multi-day synthetic CSV fileset those modes consume; CI runs it
//! outside the ceiling, then replays under it.

use std::path::PathBuf;
use std::process::ExitCode;

use coldstarts::session::seeds;
use faas_platform::{PlatformConfig, SimulationSpec};
use faas_workload::population::PopulationConfig;
use faas_workload::profile::RegionProfile;
use faas_workload::replay::TraceReplayWorkload;
use faas_workload::stream::{ArrivalStream, StreamedWorkload};
use faas_workload::{ScenarioPreset, WorkloadSpec};
use fntrace::synth::{SynthShape, SynthTraceSpec};
use fntrace::{RegionId, RegionTrace};

struct Args {
    days: u32,
    preset: ScenarioPreset,
    region: u16,
    seed: u64,
    function_scale: f64,
    volume_scale: f64,
    max_requests_per_day: f64,
    min_functions: usize,
    materialize: bool,
    max_rss_kb: Option<u64>,
    trace_dir: Option<PathBuf>,
    write_trace: Option<PathBuf>,
    trace_functions: usize,
    trace_rpd: f64,
}

fn usage() -> String {
    "usage: longhaul [--days N] [--preset NAME] [--region N] [--seed N]\n\
     \x20               [--function-scale F] [--volume-scale F] [--max-rpd F]\n\
     \x20               [--min-functions N] [--materialize] [--max-rss-kb N]\n\
     \x20               [--trace-dir DIR] [--write-trace DIR]\n\
     \x20               [--trace-functions N] [--trace-rpd F]\n\n\
     --days           horizon in days (default 7)\n\
     --preset         scenario preset (default diurnal)\n\
     --region         paper region index 1..=5 (default 2)\n\
     --seed           workload/simulation seed (default 7)\n\
     --function-scale population scale factor (default 0.01)\n\
     --volume-scale   per-function volume scale (default 2.0e-4)\n\
     --max-rpd        cap on one function's requests/day (default 200000)\n\
     --min-functions  minimum population size (default 50)\n\
     --materialize    build the full event vector first (eager baseline);\n\
     \x20               with --trace-dir, parse the whole request table first\n\
     --max-rss-kb     fail if peak RSS (VmHWM) exceeds this many kB\n\
     --trace-dir      replay an on-disk CSV fileset, streamed from disk;\n\
     \x20               its horizon is the fileset's (--days, --preset unused)\n\
     --write-trace    generate a synthetic CSV fileset into DIR and exit\n\
     --trace-functions  functions in the --write-trace fileset (default 40)\n\
     --trace-rpd      mean requests/day per function for --write-trace\n\
     \x20               (default 2000)"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        days: 7,
        preset: ScenarioPreset::Diurnal,
        region: 2,
        seed: seeds::DEFAULT_SEED,
        function_scale: 0.01,
        volume_scale: 2.0e-4,
        max_requests_per_day: 200_000.0,
        min_functions: 50,
        materialize: false,
        max_rss_kb: None,
        trace_dir: None,
        write_trace: None,
        trace_functions: 40,
        trace_rpd: 2_000.0,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut take = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--days" => args.days = parse(&take("--days")?)?,
            "--preset" => {
                let name = take("--preset")?;
                args.preset = ScenarioPreset::from_name(&name)
                    .ok_or_else(|| format!("unknown preset {name:?}"))?;
            }
            "--region" => args.region = parse(&take("--region")?)?,
            "--seed" => args.seed = parse(&take("--seed")?)?,
            "--function-scale" => args.function_scale = parse(&take("--function-scale")?)?,
            "--volume-scale" => args.volume_scale = parse(&take("--volume-scale")?)?,
            "--max-rpd" => args.max_requests_per_day = parse(&take("--max-rpd")?)?,
            "--min-functions" => args.min_functions = parse(&take("--min-functions")?)?,
            "--materialize" => args.materialize = true,
            "--max-rss-kb" => args.max_rss_kb = Some(parse(&take("--max-rss-kb")?)?),
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(take("--trace-dir")?)),
            "--write-trace" => args.write_trace = Some(PathBuf::from(take("--write-trace")?)),
            "--trace-functions" => args.trace_functions = parse(&take("--trace-functions")?)?,
            "--trace-rpd" => args.trace_rpd = parse(&take("--trace-rpd")?)?,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n\n{}", usage())),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse()
        .map_err(|e| format!("invalid value {text:?}: {e}"))
}

/// Peak resident set size (VmHWM) of this process in kB, where available.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let days = args.days.max(1);

    // Fileset generation: emit the synthetic multi-day trace CSVs that the
    // --trace-dir modes replay, then exit. CI runs this step outside the
    // address-space ceiling; the replay below runs under it.
    if let Some(dir) = &args.write_trace {
        let trace = SynthTraceSpec {
            region: RegionId::new(args.region),
            shape: SynthShape::Diurnal,
            functions: args.trace_functions,
            duration_days: days,
            mean_requests_per_day: args.trace_rpd,
            keep_alive_secs: 60.0,
            seed: args.seed,
        }
        .generate();
        if let Err(e) = trace.write_csv_dir(dir) {
            eprintln!("longhaul: failed to write {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        println!(
            "longhaul: wrote trace requests={} cold_starts={} functions={} dir={}",
            trace.requests.len(),
            trace.cold_starts.len(),
            trace.functions.len(),
            dir.display(),
        );
        return ExitCode::SUCCESS;
    }

    let mode = if args.materialize {
        "materialized"
    } else {
        "streamed"
    };
    match &args.trace_dir {
        // A fileset sets its own horizon, so the preset and `--days` do not
        // apply; the day count is printed once the trace is open.
        Some(dir) => println!(
            "longhaul: mode={mode} trace_dir={} region={} seed={}",
            dir.display(),
            args.region,
            args.seed,
        ),
        None => println!(
            "longhaul: mode={mode} preset={} region={} days={days} seed={}",
            args.preset.name(),
            args.region,
            args.seed,
        ),
    }

    // Trace recording would itself accumulate one record per request —
    // defeating the O(1)-memory point of the run — so it stays off.
    let spec = SimulationSpec::new()
        .with_config(PlatformConfig {
            record_trace: false,
            ..PlatformConfig::default()
        })
        .with_seed(args.seed);
    let started = std::time::Instant::now();

    // Disk-backed replay: the horizon and event count come from the trace
    // fileset, not from the preset generator.
    if let Some(dir) = &args.trace_dir {
        let region = RegionId::new(args.region);
        let report = if args.materialize {
            // Eager contrast: the whole request table, then the full event
            // vector, are resident before the first event simulates.
            let trace = match RegionTrace::read_csv_dir(region, dir) {
                Ok(trace) => trace,
                Err(e) => {
                    eprintln!("longhaul: failed to read trace from {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            };
            let workload = match TraceReplayWorkload::new().build(&trace) {
                Ok(workload) => workload,
                Err(e) => {
                    eprintln!(
                        "longhaul: failed to lower trace from {}: {e}",
                        dir.display()
                    );
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "longhaul: materialized {} events ({} MiB event vector) days={}",
                workload.len(),
                (workload.len() * std::mem::size_of::<faas_workload::WorkloadEvent>()) >> 20,
                workload.calibration.duration_days,
            );
            spec.run(&workload).0
        } else {
            let streamed = match TraceReplayWorkload::new().open_csv_dir(region, dir) {
                Ok(streamed) => streamed,
                Err(e) => {
                    eprintln!("longhaul: failed to open trace at {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "longhaul: streaming {} trace requests over {} functions from {} days={}",
                streamed.request_count(),
                streamed.header().functions.len(),
                dir.display(),
                streamed.header().calibration.duration_days,
            );
            println!("longhaul: open_passes={}", streamed.open_passes());
            match streamed.stream() {
                Ok(stream) => spec.run_streamed(streamed.header(), stream).0,
                Err(e) => {
                    eprintln!("longhaul: failed to open trace stream: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        return finish(&args, report, started);
    }

    let Some(profile) = RegionProfile::paper_region(args.region) else {
        eprintln!("unknown region {} (paper regions are 1..=5)", args.region);
        return ExitCode::FAILURE;
    };
    let population = PopulationConfig {
        function_scale: args.function_scale,
        volume_scale: args.volume_scale,
        max_requests_per_day: args.max_requests_per_day,
        min_functions: args.min_functions,
    };

    let report = if args.materialize {
        // Eager baseline: the full Vec<WorkloadEvent> is allocated before
        // the first event simulates — memory scales with horizon x rate.
        let workload = WorkloadSpec::generate(
            &args.preset.profile(&profile),
            args.preset.calibration(days),
            &population,
            args.seed,
        );
        println!(
            "longhaul: materialized {} events ({} MiB event vector)",
            workload.len(),
            (workload.len() * std::mem::size_of::<faas_workload::WorkloadEvent>()) >> 20,
        );
        spec.run(&workload).0
    } else {
        let workload = StreamedWorkload::generate(
            &args.preset.profile(&profile),
            args.preset.calibration(days),
            &population,
            args.seed,
        );
        let stream = workload.stream();
        println!(
            "longhaul: streaming {} functions over {} ms horizon",
            workload.header().functions.len(),
            stream.horizon_ms(),
        );
        spec.run_streamed(workload.header(), stream).0
    };
    finish(&args, report, started)
}

/// Prints the count/throughput/RSS summary shared by every mode and applies
/// the `--max-rss-kb` ceiling.
fn finish(args: &Args, report: faas_platform::SimReport, started: std::time::Instant) -> ExitCode {
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let events_per_sec = if wall_ms > 0.0 {
        report.events_processed as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    println!(
        "longhaul: events={} requests={} cold_starts={} wall_ms={wall_ms:.0} events_per_sec={events_per_sec:.0}",
        report.events_processed, report.requests, report.cold_starts,
    );
    match peak_rss_kb() {
        Some(kb) => {
            println!("longhaul: peak_rss_kb={kb}");
            if let Some(limit) = args.max_rss_kb {
                if kb > limit {
                    eprintln!("longhaul: peak RSS {kb} kB exceeds the {limit} kB ceiling");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            println!("longhaul: peak_rss_kb=unavailable");
            // A requested hard ceiling must never silently degrade to a
            // no-op: no measurement means no proof.
            if args.max_rss_kb.is_some() {
                eprintln!("longhaul: --max-rss-kb was set but VmHWM is unavailable");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.events_processed == 0 {
        eprintln!("longhaul: the workload produced no events");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
