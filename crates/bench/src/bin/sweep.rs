//! Policy parameter sweep with Pareto reporting and machine-readable output.
//!
//! ```text
//! cargo run --release --bin sweep -- --smoke
//! cargo run --release --bin sweep -- --days 2 --seed 7 --regions 2,3 --out BENCH_sweep.json
//! ```
//!
//! Expands every policy family's parameter space, declares one
//! `coldstarts::session::ExperimentSession` over the scenario presets
//! (diurnal, bursty, holiday-peak, low-traffic-tail), streams per-cell
//! progress to stderr through a `ReportSink`, prints the per-configuration
//! table with the Pareto front over (cold-start rate, memory-GB-seconds
//! wasted), and writes the report as `BENCH_sweep.json` in the shared
//! `faas-coldstarts/session/v1` envelope that CI validates and archives.

use std::path::PathBuf;
use std::process::ExitCode;

use coldstarts::session::ProgressLog;
use coldstarts::sweep::{PolicyFamily, PolicySweep};
use faas_workload::profile::RegionProfile;

struct Args {
    smoke: bool,
    seed: u64,
    days: Option<u32>,
    regions: Vec<u16>,
    threads: usize,
    out: PathBuf,
}

fn usage() -> String {
    "usage: sweep [--smoke] [--seed N] [--days N] [--regions 2,3] [--threads N] [--out PATH]\n\n\
     --smoke    reduced spaces and a one-day horizon (what CI runs)\n\
     --seed     workload/simulation seed (default 7)\n\
     --days     trace duration per cell in days (default 1 smoke, 2 full)\n\
     --regions  comma-separated paper region indices 1..=5 (default 2)\n\
     --threads  worker threads, 0 = one per core (default 0)\n\
     --out      output path for the JSON report (default BENCH_sweep.json)"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        seed: 7,
        days: None,
        regions: vec![2],
        threads: 0,
        out: PathBuf::from("BENCH_sweep.json"),
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
                args.days = Some(
                    iter.next()
                        .ok_or("--days needs a value")?
                        .parse()
                        .map_err(|e| format!("invalid day count: {e}"))?,
                );
            }
            "--regions" => {
                let list = iter.next().ok_or("--regions needs a value")?;
                args.regions = list
                    .split(',')
                    .map(|s| s.trim().parse::<u16>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("invalid region list: {e}"))?;
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let mut regions = Vec::new();
    for index in &args.regions {
        match RegionProfile::paper_region(*index) {
            Some(profile) => regions.push(profile),
            None => {
                eprintln!("unknown region {index} (paper regions are 1..=5)");
                return ExitCode::FAILURE;
            }
        }
    }

    // Declare the sweep: every family's (smoke or full) parameter space over
    // the scenario presets × regions × the seed.
    let spaces = PolicyFamily::ALL
        .iter()
        .map(|f| {
            if args.smoke {
                f.smoke_space()
            } else {
                f.param_space()
            }
        })
        .collect();
    let sweep = PolicySweep {
        seeds: vec![args.seed],
        spaces,
        duration_days: args.days.unwrap_or(if args.smoke { 1 } else { 2 }).max(1),
        regions,
        threads: args.threads,
        ..PolicySweep::default()
    };

    // One ExperimentSession is the run: the sweep declaration lowers into
    // policies × preset sources × seeds, and the report is folded back from
    // the session's deterministic cell stream.
    let session = sweep.session();
    eprintln!(
        "sweeping {} configs x {} presets x {} regions x {} seeds \
         ({} cells, {} day(s) each)...",
        sweep.configs().len(),
        sweep.presets.len(),
        sweep.regions.len(),
        sweep.seeds.len(),
        session.cell_count(),
        sweep.duration_days,
    );
    let mut progress = ProgressLog::stderr();
    let session_report = session.run_with_sinks(&mut [&mut progress]);
    let report = sweep.fold(session_report);

    print!("{}", report.render());
    println!();
    println!(
        "pareto front ({} of {} configs):",
        report.pareto.len(),
        report.configs.len()
    );
    for c in report.front() {
        println!(
            "  {:<52} rate {:.4}%  mem waste {:.2} GB-s",
            c.config.label(),
            100.0 * c.cold_start_rate,
            c.mem_gb_s_wasted
        );
    }

    if let Err(e) = std::fs::write(&args.out, report.to_envelope().to_json()) {
        eprintln!("failed to write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", args.out.display());
    ExitCode::SUCCESS
}
