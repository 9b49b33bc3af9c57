//! The repository benchmark: one command, four workloads, end-to-end
//! metrics from untraced passes and per-layer metrics from a traced pass.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-families --seed 7 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the workload runs as repeated untraced passes for
//! `--seconds` seconds (at least three passes) and the medians of the
//! end-to-end metrics are printed. With `--trace 1` it runs one untraced and
//! one traced pass and prints the per-layer metrics. Every pass checks its
//! outputs; the last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`, and the exit code is
//! non-zero when any check failed. See `perfbench/README.md`.

mod check;
mod host;
mod layers;
mod stats;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use coldstarts::session::seeds::DEFAULT_SEED;

use workloads::{secs, Ops, Pass, Workload};

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit. A workload that does not exercise a
/// layer reports 0 for it.
const PER_LAYER: [(&str, &str); 48] = [
    ("trace.csv.read_s", "s"),
    ("trace.csv.mb_per_s", "MB/s"),
    ("replay.open_s", "s"),
    ("replay.open_share", "frac"),
    ("stream.records", "count"),
    ("stream.next_s", "s"),
    ("stream.ns_per_record", "ns"),
    ("workload.lower_s", "s"),
    ("synth.build_s", "s"),
    ("engine.self_s", "s"),
    ("engine.ns_per_record", "ns"),
    ("engine.epochs", "count"),
    ("engine.cold_starts", "count"),
    ("engine.pods_created", "count"),
    ("node.ns_per_record", "ns"),
    ("node.layer_pulls", "count"),
    ("node.cache_hit_ratio", "frac"),
    ("policy.keep_alive.calls", "count"),
    ("policy.keep_alive.s", "s"),
    ("policy.prewarm.calls", "count"),
    ("policy.prewarm.s", "s"),
    ("policy.prewarm.pods_requested", "count"),
    ("policy.admission.calls", "count"),
    ("policy.admission.s", "s"),
    ("sweep.keepalive.ns_per_record", "ns"),
    ("sweep.prewarm.ns_per_record", "ns"),
    ("sweep.pool-prediction.ns_per_record", "ns"),
    ("sweep.concurrency.ns_per_record", "ns"),
    ("sweep.node-placement.ns_per_record", "ns"),
    ("sweep.adaptive.ns_per_record", "ns"),
    ("sweep.fold_s", "s"),
    ("session.cells", "count"),
    ("session.cell_ms.p50", "ms"),
    ("session.cell_ms.max", "ms"),
    ("session.busy_frac", "frac"),
    ("session.envelope_s", "s"),
    ("analysis.summary.s", "s"),
    ("analysis.regions.s", "s"),
    ("analysis.peaks.s", "s"),
    ("analysis.holiday.s", "s"),
    ("analysis.composition.s", "s"),
    ("analysis.distributions.s", "s"),
    ("analysis.components.s", "s"),
    ("analysis.attribution.s", "s"),
    ("analysis.utility.s", "s"),
    ("trace.records", "count"),
    ("tracing.overhead_s", "s"),
    ("tracing.direct_share", "frac"),
];

/// Passes below which a run never stops, however long they take.
const MIN_PASSES: usize = 3;

/// Cells of a session run on at most this many worker threads.
const MAX_THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n\n{}", usage())),
        }
    }
    if args.workload.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

/// Facts of one untraced pass.
struct Sample {
    wall_s: f64,
    setup_s: f64,
    records: u64,
    cpu_s: f64,
    peak_rss_mb: f64,
}

/// Checks the pass's digest and adds its operations to `ops`: a digest
/// that differs from the expected one fails every operation of the pass.
fn tally(ops: &mut Ops, pass: &Pass, expected: u64, what: &str) {
    ops.attempted += pass.ops.attempted;
    ops.failed += pass.ops.failed;
    ops.errors.extend(pass.ops.errors.iter().cloned());
    if pass.digest != expected {
        ops.failed += pass.ops.attempted - pass.ops.failed;
        ops.errors.push(format!(
            "{what}: output digest {:#018x} != expected {expected:#018x}",
            pass.digest
        ));
    }
}

/// Runs `call`, turning a panic into failed operations.
fn guarded<T>(ops: &mut Ops, operations: u64, call: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(out) => Some(out),
        Err(panic) => {
            let why = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            ops.fail_all(operations, format!("pass panicked: {why}"));
            None
        }
    }
}

/// Untraced passes for `seconds`: medians of the end-to-end metrics.
fn measure(w: &dyn Workload, seed: u64, seconds: f64, ops: &mut Ops) -> Vec<(String, f64)> {
    let mut samples: Vec<Sample> = Vec::new();
    let mut expected = (seed == DEFAULT_SEED).then(|| w.pinned_digest());
    let started = Instant::now();
    let mut passes = 0;
    loop {
        passes += 1;
        let rss_reset = host::reset_peak_rss();
        let cpu_before = host::cpu_seconds();
        let pass_started = Instant::now();
        let pass = guarded(ops, w.operations(), || w.run());
        let elapsed_s = secs(pass_started);
        let cpu_used_s = host::cpu_seconds() - cpu_before;
        if let Some(pass) = pass {
            // Set-up repeats made only to time a short set-up run on this
            // thread and are not part of the pass.
            let wall_s = elapsed_s - pass.repeat_s;
            let cpu_s = cpu_used_s - pass.repeat_s;
            let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
            eprintln!(
                "pass {passes}: wall {wall_s:.4} s, setup {:.6} s, cpu {cpu_s:.4} s, \
                 peak rss {peak_rss_mb:.1} MiB",
                pass.setup_s
            );
            let want = *expected.get_or_insert(pass.digest);
            tally(ops, &pass, want, &format!("pass {}", samples.len() + 1));
            samples.push(Sample {
                wall_s,
                setup_s: pass.setup_s,
                records: pass.records,
                cpu_s,
                peak_rss_mb,
            });
            if samples.len() == 1 {
                println!(
                    "pass 1: records={} digest={:#018x} peak_rss_reset={rss_reset}",
                    pass.records, pass.digest
                );
            }
        }
        if passes >= MIN_PASSES && secs(started) + elapsed_s > seconds {
            break;
        }
    }
    let column = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let columns = [
        column(&|s| s.wall_s),
        column(&|s| s.setup_s),
        column(&|s| s.records as f64 / (s.wall_s - s.setup_s)),
        column(&|s| s.cpu_s),
        column(&|s| s.peak_rss_mb),
    ];
    println!("passes: {}", samples.len());
    END_TO_END
        .iter()
        .zip(columns)
        .map(|(&(name, unit), values)| {
            let value = stats::median(&values);
            println!(
                "{name:<16} {value:>16.6} {unit:<4} median of {}, IQR/median {:.4}",
                values.len(),
                stats::relative_spread(&values)
            );
            (name.to_string(), value)
        })
        .collect()
}

/// One untraced and one traced pass: the per-layer metrics.
fn trace(w: &dyn Workload, seed: u64, ops: &mut Ops) -> Vec<(String, f64)> {
    let operations = w.operations();
    let pass_started = Instant::now();
    let Some(untraced) = guarded(ops, operations, || w.run()) else {
        return Vec::new();
    };
    let untraced_wall_s = secs(pass_started) - untraced.repeat_s;
    let expected = if seed == DEFAULT_SEED {
        w.pinned_digest()
    } else {
        untraced.digest
    };
    tally(ops, &untraced, expected, "untraced pass");
    let traced_started = Instant::now();
    let Some(traced) = guarded(ops, operations, || w.run_traced(untraced_wall_s)) else {
        return Vec::new();
    };
    let traced_wall_s = secs(traced_started);
    tally(ops, &traced.pass, expected, "traced pass");
    println!(
        "untraced pass {untraced_wall_s:.3} s, traced phase {traced_wall_s:.3} s, \
         records={} digest={:#018x}",
        traced.pass.records, traced.pass.digest
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = traced.layers.get(name).copied().unwrap_or(0.0);
            println!("{name:<38} {value:>18.6} {unit}");
            (name.to_string(), value)
        })
        .collect()
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let nproc = host::nproc();
    let threads = nproc.min(MAX_THREADS);
    let workload = match workloads::build(&args.workload, args.seed, threads) {
        Ok(w) => w,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload={} seed={} nproc={nproc} threads={threads} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (name, value) in workload.provenance() {
        println!("input {name}={value}");
    }

    let mut ops = Ops::default();
    let metrics = if args.trace {
        trace(workload.as_ref(), args.seed, &mut ops)
    } else {
        measure(workload.as_ref(), args.seed, args.seconds, &mut ops)
    };
    drop(workload);

    for error in ops.errors.iter().take(20) {
        println!("FAILED {error}");
    }
    let all_finite = metrics.iter().all(|(_, v)| v.is_finite());
    let correct = ops.failed == 0 && ops.attempted > 0 && all_finite;
    println!(
        "failed_frac {} ({} of {} operations)",
        ops.failed as f64 / ops.attempted.max(1) as f64,
        ops.failed,
        ops.attempted
    );
    let units: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = units.iter().find(|(n, _)| n == name).map_or("", |u| u.1);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the metric
    /// names this binary prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let names = END_TO_END.iter().chain(PER_LAYER.iter());
        let mut listed = 0;
        for (name, unit) in names {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            listed += 1;
        }
        assert_eq!(json.matches("\"unit\"").count(), listed);
        for name in workloads::NAMES {
            assert!(json.contains(&format!("\"name\": \"{name}\"")));
        }
    }
}
