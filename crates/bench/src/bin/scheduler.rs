//! Microbenchmark of the engine's hierarchical timing wheel.
//!
//! ```text
//! cargo run --release --bin scheduler -- --smoke
//! cargo run --release --bin scheduler -- --events 2000000 --out BENCH_engine.json
//! ```
//!
//! Exercises [`faas_platform::EventQueue`] — the timing wheel that replaced
//! the engine's `BinaryHeap` — under the access patterns the simulator
//! produces, isolated from workload generation and state transitions:
//!
//! * `uniform_push_drain`: events at uniform random deadlines across the
//!   wheel's levels, pushed in bulk and drained in order.
//! * `periodic_tick_train`: the steady-state engine shape — completions a
//!   few hundred milliseconds out, keep-alive expiries a minute out, and a
//!   `pop_due` horizon that advances with every arrival.
//! * `same_timestamp_bursts`: many events on identical deadlines, the
//!   batched case the wheel drains by cursor increment.
//! * `cascade_far_future`: deadlines spread across high wheel levels plus
//!   beyond the 2^32 ms horizon, forcing cascades and overflow migration.
//!
//! Two end-to-end rows measure the whole engine rather than the bare wheel:
//!
//! * `engine_run`: a full streamed simulation — the committed engine
//!   throughput baseline.
//! * `node_model_run`: the same workload with the node-level cluster model
//!   enabled (cache-cold-failover node pool), so the hot-path cost of
//!   placement, per-node image caches, and pull contention is visible and
//!   gated next to the plain engine row. The row asserts that
//!   per-component cold-start attribution sums exactly to the total charged
//!   latency before reporting.
//!
//! Writes `BENCH_engine.json` (`faas-coldstarts/engine/v1`): one entry per
//! scenario with `events` (pushes + pops; processed arrivals for the
//! engine rows), `wall_ms`, and `events_per_sec`, plus an aggregate
//! `total`. The committed file is the smoke baseline CI validates and gates
//! against (see `docs/bench-schemas.md`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use coldstarts::session::envelope::f64_lit;
use faas_platform::{Event, EventQueue, NodeScenario, PlatformConfig, SimulationSpec};
use faas_stats::rng::Xoshiro256pp;
use faas_workload::population::PopulationConfig;
use faas_workload::profile::RegionProfile;
use faas_workload::stream::StreamedWorkload;
use faas_workload::ScenarioPreset;

struct Args {
    smoke: bool,
    seed: u64,
    events: Option<usize>,
    out: PathBuf,
}

fn usage() -> String {
    "usage: scheduler [--smoke] [--seed N] [--events N] [--out PATH]\n\n\
     --smoke    reduced per-scenario event count (what CI runs)\n\
     --seed     RNG seed for deadline generation (default 7)\n\
     --events   events per scenario (default 200000 smoke, 2000000 full)\n\
     --out      output path for the JSON report (default BENCH_engine.json)"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        seed: 7,
        events: None,
        out: PathBuf::from("BENCH_engine.json"),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--seed" => {
                let v = iter.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--events" => {
                let v = iter.next().ok_or("--events needs a value")?;
                args.events = Some(v.parse().map_err(|e| format!("--events: {e}"))?);
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

struct ScenarioResult {
    name: &'static str,
    events: u64,
    wall_ms: f64,
}

impl ScenarioResult {
    fn events_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.events as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }
}

/// Drains the queue completely, returning the number of pops and asserting
/// the pop sequence never goes backwards in time.
fn drain_all(queue: &mut EventQueue) -> u64 {
    let mut pops = 0u64;
    let mut last = 0u64;
    while let Some((t, _)) = queue.pop() {
        assert!(t >= last, "wheel drained out of order: {t} after {last}");
        last = t;
        pops += 1;
    }
    pops
}

/// Uniform random deadlines across the full wheel range (levels 0..=3).
fn uniform_push_drain(n: usize, rng: &mut Xoshiro256pp) -> ScenarioResult {
    let deadlines: Vec<u64> = (0..n).map(|_| rng.next_u64() & 0xFFFF_FFFF).collect();
    let mut queue = EventQueue::new();
    let start = Instant::now();
    for &t in &deadlines {
        queue.push(t, Event::PrewarmTick);
    }
    let pops = drain_all(&mut queue);
    ScenarioResult {
        name: "uniform_push_drain",
        events: n as u64 + pops,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// The engine's steady-state pattern: for each simulated arrival, one
/// completion lands a few hundred ms out, one keep-alive expiry a minute
/// out, and `pop_due` drains everything due at the advancing arrival clock.
fn periodic_tick_train(n: usize, rng: &mut Xoshiro256pp) -> ScenarioResult {
    let steps = n / 3;
    let gaps: Vec<u64> = (0..steps).map(|_| rng.next_u64() % 200).collect();
    let execs: Vec<u64> = (0..steps).map(|_| 1 + rng.next_u64() % 500).collect();
    let mut queue = EventQueue::new();
    let mut ops = 0u64;
    let start = Instant::now();
    let mut now = 0u64;
    for i in 0..steps {
        now += gaps[i];
        while let Some((t, _)) = queue.pop_due(now) {
            assert!(t <= now);
            ops += 1;
        }
        queue.push(now + execs[i], Event::PrewarmTick);
        queue.push(now + 60_000, Event::PrewarmTick);
        ops += 2;
    }
    ops += drain_all(&mut queue);
    ScenarioResult {
        name: "periodic_tick_train",
        events: ops,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Bursts of events on identical deadlines: the same-timestamp batch case.
fn same_timestamp_bursts(n: usize, rng: &mut Xoshiro256pp) -> ScenarioResult {
    const BURST: usize = 64;
    let stamps: Vec<u64> = (0..n.div_ceil(BURST))
        .map(|_| rng.next_u64() % (1 << 24))
        .collect();
    let mut queue = EventQueue::new();
    let start = Instant::now();
    let mut pushes = 0u64;
    for &t in &stamps {
        for _ in 0..BURST {
            queue.push(t, Event::PrewarmTick);
            pushes += 1;
        }
    }
    let pops = drain_all(&mut queue);
    ScenarioResult {
        name: "same_timestamp_bursts",
        events: pushes + pops,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Deadlines biased to high levels and past the 2^32 ms wheel horizon, so
/// most pops involve a cascade or an overflow-heap migration.
fn cascade_far_future(n: usize, rng: &mut Xoshiro256pp) -> ScenarioResult {
    let deadlines: Vec<u64> = (0..n)
        .map(|_| {
            let r = rng.next_u64();
            if r.is_multiple_of(4) {
                // Beyond the wheel: parks in the overflow heap.
                (1 << 32) + (r >> 32)
            } else {
                // Levels 2-3: every pop ends up cascading.
                (1 << 16) + (r & 0xFFFF_FFFF)
            }
        })
        .collect();
    let mut queue = EventQueue::new();
    let start = Instant::now();
    for &t in &deadlines {
        queue.push(t, Event::PrewarmTick);
    }
    let pops = drain_all(&mut queue);
    ScenarioResult {
        name: "cascade_far_future",
        events: n as u64 + pops,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// The end-to-end bench workload: a diurnal preset sized to roughly `n`
/// arrivals (~700 events per function over two days at these scales).
fn bench_workload(n: usize, seed: u64) -> StreamedWorkload {
    let preset = ScenarioPreset::Diurnal;
    let profile = RegionProfile::r2();
    let population = PopulationConfig {
        function_scale: 0.01,
        volume_scale: 2.0e-4,
        max_requests_per_day: 200_000.0,
        min_functions: (n / 700).max(50),
    };
    StreamedWorkload::generate(
        &preset.profile(&profile),
        preset.calibration(2),
        &population,
        seed,
    )
}

/// Runs the bench workload through the streamed engine.
fn run_engine(
    workload: &StreamedWorkload,
    config: PlatformConfig,
    seed: u64,
) -> faas_platform::SimReport {
    SimulationSpec::new()
        .with_config(config)
        .with_seed(seed)
        .run_streamed(workload.header(), workload.stream())
        .0
}

/// End-to-end engine run: a diurnal preset workload sized to roughly `n`
/// arrivals. The reported `events` count is the engine's processed-arrival
/// counter.
fn engine_run(n: usize, seed: u64) -> ScenarioResult {
    let workload = bench_workload(n, seed);
    let config = PlatformConfig {
        record_trace: false,
        ..PlatformConfig::default()
    };
    let start = Instant::now();
    let report = run_engine(&workload, config, seed);
    ScenarioResult {
        name: "engine_run",
        events: report.events_processed,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// End-to-end run with the node-level cluster model enabled: the same
/// workload as `engine_run`, but every pod creation routes through
/// placement, per-node image caches, and bandwidth-shared layer pulls (the
/// cache-cold-failover scenario — all caches start empty, so this is the
/// node layer's worst-case hot-path cost). Before reporting, the row
/// asserts the engine's per-component invariant: charged cold-start
/// components sum exactly to the total charged latency.
fn node_model_run(n: usize, seed: u64) -> ScenarioResult {
    let workload = bench_workload(n, seed);
    let config = PlatformConfig {
        record_trace: false,
        node: Some(NodeScenario::CacheColdFailover.node_config()),
        ..PlatformConfig::default()
    };
    let start = Instant::now();
    let report = run_engine(&workload, config, seed);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        report.cold_components.total_us(),
        report.cold_us_total,
        "per-component cold-start attribution must sum exactly to the total"
    );
    assert!(
        report.layer_pulls > 0,
        "a cache-cold run must pull at least one layer"
    );
    ScenarioResult {
        name: "node_model_run",
        events: report.events_processed,
        wall_ms,
    }
}

fn to_json(args: &Args, per_scenario: usize, results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"faas-coldstarts/engine/v1\",\n");
    out.push_str("  \"kind\": \"engine\",\n");
    out.push_str(&format!("  \"seed\": {},\n", args.seed));
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if args.smoke { "smoke" } else { "full" }
    ));
    out.push_str(&format!("  \"events_per_scenario\": {per_scenario},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"wall_ms\": {}, \"events_per_sec\": {}}}{}\n",
            r.name,
            r.events,
            f64_lit(r.wall_ms),
            f64_lit(r.events_per_sec()),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let events: u64 = results.iter().map(|r| r.events).sum();
    let wall_ms: f64 = results.iter().map(|r| r.wall_ms).sum();
    let eps = if wall_ms > 0.0 {
        events as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    out.push_str(&format!(
        "  \"total\": {{\"events\": {}, \"wall_ms\": {}, \"events_per_sec\": {}}}\n",
        events,
        f64_lit(wall_ms),
        f64_lit(eps)
    ));
    out.push_str("}\n");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let per_scenario = args
        .events
        .unwrap_or(if args.smoke { 200_000 } else { 2_000_000 });
    let mut rng = Xoshiro256pp::seed_from_u64(args.seed ^ 0x0007_7EE1);

    let results = vec![
        uniform_push_drain(per_scenario, &mut rng),
        periodic_tick_train(per_scenario, &mut rng),
        same_timestamp_bursts(per_scenario, &mut rng),
        cascade_far_future(per_scenario, &mut rng),
        engine_run(per_scenario, args.seed),
        node_model_run(per_scenario, args.seed),
    ];
    for r in &results {
        println!(
            "scheduler: {:<22} events={:>8} wall_ms={:>9.3} events_per_sec={:.0}",
            r.name,
            r.events,
            r.wall_ms,
            r.events_per_sec()
        );
    }
    let json = to_json(&args, per_scenario, &results);
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("failed to write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("scheduler: wrote {}", args.out.display());
    ExitCode::SUCCESS
}
