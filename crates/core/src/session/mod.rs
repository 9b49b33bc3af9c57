//! One declarative API for every experiment shape.
//!
//! All of the paper's results are instances of one shape — **policies ×
//! workload sources × seeds → cold-start metrics** — and
//! [`ExperimentSession`] declares that shape once, owning workload
//! selection, parallel fan-out, and JSON emission for every experiment:
//!
//! ```text
//!  WorkloadSource (trait)          ExperimentSession             ReportSink (trait)
//!  ┌─────────────────────┐   ┌──────────────────────────┐   ┌──────────────────────┐
//!  │ PresetSource        │   │ policies: [PolicyConfig] │   │ CellCollector        │
//!  │ RegionSource        ├──▶│ sources:  [dyn Source]   ├──▶│ ProgressLog          │
//!  │ ReplayTraceSource   │   │ seeds:    [u64]          │   │ (your own impl)      │
//!  │ SynthTraceSource    │   │ platform, threads        │   └──────────────────────┘
//!  │ (your own impl)     │   └─────────┬────────────────┘
//!  └─────────────────────┘             │ parallel fan-out, deterministic merge
//!                                      ▼
//!                         SessionReport → Envelope (faas-coldstarts/session/v1)
//! ```
//!
//! A session declares typed [`PolicyConfig`]s (named scenarios or sweep
//! configurations) times pluggable [`WorkloadSource`]s times seeds, lowers
//! each cell's source to a lazy
//! [`ArrivalStream`](faas_workload::stream::ArrivalStream) on the worker
//! that runs it (see [`WorkloadSource::lower`] — memory stays bounded by
//! the population, never the horizon), executes every cell on a
//! scoped-thread fan-out, and streams completed cells through
//! [`ReportSink`]s in declaration order. Execution on any number of threads
//! (`with_threads(1)` runs every cell on the calling thread) and eager
//! materialisation ([`run_materialized`](ExperimentSession::run_materialized))
//! produce byte-identical [`SessionReport`]s — and therefore byte-identical
//! [`envelope`](SessionReport::envelope) JSON — which
//! `tests/session_determinism.rs` property-tests across every built-in
//! source. [`run_timed`](ExperimentSession::run_timed) streams cells to
//! sinks and additionally returns [`SessionPerf`] throughput counters
//! (events, wall-clock, events/sec) for the envelope's optional `perf`
//! block. [`SessionReport::outcomes`] turns one `(source, seed)` column into
//! deltas relative to its baseline cell — the policy ablation's table.
//!
//! The policy sweep ([`PolicySweep`](crate::sweep::PolicySweep)) declares
//! its parameter spaces in sweep vocabulary and lowers them into one session,
//! so new workload sources and policy families plug in once and are
//! immediately available everywhere. One-off simulations outside a session
//! go through `faas_platform::SimulationSpec`.
//!
//! # Quick start
//!
//! ```
//! use coldstarts::session::{ExperimentSession, PolicyConfig, RegionSource};
//! use coldstarts::Scenario;
//! use faas_workload::population::PopulationConfig;
//! use faas_workload::profile::{Calibration, RegionProfile};
//!
//! let session = ExperimentSession::new()
//!     .policies([Scenario::Baseline, Scenario::TimerPrewarm].map(PolicyConfig::scenario))
//!     .source(RegionSource::new(
//!         RegionProfile::r2(),
//!         Calibration { duration_days: 1, ..Calibration::default() },
//!         PopulationConfig {
//!             function_scale: 0.002,
//!             volume_scale: 2.0e-6,
//!             max_requests_per_day: 2_000.0,
//!             min_functions: 15,
//!         },
//!     ))
//!     .with_seeds(vec![7]);
//! let report = session.run();
//! assert_eq!(report.cells.len(), 2);
//! assert!(report.cells[1].report.cold_starts <= report.cells[0].report.cold_starts);
//! ```

pub mod envelope;
pub mod seeds;
pub mod sink;
pub mod source;

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use faas_platform::{NodeScenario, PlatformConfig, PolicyFactory, SimReport, SimulationSpec};
use faas_workload::WorkloadSpec;
use fntrace::{par, RegionId};

use crate::policies::{Scenario, ScenarioPolicies};
use crate::sweep::SweepConfig;

pub use envelope::{Envelope, JsonValue};
pub use sink::{CellCollector, ProgressLog, ReportSink};
pub use source::{
    ChunkSource, FixedWorkloadSource, LoweredWorkload, PresetSource, RegionSource,
    ReplayTraceSource, SourceKind, SynthTraceSource, TraceDirSource, WorkloadSource,
};

/// One typed policy configuration a session evaluates.
///
/// This replaces the per-subsystem factory plumbing: a named ablation
/// [`Scenario`] and a sweep [`SweepConfig`] are both just policies of a
/// session, so any mix of the two can share one run.
#[derive(Debug, Clone)]
pub struct PolicyConfig {
    kind: PolicyKind,
}

#[derive(Debug, Clone)]
enum PolicyKind {
    Scenario(Scenario),
    Sweep(SweepConfig),
    /// A node-model scenario: baseline policies over a platform with
    /// `PlatformConfig::node` set to the scenario's pool (see
    /// [`NodeScenario::platform`]).
    NodeScenario(NodeScenario),
}

impl PolicyConfig {
    /// A named ablation scenario.
    pub fn scenario(scenario: Scenario) -> Self {
        Self {
            kind: PolicyKind::Scenario(scenario),
        }
    }

    /// A point in a sweep's parameter space.
    pub fn sweep(config: SweepConfig) -> Self {
        Self {
            kind: PolicyKind::Sweep(config),
        }
    }

    /// A node-model scenario: enables `PlatformConfig::node` with the
    /// scenario's node pool and runs the baseline policy set, so cells
    /// isolate the node layer's effect (placement, image caches, pull
    /// contention) from mitigation policies.
    pub fn node_scenario(scenario: NodeScenario) -> Self {
        Self {
            kind: PolicyKind::NodeScenario(scenario),
        }
    }

    /// Stable label of the policy (scenario name or sweep config label).
    pub fn label(&self) -> &str {
        match &self.kind {
            PolicyKind::Scenario(scenario) => scenario.name(),
            PolicyKind::Sweep(config) => config.label(),
            PolicyKind::NodeScenario(scenario) => scenario.name(),
        }
    }

    /// The scenario, when this policy is a named scenario.
    pub fn as_scenario(&self) -> Option<Scenario> {
        match &self.kind {
            PolicyKind::Scenario(scenario) => Some(*scenario),
            _ => None,
        }
    }

    /// The sweep configuration, when this policy is a sweep point.
    pub fn as_sweep(&self) -> Option<&SweepConfig> {
        match &self.kind {
            PolicyKind::Sweep(config) => Some(config),
            _ => None,
        }
    }

    /// The node scenario, when this policy is a node-model scenario.
    pub fn as_node_scenario(&self) -> Option<NodeScenario> {
        match &self.kind {
            PolicyKind::NodeScenario(scenario) => Some(*scenario),
            _ => None,
        }
    }

    /// Platform configuration for this policy's cells (sweep families whose
    /// knob lives in the platform rewrite it; scenarios run `base` as-is).
    pub fn platform(&self, base: &PlatformConfig) -> PlatformConfig {
        match &self.kind {
            PolicyKind::Scenario(_) => base.clone(),
            PolicyKind::Sweep(config) => config.platform(base),
            PolicyKind::NodeScenario(scenario) => scenario.platform(base),
        }
    }

    /// Whether [`adjust_workload`](Self::adjust_workload) would transform a
    /// workload, decidable without building one.
    pub fn adjusts_workload(&self) -> bool {
        match &self.kind {
            PolicyKind::Scenario(_) | PolicyKind::NodeScenario(_) => false,
            PolicyKind::Sweep(config) => config.adjusts_workload(),
        }
    }

    /// Workload transformation for this policy, or `None` to share the
    /// untransformed workload (sweep concurrency family scales limits).
    pub fn adjust_workload(&self, workload: &WorkloadSpec) -> Option<WorkloadSpec> {
        match &self.kind {
            PolicyKind::Scenario(_) | PolicyKind::NodeScenario(_) => None,
            PolicyKind::Sweep(config) => config.apply_workload(workload),
        }
    }

    /// Builds the shareable policy factory for this policy's cells.
    ///
    /// `platform` must be the per-policy configuration returned by
    /// [`platform`](Self::platform) — scenario policies read the pre-warm
    /// tick interval from it.
    pub fn factory(&self, platform: &PlatformConfig) -> Arc<dyn PolicyFactory> {
        match &self.kind {
            PolicyKind::Scenario(scenario) => Arc::new(ScenarioPolicies::new(*scenario, platform)),
            PolicyKind::Sweep(config) => Arc::new(config.clone()),
            // Node scenarios isolate the platform's node layer: the policy
            // set is the unmodified baseline.
            PolicyKind::NodeScenario(_) => {
                Arc::new(ScenarioPolicies::new(Scenario::Baseline, platform))
            }
        }
    }
}

/// One completed session cell: coordinates, labels, and the simulator report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCell {
    /// Index into the session's policy list.
    pub policy_index: usize,
    /// Index into the session's source list.
    pub source_index: usize,
    /// Label of the policy (scenario name or sweep config label).
    pub policy: String,
    /// Label of the workload source.
    pub source: String,
    /// Coarse source classification.
    pub source_kind: SourceKind,
    /// Declared seed of the cell.
    pub seed: u64,
    /// Region of the cell's workload.
    pub region: RegionId,
    /// Aggregate simulation outcome.
    pub report: SimReport,
}

/// Label and kind of one declared source, as recorded in reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceInfo {
    /// The source's stable label.
    pub label: String,
    /// The source's coarse classification.
    pub kind: SourceKind,
}

/// Results of a session, in deterministic cell order (policy-major, then
/// source, then seed — the declaration order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// Labels of the declared policies, in declaration order.
    pub policies: Vec<String>,
    /// Labels and kinds of the declared sources, in declaration order.
    pub sources: Vec<SourceInfo>,
    /// Declared seeds.
    pub seeds: Vec<u64>,
    /// All cell results.
    pub cells: Vec<SessionCell>,
}

impl SessionReport {
    /// Looks up one cell by coordinates.
    pub fn cell(
        &self,
        policy_index: usize,
        source_index: usize,
        seed: u64,
    ) -> Option<&SessionCell> {
        self.cells.iter().find(|c| {
            c.policy_index == policy_index && c.source_index == source_index && c.seed == seed
        })
    }

    /// Per-policy reports for one `(source, seed)` column, in policy order.
    pub fn column(&self, source_index: usize, seed: u64) -> Vec<&SessionCell> {
        self.cells
            .iter()
            .filter(|c| c.source_index == source_index && c.seed == seed)
            .collect()
    }

    /// Outcomes of one `(source, seed)` column, in policy order, relative
    /// to that column's [`Scenario::Baseline`] cell. Returns `None` when the
    /// session declares no baseline scenario or no such column.
    pub fn outcomes(&self, source_index: usize, seed: u64) -> Option<Vec<ScenarioOutcome>> {
        let column = self.column(source_index, seed);
        let baseline = &column
            .iter()
            .find(|c| c.policy == Scenario::Baseline.name())?
            .report;
        Some(
            column
                .iter()
                .map(|c| ScenarioOutcome::relative_to(baseline, c))
                .collect(),
        )
    }

    /// Renders every cell as a fixed-width table, one row per cell, in
    /// deterministic cell order. Byte-identical for byte-identical results.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:<28} {:>6} {:>10} {:>12} {:>12} {:>16}\n",
            "policy", "source", "seed", "requests", "cold starts", "prewarmed", "mem waste (GB-s)"
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<44} {:<28} {:>6} {:>10} {:>12} {:>12} {:>16.2}\n",
                c.policy,
                c.source,
                c.seed,
                c.report.requests,
                c.report.cold_starts,
                c.report.prewarmed_pods,
                c.report.mem_gb_s_wasted,
            ));
        }
        out
    }

    /// The shared `faas-coldstarts/session/v1` envelope for this report:
    /// `schema`, `kind`, `policies`, `sources`, `seeds`, `cell_count`, and
    /// the per-cell metrics. Producers append kind-specific payload keys.
    pub fn envelope(&self, kind: &str) -> Envelope {
        Envelope::new(kind)
            .with("policies", JsonValue::strings(self.policies.iter()))
            .with(
                "sources",
                JsonValue::Array(
                    self.sources
                        .iter()
                        .map(|s| {
                            JsonValue::object(vec![
                                ("label", JsonValue::str(&s.label)),
                                ("kind", JsonValue::str(s.kind.name())),
                            ])
                        })
                        .collect(),
                ),
            )
            .with("seeds", JsonValue::u64s(self.seeds.iter().copied()))
            .with("cell_count", JsonValue::U64(self.cells.len() as u64))
            .with(
                "cells",
                envelope::cells_value(self.cells.iter().map(|c| {
                    (
                        c.policy.as_str(),
                        c.source.as_str(),
                        c.seed,
                        c.region.index(),
                        &c.report,
                    )
                })),
            )
    }
}

/// One cell's outcome compared with its column's baseline cell. A delta
/// whose baseline quantity is zero is 0.0, never NaN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Label of the cell's policy.
    pub policy: String,
    /// Full simulator report.
    pub report: SimReport,
    /// Cold-start count reduction versus the baseline (1.0 = all removed).
    pub cold_start_reduction: f64,
    /// Mean added-latency reduction versus the baseline.
    pub added_latency_reduction: f64,
    /// Relative change in idle pod time versus the baseline (positive means
    /// more idle capacity is being spent).
    pub idle_time_change: f64,
}

impl ScenarioOutcome {
    fn relative_to(baseline: &SimReport, cell: &SessionCell) -> Self {
        let report = cell.report.clone();
        let cold_start_reduction = if baseline.cold_starts == 0 {
            0.0
        } else {
            1.0 - report.cold_starts as f64 / baseline.cold_starts as f64
        };
        let added_latency_reduction = if baseline.mean_added_latency_s <= 0.0 {
            0.0
        } else {
            1.0 - report.mean_added_latency_s / baseline.mean_added_latency_s
        };
        let idle_time_change = if baseline.idle_pod_time_s <= 0.0 {
            0.0
        } else {
            report.idle_pod_time_s / baseline.idle_pod_time_s - 1.0
        };
        Self {
            policy: cell.policy.clone(),
            report,
            cold_start_reduction,
            added_latency_reduction,
            idle_time_change,
        }
    }
}

/// Wall-clock measurements of one session cell.
///
/// Deliberately **not** part of [`SessionCell`]: timings vary run to run and
/// machine to machine, so they are returned beside the deterministic report
/// (see [`ExperimentSession::run_timed`]) and never enter report equality or
/// the envelope's deterministic section.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPerf {
    /// Label of the cell's policy.
    pub policy: String,
    /// Label of the cell's workload source.
    pub source: String,
    /// Declared seed of the cell.
    pub seed: u64,
    /// Arrival events the engine consumed.
    pub events: u64,
    /// Wall-clock time of the cell's run (lowering + simulation), in
    /// milliseconds.
    pub wall_ms: f64,
}

impl CellPerf {
    /// Streaming throughput of the cell, in events per second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.events as f64 / (self.wall_ms / 1e3)
        }
    }
}

/// Per-cell and aggregate throughput counters for one session run.
///
/// Serialised by [`to_value`](Self::to_value) as the optional `perf` block
/// of the `faas-coldstarts/session/v1` envelope, which CI's bench-smoke job
/// gates on: a >30% aggregate events/sec regression against the committed
/// baseline fails the build.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionPerf {
    /// One entry per cell, in deterministic cell order.
    pub cells: Vec<CellPerf>,
}

impl SessionPerf {
    /// Total arrival events consumed across all cells.
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    /// Summed per-cell wall-clock time in milliseconds (cells may have run
    /// concurrently, so this is aggregate work, not elapsed time).
    pub fn total_wall_ms(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_ms).sum()
    }

    /// Aggregate throughput: total events over summed cell wall-clock.
    pub fn events_per_sec(&self) -> f64 {
        let wall_ms = self.total_wall_ms();
        if wall_ms <= 0.0 {
            0.0
        } else {
            self.total_events() as f64 / (wall_ms / 1e3)
        }
    }

    /// The envelope `perf` block: aggregate counters plus one object per
    /// cell. Wall-clock values differ run to run, so this block is appended
    /// by producers *after* the deterministic envelope section.
    pub fn to_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("events", JsonValue::U64(self.total_events())),
            ("wall_ms", JsonValue::F64(self.total_wall_ms())),
            ("events_per_sec", JsonValue::F64(self.events_per_sec())),
            (
                "cells",
                JsonValue::Array(
                    self.cells
                        .iter()
                        .map(|c| {
                            JsonValue::object(vec![
                                ("policy", JsonValue::str(&c.policy)),
                                ("source", JsonValue::str(&c.source)),
                                ("seed", JsonValue::U64(c.seed)),
                                ("events", JsonValue::U64(c.events)),
                                ("wall_ms", JsonValue::F64(c.wall_ms)),
                                ("events_per_sec", JsonValue::F64(c.events_per_sec())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// How a session obtains each cell's events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Execution {
    /// Lower each cell's source to a lazy stream (the primary path).
    Streamed,
    /// Materialise each `(source, seed)` column once and share it.
    Materialized,
}

/// Declarative experiment session: policies × sources × seeds.
///
/// See the [module documentation](self) for the architecture and a quick
/// start. `run` executes the cells on [`threads`](Self::threads) workers;
/// every thread count, `1` included, produces the identical report.
#[derive(Clone)]
pub struct ExperimentSession {
    /// Policies to evaluate, in declaration order.
    pub policies: Vec<PolicyConfig>,
    /// Workload sources, in declaration order.
    pub sources: Vec<Arc<dyn WorkloadSource>>,
    /// Declared seeds (each `(source, seed)` pair is one workload column).
    pub seeds: Vec<u64>,
    /// Base platform configuration shared by every cell (policies may
    /// rewrite their family's knobs via [`PolicyConfig::platform`]).
    pub platform: PlatformConfig,
    /// Worker threads for `run`; 0 means one per available core.
    pub threads: usize,
}

impl Default for ExperimentSession {
    fn default() -> Self {
        Self::new()
    }
}

impl ExperimentSession {
    /// An empty session: no policies, no sources, one default seed, the
    /// default platform with trace recording off.
    pub fn new() -> Self {
        Self {
            policies: Vec::new(),
            sources: Vec::new(),
            seeds: vec![seeds::DEFAULT_SEED],
            platform: PlatformConfig {
                record_trace: false,
                ..PlatformConfig::default()
            },
            threads: 0,
        }
    }

    /// Sets the base platform configuration.
    pub fn with_platform(mut self, platform: PlatformConfig) -> Self {
        self.platform = platform;
        self
    }

    /// Sets the declared seeds.
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the worker-thread count (0 = one per available core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Adds one policy.
    pub fn policy(mut self, policy: PolicyConfig) -> Self {
        self.policies.push(policy);
        self
    }

    /// Adds several policies.
    pub fn policies(mut self, policies: impl IntoIterator<Item = PolicyConfig>) -> Self {
        self.policies.extend(policies);
        self
    }

    /// Adds one named scenario per entry — shorthand for
    /// [`PolicyConfig::scenario`].
    pub fn scenarios(self, scenarios: &[Scenario]) -> Self {
        self.policies(scenarios.iter().copied().map(PolicyConfig::scenario))
    }

    /// Adds one node-model scenario per entry — shorthand for
    /// [`PolicyConfig::node_scenario`].
    pub fn node_scenarios(self, scenarios: &[NodeScenario]) -> Self {
        self.policies(scenarios.iter().copied().map(PolicyConfig::node_scenario))
    }

    /// Adds one workload source.
    pub fn source(mut self, source: impl WorkloadSource + 'static) -> Self {
        self.sources.push(Arc::new(source));
        self
    }

    /// Adds an already-shared workload source.
    pub fn source_arc(mut self, source: Arc<dyn WorkloadSource>) -> Self {
        self.sources.push(source);
        self
    }

    /// Adds several already-shared workload sources.
    pub fn source_arcs(
        mut self,
        sources: impl IntoIterator<Item = Arc<dyn WorkloadSource>>,
    ) -> Self {
        self.sources.extend(sources);
        self
    }

    /// Number of workload columns (sources × seeds).
    pub fn column_count(&self) -> usize {
        self.sources.len() * self.seeds.len()
    }

    /// Number of cells the session declares.
    pub fn cell_count(&self) -> usize {
        self.policies.len() * self.column_count()
    }

    /// Executes the session over lazily lowered streams.
    pub fn run(&self) -> SessionReport {
        self.execute(&mut [], Execution::Streamed).0
    }

    /// Executes with each `(source, seed)` column materialised once and
    /// shared read-only across its policy cells — the pre-streaming
    /// behaviour, kept as the oracle the streamed-equals-materialised
    /// property tests compare against.
    pub fn run_materialized(&self) -> SessionReport {
        self.execute(&mut [], Execution::Materialized).0
    }

    /// [`run`](Self::run) that streams cells through `sinks` in declaration
    /// order as they complete, and additionally returns the per-cell
    /// throughput counters (events, wall-clock, events/sec) benchmark
    /// producers append as the envelope's `perf` block.
    pub fn run_timed(&self, sinks: &mut [&mut dyn ReportSink]) -> (SessionReport, SessionPerf) {
        self.execute(sinks, Execution::Streamed)
    }

    fn execute(
        &self,
        sinks: &mut [&mut dyn ReportSink],
        mode: Execution,
    ) -> (SessionReport, SessionPerf) {
        let seed_count = self.seeds.len();
        let columns = self.column_count();
        let cell_count = self.policies.len() * columns;
        for sink in sinks.iter_mut() {
            sink.on_start(cell_count);
        }

        // Eager mode: materialise each (source, seed) workload exactly once,
        // concurrently, then share it read-only across every policy cell.
        // Streamed mode materialises nothing up front — each cell lowers its
        // source to a lazy stream on the worker that runs it.
        let workloads: Vec<Arc<WorkloadSpec>> = if mode == Execution::Materialized {
            par::map(columns, self.threads, |i| {
                let (si, ki) = (i / seed_count, i % seed_count);
                self.sources[si].workload(seeds::sim_seed(self.seeds[ki]))
            })
        } else {
            Vec::new()
        };

        // One platform + factory per policy, shared across its cells (the
        // factories are stateless; policy state is created per run).
        let prepared: Vec<(PlatformConfig, Arc<dyn PolicyFactory>)> = self
            .policies
            .iter()
            .map(|p| {
                let platform = p.platform(&self.platform);
                let factory = p.factory(&platform);
                (platform, factory)
            })
            .collect();

        // Policy-major cell order; cells stream to the sinks in exactly this
        // order regardless of which worker finishes first.
        let make_cell = |i: usize, report: SimReport, region: RegionId| {
            let (pi, wi) = (i / columns.max(1), i % columns.max(1));
            let (si, ki) = (wi / seed_count, wi % seed_count);
            SessionCell {
                policy_index: pi,
                source_index: si,
                policy: self.policies[pi].label().to_string(),
                source: self.sources[si].label().to_string(),
                source_kind: self.sources[si].kind(),
                seed: self.seeds[ki],
                region,
                report,
            }
        };
        // Sinks observe a per-cell clone during the run; the reports
        // themselves are moved into the final cells afterwards, so the
        // sink-less paths (`run`, `run_materialized`) never copy a report.
        let mut emit = |i: usize, outcome: &(SimReport, RegionId, f64)| {
            if sinks.is_empty() {
                return;
            }
            let cell = make_cell(i, outcome.0.clone(), outcome.1);
            for sink in sinks.iter_mut() {
                sink.on_cell(&cell);
            }
        };
        let outcomes = par::map_streamed(
            cell_count,
            self.threads,
            |i| {
                let (pi, wi) = (i / columns, i % columns);
                let (si, ki) = (wi / seed_count, wi % seed_count);
                let (platform, factory) = &prepared[pi];
                let spec = SimulationSpec::new()
                    .with_config(platform.clone())
                    .with_seed(seeds::sim_seed(self.seeds[ki]))
                    .with_policies(Arc::clone(factory));
                let started = Instant::now();
                let (report, region) = match mode {
                    Execution::Streamed => {
                        // Policies only ever transform the static tables
                        // (e.g. concurrency boosts), so an adjusted header
                        // still pairs with the untouched event stream.
                        // The adjustment runs against an event-free copy: a
                        // spec-backed header owns the full event vector,
                        // which the streamed paths ignore and
                        // adjust_workload must therefore never clone.
                        let adjust = |header: &WorkloadSpec| -> Option<WorkloadSpec> {
                            if !self.policies[pi].adjusts_workload() {
                                return None;
                            }
                            let stripped = WorkloadSpec {
                                region: header.region,
                                profile: header.profile.clone(),
                                calibration: header.calibration,
                                functions: header.functions.clone(),
                                events: Vec::new(),
                                source: header.source,
                            };
                            Some(
                                self.policies[pi]
                                    .adjust_workload(&stripped)
                                    .unwrap_or(stripped),
                            )
                        };
                        let lowered = self.sources[si].lower(seeds::sim_seed(self.seeds[ki]));
                        let region = lowered.header.region;
                        let report = match adjust(&lowered.header) {
                            Some(adjusted) => spec.run_streamed(&adjusted, lowered.stream).0,
                            None => spec.run_streamed(&lowered.header, lowered.stream).0,
                        };
                        (report, region)
                    }
                    Execution::Materialized => {
                        let workload = workloads[wi].as_ref();
                        let report = match self.policies[pi].adjust_workload(workload) {
                            Some(adjusted) => spec.run(&adjusted).0,
                            None => spec.run(workload).0,
                        };
                        (report, workload.region)
                    }
                };
                (report, region, started.elapsed().as_secs_f64() * 1e3)
            },
            &mut emit,
        );
        let mut perf = SessionPerf::default();
        let cells: Vec<SessionCell> = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, (report, region, wall_ms))| {
                let cell = make_cell(i, report, region);
                perf.cells.push(CellPerf {
                    policy: cell.policy.clone(),
                    source: cell.source.clone(),
                    seed: cell.seed,
                    events: cell.report.events_processed,
                    wall_ms,
                });
                cell
            })
            .collect();

        let report = SessionReport {
            policies: self
                .policies
                .iter()
                .map(|p| p.label().to_string())
                .collect(),
            sources: self
                .sources
                .iter()
                .map(|s| SourceInfo {
                    label: s.label().to_string(),
                    kind: s.kind(),
                })
                .collect(),
            seeds: self.seeds.clone(),
            cells,
        };
        for sink in sinks.iter_mut() {
            sink.on_complete(&report);
        }
        (report, perf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_workload::population::PopulationConfig;
    use faas_workload::profile::{Calibration, RegionProfile};
    use faas_workload::ScenarioPreset;

    fn tiny_population() -> PopulationConfig {
        PopulationConfig {
            function_scale: 0.002,
            volume_scale: 2.0e-6,
            max_requests_per_day: 2_000.0,
            min_functions: 15,
        }
    }

    fn tiny_session() -> ExperimentSession {
        ExperimentSession::new()
            .scenarios(&[Scenario::Baseline, Scenario::TimerPrewarm])
            .source(PresetSource::new(
                ScenarioPreset::Diurnal,
                RegionProfile::r2(),
                1,
                tiny_population(),
            ))
            .source(RegionSource::new(
                RegionProfile::r3(),
                Calibration {
                    duration_days: 1,
                    ..Calibration::default()
                },
                tiny_population(),
            ))
            .with_seeds(vec![3, 4])
            // Real worker threads even on single-core machines, so the
            // parallel path is exercised rather than the n==1 fast path.
            .with_threads(4)
    }

    #[test]
    fn session_runs_every_declared_cell_in_order() {
        let session = tiny_session();
        assert_eq!(session.column_count(), 4);
        assert_eq!(session.cell_count(), 8);
        let report = session.run();
        assert_eq!(report.cells.len(), 8);
        assert_eq!(report.policies, vec!["baseline", "timer-prewarm"]);
        assert_eq!(report.sources.len(), 2);
        // Policy-major, then source, then seed.
        let coords: Vec<(usize, usize, u64)> = report
            .cells
            .iter()
            .map(|c| (c.policy_index, c.source_index, c.seed))
            .collect();
        assert_eq!(
            coords,
            vec![
                (0, 0, 3),
                (0, 0, 4),
                (0, 1, 3),
                (0, 1, 4),
                (1, 0, 3),
                (1, 0, 4),
                (1, 1, 3),
                (1, 1, 4),
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
        // Source regions flow into the cells.
        assert_eq!(report.cells[0].region.index(), 2);
        assert_eq!(report.cells[2].region.index(), 3);
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let out = par::map(100, 8, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert!(par::map(0, 4, |i| i).is_empty());
        assert_eq!(par::map(3, 1, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn parallel_and_sequential_execution_agree_byte_for_byte() {
        let session = tiny_session();
        let parallel = session.run();
        let sequential = session.clone().with_threads(1).run();
        assert_eq!(parallel, sequential);
        assert_eq!(parallel.render(), sequential.render());
        assert_eq!(
            parallel.envelope("test").to_json().as_bytes(),
            sequential.envelope("test").to_json().as_bytes()
        );
    }

    #[test]
    fn sinks_observe_cells_in_declaration_order() {
        let session = tiny_session();
        let mut collector = CellCollector::new();
        let (report, _) = session.run_timed(&mut [&mut collector]);
        assert_eq!(collector.cells, report.cells);
        // And the collector saw them in declaration order during the run.
        let indices: Vec<usize> = collector.cells.iter().map(|c| c.policy_index).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted);
    }

    #[test]
    fn lookup_helpers_find_cells_and_columns() {
        let report = tiny_session().run();
        let cell = report.cell(1, 0, 4).expect("cell exists");
        assert_eq!(cell.policy, "timer-prewarm");
        assert_eq!(cell.source_kind, SourceKind::Preset);
        assert!(report.cell(2, 0, 4).is_none());
        let column = report.column(1, 3);
        assert_eq!(column.len(), 2);
        assert_eq!(column[0].policy, "baseline");
        assert_eq!(column[1].policy, "timer-prewarm");
    }

    #[test]
    fn envelope_carries_the_session_shape() {
        let report = tiny_session().run();
        let doc = report.envelope("session").to_json();
        assert!(doc.contains("\"schema\": \"faas-coldstarts/session/v1\""));
        assert!(doc.contains("\"kind\": \"session\""));
        assert!(doc.contains("\"policies\": [\"baseline\", \"timer-prewarm\"]"));
        assert!(doc.contains("\"label\": \"preset/diurnal/r2\", \"kind\": \"preset\""));
        assert!(doc.contains("\"label\": \"region/r3\", \"kind\": \"region\""));
        assert!(doc.contains("\"seeds\": [3, 4]"));
        assert!(doc.contains("\"cell_count\": 8"));
    }

    #[test]
    fn policy_config_exposes_its_kind() {
        let s = PolicyConfig::scenario(Scenario::Combined);
        assert_eq!(s.label(), "combined");
        assert_eq!(s.as_scenario(), Some(Scenario::Combined));
        assert!(s.as_sweep().is_none());
        let platform = PlatformConfig::default();
        assert_eq!(s.platform(&platform), platform);

        let config = crate::sweep::PolicyFamily::KeepAlive.smoke_space().expand();
        let p = PolicyConfig::sweep(config[0].clone());
        assert!(p.as_scenario().is_none());
        assert_eq!(p.as_sweep(), Some(&config[0]));
        assert_eq!(p.label(), config[0].label());
    }

    #[test]
    fn node_scenario_policies_enable_the_node_layer() {
        let session = ExperimentSession::new()
            .policy(PolicyConfig::scenario(Scenario::Baseline))
            .node_scenarios(&NodeScenario::ALL)
            .source(PresetSource::new(
                ScenarioPreset::RegionFailover,
                RegionProfile::r2(),
                1,
                tiny_population(),
            ))
            .with_seeds(vec![7])
            .with_threads(4);
        assert_eq!(session.cell_count(), 4);
        let report = session.run();
        assert_eq!(
            report.policies,
            vec![
                "baseline",
                "cache-cold-failover",
                "rolling-deploy",
                "heterogeneous-pool",
            ]
        );
        // The plain baseline never touches the node layer; every node
        // scenario routes pod creation through it and the per-component
        // attribution stays exact.
        assert_eq!(report.cells[0].report.layer_pulls, 0);
        for cell in &report.cells[1..] {
            assert!(cell.report.layer_pulls > 0, "{}", cell.policy);
            assert_eq!(
                cell.report.cold_components.total_us(),
                cell.report.cold_us_total,
                "{}",
                cell.policy
            );
            assert_eq!(cell.report.requests, report.cells[0].report.requests);
        }
        // Policy kind accessors.
        let p = PolicyConfig::node_scenario(NodeScenario::RollingDeploy);
        assert_eq!(p.label(), "rolling-deploy");
        assert_eq!(p.as_node_scenario(), Some(NodeScenario::RollingDeploy));
        assert!(p.as_scenario().is_none());
        assert!(p.as_sweep().is_none());
        assert!(p.platform(&PlatformConfig::default()).node.is_some());
    }

    #[test]
    fn empty_sessions_produce_empty_reports() {
        let report = ExperimentSession::new().run();
        assert!(report.cells.is_empty());
        assert_eq!(
            report.envelope("session").get("cell_count"),
            Some(&JsonValue::U64(0))
        );
    }
}
