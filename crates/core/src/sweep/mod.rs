//! Policy parameter sweeps with Pareto reporting.
//!
//! The paper's central tension is cold-start rate versus the memory wasted
//! keeping idle pods warm. A policy ablation shows one named configuration
//! at a time; this module sweeps whole parameter spaces instead:
//!
//! 1. each policy family ([`PolicyFamily`]) exposes a [`ParamSpace`] — the
//!    named axes it can be tuned along;
//! 2. a [`PolicySweep`] expands every space's cross-product into concrete
//!    [`SweepConfig`]s and fans the resulting
//!    presets × regions × seeds × configs cells out as one
//!    [`ExperimentSession`], deterministically;
//! 3. the results fold into a [`SweepReport`]: per-configuration cold-start
//!    rate, p99 cold-start wait, memory-GB-seconds wasted, and the 2-D
//!    Pareto front over (cold-start rate, memory waste).
//!
//! Workload diversity comes from the scenario presets in
//! [`faas_workload::presets`], optionally mixed with replayed traces; the
//! machine-readable output (`BENCH_sweep.json`) is emitted by
//! [`SweepReport::to_envelope`] in the shared, byte-deterministic
//! `faas-coldstarts/session/v1` envelope.
//!
//! [`PolicySweep::session`] declares that session — one [`PresetSource`] per
//! (preset, region) pair plus one [`ReplayTraceSource`] per replayed trace,
//! with one sweep [`PolicyConfig`] per expanded configuration — and
//! [`PolicySweep::fold`] folds its cells into a [`SweepReport`] with the
//! parameter-space vocabulary (spaces, configurations, Pareto fronts).

pub mod params;
pub mod pareto;

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use faas_platform::{PlatformConfig, SimReport};
use faas_workload::population::PopulationConfig;
use faas_workload::profile::RegionProfile;
use faas_workload::{ScenarioPreset, WorkloadSpec};
use fntrace::RegionId;

use crate::session::envelope::{self, Envelope, JsonValue};
use crate::session::{
    ExperimentSession, PolicyConfig, PresetSource, ReplayTraceSource, SourceKind, WorkloadSource,
};
pub use params::{ParamAxis, ParamSpace, ParamValue, PolicyFamily, SweepConfig};
pub use pareto::pareto_front;

/// A replayed-trace workload mixed into a sweep alongside the synthetic
/// presets.
///
/// Sweep-level vocabulary for what the session API models as a
/// [`ReplayTraceSource`]; the sweep lowers each entry into one when it
/// builds its session. Construct it as a plain struct literal.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    /// Stable label identifying the trace in cells, tables, and JSON.
    pub label: String,
    /// The replay-tagged workload every configuration runs against.
    pub workload: Arc<WorkloadSpec>,
}

/// Workload origin of one sweep cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SweepWorkloadSource {
    /// A synthetic scenario preset applied to a region profile.
    Preset(ScenarioPreset),
    /// A replayed trace, identified by its [`ReplaySource`] label.
    Replay(String),
}

impl SweepWorkloadSource {
    /// Stable name of the source (preset name or replay label).
    pub fn name(&self) -> &str {
        match self {
            SweepWorkloadSource::Preset(p) => p.name(),
            SweepWorkloadSource::Replay(label) => label,
        }
    }
}

/// Declarative policy parameter sweep:
/// (scenario presets + replayed traces) × regions × seeds × policy
/// configurations.
#[derive(Debug, Clone)]
pub struct PolicySweep {
    /// Workload shapes every configuration is evaluated under.
    pub presets: Vec<ScenarioPreset>,
    /// Replayed-trace workloads evaluated alongside the presets (each adds
    /// one workload column per seed; the regions axis does not apply to a
    /// replayed trace, whose region is fixed by its records).
    pub replays: Vec<ReplaySource>,
    /// Base region profiles the presets are applied to.
    pub regions: Vec<RegionProfile>,
    /// Workload/simulation seeds.
    pub seeds: Vec<u64>,
    /// Parameter spaces to expand, one per policy family under study.
    pub spaces: Vec<ParamSpace>,
    /// Trace duration per cell, in days.
    pub duration_days: u32,
    /// Function-population scaling shared by every cell.
    pub population: PopulationConfig,
    /// Base platform configuration (the pool-prediction family overrides its
    /// pool knobs per configuration).
    pub platform: PlatformConfig,
    /// Worker threads; 0 means one per available core.
    pub threads: usize,
}

impl Default for PolicySweep {
    fn default() -> Self {
        Self {
            presets: ScenarioPreset::ALL.to_vec(),
            replays: Vec::new(),
            regions: vec![RegionProfile::r2()],
            seeds: vec![7],
            spaces: PolicyFamily::ALL.iter().map(|f| f.param_space()).collect(),
            duration_days: 2,
            population: PopulationConfig {
                function_scale: 0.002,
                volume_scale: 2.0e-6,
                max_requests_per_day: 2_000.0,
                min_functions: 15,
            },
            platform: PlatformConfig {
                record_trace: false,
                ..PlatformConfig::default()
            },
            threads: 0,
        }
    }
}

impl PolicySweep {
    /// Concrete configurations of every space, in declaration order.
    pub fn configs(&self) -> Vec<SweepConfig> {
        self.spaces.iter().flat_map(|s| s.expand()).collect()
    }

    /// Number of workload columns: presets × regions × seeds plus one column
    /// per replay source per seed.
    pub fn column_count(&self) -> usize {
        self.presets.len() * self.regions.len() * self.seeds.len()
            + self.replays.len() * self.seeds.len()
    }

    /// Number of simulation cells the sweep declares.
    pub fn cell_count(&self) -> usize {
        self.configs().len() * self.column_count()
    }

    /// The equivalent [`ExperimentSession`]: one
    /// [`PresetSource`] per (preset, region) pair plus one
    /// [`ReplayTraceSource`] per replayed trace, with one sweep
    /// [`PolicyConfig`] per expanded configuration. `run` executes exactly
    /// this session and folds its cells.
    pub fn session(&self) -> ExperimentSession {
        let preset_sources = self.presets.iter().flat_map(|&preset| {
            self.regions.iter().map(move |region| {
                Arc::new(PresetSource::new(
                    preset,
                    region.clone(),
                    self.duration_days,
                    self.population,
                )) as Arc<dyn WorkloadSource>
            })
        });
        let replay_sources = self.replays.iter().map(|replay| {
            Arc::new(ReplayTraceSource::new(
                replay.label.clone(),
                Arc::clone(&replay.workload),
            )) as Arc<dyn WorkloadSource>
        });
        ExperimentSession::new()
            .with_platform(self.platform.clone())
            .with_seeds(self.seeds.clone())
            .with_threads(self.threads)
            .policies(self.configs().into_iter().map(PolicyConfig::sweep))
            .source_arcs(preset_sources.chain(replay_sources))
    }

    /// Executes the sweep on [`threads`](Self::threads) workers.
    pub fn run(&self) -> SweepReport {
        self.fold(self.session().run())
    }

    /// Folds session cells (config-major, then preset/region/seed — the
    /// sweep's historical cell order) into a [`SweepReport`]: per-cell
    /// coordinates, per-configuration summaries, and the Pareto front.
    ///
    /// # Panics
    ///
    /// The report must come from running [`session`](Self::session) on this
    /// same declaration; a report whose shape or policy labels do not match
    /// the declaration panics instead of silently mis-assigning cells to
    /// configurations.
    pub fn fold(&self, session: crate::session::SessionReport) -> SweepReport {
        let configs = self.configs();
        assert_eq!(
            session.cells.len(),
            self.cell_count(),
            "session report does not match this sweep's declared cell space"
        );
        assert!(
            session
                .policies
                .iter()
                .map(String::as_str)
                .eq(configs.iter().map(|c| c.label())),
            "session report policies do not match this sweep's configurations"
        );
        let preset_columns = self.presets.len() * self.regions.len();

        let cells: Vec<SweepCellReport> = session
            .cells
            .iter()
            .map(|cell| SweepCellReport {
                config_index: cell.policy_index,
                source: if cell.source_index < preset_columns {
                    SweepWorkloadSource::Preset(
                        self.presets[cell.source_index / self.regions.len().max(1)],
                    )
                } else {
                    SweepWorkloadSource::Replay(
                        self.replays[cell.source_index - preset_columns]
                            .label
                            .clone(),
                    )
                },
                region: cell.region,
                seed: cell.seed,
                report: cell.report.clone(),
            })
            .collect();

        let reports: Vec<SimReport> = session.cells.into_iter().map(|c| c.report).collect();
        let columns = self.column_count();
        let mut summaries: Vec<ConfigSummary> = configs
            .into_iter()
            .zip(reports.chunks(columns.max(1)))
            .map(|(config, chunk)| ConfigSummary::fold(config, chunk))
            .collect();
        let front = pareto_front(
            &summaries
                .iter()
                .map(|s| (s.cold_start_rate, s.mem_gb_s_wasted))
                .collect::<Vec<_>>(),
        );
        for &i in &front {
            summaries[i].on_front = true;
        }

        SweepReport {
            duration_days: self.duration_days,
            presets: self.presets.clone(),
            replays: self.replays.iter().map(|r| r.label.clone()).collect(),
            regions: self.regions.iter().map(|r| r.region).collect(),
            seeds: self.seeds.clone(),
            configs: summaries,
            pareto: front,
            cells,
        }
    }
}

/// One completed sweep cell: its coordinates and the simulator report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCellReport {
    /// Index into [`SweepReport::configs`].
    pub config_index: usize,
    /// Workload origin of this cell (synthetic preset or replayed trace).
    pub source: SweepWorkloadSource,
    /// Region the workload was generated for (or recorded in, for replays).
    pub region: RegionId,
    /// Seed the workload and simulation used.
    pub seed: u64,
    /// Aggregate simulation outcome.
    pub report: SimReport,
}

/// One configuration's results folded over every cell it ran in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigSummary {
    /// The configuration.
    pub config: SweepConfig,
    /// Total requests across all cells.
    pub requests: u64,
    /// Total cold starts across all cells.
    pub cold_starts: u64,
    /// Cold starts per request (0 when no requests ran).
    pub cold_start_rate: f64,
    /// Cold-start-weighted mean of the per-cell p99 cold-start wait, seconds.
    pub p99_wait_s: f64,
    /// Total memory wasted on idle pods and reserved pools, GB-seconds.
    pub mem_gb_s_wasted: f64,
    /// Whether the configuration is on the sweep's Pareto front.
    pub on_front: bool,
}

impl ConfigSummary {
    fn fold(config: SweepConfig, cells: &[SimReport]) -> Self {
        let requests: u64 = cells.iter().map(|r| r.requests).sum();
        let cold_starts: u64 = cells.iter().map(|r| r.cold_starts).sum();
        let mem_gb_s_wasted: f64 = cells.iter().map(|r| r.mem_gb_s_wasted).sum();
        let p99_wait_s = if cold_starts == 0 {
            0.0
        } else {
            cells
                .iter()
                .map(|r| r.cold_start_latency.p99_s * r.cold_starts as f64)
                .sum::<f64>()
                / cold_starts as f64
        };
        let cold_start_rate = if requests == 0 {
            0.0
        } else {
            cold_starts as f64 / requests as f64
        };
        Self {
            config,
            requests,
            cold_starts,
            cold_start_rate,
            p99_wait_s,
            mem_gb_s_wasted,
            on_front: false,
        }
    }
}

/// Results of a sweep: per-cell reports, per-configuration summaries, and
/// the Pareto front over (cold-start rate, memory waste).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Trace duration per cell, in days.
    pub duration_days: u32,
    /// Presets that were swept, in declaration order.
    pub presets: Vec<ScenarioPreset>,
    /// Labels of the replayed traces that were swept, in declaration order.
    pub replays: Vec<String>,
    /// Regions that were swept.
    pub regions: Vec<RegionId>,
    /// Seeds that were swept.
    pub seeds: Vec<u64>,
    /// Per-configuration summaries, in configuration order.
    pub configs: Vec<ConfigSummary>,
    /// Indices into `configs` of the Pareto-optimal configurations.
    pub pareto: Vec<usize>,
    /// All cell results, config-major then preset/region/seed order.
    pub cells: Vec<SweepCellReport>,
}

impl SweepReport {
    /// The Pareto-optimal configurations, in configuration order.
    pub fn front(&self) -> Vec<&ConfigSummary> {
        self.pareto.iter().map(|&i| &self.configs[i]).collect()
    }

    /// Distinct policy families present, in first-seen order.
    pub fn families(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for c in &self.configs {
            let name = c.config.family.name();
            if !out.contains(&name) {
                out.push(name);
            }
        }
        out
    }

    /// Renders the per-configuration table, one row per configuration, in
    /// deterministic order. Pareto-front rows are marked with `*`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<52} {:>10} {:>12} {:>10} {:>12} {:>16} {:>7}\n",
            "config",
            "requests",
            "cold starts",
            "rate",
            "p99 wait (s)",
            "mem waste (GB-s)",
            "pareto"
        ));
        for c in &self.configs {
            out.push_str(&format!(
                "{:<52} {:>10} {:>12} {:>9.4}% {:>12.4} {:>16.2} {:>7}\n",
                c.config.label(),
                c.requests,
                c.cold_starts,
                100.0 * c.cold_start_rate,
                c.p99_wait_s,
                c.mem_gb_s_wasted,
                if c.on_front { "*" } else { "" },
            ));
        }
        out
    }

    /// The label a preset cell carries in the shared envelope — the same
    /// `preset/<name>/r<region>` form [`PresetSource`] uses.
    fn cell_source_label(cell: &SweepCellReport) -> String {
        match &cell.source {
            SweepWorkloadSource::Preset(p) => {
                format!("preset/{}/r{}", p.name(), cell.region.index())
            }
            SweepWorkloadSource::Replay(label) => label.clone(),
        }
    }

    /// Serialises the report as the shared `faas-coldstarts/session/v1`
    /// [`Envelope`] (kind `"sweep"`): the common session section —
    /// `policies`, `sources`, `seeds`, `cell_count`, `cells` — followed by
    /// the sweep payload (`duration_days`, `presets`, `replays`, `regions`,
    /// `families`, `configs`, `pareto_front`). This is what
    /// `BENCH_sweep.json` contains. Byte-identical for identical reports.
    pub fn to_envelope(&self) -> Envelope {
        let mut sources: Vec<JsonValue> = Vec::new();
        for p in &self.presets {
            for r in &self.regions {
                sources.push(JsonValue::object(vec![
                    (
                        "label",
                        JsonValue::Str(format!("preset/{}/r{}", p.name(), r.index())),
                    ),
                    ("kind", JsonValue::str(SourceKind::Preset.name())),
                ]));
            }
        }
        for label in &self.replays {
            sources.push(JsonValue::object(vec![
                ("label", JsonValue::str(label)),
                ("kind", JsonValue::str(SourceKind::Replay.name())),
            ]));
        }

        let cell_labels: Vec<(String, String)> = self
            .cells
            .iter()
            .map(|c| {
                (
                    self.configs[c.config_index].config.label().to_string(),
                    Self::cell_source_label(c),
                )
            })
            .collect();

        Envelope::new("sweep")
            .with(
                "policies",
                JsonValue::strings(self.configs.iter().map(|c| c.config.label())),
            )
            .with("sources", JsonValue::Array(sources))
            .with("seeds", JsonValue::u64s(self.seeds.iter().copied()))
            .with("cell_count", JsonValue::U64(self.cells.len() as u64))
            .with(
                "cells",
                envelope::cells_value(self.cells.iter().zip(&cell_labels).map(
                    |(c, (policy, source))| {
                        (
                            policy.as_str(),
                            source.as_str(),
                            c.seed,
                            c.region.index(),
                            &c.report,
                        )
                    },
                )),
            )
            .with(
                "duration_days",
                JsonValue::U64(u64::from(self.duration_days)),
            )
            .with(
                "presets",
                JsonValue::strings(self.presets.iter().map(|p| p.name())),
            )
            .with("replays", JsonValue::strings(self.replays.iter()))
            .with(
                "regions",
                JsonValue::u64s(self.regions.iter().map(|r| u64::from(r.index()))),
            )
            .with("families", JsonValue::strings(self.families()))
            .with(
                "configs",
                JsonValue::Array(
                    self.configs
                        .iter()
                        .map(|c| {
                            JsonValue::object(vec![
                                ("family", JsonValue::str(c.config.family.name())),
                                ("label", JsonValue::str(c.config.label())),
                                (
                                    "params",
                                    JsonValue::Object(
                                        c.config
                                            .params
                                            .iter()
                                            .map(|(name, value)| {
                                                (
                                                    (*name).to_string(),
                                                    match value {
                                                        ParamValue::U64(v) => JsonValue::U64(*v),
                                                        ParamValue::Str(s) => JsonValue::str(*s),
                                                    },
                                                )
                                            })
                                            .collect(),
                                    ),
                                ),
                                ("requests", JsonValue::U64(c.requests)),
                                ("cold_starts", JsonValue::U64(c.cold_starts)),
                                ("cold_start_rate", JsonValue::F64(c.cold_start_rate)),
                                ("p99_wait_s", JsonValue::F64(c.p99_wait_s)),
                                ("mem_gb_s_wasted", JsonValue::F64(c.mem_gb_s_wasted)),
                                ("pareto", JsonValue::Bool(c.on_front)),
                            ])
                        })
                        .collect(),
                ),
            )
            .with(
                "pareto_front",
                JsonValue::Array(
                    self.pareto
                        .iter()
                        .map(|&ci| {
                            let c = &self.configs[ci];
                            JsonValue::object(vec![
                                ("label", JsonValue::str(c.config.label())),
                                ("cold_start_rate", JsonValue::F64(c.cold_start_rate)),
                                ("mem_gb_s_wasted", JsonValue::F64(c.mem_gb_s_wasted)),
                            ])
                        })
                        .collect(),
                ),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> PolicySweep {
        PolicySweep {
            presets: vec![ScenarioPreset::Diurnal, ScenarioPreset::LowTrafficTail],
            spaces: vec![
                PolicyFamily::KeepAlive.smoke_space(),
                PolicyFamily::Concurrency.smoke_space(),
            ],
            duration_days: 1,
            // Force real worker threads so the parallel path is exercised.
            threads: 4,
            ..PolicySweep::default()
        }
    }

    #[test]
    fn sweep_runs_every_declared_cell_in_config_major_order() {
        let sweep = tiny_sweep();
        // 6 configs (4 keep-alive + 2 concurrency) × 2 presets × 1 region ×
        // 1 seed.
        assert_eq!(sweep.cell_count(), 12);
        let report = sweep.run();
        assert_eq!(report.cells.len(), 12);
        assert_eq!(report.configs.len(), 6);
        for (i, cell) in report.cells.iter().enumerate() {
            assert_eq!(cell.config_index, i / 2);
            assert!(cell.report.requests > 0);
        }
        assert_eq!(
            report.cells[0].source,
            SweepWorkloadSource::Preset(ScenarioPreset::Diurnal)
        );
        assert_eq!(
            report.cells[1].source,
            SweepWorkloadSource::Preset(ScenarioPreset::LowTrafficTail)
        );
        assert_eq!(report.families(), vec!["keepalive", "concurrency"]);
        assert!(report.replays.is_empty());
    }

    #[test]
    fn adaptive_family_sweeps_and_reports_its_cells() {
        let sweep = PolicySweep {
            presets: vec![ScenarioPreset::Diurnal],
            spaces: vec![PolicyFamily::Adaptive.smoke_space()],
            duration_days: 1,
            threads: 4,
            ..PolicySweep::default()
        };
        // 3 modes × 1 quantile × 1 hysteresis × 1 horizon × 1 preset.
        assert_eq!(sweep.cell_count(), 3);
        let report = sweep.run();
        assert_eq!(report.families(), vec!["adaptive"]);
        assert_eq!(report.cells.len(), 3);
        for cell in &report.cells {
            assert!(cell.report.requests > 0);
            assert!(report.configs[cell.config_index]
                .config
                .label()
                .starts_with("adaptive/mode="));
        }
        // The three modes install different policy stacks, so their outcomes
        // must not be three copies of the same run.
        let rates: Vec<u64> = report.cells.iter().map(|c| c.report.cold_starts).collect();
        assert!(
            rates.windows(2).any(|w| w[0] != w[1]),
            "modes produced identical cold-start counts: {rates:?}"
        );
    }

    #[test]
    fn replay_sources_add_columns_next_to_presets() {
        use faas_workload::replay::TraceReplayWorkload;
        use fntrace::synth::{SynthShape, SynthTraceSpec};

        let trace = SynthTraceSpec {
            region: fntrace::RegionId::new(2),
            shape: SynthShape::Steady,
            functions: 6,
            duration_days: 1,
            mean_requests_per_day: 120.0,
            keep_alive_secs: 60.0,
            seed: 31,
        }
        .generate();
        let replayed = Arc::new(TraceReplayWorkload::new().build(&trace).unwrap());
        let sweep = PolicySweep {
            replays: vec![ReplaySource {
                label: "synth-r2".into(),
                workload: replayed,
            }],
            ..tiny_sweep()
        };
        // 6 configs × (2 preset columns + 1 replay column).
        assert_eq!(sweep.column_count(), 3);
        assert_eq!(sweep.cell_count(), 18);
        let report = sweep.run();
        assert_eq!(report.cells.len(), 18);
        assert_eq!(report.replays, vec!["synth-r2".to_string()]);
        let replay_cells: Vec<_> = report
            .cells
            .iter()
            .filter(|c| matches!(c.source, SweepWorkloadSource::Replay(_)))
            .collect();
        assert_eq!(replay_cells.len(), 6);
        for cell in replay_cells {
            assert_eq!(cell.source.name(), "synth-r2");
            assert!(cell.report.requests > 0);
            // Replay cells carry per-function cold-start attribution.
            assert!(!cell.report.per_function.is_empty());
        }
        // Deterministic across thread counts with replays mixed in.
        assert_eq!(
            report,
            PolicySweep {
                threads: 1,
                ..sweep
            }
            .run()
        );
        assert!(report
            .to_envelope()
            .to_json()
            .contains("\"replays\": [\"synth-r2\"]"));
    }

    #[test]
    fn requests_are_conserved_across_configurations() {
        // No sweep family delays or drops requests, so every configuration
        // replays the identical arrivals and must see the identical total.
        let report = tiny_sweep().run();
        let expected = report.configs[0].requests;
        assert!(expected > 0);
        for c in &report.configs {
            assert_eq!(c.requests, expected, "{}", c.config.label());
        }
    }

    #[test]
    fn keep_alive_duration_trades_cold_starts_for_memory() {
        let report = tiny_sweep().run();
        let find = |label: &str| {
            report
                .configs
                .iter()
                .find(|c| c.config.label() == label)
                .unwrap_or_else(|| panic!("missing {label}"))
        };
        let short = find("keepalive/mode=fixed,duration_ms=30000");
        let long = find("keepalive/mode=fixed,duration_ms=120000");
        assert!(long.cold_starts <= short.cold_starts);
        assert!(long.mem_gb_s_wasted > short.mem_gb_s_wasted);
    }

    #[test]
    fn pareto_front_is_marked_consistently() {
        let report = tiny_sweep().run();
        assert!(!report.pareto.is_empty());
        for (i, c) in report.configs.iter().enumerate() {
            assert_eq!(c.on_front, report.pareto.contains(&i));
        }
        let front = report.front();
        assert_eq!(front.len(), report.pareto.len());
        // Nothing on the front is dominated by anything off it.
        for f in &front {
            for c in &report.configs {
                let dominates = c.cold_start_rate <= f.cold_start_rate
                    && c.mem_gb_s_wasted <= f.mem_gb_s_wasted
                    && (c.cold_start_rate < f.cold_start_rate
                        || c.mem_gb_s_wasted < f.mem_gb_s_wasted);
                assert!(
                    !dominates,
                    "{} dominated by {}",
                    f.config.label(),
                    c.config.label()
                );
            }
        }
    }

    #[test]
    fn envelope_adopts_the_shared_session_schema() {
        let sweep = tiny_sweep();
        let report = sweep.run();
        let doc = report.to_envelope().to_json();
        assert!(doc.starts_with(
            "{\n  \"schema\": \"faas-coldstarts/session/v1\",\n  \"kind\": \"sweep\",\n"
        ));
        for key in [
            "\"policies\"",
            "\"sources\"",
            "\"seeds\": [7]",
            "\"cell_count\": 12",
            "\"cells\"",
            "\"duration_days\": 1",
            "\"presets\": [\"diurnal\", \"low-traffic-tail\"]",
            "\"replays\": []",
            "\"families\": [\"keepalive\", \"concurrency\"]",
            "\"pareto_front\"",
        ] {
            assert!(doc.contains(key), "missing {key}");
        }
        assert!(doc.contains("{\"label\": \"preset/diurnal/r2\", \"kind\": \"preset\"}"));
        // The envelope is deterministic across thread counts.
        let again = PolicySweep {
            threads: 1,
            ..sweep
        }
        .run();
        assert_eq!(doc.as_bytes(), again.to_envelope().to_json().as_bytes());
        // Every cell row carries the shared metric keys.
        assert!(doc.contains("\"policy\": \"keepalive/mode=fixed,duration_ms=30000\""));
        assert!(doc.contains("\"mem_gb_s_wasted\""));
    }

    #[test]
    fn json_has_the_stable_schema_shape() {
        let report = tiny_sweep().run();
        let json = report.to_envelope().to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        for key in [
            "\"duration_days\"",
            "\"presets\"",
            "\"replays\": []",
            "\"regions\"",
            "\"seeds\"",
            "\"families\"",
            "\"cell_count\": 12",
            "\"configs\"",
            "\"pareto_front\"",
            "\"mem_gb_s_wasted\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        // Balanced braces/brackets — cheap structural sanity without a
        // parser (no label in the document contains these characters).
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
        let table = report.render();
        assert!(table.contains("keepalive/mode=fixed,duration_ms=30000"));
        assert!(table.contains("pareto"));
    }
}
