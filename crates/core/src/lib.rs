//! Cold-start characterization and mitigation toolkit.
//!
//! This is the core crate of the reproduction of *"Serverless Cold Starts and
//! Where to Find Them"* (EuroSys '25). It turns a multi-region trace — either
//! synthesized by [`faas_workload`] or produced by the [`faas_platform`]
//! simulator, both in the Table 1 schema of [`fntrace`] — into every analysis
//! the paper reports, and implements the mitigation strategies the paper
//! proposes in its discussion section.
//!
//! # Analyses (one module per figure family)
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`analysis::regions`] | Figures 1, 3, 4 — region sizes, per-function load, user concentration |
//! | [`analysis::peaks`] | Figures 5, 6 — daily peaks, peak-to-trough ratios |
//! | [`analysis::holiday`] | Figure 7 — holiday effect on pods and CPU |
//! | [`analysis::composition`] | Figures 8, 9 — pods / cold starts / functions by trigger, runtime, configuration |
//! | [`analysis::distributions`] | Figure 10 — cold-start duration and inter-arrival distributions and fits |
//! | [`analysis::components`] | Figures 11, 12, 13 — component time series, correlations, size split |
//! | [`analysis::attribution`] | Figures 14, 15, 16 — which functions, runtimes, and triggers cause cold starts |
//! | [`analysis::utility`] | Figure 17 — pod utility ratio |
//!
//! # Mitigation policies (Section 5)
//!
//! | Module | Strategy |
//! |---|---|
//! | [`policies::prewarm`] | Predictive pre-warming (timers, demand, workflow chains) |
//! | [`policies::keepalive`] | Adaptive and timer-aware keep-alive |
//! | [`policies::peak_shaving`] | Delaying asynchronous, non-latency-critical requests |
//! | [`policies::pool_prediction`] | Resource-pool size prediction |
//! | [`policies::cross_region`] | Cross-region function migration |
//! | [`policies::concurrency`] | Concurrency adjustment advisor |
//!
//! The named ablation [`Scenario`]s combine these policies; each runs as one
//! [`policies::ScenarioPolicies`] factory.
//!
//! # Experiment sessions (the one experiment API)
//!
//! Every experiment in this crate — the policy ablation, the parameter
//! sweeps, the trace replays — is one shape: **policies × workload sources ×
//! seeds → cold-start metrics**. [`session::ExperimentSession`] declares
//! that shape once: pluggable [`session::WorkloadSource`]s (scenario
//! presets, calibrated regions, replayed traces, synthesized traces) times
//! typed [`session::PolicyConfig`]s (named scenarios or sweep
//! configurations), executed concurrently with a deterministic merge and
//! streamed through [`session::ReportSink`]s into the shared
//! `faas-coldstarts/session/v1` report envelope. The one parallelism knob,
//! `threads`, runs whole cells concurrently, each on one single-threaded
//! engine, and is byte-identical to the sequential run (see
//! `ARCHITECTURE.md`).
//!
//! ```
//! use coldstarts::session::{ExperimentSession, RegionSource};
//! use coldstarts::Scenario;
//! use faas_workload::population::PopulationConfig;
//! use faas_workload::profile::{Calibration, RegionProfile};
//!
//! let session = ExperimentSession::new()
//!     .scenarios(&[Scenario::Baseline, Scenario::Combined])
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
//! let report = session.run();     // == session.with_threads(1).run()
//! assert_eq!(report.cells.len(), 2);
//! let outcomes = report.outcomes(0, 7).expect("the baseline is declared");
//! assert_eq!(outcomes[0].cold_start_reduction, 0.0);
//! let json = report.envelope("ablation").to_json();
//! assert!(json.contains("\"schema\": \"faas-coldstarts/session/v1\""));
//! ```
//!
//! A session is the one way to run an experiment; a single simulation
//! outside one goes through `faas_platform::SimulationSpec`.
//!
//! # Parameter sweeps
//!
//! [`sweep`] turns the one-configuration-at-a-time ablation into a search:
//! each policy family describes its tunable axes as a
//! [`sweep::ParamSpace`], a [`sweep::PolicySweep`] fans the cross-product
//! out over scenario presets × regions × seeds as one session, and
//! the resulting [`sweep::SweepReport`] carries the Pareto front over
//! (cold-start rate, memory-GB-seconds wasted).
//!
//! # Characterization quick start
//!
//! ```
//! use coldstarts::pipeline::CharacterizationPipeline;
//! use faas_workload::{SyntheticTraceBuilder, TraceScale};
//! use faas_workload::profile::{Calibration, RegionProfile};
//!
//! let dataset = SyntheticTraceBuilder::new()
//!     .with_regions(vec![RegionProfile::r2()])
//!     .with_scale(TraceScale::tiny())
//!     .with_calibration(Calibration { duration_days: 2, ..Calibration::default() })
//!     .with_seed(1)
//!     .build();
//! let report = CharacterizationPipeline::new()
//!     .with_region_of_interest(fntrace::RegionId::new(2))
//!     .analyze(&dataset);
//! assert!(report.distributions.overall_fit.sample_count > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod pipeline;
pub mod policies;
pub mod report;
pub mod session;
pub mod sweep;

// Unit tests of whole experiments run through sessions, one module per
// kind of experiment.
#[cfg(test)]
#[path = "tests/evaluation.rs"]
mod evaluation;
#[cfg(test)]
#[path = "tests/experiment.rs"]
mod experiment;
#[cfg(test)]
#[path = "tests/multi_region.rs"]
mod multi_region;
#[cfg(test)]
#[path = "tests/replay.rs"]
mod replay;

pub use pipeline::CharacterizationPipeline;
pub use policies::Scenario;
pub use report::CharacterizationReport;
pub use session::{
    ExperimentSession, PolicyConfig, ReportSink, ScenarioOutcome, SessionCell, SessionReport,
    WorkloadSource,
};
pub use sweep::{ParamSpace, PolicyFamily, PolicySweep, ReplaySource, SweepConfig, SweepReport};
