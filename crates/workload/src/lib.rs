//! Calibrated synthetic serverless workload and trace generation.
//!
//! The paper analyses 31 days of production telemetry from five Huawei Cloud
//! regions. That trace is not reproducible outside the provider, so this
//! crate builds the closest synthetic equivalent: a generator calibrated to
//! every statistic the paper publishes —
//!
//! * region scales spanning several orders of magnitude (Figure 1),
//! * heavy-tailed per-function request volumes with region-specific
//!   high-load fractions (Figure 3a),
//! * execution-time and CPU-usage distributions per region (Figures 3b, 3c),
//! * functions-per-user and requests-per-user concentration (Figure 4),
//! * diurnal and weekly periodicity with region-specific peak hours
//!   (Figure 5) and a week-long holiday window (Figure 7),
//! * the Region-2 runtime / trigger / resource-configuration mixes
//!   (Figures 8 and 9),
//! * cold-start duration and inter-arrival distributions compatible with the
//!   paper's LogNormal / Weibull fits (Figure 10),
//! * per-region cold-start component compositions (Figures 11–13) and
//!   per-runtime / per-trigger compositions (Figures 15, 16).
//!
//! Two outputs are produced from the same function population:
//!
//! 1. [`synth::SyntheticTraceBuilder`] — a complete [`fntrace::Dataset`]
//!    (request, cold-start, and function tables) generated directly by
//!    applying the platform's keep-alive rule to the arrival streams; this is
//!    what the characterization pipeline analyses.
//! 2. [`simio::WorkloadSpec`] — the same arrivals packaged as input for the
//!    `faas-platform` discrete-event simulator, used to evaluate the paper's
//!    proposed mitigations (pre-warming, adaptive keep-alive, peak shaving,
//!    cross-region scheduling).
//!
//! The loop also closes in the other direction:
//! [`replay::TraceReplayWorkload`] lowers recorded trace tables (real or
//! synthetic CSV datasets) back into replay-tagged [`simio::WorkloadSpec`]s,
//! so the same policy experiments run against replayed traces.
//!
//! Generation is stream-first: [`stream`] defines the [`ArrivalStream`]
//! abstraction and the per-function k-way merge behind it, so arbitrarily
//! long horizons generate lazily in memory proportional to the function
//! population — [`simio::WorkloadSpec::from_population`] is simply that
//! stream collected. Each function's arrivals come from its own RNG, forked
//! from the workload seed in table order, and the merge breaks timestamp
//! ties by function id and then table index, so a stream replays the same
//! sequence on every call (see `ARCHITECTURE.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod latency;
pub mod population;
pub mod presets;
pub mod profile;
pub mod replay;
pub mod simio;
pub mod stream;
pub mod synth;

pub use arrivals::{ArrivalGenerator, FunctionArrivals};
pub use latency::{ColdStartComponents, ColdStartLatencyModel};
pub use population::{FunctionPopulation, FunctionSpec, PopulationConfig};
pub use presets::ScenarioPreset;
pub use profile::{Calibration, HolidayResponse, RegionProfile};
pub use replay::{
    DiskReplayStream, ReplayStatsBuilder, SpillFault, StreamedTraceDir, TraceReplayWorkload,
    TraceStreamError, WindowedReplayOrder, DEFAULT_REPLAY_WINDOW_MS,
};
pub use simio::{WorkloadEvent, WorkloadSource, WorkloadSpec};
pub use stream::{ArrivalStream, SliceStream, SpecStream, StreamedWorkload, SyntheticStream};
pub use synth::{SyntheticTraceBuilder, TraceScale};
