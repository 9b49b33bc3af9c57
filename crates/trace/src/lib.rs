//! Serverless trace data model.
//!
//! This crate implements the three monitoring tables of the paper's Table 1 —
//! request-level, pod-level (cold starts), and function-level — together with
//! the hashed identifiers, runtime / trigger / resource taxonomies, columnar
//! storage, time binning, and CSV import/export in the layout of the public
//! `sir-lab/data-release` dataset.
//!
//! Everything downstream (the synthetic generator, the platform simulator,
//! and the characterization pipeline) produces or consumes these types, so a
//! real production trace in the released format can be swapped in for the
//! synthetic one without touching the analysis code.
//!
//! # Examples
//!
//! ```
//! use fntrace::{ColdStartRecord, Dataset, FunctionId, PodId, RegionId, RegionTrace, UserId};
//!
//! let mut region = RegionTrace::new(RegionId::new(1));
//! region.cold_starts.push(ColdStartRecord {
//!     timestamp_ms: 60_000,
//!     pod: PodId::new(1),
//!     cluster: 0,
//!     function: FunctionId::new(7),
//!     user: UserId::new(3),
//!     cold_start_us: 900_000,
//!     pod_alloc_us: 400_000,
//!     deploy_code_us: 200_000,
//!     deploy_dep_us: 100_000,
//!     scheduling_us: 200_000,
//! });
//! let mut ds = Dataset::new();
//! ds.insert_region(region);
//! assert_eq!(ds.total_cold_starts(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod dataset;
pub mod ids;
pub mod par;
pub mod record;
pub mod stream;
pub mod synth;
pub mod table;
pub mod timebin;
pub mod types;

pub use dataset::{Dataset, DatasetSummary, RegionTrace, TraceDirPaths};
pub use ids::{ClusterId, FunctionId, PodId, RegionId, RequestId, UserId};
pub use record::{ColdStartRecord, FunctionMeta, RequestRecord};
pub use stream::{CsvRecord, RecordChunks, TraceReader};
pub use synth::{SynthShape, SynthTraceSpec};
pub use table::{ColdStartTable, FunctionTable, RequestTable};
pub use timebin::{TimeBinner, MICROS_PER_SEC, MILLIS_PER_DAY, MILLIS_PER_HOUR, MILLIS_PER_MIN};
pub use types::{ResourceConfig, Runtime, SizeClass, Synchronicity, TriggerGroup, TriggerType};
