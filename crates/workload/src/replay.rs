//! Trace-driven workload replay.
//!
//! Everything upstream of this module *generates* workloads; this module
//! closes the loop in the other direction: it lowers recorded trace tables —
//! a [`fntrace::RegionTrace`] parsed from the public CSV layout, or the
//! output of the simulator's own trace recorder — into the exact
//! [`WorkloadSpec`] the discrete-event platform consumes. The experiment
//! grid and the policy sweeps can then run every policy family against a
//! replayed production (or synthetic) trace exactly as they do against the
//! synthetic presets.
//!
//! Replay has to reconstruct the per-function attributes the simulator needs
//! but the trace does not store directly. They are inferred from the
//! records themselves:
//!
//! * execution time, CPU, and memory medians from the request table,
//! * dependency layers from non-zero `deploy_dep_us` cold-start components,
//! * per-pod concurrency from the maximum number of overlapping requests
//!   observed on a single pod,
//! * timer periods from the median gap between consecutive invocations of
//!   timer-triggered functions.
//!
//! The produced spec is tagged [`WorkloadSource::Replay`], which makes the
//! platform engine attribute cold starts per function in its report.
//!
//! # Examples
//!
//! ```
//! use fntrace::synth::{SynthShape, SynthTraceSpec};
//! use fntrace::RegionId;
//! use faas_workload::replay::TraceReplayWorkload;
//!
//! // Any trace in the Table 1 layout works; here a tiny synthetic one.
//! let trace = SynthTraceSpec {
//!     region: RegionId::new(3),
//!     shape: SynthShape::Steady,
//!     functions: 5,
//!     duration_days: 1,
//!     mean_requests_per_day: 100.0,
//!     keep_alive_secs: 60.0,
//!     seed: 11,
//! }
//! .generate();
//!
//! let workload = TraceReplayWorkload::new().build(&trace)?;
//! assert!(workload.is_replay());
//! assert_eq!(workload.len(), trace.requests.len());
//! assert_eq!(workload.region, RegionId::new(3));
//! # Ok::<(), faas_workload::replay::TraceStreamError>(())
//! ```

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{self, AtomicU64};
use std::sync::Arc;

use fntrace::csv::CsvError;
use fntrace::stream::TraceReader;
use fntrace::{
    ColdStartRecord, FunctionId, FunctionTable, PodId, RegionId, RegionTrace, RequestRecord,
    TraceDirPaths, TriggerType, MILLIS_PER_DAY, MILLIS_PER_HOUR,
};

use crate::population::FunctionSpec;
use crate::profile::{Calibration, RegionProfile};
use crate::simio::{WorkloadEvent, WorkloadSource, WorkloadSpec};
use crate::stream::{ArrivalStream, ReplayStream};

/// Builder lowering trace records into replayable [`WorkloadSpec`]s.
///
/// By default the region profile is looked up from the paper regions by the
/// trace's region id (falling back to Region 2's calibration) and the
/// calibration horizon is derived from the trace's time span; both can be
/// overridden so a replay matches the exact setup of a synthetic run it is
/// being compared against.
#[derive(Debug, Clone, Default)]
pub struct TraceReplayWorkload {
    profile: Option<RegionProfile>,
    calibration: Option<Calibration>,
}

impl TraceReplayWorkload {
    /// Creates a builder with default profile and calibration inference.
    pub fn new() -> Self {
        Self::default()
    }

    /// Uses `profile` for the latency model and load modulation instead of
    /// the paper region matching the trace's region id.
    pub fn with_profile(mut self, profile: RegionProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Uses `calibration` (horizon, keep-alive) instead of deriving the
    /// duration from the trace's time span.
    pub fn with_calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = Some(calibration);
        self
    }

    /// Lowers one region's trace into a replay-tagged workload.
    ///
    /// This is [`build_streamed`](Self::build_streamed) collected: the
    /// events come out of the same ordered [`ReplayStream`] the streaming
    /// path yields window by window.
    pub fn build(&self, trace: &RegionTrace) -> Result<WorkloadSpec, TraceStreamError> {
        let (mut spec, stream) = self.build_streamed(trace)?;
        spec.events = stream.collect();
        Ok(spec)
    }

    /// Lowers a trace into an event-free header spec plus the
    /// [`ReplayStream`] that yields its events in `(timestamp, function)`
    /// order.
    ///
    /// The stream borrows the trace's request table and holds only a sorted
    /// index permutation, so replaying never duplicates the event list; the
    /// header carries the reconstructed function specs, profile, and
    /// calibration the simulator's static state needs. Without a calibration
    /// override, timestamps spanning more days than a [`Calibration`] holds
    /// are a [`TraceStreamError::SpanTooLong`].
    pub fn build_streamed<'a>(
        &self,
        trace: &'a RegionTrace,
    ) -> Result<(WorkloadSpec, ReplayStream<'a>), TraceStreamError> {
        let calibration = self.calibration_for(trace.time_span_ms())?;
        let functions = infer_functions(trace, &calibration);
        let spec = WorkloadSpec {
            region: trace.region,
            profile: self.profile_for(trace.region),
            calibration,
            functions,
            events: Vec::new(),
            source: WorkloadSource::Replay,
        };
        let stream = ReplayStream::new(trace, spec.duration_ms());
        Ok((spec, stream))
    }

    /// The override, or the calibration covering a trace whose timestamps
    /// span `span` (`[min, max]`, `None` when empty): the whole days of
    /// `[0, max]`, at least one. A span of more days than a [`Calibration`]
    /// holds (`u32`) is a [`TraceStreamError::SpanTooLong`].
    fn calibration_for(&self, span: Option<(u64, u64)>) -> Result<Calibration, TraceStreamError> {
        if let Some(calibration) = self.calibration {
            return Ok(calibration);
        }
        let last_ms = span.map_or(0, |(_, hi)| hi);
        let days = last_ms.saturating_add(1).div_ceil(MILLIS_PER_DAY);
        Ok(Calibration {
            duration_days: u32::try_from(days)
                .map_err(|_| TraceStreamError::SpanTooLong { last_ms })?
                .max(1),
            ..Calibration::default()
        })
    }

    /// The override, or the paper region matching `region` (Region 2's
    /// calibration for any other id), relabelled as `region`.
    fn profile_for(&self, region: RegionId) -> RegionProfile {
        self.profile.clone().unwrap_or_else(|| {
            let base =
                RegionProfile::paper_region(region.index()).unwrap_or_else(RegionProfile::r2);
            RegionProfile { region, ..base }
        })
    }
}

/// Errors from streaming trace-directory ingestion.
#[derive(Debug)]
pub enum TraceStreamError {
    /// Parsing or I/O failure in one of the CSV files.
    Csv(CsvError),
    /// A request record was out of order by more than the reorder window.
    Disorder {
        /// 0-based data-row index of the offending record.
        seq: u64,
        /// Its timestamp.
        timestamp_ms: u64,
        /// Largest timestamp seen before it.
        max_seen_ms: u64,
        /// The reorder window it was checked against.
        window_ms: u64,
    },
    /// The open's spill file (the request stream in replay order, see
    /// [`StreamedTraceDir`]) changed between passes: a median selection
    /// pass over it found a different number of keys in range than the
    /// previous pass counted.
    FileChanged {
        /// Function whose median was being selected.
        function: FunctionId,
        /// Which of its statistics.
        stat: ReplayStat,
        /// Keys in range counted by the previous pass.
        expected: u64,
        /// Keys in range found by this pass.
        found: u64,
    },
    /// The timestamps span more days than a [`Calibration`] holds (`u32`).
    SpanTooLong {
        /// Largest timestamp in the trace.
        last_ms: u64,
    },
    /// The open's spill file could not be written or read back, or no
    /// longer holds what the open wrote.
    Spill {
        /// The spill file.
        path: PathBuf,
        /// What went wrong.
        fault: SpillFault,
    },
}

/// Why a spill file failed; see [`TraceStreamError::Spill`].
#[derive(Debug)]
pub enum SpillFault {
    /// Creating, writing or reading the file failed.
    Io(std::io::Error),
    /// The file does not start with the spill magic bytes: it is not the
    /// file the open wrote.
    ForeignMagic,
    /// The file's length is not that of the records the open wrote: it was
    /// truncated or extended.
    Length {
        /// Bytes the open wrote.
        expected: u64,
        /// Bytes the file holds.
        found: u64,
    },
}

impl std::fmt::Display for SpillFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillFault::Io(e) => write!(f, "I/O error: {e}"),
            SpillFault::ForeignMagic => write!(f, "foreign magic bytes"),
            SpillFault::Length { expected, found } => {
                write!(f, "{found} bytes where the open wrote {expected}")
            }
        }
    }
}

impl std::fmt::Display for TraceStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceStreamError::Csv(e) => write!(f, "{e}"),
            TraceStreamError::Disorder {
                seq,
                timestamp_ms,
                max_seen_ms,
                window_ms,
            } => write!(
                f,
                "request record {seq} at {timestamp_ms}ms arrives more than {window_ms}ms \
                 after later timestamps (max seen {max_seen_ms}ms); sort the trace"
            ),
            TraceStreamError::FileChanged {
                function,
                stat,
                expected,
                found,
            } => write!(
                f,
                "request spill file changed while the trace was being opened: selecting the \
                 {stat:?} median of {function} expected {expected} keys in range, found {found}"
            ),
            TraceStreamError::SpanTooLong { last_ms } => write!(
                f,
                "trace timestamps reach {last_ms}ms, more than {} days",
                u32::MAX
            ),
            TraceStreamError::Spill { path, fault } => {
                write!(f, "request spill file {}: {fault}", path.display())
            }
        }
    }
}

impl std::error::Error for TraceStreamError {}

impl From<CsvError> for TraceStreamError {
    fn from(e: CsvError) -> Self {
        TraceStreamError::Csv(e)
    }
}

/// Count and exact range `[min, max]` of a multiset of `u64` keys.
#[derive(Debug, Clone, Copy)]
struct KeyRange {
    count: u64,
    min: u64,
    max: u64,
}

impl KeyRange {
    const EMPTY: KeyRange = KeyRange {
        count: 0,
        min: u64::MAX,
        max: 0,
    };

    fn add(&mut self, key: u64) {
        self.count += 1;
        self.min = self.min.min(key);
        self.max = self.max.max(key);
    }
}

/// Exact multiset median over `u64` keys with a memory cap.
///
/// Keys are collected verbatim up to `cap`; the `cap + 1`-th observation
/// drops the collection, and from then on only the [`KeyRange`] grows. An
/// overflowed median must be [`resolve`](Self::resolve)d externally before
/// it can be read: the streaming path seeds an exact out-of-core selection
/// over the open's spill of the request stream with that range (see
/// `select_medians`). With `cap = usize::MAX` (the eager path, where the
/// whole table is resident anyway) overflow never happens.
#[derive(Debug, Clone)]
struct ValueMedian {
    keys: Vec<u64>,
    range: KeyRange,
    cap: usize,
    overflowed: bool,
    resolved: Option<u64>,
}

impl ValueMedian {
    fn new(cap: usize) -> Self {
        Self {
            keys: Vec::new(),
            range: KeyRange::EMPTY,
            cap,
            overflowed: false,
            resolved: None,
        }
    }

    fn add(&mut self, key: u64) {
        self.range.add(key);
        if self.overflowed {
            return;
        }
        if self.keys.len() < self.cap {
            self.keys.push(key);
        } else {
            self.overflowed = true;
            self.keys = Vec::new();
        }
    }

    /// 0-based sorted index of the median (the upper median, matching
    /// `sorted[len / 2]` over the materialised vector).
    fn rank(&self) -> u64 {
        self.range.count / 2
    }

    fn resolve(&mut self, value: u64) {
        debug_assert!(self.overflowed, "only overflowed medians need resolving");
        self.resolved = Some(value);
    }

    /// The value at sorted index `count / 2`.
    fn median(mut self) -> Option<u64> {
        if self.range.count == 0 {
            return None;
        }
        if self.overflowed {
            return Some(
                self.resolved
                    .expect("overflowed median was never resolved by selection"),
            );
        }
        self.keys.sort_unstable();
        Some(self.keys[self.rank() as usize])
    }
}

/// Order-preserving bijection from `f64` to `u64` under `f64::total_cmp`,
/// so float medians can ride the same counting structure.
fn f64_total_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn f64_from_total_key(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k & !(1 << 63))
    } else {
        f64::from_bits(!k)
    }
}

/// In-flight request end-times on one pod (min-heap), for streaming
/// concurrency inference.
#[derive(Debug, Default, Clone)]
struct PodLoad {
    ends: BinaryHeap<Reverse<u64>>,
    /// Largest end time ever pushed, for garbage collection.
    last_end: u64,
}

/// Per-function streaming accumulation state.
#[derive(Debug, Clone)]
struct StreamAccum {
    count: u64,
    exec_us: ValueMedian,
    /// CPU medians keyed through [`f64_total_key`].
    cpu_keys: ValueMedian,
    memory_bytes: ValueMedian,
    prev_ts: Option<u64>,
    gaps_ms: ValueMedian,
    pods: HashMap<PodId, PodLoad>,
    max_concurrency: u32,
    records_since_gc: u32,
}

impl StreamAccum {
    fn new(median_cap: usize) -> Self {
        Self {
            count: 0,
            exec_us: ValueMedian::new(median_cap),
            cpu_keys: ValueMedian::new(median_cap),
            memory_bytes: ValueMedian::new(median_cap),
            prev_ts: None,
            gaps_ms: ValueMedian::new(median_cap),
            pods: HashMap::new(),
            max_concurrency: 0,
            records_since_gc: 0,
        }
    }

    fn stat(&mut self, stat: ReplayStat) -> &mut ValueMedian {
        match stat {
            ReplayStat::ExecUs => &mut self.exec_us,
            ReplayStat::CpuKey => &mut self.cpu_keys,
            ReplayStat::MemoryBytes => &mut self.memory_bytes,
            ReplayStat::GapMs => &mut self.gaps_ms,
        }
    }
}

/// One of the four per-function statistics inferred by median.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStat {
    /// Request execution time, microseconds.
    ExecUs,
    /// CPU usage, as the order-preserving total-order key of millicores
    /// (the `f64` bits mapped so `u64` ordering matches `f64::total_cmp`).
    CpuKey,
    /// Memory usage, bytes.
    MemoryBytes,
    /// Gap between consecutive same-function arrivals in replay order,
    /// milliseconds.
    GapMs,
}

impl ReplayStat {
    const ALL: [ReplayStat; 4] = [
        ReplayStat::ExecUs,
        ReplayStat::CpuKey,
        ReplayStat::MemoryBytes,
        ReplayStat::GapMs,
    ];
}

/// A median the capped builder could not hold in memory: selection must find
/// the key at sorted index `rank` of the named per-function statistic.
#[derive(Debug, Clone, Copy)]
pub struct PendingMedian {
    /// Function whose statistic overflowed the cap.
    pub function: FunctionId,
    /// Which statistic.
    pub stat: ReplayStat,
    /// 0-based index into the sorted multiset of that statistic's keys.
    pub rank: u64,
    /// Number of keys in the multiset.
    pub count: u64,
    /// Smallest key in the multiset.
    pub min: u64,
    /// Largest key in the multiset.
    pub max: u64,
}

/// Whether [`ReplayStatsBuilder::finish`] infers a timer period for
/// `function` — and so reads its gap median: its primary trigger is a timer.
fn infers_timer_period(functions: &FunctionTable, function: FunctionId) -> bool {
    functions.trigger_of(function) == TriggerType::Timer
}

/// Streaming function-stat inference.
///
/// Feed every request record in `(timestamp, function, record index)` order
/// (the [`ReplayStream`] order — [`WindowedReplayOrder`] produces exactly
/// this from nearly-sorted disk files), then every cold-start record in any
/// order, then call [`finish`](Self::finish). The result is identical to
/// scanning a fully materialised [`RegionTrace`]: medians are exact (capped
/// key collections, finished out-of-core by `select_medians` when a
/// function's observations outgrow the cap), timer gaps come from the sorted
/// per-function arrival sequence, and per-pod concurrency replays the same
/// ends-release-before-starts sweep the eager sort performed.
///
/// # Memory contract
///
/// Resident state is per *function*, never per request: at most
/// [`with_median_cap`](Self::with_median_cap) keys plus a key range per
/// statistic, and the live per-pod heaps (idle pods are garbage-collected as
/// timestamps advance). A trace 100× longer with the same function
/// population accumulates in the same footprint. Finishing the overflowed
/// medians adds, per median and only while it is being selected, one
/// 256-bucket histogram (6 KiB) or at most `cap` keys; the request stream
/// those selection passes re-read lives on disk, in the open's spill file
/// (40 bytes per request), never in memory.
#[derive(Debug)]
pub struct ReplayStatsBuilder {
    accum: BTreeMap<FunctionId, StreamAccum>,
    has_deps: BTreeMap<FunctionId, bool>,
    requests: u64,
    cold_starts: u64,
    span: Option<(u64, u64)>,
    median_cap: usize,
}

impl Default for ReplayStatsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplayStatsBuilder {
    /// Creates an empty builder with an unbounded median cap (exact medians
    /// held fully in memory — the eager path).
    pub fn new() -> Self {
        Self::with_median_cap(usize::MAX)
    }

    /// Creates an empty builder that keeps at most `cap` raw keys per
    /// (function, statistic) median. A median that overflows the cap keeps an
    /// exact count and key range but forgets its keys;
    /// [`pending_medians`](Self::pending_medians) reports those that
    /// [`finish`](Self::finish) reads, and each must be
    /// [`resolve_median`](Self::resolve_median)d before `finish` (the
    /// streaming path re-reads the open's spill with `select_medians`).
    pub fn with_median_cap(cap: usize) -> Self {
        Self {
            accum: BTreeMap::new(),
            has_deps: BTreeMap::new(),
            requests: 0,
            cold_starts: 0,
            span: None,
            median_cap: cap,
        }
    }

    fn widen_span(&mut self, ts: u64) {
        self.span = Some(match self.span {
            Some((lo, hi)) => (lo.min(ts), hi.max(ts)),
            None => (ts, ts),
        });
    }

    /// Accumulates one request record. Records of the same function **must**
    /// arrive in non-decreasing timestamp order (debug-asserted).
    pub fn record_request(&mut self, r: &RequestRecord) {
        self.requests += 1;
        self.widen_span(r.timestamp_ms);
        let cap = self.median_cap;
        let a = self
            .accum
            .entry(r.function)
            .or_insert_with(|| StreamAccum::new(cap));
        a.count += 1;
        a.exec_us.add(r.execution_time_us);
        a.cpu_keys.add(f64_total_key(r.cpu_usage_millicores));
        a.memory_bytes.add(r.memory_usage_bytes);
        if let Some(prev) = a.prev_ts {
            debug_assert!(
                prev <= r.timestamp_ms,
                "requests must be fed in per-function timestamp order"
            );
            a.gaps_ms.add(r.timestamp_ms.saturating_sub(prev));
        }
        a.prev_ts = Some(r.timestamp_ms);

        let start = r.timestamp_ms;
        let end = start
            .saturating_add(r.execution_time_us.div_ceil(1000))
            .max(start.saturating_add(1));
        let pod = a.pods.entry(r.pod).or_default();
        // Requests ending at or before this start are no longer in flight:
        // releases happen before the new arrival, so back-to-back requests
        // never count as overlapping (matching the eager sweep's tie rule).
        while pod.ends.peek().is_some_and(|Reverse(e)| *e <= start) {
            pod.ends.pop();
        }
        pod.ends.push(Reverse(end));
        pod.last_end = pod.last_end.max(end);
        a.max_concurrency = a.max_concurrency.max(pod.ends.len() as u32);

        a.records_since_gc += 1;
        if a.records_since_gc >= POD_GC_INTERVAL {
            a.records_since_gc = 0;
            // Pods whose every request already ended would start from an
            // empty heap anyway; dropping their state changes nothing.
            a.pods.retain(|_, p| p.last_end > start);
        }
    }

    /// Accumulates one cold-start record (order-independent).
    pub fn record_cold_start(&mut self, cs: &ColdStartRecord) {
        self.cold_starts += 1;
        self.widen_span(cs.timestamp_ms);
        *self.has_deps.entry(cs.function).or_default() |= cs.deploy_dep_us > 0;
    }

    /// Number of request records accumulated.
    pub fn request_count(&self) -> u64 {
        self.requests
    }

    /// Number of cold-start records accumulated.
    pub fn cold_start_count(&self) -> u64 {
        self.cold_starts
    }

    /// Timestamp span `[min, max]` across both record kinds.
    pub fn span_ms(&self) -> Option<(u64, u64)> {
        self.span
    }

    /// The medians [`finish`](Self::finish) reads whose key collections
    /// overflowed the cap, so their exact value must come from an
    /// out-of-core selection. A gap median is read only for timer-primary
    /// functions of `functions`, the table later passed to `finish`. Empty
    /// when the cap is unbounded or every per-function statistic stayed
    /// small.
    pub fn pending_medians(&self, functions: &FunctionTable) -> Vec<PendingMedian> {
        let mut pending = Vec::new();
        for (&function, a) in &self.accum {
            for stat in ReplayStat::ALL {
                let m = match stat {
                    ReplayStat::ExecUs => &a.exec_us,
                    ReplayStat::CpuKey => &a.cpu_keys,
                    ReplayStat::MemoryBytes => &a.memory_bytes,
                    ReplayStat::GapMs if infers_timer_period(functions, function) => &a.gaps_ms,
                    ReplayStat::GapMs => continue,
                };
                if m.overflowed {
                    pending.push(PendingMedian {
                        function,
                        stat,
                        rank: m.rank(),
                        count: m.range.count,
                        min: m.range.min,
                        max: m.range.max,
                    });
                }
            }
        }
        pending
    }

    /// Supplies the selected key for one overflowed median reported by
    /// [`pending_medians`](Self::pending_medians).
    pub fn resolve_median(&mut self, function: FunctionId, stat: ReplayStat, key: u64) {
        self.accum
            .get_mut(&function)
            .expect("resolving a median for an unseen function")
            .stat(stat)
            .resolve(key);
    }

    /// Reconstructs a [`FunctionSpec`] per distinct function seen in the
    /// request feed, in ascending function-id order.
    pub fn finish(self, functions: &FunctionTable, calibration: &Calibration) -> Vec<FunctionSpec> {
        let days = f64::from(calibration.duration_days.max(1));
        self.accum
            .into_iter()
            .map(|(function, a)| {
                let meta = functions.get(function);
                let triggers = meta
                    .map(|m| m.triggers.clone())
                    .filter(|t| !t.is_empty())
                    .unwrap_or_else(|| vec![TriggerType::Unknown]);
                let config = functions.config_of(function);
                let user = meta
                    .map(|m| m.user)
                    .unwrap_or_else(|| fntrace::UserId::new(function.raw()));

                let requests_per_day = a.count as f64 / days;
                let timer_period_secs = if infers_timer_period(functions, function) {
                    a.gaps_ms
                        .median()
                        .map(|g| g as f64 / 1e3)
                        .unwrap_or(86_400.0 / requests_per_day.max(1e-9))
                        .max(1.0)
                } else {
                    0.0
                };

                FunctionSpec {
                    function,
                    user,
                    runtime: functions.runtime_of(function),
                    triggers,
                    config,
                    base_requests_per_day: requests_per_day,
                    timer_period_secs,
                    // Replay takes arrival times verbatim from the records,
                    // so the generative shape parameters stay neutral.
                    diurnal_amplitude: 0.0,
                    peak_offset_hours: 0.0,
                    median_execution_secs: (a.exec_us.median().unwrap_or(0) as f64 / 1e6).max(1e-4),
                    cpu_millicores: a
                        .cpu_keys
                        .median()
                        .map(f64_from_total_key)
                        .unwrap_or(0.0)
                        .max(1.0),
                    memory_bytes: a.memory_bytes.median().unwrap_or(0).max(1),
                    has_dependencies: self.has_deps.get(&function).copied().unwrap_or(false),
                    concurrency: a.max_concurrency.max(1),
                    upstream: None,
                }
            })
            .collect()
    }
}

/// How many records a function accumulates between idle-pod sweeps.
const POD_GC_INTERVAL: u32 = 1024;

/// Raw keys kept per (function, statistic) median on the streaming path
/// before it falls back to out-of-core selection.
const MEDIAN_COLLECT_CAP: usize = 1024;

/// Exact selection of the key at sorted index `rank` among the keys of a
/// re-scannable multiset that lie in `range`.
///
/// Every pass over the multiset either narrows the range or finishes: while
/// more than `cap` keys remain, it counts them in 256 offset buckets
/// `(key - range.min) >> shift`, each with its exact key range, and the
/// next pass is seeded with the bucket holding the rank. Each narrowing
/// shrinks the range's bit width by at least 8, and a range of one key value
/// is the answer without another pass, so a selection takes at most 8
/// passes. Once at most `cap` keys remain, one pass gathers them and picks
/// the rank directly.
#[derive(Debug)]
struct Selector {
    /// Count and exact range, as of the previous pass, of the keys that
    /// hold the answer.
    range: KeyRange,
    rank: u64,
    /// Keys in range observed in the current pass.
    found: u64,
    state: SelectorState,
}

#[derive(Debug)]
enum SelectorState {
    /// Bucket the keys in range by `(key - range.min) >> shift`.
    Narrow { shift: u32, buckets: Vec<KeyRange> },
    /// Gather the keys in range outright.
    Collect(Vec<u64>),
    /// The selected key.
    Done(u64),
}

impl SelectorState {
    /// What the next pass does with the keys `range` describes.
    fn plan(range: KeyRange, cap: usize) -> Self {
        let KeyRange { count, min, max } = range;
        if min == max {
            SelectorState::Done(min)
        } else if count <= cap as u64 {
            SelectorState::Collect(Vec::with_capacity(count as usize))
        } else {
            let width = u64::BITS - (max - min).leading_zeros();
            SelectorState::Narrow {
                shift: width.saturating_sub(8),
                buckets: vec![KeyRange::EMPTY; 256],
            }
        }
    }
}

impl Selector {
    /// Seeds a selection of sorted index `rank` of the multiset `range`
    /// describes.
    fn new(range: KeyRange, rank: u64, cap: usize) -> Self {
        debug_assert!(rank < range.count, "rank outside the multiset");
        Self {
            range,
            rank,
            found: 0,
            state: SelectorState::plan(range, cap),
        }
    }

    fn result(&self) -> Option<u64> {
        match self.state {
            SelectorState::Done(key) => Some(key),
            _ => None,
        }
    }

    fn observe(&mut self, key: u64) {
        if key < self.range.min || key > self.range.max {
            return;
        }
        self.found += 1;
        match &mut self.state {
            SelectorState::Narrow { shift, buckets } => {
                buckets[((key - self.range.min) >> *shift) as usize].add(key);
            }
            SelectorState::Collect(keys) => keys.push(key),
            SelectorState::Done(_) => {}
        }
    }

    /// Digests one pass over the whole multiset of an unresolved selection.
    /// Fails with the number of keys found in range when it differs from
    /// the number the previous pass counted there, i.e. when the multiset
    /// changed between passes.
    fn conclude_pass(&mut self, cap: usize) -> Result<(), u64> {
        if self.found != self.range.count {
            return Err(self.found);
        }
        match &mut self.state {
            SelectorState::Narrow { buckets, .. } => {
                let mut before = 0;
                let bucket = *buckets
                    .iter()
                    .find(|b| {
                        before += b.count;
                        self.rank < before
                    })
                    .expect("bucket counts sum to the keys in range, which exceed the rank");
                self.rank -= before - bucket.count;
                self.range = bucket;
                self.found = 0;
                self.state = SelectorState::plan(bucket, cap);
            }
            SelectorState::Collect(keys) => {
                let (_, &mut key, _) = keys.select_nth_unstable(self.rank as usize);
                self.state = SelectorState::Done(key);
            }
            SelectorState::Done(_) => {}
        }
        Ok(())
    }
}

/// Exact out-of-core selection of the medians `builder` overflowed (its
/// [`pending_medians`](ReplayStatsBuilder::pending_medians) for
/// `functions`), resolved into `builder`; returns the number of passes made
/// over `spill`.
///
/// Every [`Selector`] is seeded with its statistic's key count and
/// `[min, max]` range from the inference pass, so a constant statistic is
/// resolved without any pass. Each pass reads the spill front to back — the
/// request stream in exactly the replay order the builder consumed (gap keys
/// depend on it) — and advances every unresolved selector at once: typically
/// one narrowing pass and one gathering pass, at most 8 when keys spread
/// over all 64 bits. Every pass checks that it finds exactly the keys in
/// range the previous one counted, so a spill that changed between passes is
/// a [`TraceStreamError::FileChanged`], never a wrong median. Resident
/// memory is one 256-bucket histogram or at most the builder's median cap of
/// keys per unresolved selector, independent of trace length.
fn select_medians(
    builder: &mut ReplayStatsBuilder,
    functions: &FunctionTable,
    spill: &Spill,
) -> Result<u32, TraceStreamError> {
    let cap = builder.median_cap;
    let pending = builder.pending_medians(functions);
    let mut selectors: Vec<Selector> = pending
        .iter()
        .map(|p| {
            let range = KeyRange {
                count: p.count,
                min: p.min,
                max: p.max,
            };
            Selector::new(range, p.rank, cap)
        })
        .collect();

    let mut passes = 0;
    loop {
        // Index the unresolved selectors by function for the scan.
        let mut by_function: HashMap<FunctionId, Vec<usize>> = HashMap::new();
        for (i, s) in selectors.iter().enumerate() {
            if s.result().is_none() {
                by_function.entry(pending[i].function).or_default().push(i);
            }
        }
        if by_function.is_empty() {
            break;
        }
        passes += 1;

        let mut prev_ts: HashMap<FunctionId, u64> = HashMap::new();
        for rec in spill.read()? {
            let r = rec.map_err(|e| spill.error(SpillFault::Io(e)))?;
            let Some(indices) = by_function.get(&r.function) else {
                continue;
            };
            let gap = prev_ts
                .insert(r.function, r.timestamp_ms)
                .map(|prev| r.timestamp_ms.saturating_sub(prev));
            for &i in indices {
                let s = &mut selectors[i];
                match pending[i].stat {
                    ReplayStat::ExecUs => s.observe(r.execution_time_us),
                    ReplayStat::CpuKey => s.observe(r.cpu_key),
                    ReplayStat::MemoryBytes => s.observe(r.memory_bytes),
                    ReplayStat::GapMs => {
                        if let Some(g) = gap {
                            s.observe(g);
                        }
                    }
                }
            }
        }

        for (p, s) in pending.iter().zip(&mut selectors) {
            if s.result().is_none() {
                s.conclude_pass(cap)
                    .map_err(|found| TraceStreamError::FileChanged {
                        function: p.function,
                        stat: p.stat,
                        expected: s.range.count,
                        found,
                    })?;
            }
        }
    }

    for (p, s) in pending.iter().zip(&selectors) {
        let key = s
            .result()
            .expect("the loop runs until every selector is done");
        builder.resolve_median(p.function, p.stat, key);
    }
    Ok(passes)
}

/// Reconstructs a [`FunctionSpec`] per distinct function in the request
/// table, in ascending function-id order.
///
/// Routes through [`ReplayStatsBuilder`] fed in [`ReplayStream`] order, so
/// eager and streaming inference agree by construction.
fn infer_functions(trace: &RegionTrace, calibration: &Calibration) -> Vec<FunctionSpec> {
    let requests = trace.requests.records();
    assert!(
        u32::try_from(requests.len()).is_ok(),
        "replay indexes requests with u32"
    );
    let mut order: Vec<u32> = (0..requests.len() as u32).collect();
    order.sort_by_key(|&i| {
        let r = &requests[i as usize];
        (r.timestamp_ms, r.function.raw(), i)
    });
    let mut builder = ReplayStatsBuilder::new();
    for &i in &order {
        builder.record_request(&requests[i as usize]);
    }
    for cs in trace.cold_starts.records() {
        builder.record_cold_start(cs);
    }
    builder.finish(&trace.functions, calibration)
}

/// One buffered record inside [`WindowedReplayOrder`], ordered by the replay
/// key `(timestamp, function, sequence)`.
#[derive(Debug, Clone)]
struct PendingRecord {
    key: (u64, u64, u64),
    rec: RequestRecord,
}

impl PartialEq for PendingRecord {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for PendingRecord {}
impl PartialOrd for PendingRecord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingRecord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Re-orders a nearly-sorted request-record stream into exact
/// `(timestamp, function, record index)` order — the [`ReplayStream`] sort
/// key — using a bounded time window.
///
/// A record is held in the buffer until every record that could still sort
/// before it has been read: record `r` is emitted once the largest timestamp
/// seen exceeds `r.timestamp_ms + window_ms`. A record arriving more than
/// `window_ms` behind the largest seen timestamp is a hard
/// [`TraceStreamError::Disorder`] — silently emitting it out of order would
/// break the byte-determinism contract with the eager full-sort path.
///
/// # Memory contract
///
/// The buffer holds only the records of the trailing `window_ms` of trace
/// time (plus ties), never the file: memory is bounded by the peak arrival
/// rate × window, independent of trace length. Sorted input never errors at
/// any window.
pub struct WindowedReplayOrder<I: Iterator<Item = Result<RequestRecord, CsvError>>> {
    source: Option<I>,
    window_ms: u64,
    heap: BinaryHeap<Reverse<PendingRecord>>,
    max_seen_ms: u64,
    next_seq: u64,
}

impl<I: Iterator<Item = Result<RequestRecord, CsvError>>> WindowedReplayOrder<I> {
    /// Wraps a record source with the given reorder window.
    pub fn new(source: I, window_ms: u64) -> Self {
        Self {
            source: Some(source),
            window_ms,
            heap: BinaryHeap::new(),
            max_seen_ms: 0,
            next_seq: 0,
        }
    }
}

impl<I: Iterator<Item = Result<RequestRecord, CsvError>>> Iterator for WindowedReplayOrder<I> {
    type Item = Result<RequestRecord, TraceStreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            // Emit once no unread record can sort before the buffered
            // minimum: strictly below the watermark, so equal timestamps are
            // always buffered together and tie-break by (function, seq).
            if let Some(Reverse(min)) = self.heap.peek() {
                let drained = self.source.is_none();
                if drained || min.key.0.saturating_add(self.window_ms) < self.max_seen_ms {
                    let rec = self.heap.pop().map(|Reverse(p)| p.rec)?;
                    return Some(Ok(rec));
                }
            }
            let source = self.source.as_mut()?;
            match source.next() {
                Some(Ok(rec)) => {
                    if rec.timestamp_ms.saturating_add(self.window_ms) < self.max_seen_ms {
                        self.source = None;
                        self.heap.clear();
                        return Some(Err(TraceStreamError::Disorder {
                            seq: self.next_seq,
                            timestamp_ms: rec.timestamp_ms,
                            max_seen_ms: self.max_seen_ms,
                            window_ms: self.window_ms,
                        }));
                    }
                    self.max_seen_ms = self.max_seen_ms.max(rec.timestamp_ms);
                    let key = (rec.timestamp_ms, rec.function.raw(), self.next_seq);
                    self.next_seq += 1;
                    self.heap.push(Reverse(PendingRecord { key, rec }));
                }
                Some(Err(e)) => {
                    self.source = None;
                    self.heap.clear();
                    return Some(Err(e.into()));
                }
                None => {
                    self.source = None;
                }
            }
        }
    }
}

/// Reorder window of disk-backed replay: one hour of trace time.
pub const DEFAULT_REPLAY_WINDOW_MS: u64 = MILLIS_PER_HOUR;

/// First bytes of every spill file.
const SPILL_MAGIC: [u8; 8] = *b"FCRQSPL1";

/// Bytes per spilled request: five little-endian `u64`s.
const SPILL_RECORD_BYTES: usize = 40;

/// Spill files this process has created; with the process id it makes each
/// spill's name unique.
static SPILLS_CREATED: AtomicU64 = AtomicU64::new(0);

/// One request as the spill holds it: the fields replay and median
/// selection read.
#[derive(Debug, Clone, Copy)]
struct SpillRecord {
    timestamp_ms: u64,
    function: FunctionId,
    execution_time_us: u64,
    /// CPU millicores through [`f64_total_key`].
    cpu_key: u64,
    memory_bytes: u64,
}

impl SpillRecord {
    fn new(r: &RequestRecord) -> Self {
        Self {
            timestamp_ms: r.timestamp_ms,
            function: r.function,
            execution_time_us: r.execution_time_us,
            cpu_key: f64_total_key(r.cpu_usage_millicores),
            memory_bytes: r.memory_usage_bytes,
        }
    }

    fn encode(&self) -> [u8; SPILL_RECORD_BYTES] {
        let fields = [
            self.timestamp_ms,
            self.function.raw(),
            self.execution_time_us,
            self.cpu_key,
            self.memory_bytes,
        ];
        let mut bytes = [0; SPILL_RECORD_BYTES];
        for (out, field) in bytes.chunks_exact_mut(8).zip(fields) {
            out.copy_from_slice(&field.to_le_bytes());
        }
        bytes
    }

    fn decode(bytes: &[u8; SPILL_RECORD_BYTES]) -> Self {
        let field = |i: usize| {
            let mut le = [0; 8];
            le.copy_from_slice(&bytes[8 * i..8 * i + 8]);
            u64::from_le_bytes(le)
        };
        Self {
            timestamp_ms: field(0),
            function: FunctionId::new(field(1)),
            execution_time_us: field(2),
            cpu_key: field(3),
            memory_bytes: field(4),
        }
    }
}

/// The request stream of one open, in replay order, in a temporary file:
/// [`SPILL_MAGIC`], then one 40-byte [`SpillRecord`] per request. The file
/// is removed when the `Spill` drops.
#[derive(Debug)]
struct Spill {
    path: PathBuf,
    records: u64,
}

impl Spill {
    /// Creates an empty spill file in `dir`, named by the process id and a
    /// process-wide count; a name that already exists is skipped.
    fn create(dir: &Path) -> Result<(Self, File), TraceStreamError> {
        loop {
            let n = SPILLS_CREATED.fetch_add(1, atomic::Ordering::Relaxed);
            let path = dir.join(format!("faas-replay-{}-{n}.spill", std::process::id()));
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(file) => return Ok((Self { path, records: 0 }, file)),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => {
                    return Err(TraceStreamError::Spill {
                        path,
                        fault: SpillFault::Io(e),
                    })
                }
            }
        }
    }

    fn error(&self, fault: SpillFault) -> TraceStreamError {
        TraceStreamError::Spill {
            path: self.path.clone(),
            fault,
        }
    }

    /// Opens the file for one front-to-back read, after checking that it
    /// holds exactly the bytes written: the magic and `records` records.
    fn read(&self) -> Result<SpillReader, TraceStreamError> {
        let io_error = |e| self.error(SpillFault::Io(e));
        let file = File::open(&self.path).map_err(io_error)?;
        let expected = (SPILL_MAGIC.len() as u64)
            .saturating_add(self.records.saturating_mul(SPILL_RECORD_BYTES as u64));
        let found = file.metadata().map_err(io_error)?.len();
        if found != expected {
            return Err(self.error(SpillFault::Length { expected, found }));
        }
        let mut input = BufReader::new(file);
        let mut magic = [0; SPILL_MAGIC.len()];
        input.read_exact(&mut magic).map_err(io_error)?;
        if magic != SPILL_MAGIC {
            return Err(self.error(SpillFault::ForeignMagic));
        }
        Ok(SpillReader {
            input,
            remaining: self.records,
        })
    }
}

impl Drop for Spill {
    fn drop(&mut self) {
        // Nothing to report a failure to; the file is only left behind.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One front-to-back read of a validated [`Spill`].
#[derive(Debug)]
struct SpillReader {
    input: BufReader<File>,
    remaining: u64,
}

impl Iterator for SpillReader {
    type Item = io::Result<SpillRecord>;

    fn next(&mut self) -> Option<io::Result<SpillRecord>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let mut bytes = [0; SPILL_RECORD_BYTES];
        Some(
            self.input
                .read_exact(&mut bytes)
                .map(|()| SpillRecord::decode(&bytes)),
        )
    }
}

/// The inference pass of an open: feeds `builder` every request of
/// `ordered` and writes each, in that order, to a new spill file in `dir`.
/// On any error the partial spill is removed.
fn spill_requests(
    builder: &mut ReplayStatsBuilder,
    ordered: impl Iterator<Item = Result<RequestRecord, TraceStreamError>>,
    dir: &Path,
) -> Result<Spill, TraceStreamError> {
    let (mut spill, file) = Spill::create(dir)?;
    let mut out = BufWriter::new(file);
    out.write_all(&SPILL_MAGIC)
        .map_err(|e| spill.error(SpillFault::Io(e)))?;
    for rec in ordered {
        let r = rec?;
        builder.record_request(&r);
        out.write_all(&SpillRecord::new(&r).encode())
            .map_err(|e| spill.error(SpillFault::Io(e)))?;
        spill.records += 1;
    }
    out.flush().map_err(|e| spill.error(SpillFault::Io(e)))?;
    Ok(spill)
}

/// A trace directory opened for streaming replay: an event-free header spec
/// (inferred while opening) plus the ability to stream the request file's
/// events in [`ReplayStream`] order on demand.
///
/// Built by [`TraceReplayWorkload::open_csv_dir`], whose one pass over the
/// request CSV also spills the request stream, in replay order, to a
/// temporary file of 40 bytes per request in [`std::env::temp_dir`]; nothing
/// reads the CSV again after the open. Clones share that file through an
/// `Arc`, as do the [`DiskReplayStream`]s they open, and it is removed when
/// the last of them drops. The header is identical to what
/// [`TraceReplayWorkload::build_streamed`] produces from the fully
/// materialised [`RegionTrace`] of the same directory;
/// [`stream`](Self::stream) yields exactly the same event sequence as the
/// in-memory [`ReplayStream`].
#[derive(Debug, Clone)]
pub struct StreamedTraceDir {
    header: Arc<WorkloadSpec>,
    spill: Arc<Spill>,
    cold_starts: u64,
    functions: u64,
    open_passes: u32,
}

impl StreamedTraceDir {
    /// The event-free replay header (functions, profile, calibration).
    pub fn header(&self) -> &Arc<WorkloadSpec> {
        &self.header
    }

    /// Passes the open made over the request stream: the one pass over the
    /// request CSV, which infers the header and writes the spill, plus the
    /// median selection passes over the spill. Deterministic for a given
    /// fileset.
    pub fn open_passes(&self) -> u32 {
        self.open_passes
    }

    /// Number of request records counted in the inference pass.
    pub fn request_count(&self) -> u64 {
        self.spill.records
    }

    /// Number of cold-start records counted in the inference pass.
    pub fn cold_start_count(&self) -> u64 {
        self.cold_starts
    }

    /// Number of rows in the directory's function metadata table (which may
    /// differ from the inferred [`header`](Self::header) specs when the
    /// table lists functions that never appear in the request file).
    pub fn function_count(&self) -> u64 {
        self.functions
    }

    /// Opens a fresh event stream that reads the spill front to back; the
    /// request CSV is not read again. Every call replays the same
    /// deterministic sequence. A spill that no longer starts with its magic
    /// bytes or no longer has its exact length is a
    /// [`TraceStreamError::Spill`].
    pub fn stream(&self) -> Result<DiskReplayStream, TraceStreamError> {
        Ok(DiskReplayStream {
            records: self.spill.read()?,
            horizon_ms: self.header.duration_ms(),
            _spill: Arc::clone(&self.spill),
        })
    }
}

/// Disk-backed replay events in `(timestamp, function)` order — the
/// streaming counterpart of [`ReplayStream`], produced by
/// [`StreamedTraceDir::stream`].
///
/// Reads the open's spill of the request stream with buffered reads, one
/// 40-byte record per event, with no reorder buffer: the spill already holds
/// the replay order. [`StreamedTraceDir::stream`] checked the spill's magic
/// bytes and exact length, so a read that fails mid-stream can only mean
/// the file failed underneath a running simulation; it panics rather than
/// silently truncating the replay. The stream keeps the spill file until it
/// drops.
pub struct DiskReplayStream {
    records: SpillReader,
    horizon_ms: u64,
    _spill: Arc<Spill>,
}

impl Iterator for DiskReplayStream {
    type Item = WorkloadEvent;

    fn next(&mut self) -> Option<WorkloadEvent> {
        let rec = self.records.next()?.unwrap_or_else(|e| {
            panic!("request spill file failed underneath a running replay: {e}")
        });
        Some(WorkloadEvent {
            timestamp_ms: rec.timestamp_ms,
            function: rec.function,
        })
    }
}

impl ArrivalStream for DiskReplayStream {
    fn horizon_ms(&self) -> u64 {
        self.horizon_ms
    }

    fn events_hint(&self) -> Option<u64> {
        Some(self.records.remaining)
    }
}

impl TraceReplayWorkload {
    /// Opens a trace directory (the [`RegionTrace::write_csv_dir`] layout)
    /// for streaming replay. Request rows may be out of timestamp order by up
    /// to [`DEFAULT_REPLAY_WINDOW_MS`] (one hour); anything worse is a
    /// [`TraceStreamError::Disorder`].
    ///
    /// This is the larger-than-memory counterpart of
    /// [`RegionTrace::read_csv_dir`] + [`build_streamed`](Self::build_streamed).
    /// One streaming pass over the three files validates every row, infers
    /// the function specs (via [`ReplayStatsBuilder`]) and writes the
    /// request stream, in replay order, to a spill file in
    /// [`std::env::temp_dir`] (40 bytes per request). Medians that outgrew
    /// their in-memory cap are finished by selection passes over the spill
    /// (typically 2, at most 8; see [`StreamedTraceDir::open_passes`]), and
    /// the returned [`StreamedTraceDir`] replays events from it: the request
    /// CSV is parsed exactly once. Only the function table is held resident.
    /// A failed open removes its partial spill.
    pub fn open_csv_dir(
        &self,
        region: RegionId,
        dir: &Path,
    ) -> Result<StreamedTraceDir, TraceStreamError> {
        self.open_spilling_to(region, dir, &std::env::temp_dir())
    }

    /// [`open_csv_dir`](Self::open_csv_dir) with the spill file created in
    /// `spill_dir`.
    fn open_spilling_to(
        &self,
        region: RegionId,
        dir: &Path,
        spill_dir: &Path,
    ) -> Result<StreamedTraceDir, TraceStreamError> {
        let paths = TraceDirPaths::new(region, dir);
        let mut functions = FunctionTable::new();
        for rec in TraceReader::<_, fntrace::FunctionMeta>::from_path(&paths.functions)? {
            functions.insert(rec?);
        }

        let mut builder = ReplayStatsBuilder::with_median_cap(MEDIAN_COLLECT_CAP);
        for rec in TraceReader::<_, ColdStartRecord>::from_path(&paths.cold_starts)? {
            builder.record_cold_start(&rec?);
        }
        let reader = TraceReader::<_, RequestRecord>::from_path(&paths.requests)?;
        let ordered = WindowedReplayOrder::new(reader, DEFAULT_REPLAY_WINDOW_MS);
        let spill = spill_requests(&mut builder, ordered, spill_dir)?;
        let calibration = self.calibration_for(builder.span_ms())?;

        // Functions with more than `MEDIAN_COLLECT_CAP` observations per
        // statistic dropped their key collections; finish those medians
        // exactly by re-reading the spill (bounded extra passes, bounded
        // memory) instead of letting resident state grow with trace length.
        let selection_passes = select_medians(&mut builder, &functions, &spill)?;

        let cold_starts = builder.cold_start_count();
        let function_rows = functions.len() as u64;
        let header = Arc::new(WorkloadSpec {
            region,
            profile: self.profile_for(region),
            calibration,
            functions: builder.finish(&functions, &calibration),
            events: Vec::new(),
            source: WorkloadSource::Replay,
        });
        Ok(StreamedTraceDir {
            header,
            spill: Arc::new(spill),
            cold_starts,
            functions: function_rows,
            open_passes: 1 + selection_passes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_stats::rng::Xoshiro256pp;
    use fntrace::synth::{SynthShape, SynthTraceSpec};
    use fntrace::{
        FunctionMeta, RegionId, RequestId, RequestRecord, ResourceConfig, Runtime, UserId,
    };

    fn synth_trace(seed: u64) -> RegionTrace {
        SynthTraceSpec {
            region: RegionId::new(4),
            shape: SynthShape::Diurnal,
            functions: 10,
            duration_days: 1,
            mean_requests_per_day: 150.0,
            keep_alive_secs: 60.0,
            seed,
        }
        .generate()
    }

    #[test]
    fn replay_preserves_every_request_as_an_event() {
        let trace = synth_trace(1);
        let workload = TraceReplayWorkload::new().build(&trace).unwrap();
        assert_eq!(workload.len(), trace.requests.len());
        assert!(workload.is_replay());
        assert_eq!(workload.region, RegionId::new(4));
        for w in workload.events.windows(2) {
            assert!(w[0].timestamp_ms <= w[1].timestamp_ms);
        }
        // Every event references a reconstructed function spec.
        for e in &workload.events {
            assert!(workload.function(e.function).is_some());
        }
        // Deterministic: same trace, same workload.
        assert_eq!(workload, TraceReplayWorkload::new().build(&trace).unwrap());
    }

    #[test]
    fn inferred_specs_match_the_function_table() {
        let trace = synth_trace(2);
        let workload = TraceReplayWorkload::new().build(&trace).unwrap();
        for spec in &workload.functions {
            let meta = trace.functions.get(spec.function).expect("meta exists");
            assert_eq!(spec.runtime, meta.runtime);
            assert_eq!(spec.triggers, meta.triggers);
            assert_eq!(spec.config, meta.config);
            assert_eq!(spec.user, meta.user);
            assert!(spec.median_execution_secs > 0.0);
            assert!(spec.base_requests_per_day > 0.0);
            assert!(spec.concurrency >= 1);
            if spec.primary_trigger() == TriggerType::Timer {
                assert!(spec.timer_period_secs >= 1.0);
            } else {
                assert_eq!(spec.timer_period_secs, 0.0);
            }
        }
    }

    #[test]
    fn dependency_layers_are_read_from_cold_start_components() {
        let trace = synth_trace(3);
        let workload = TraceReplayWorkload::new().build(&trace).unwrap();
        for spec in &workload.functions {
            let expected = trace
                .cold_starts
                .records()
                .iter()
                .any(|cs| cs.function == spec.function && cs.deploy_dep_us > 0);
            assert_eq!(spec.has_dependencies, expected, "{}", spec.function);
        }
    }

    #[test]
    fn calibration_spans_the_trace_and_can_be_overridden() {
        let trace = synth_trace(4);
        let inferred = TraceReplayWorkload::new().build(&trace).unwrap();
        let (_, hi) = trace.time_span_ms().unwrap();
        assert!(inferred.duration_ms() > hi);

        let fixed = Calibration {
            duration_days: 9,
            ..Calibration::default()
        };
        let overridden = TraceReplayWorkload::new()
            .with_calibration(fixed)
            .with_profile(RegionProfile::r1())
            .build(&trace)
            .unwrap();
        assert_eq!(overridden.calibration.duration_days, 9);
        assert_eq!(
            overridden.profile.component_base,
            RegionProfile::r1().component_base
        );
    }

    #[test]
    fn concurrency_is_inferred_from_overlapping_pod_requests() {
        let mut trace = RegionTrace::new(RegionId::new(1));
        // Two overlapping requests on the same pod, one disjoint.
        for (i, (ts, exec_ms)) in [(0u64, 10_000u64), (5_000, 10_000), (60_000, 100)]
            .into_iter()
            .enumerate()
        {
            trace.requests.push(RequestRecord {
                timestamp_ms: ts,
                pod: PodId::new(1),
                cluster: 0,
                function: FunctionId::new(1),
                user: UserId::new(1),
                request: RequestId::new(i as u64),
                execution_time_us: exec_ms * 1000,
                cpu_usage_millicores: 50.0,
                memory_usage_bytes: 1 << 20,
            });
        }
        let workload = TraceReplayWorkload::new().build(&trace).unwrap();
        assert_eq!(workload.functions.len(), 1);
        assert_eq!(workload.functions[0].concurrency, 2);
        // Back-to-back requests never overlap.
        let mut seq = RegionTrace::new(RegionId::new(1));
        for (i, ts) in [0u64, 1000, 2000].into_iter().enumerate() {
            seq.requests.push(RequestRecord {
                timestamp_ms: ts,
                pod: PodId::new(1),
                cluster: 0,
                function: FunctionId::new(1),
                user: UserId::new(1),
                request: RequestId::new(i as u64),
                execution_time_us: 1_000_000,
                cpu_usage_millicores: 50.0,
                memory_usage_bytes: 1 << 20,
            });
        }
        let workload = TraceReplayWorkload::new().build(&seq).unwrap();
        assert_eq!(workload.functions[0].concurrency, 1);
    }

    #[test]
    fn functions_missing_from_the_metadata_table_get_defaults() {
        let mut trace = RegionTrace::new(RegionId::new(2));
        trace.requests.push(RequestRecord {
            timestamp_ms: 500,
            pod: PodId::new(9),
            cluster: 1,
            function: FunctionId::new(77),
            user: UserId::new(5),
            request: RequestId::new(1),
            execution_time_us: 20_000,
            cpu_usage_millicores: 80.0,
            memory_usage_bytes: 4 << 20,
        });
        let workload = TraceReplayWorkload::new().build(&trace).unwrap();
        let spec = &workload.functions[0];
        assert_eq!(spec.runtime, Runtime::Unknown);
        assert_eq!(spec.triggers, vec![TriggerType::Unknown]);
        assert_eq!(spec.function, FunctionId::new(77));
    }

    #[test]
    fn streamed_dir_matches_eager_build_exactly() {
        let dir = std::env::temp_dir().join("faas_workload_streamdir_test");
        let sorted = synth_trace(7);
        // The same rows with every pair swapped: disorder the open's reorder
        // window must undo before the rows reach the spill.
        let mut swapped = RegionTrace::new(sorted.region);
        for pair in sorted.requests.records().chunks(2) {
            for r in pair.iter().rev() {
                swapped.requests.push(*r);
            }
        }
        swapped.cold_starts = sorted.cold_starts.clone();
        swapped.functions = sorted.functions.clone();

        for trace in [sorted, swapped] {
            std::fs::remove_dir_all(&dir).ok();
            trace.write_csv_dir(&dir).unwrap();
            let eager_trace = RegionTrace::read_csv_dir(trace.region, &dir).unwrap();
            let (eager_header, eager_stream) = TraceReplayWorkload::new()
                .build_streamed(&eager_trace)
                .unwrap();
            let eager_events: Vec<WorkloadEvent> = eager_stream.collect();

            let streamed = TraceReplayWorkload::new()
                .open_csv_dir(trace.region, &dir)
                .unwrap();
            assert_eq!(**streamed.header(), eager_header);
            assert_eq!(streamed.request_count(), trace.requests.len() as u64);
            assert_eq!(streamed.cold_start_count(), trace.cold_starts.len() as u64);

            let disk = streamed.stream().unwrap();
            assert_eq!(disk.horizon_ms(), eager_header.duration_ms());
            assert_eq!(disk.events_hint(), Some(eager_events.len() as u64));
            let disk_events: Vec<WorkloadEvent> = disk.collect();
            assert_eq!(disk_events, eager_events);

            // Repeated streams replay the same sequence.
            let again: Vec<WorkloadEvent> = streamed.stream().unwrap().collect();
            assert_eq!(again, disk_events);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn capped_medians_resolved_by_selection_match_the_eager_build() {
        let dir = std::env::temp_dir().join("faas_workload_median_cap_test");
        std::fs::remove_dir_all(&dir).ok();
        let trace = synth_trace(11);
        trace.write_csv_dir(&dir).unwrap();
        let paths = TraceDirPaths::new(trace.region, &dir);

        let calibration = Calibration {
            duration_days: 2,
            ..Calibration::default()
        };
        let eager = infer_functions(&trace, &calibration);

        // A cap this small forces every function's medians through the
        // out-of-core selection passes.
        let cap = 4;
        let (mut builder, spill) = capped_builder(&paths.requests, cap, &dir);
        for cs in trace.cold_starts.records() {
            builder.record_cold_start(cs);
        }
        assert!(
            !builder.pending_medians(&trace.functions).is_empty(),
            "the tiny cap must overflow"
        );
        let passes = select_medians(&mut builder, &trace.functions, &spill).unwrap();
        let streamed = builder.finish(&trace.functions, &calibration);
        assert_eq!(streamed, eager);
        // The open of this fileset at this cap: inference plus selection.
        assert_eq!(1 + passes, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A builder with median cap `cap` fed a request file in replay order,
    /// and the spill that inference pass wrote into `spill_dir`.
    fn capped_builder(
        requests: &Path,
        cap: usize,
        spill_dir: &Path,
    ) -> (ReplayStatsBuilder, Spill) {
        let mut builder = ReplayStatsBuilder::with_median_cap(cap);
        let reader = TraceReader::<_, RequestRecord>::from_path(requests).unwrap();
        let ordered = WindowedReplayOrder::new(reader, DEFAULT_REPLAY_WINDOW_MS);
        let spill = spill_requests(&mut builder, ordered, spill_dir).unwrap();
        (builder, spill)
    }

    /// An empty directory for one test's spill files.
    fn spill_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("faas_workload_{name}_spills"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Names of the files in `dir`.
    fn files_in(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    }

    /// One request of `function` on pod 1 with fixed CPU and memory.
    fn request(
        function: u64,
        seq: u64,
        timestamp_ms: u64,
        execution_time_us: u64,
    ) -> RequestRecord {
        RequestRecord {
            timestamp_ms,
            pod: PodId::new(1),
            cluster: 0,
            function: FunctionId::new(function),
            user: UserId::new(1),
            request: RequestId::new(seq),
            execution_time_us,
            cpu_usage_millicores: 50.0,
            memory_usage_bytes: 1 << 20,
        }
    }

    #[test]
    fn constant_over_cap_statistics_open_in_one_pass() {
        let dir = std::env::temp_dir().join("faas_workload_constant_stats_test");
        std::fs::remove_dir_all(&dir).ok();
        let mut trace = RegionTrace::new(RegionId::new(2));
        trace.functions.insert(FunctionMeta {
            function: FunctionId::new(1),
            user: UserId::new(1),
            runtime: Runtime::NodeJs,
            triggers: vec![TriggerType::Timer],
            config: ResourceConfig::SMALL_300_128,
        });
        // Function 1 is a one-minute timer; function 2 is unlisted (not a
        // timer), so its irregular gaps are never read. Every statistic that
        // is read overflows the cap with a single key value.
        let n = 2 * MEDIAN_COLLECT_CAP as u64;
        for i in 0..n {
            trace.requests.push(request(1, 2 * i, i * 60_000, 20_000));
            trace
                .requests
                .push(request(2, 2 * i + 1, i * 60_000 + i * i % 7_919, 20_000));
        }
        trace.write_csv_dir(&dir).unwrap();

        let streamed = TraceReplayWorkload::new()
            .open_csv_dir(trace.region, &dir)
            .unwrap();
        assert_eq!(streamed.open_passes(), 1);
        let eager_trace = RegionTrace::read_csv_dir(trace.region, &dir).unwrap();
        let (eager_header, _) = TraceReplayWorkload::new()
            .build_streamed(&eager_trace)
            .unwrap();
        assert_eq!(**streamed.header(), eager_header);
        assert_eq!(eager_header.functions[0].timer_period_secs, 60.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn selection_against_a_changed_file_is_a_typed_error() {
        let dir = std::env::temp_dir().join("faas_workload_changed_file_test");
        std::fs::remove_dir_all(&dir).ok();
        let trace = synth_trace(11);
        trace.write_csv_dir(&dir.join("before")).unwrap();
        // The same fileset minus its last request: every median rank still
        // fits the changed file, so only the key count can tell.
        let mut changed = RegionTrace::new(trace.region);
        let records = trace.requests.records();
        for r in &records[..records.len() - 1] {
            changed.requests.push(*r);
        }
        changed.write_csv_dir(&dir.join("after")).unwrap();

        let before = TraceDirPaths::new(trace.region, &dir.join("before"));
        let after = TraceDirPaths::new(trace.region, &dir.join("after"));
        let (mut builder, _) = capped_builder(&before.requests, 4, &dir);
        let (_, changed_spill) = capped_builder(&after.requests, 4, &dir);
        let err = select_medians(&mut builder, &trace.functions, &changed_spill).unwrap_err();
        let TraceStreamError::FileChanged {
            function,
            expected,
            found,
            ..
        } = err
        else {
            panic!("expected FileChanged, got {err}");
        };
        assert_eq!(function, records[records.len() - 1].function);
        assert_eq!(found + 1, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_timestamps_never_overflow() {
        // Reordering and concurrency inference next to `u64::MAX`.
        let feed = [u64::MAX - 5, u64::MAX - 7, u64::MAX]
            .into_iter()
            .enumerate()
            .map(|(i, ts)| Ok(request(1, i as u64, ts, 1_000_000)));
        let ordered: Vec<RequestRecord> = WindowedReplayOrder::new(feed, DEFAULT_REPLAY_WINDOW_MS)
            .collect::<Result<_, _>>()
            .unwrap();
        let stamps: Vec<u64> = ordered.iter().map(|r| r.timestamp_ms).collect();
        assert_eq!(stamps, [u64::MAX - 7, u64::MAX - 5, u64::MAX]);
        let mut builder = ReplayStatsBuilder::new();
        for r in &ordered {
            builder.record_request(r);
        }
        assert_eq!(builder.span_ms(), Some((u64::MAX - 7, u64::MAX)));

        // A day span beyond `u32` days is a typed error, both when opening a
        // directory and when lowering a resident trace; the failed open
        // leaves no spill behind.
        let dir = std::env::temp_dir().join("faas_workload_hostile_span_test");
        let spills = spill_dir("hostile_span");
        for last_ms in [u64::MAX - 5, u64::MAX, 1 << 60] {
            std::fs::remove_dir_all(&dir).ok();
            let mut trace = RegionTrace::new(RegionId::new(2));
            trace.requests.push(request(1, 0, 0, 1_000_000));
            trace.requests.push(request(1, 1, last_ms, 1_000_000));
            trace.write_csv_dir(&dir).unwrap();
            let streamed = TraceReplayWorkload::new()
                .open_spilling_to(trace.region, &dir, &spills)
                .unwrap_err();
            let eager = TraceReplayWorkload::new().build(&trace).unwrap_err();
            for err in [streamed, eager] {
                assert!(
                    matches!(err, TraceStreamError::SpanTooLong { last_ms: l } if l == last_ms),
                    "{last_ms}: {err}"
                );
            }
            assert_eq!(files_in(&spills), Vec::<String>::new());
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&spills).ok();
    }

    /// A fileset of `synth_trace(seed)` in a fresh directory named `name`,
    /// opened with its spill in a fresh directory of its own.
    fn open_fixture(name: &str, seed: u64) -> (PathBuf, PathBuf, StreamedTraceDir) {
        let dir = std::env::temp_dir().join(format!("faas_workload_{name}_test"));
        std::fs::remove_dir_all(&dir).ok();
        let trace = synth_trace(seed);
        trace.write_csv_dir(&dir).unwrap();
        let spills = spill_dir(name);
        let streamed = TraceReplayWorkload::new()
            .open_spilling_to(trace.region, &dir, &spills)
            .unwrap();
        (dir, spills, streamed)
    }

    #[test]
    fn a_truncated_or_foreign_spill_is_a_typed_error() {
        let (dir, spills, streamed) = open_fixture("bad_spill", 12);
        let path = streamed.spill.path.clone();
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len, 8 + 40 * streamed.request_count());

        let truncated = OpenOptions::new().write(true).open(&path).unwrap();
        truncated.set_len(len - 1).unwrap();
        drop(truncated);
        let err = streamed.stream().err().expect("a truncated spill");
        assert!(
            matches!(
                err,
                TraceStreamError::Spill { fault: SpillFault::Length { expected, found }, .. }
                    if expected == len && found == len - 1
            ),
            "{err}"
        );

        // The right length behind foreign magic bytes.
        std::fs::write(&path, vec![0u8; len as usize]).unwrap();
        let err = streamed.stream().err().expect("a foreign spill");
        assert!(
            matches!(
                err,
                TraceStreamError::Spill {
                    fault: SpillFault::ForeignMagic,
                    ..
                }
            ),
            "{err}"
        );
        drop(streamed);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&spills).ok();
    }

    #[test]
    fn the_spill_is_removed_when_its_last_holder_drops() {
        let (dir, spills, streamed) = open_fixture("spill_lifetime", 13);
        let clone = streamed.clone();
        let stream = clone.stream().unwrap();
        assert_eq!(files_in(&spills).len(), 1);
        drop(streamed);
        drop(clone);
        // The open stream still reads the file to its end.
        assert_eq!(files_in(&spills).len(), 1);
        assert_eq!(stream.count(), synth_trace(13).requests.len());
        assert_eq!(files_in(&spills), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&spills).ok();
    }

    #[test]
    fn an_open_that_fails_part_way_removes_its_spill() {
        let dir = std::env::temp_dir().join("faas_workload_failed_open_test");
        let spills = spill_dir("failed_open");
        let trace = synth_trace(14);
        let requests = TraceDirPaths::new(trace.region, &dir).requests;
        let last = *trace.requests.records().last().unwrap();

        // A last row two reorder windows behind the rows before it.
        std::fs::remove_dir_all(&dir).ok();
        let mut late = trace.clone();
        late.requests.push(RequestRecord {
            timestamp_ms: last.timestamp_ms - 2 * DEFAULT_REPLAY_WINDOW_MS,
            ..last
        });
        late.write_csv_dir(&dir).unwrap();
        let err = TraceReplayWorkload::new()
            .open_spilling_to(trace.region, &dir, &spills)
            .unwrap_err();
        assert!(matches!(err, TraceStreamError::Disorder { .. }), "{err}");
        assert_eq!(files_in(&spills), Vec::<String>::new());

        // A malformed last row.
        std::fs::remove_dir_all(&dir).ok();
        trace.write_csv_dir(&dir).unwrap();
        let mut text = std::fs::read_to_string(&requests).unwrap();
        text.push_str("not,a,request\n");
        std::fs::write(&requests, text).unwrap();
        let err = TraceReplayWorkload::new()
            .open_spilling_to(trace.region, &dir, &spills)
            .unwrap_err();
        assert!(
            matches!(err, TraceStreamError::Csv(CsvError::Parse { .. })),
            "{err}"
        );
        assert_eq!(files_in(&spills), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&spills).ok();
    }

    /// Selects sorted index `rank` of `keys`, re-scanning the slice once per
    /// pass as `select_medians` re-reads the spill. Returns the key
    /// and the passes made; panics past the 8-pass bound.
    fn select_in_memory(keys: &[u64], rank: u64, cap: usize) -> (u64, u32) {
        let mut range = KeyRange::EMPTY;
        for &key in keys {
            range.add(key);
        }
        let mut selector = Selector::new(range, rank, cap);
        let mut passes = 0;
        while selector.result().is_none() {
            assert!(passes < 8, "selection exceeded 8 passes");
            passes += 1;
            for &key in keys {
                selector.observe(key);
            }
            selector.conclude_pass(cap).unwrap();
        }
        (selector.result().unwrap(), passes)
    }

    #[test]
    fn selection_matches_a_sorted_oracle_on_adversarial_keys() {
        let mut cases: Vec<(String, Vec<u64>)> = vec![
            ("all equal".into(), vec![42; 37]),
            ("all equal at the top".into(), vec![u64::MAX; 9]),
            (
                "two distinct values".into(),
                (0..40)
                    .map(|i| if i % 3 == 0 { 7 } else { 1_000_000 })
                    .collect(),
            ),
            (
                "two values at the extremes".into(),
                (0..25)
                    .map(|i| if i % 2 == 0 { 0 } else { u64::MAX })
                    .collect(),
            ),
            // A 16-bit range buckets by 256: the median's ties sit on both
            // sides of the first bucket edge.
            (
                "ties straddling a bucket edge".into(),
                [vec![0, 65_535], vec![255; 20], vec![256; 21]].concat(),
            ),
            (
                "full u64 range".into(),
                vec![
                    0,
                    1,
                    2,
                    12_345,
                    (1 << 56) - 1,
                    1 << 56,
                    1 << 32,
                    (1 << 63) - 1,
                    1 << 63,
                    u64::MAX - 1,
                    u64::MAX,
                ],
            ),
            (
                "float keys".into(),
                [
                    f64::NEG_INFINITY,
                    -1e300,
                    -2.5,
                    -0.0,
                    0.0,
                    5e-324,
                    1.0,
                    250.0,
                    f64::MAX,
                    f64::INFINITY,
                    f64::NAN,
                    -f64::NAN,
                ]
                .map(f64_total_key)
                .to_vec(),
            ),
        ];
        // Seeded multisets of every spread from one key value to 64 bits.
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        for case in 0..120 {
            let len = 1 + rng.next_u64() % 300;
            let shift = rng.next_u64() % 65;
            let base = rng.next_u64();
            let keys = (0..len)
                .map(|_| base.wrapping_add(rng.next_u64().checked_shr(shift as u32).unwrap_or(0)))
                .collect();
            cases.push((format!("seeded {case}, shift {shift}"), keys));
        }

        for (name, keys) in &cases {
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            let len = keys.len() as u64;
            for cap in 1..=8 {
                for rank in [0, len / 2, len - 1] {
                    let (key, passes) = select_in_memory(keys, rank, cap);
                    assert_eq!(key, sorted[rank as usize], "{name}: cap {cap}, rank {rank}");
                    if sorted[0] == sorted[sorted.len() - 1] {
                        assert_eq!(passes, 0, "{name}: a constant multiset needs no pass");
                    }
                }
            }
        }
    }

    #[test]
    fn windowed_order_tolerates_bounded_disorder_and_rejects_worse() {
        let trace = synth_trace(8);
        let records = trace.requests.records();
        // Reverse pairs: disorder of at most one record's gap.
        let mut shuffled: Vec<RequestRecord> = records.to_vec();
        for pair in shuffled.chunks_mut(2) {
            pair.reverse();
        }
        let max_gap = shuffled
            .windows(2)
            .map(|w| w[0].timestamp_ms.saturating_sub(w[1].timestamp_ms))
            .max()
            .unwrap();

        let ordered: Vec<RequestRecord> =
            WindowedReplayOrder::new(shuffled.iter().cloned().map(Ok), max_gap + 1)
                .collect::<Result<_, _>>()
                .unwrap();
        // The windowed sort equals the eager full sort on the same multiset.
        let mut expected = shuffled.clone();
        expected.sort_by_key(|r| (r.timestamp_ms, r.function.raw()));
        let keys = |v: &[RequestRecord]| {
            v.iter()
                .map(|r| (r.timestamp_ms, r.function.raw()))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&ordered), keys(&expected));

        // Disorder beyond the window is a hard error, not a reorder.
        let span = records.last().unwrap().timestamp_ms - records[0].timestamp_ms;
        let mut reversed: Vec<RequestRecord> = records.to_vec();
        reversed.reverse();
        let err = WindowedReplayOrder::new(reversed.into_iter().map(Ok), span / 4)
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(matches!(err, TraceStreamError::Disorder { .. }));
    }

    #[test]
    fn streaming_stats_builder_matches_eager_inference() {
        let trace = synth_trace(9);
        let calibration = Calibration {
            duration_days: 2,
            ..Calibration::default()
        };
        let eager = infer_functions(&trace, &calibration);

        // Feed the builder through the windowed reorderer, as the disk path
        // does, rather than pre-sorting.
        let mut builder = ReplayStatsBuilder::new();
        let feed = trace.requests.records().iter().cloned().map(Ok);
        for rec in WindowedReplayOrder::new(feed, DEFAULT_REPLAY_WINDOW_MS) {
            builder.record_request(&rec.unwrap());
        }
        for cs in trace.cold_starts.records() {
            builder.record_cold_start(cs);
        }
        assert_eq!(builder.span_ms(), trace.time_span_ms());
        let streamed = builder.finish(&trace.functions, &calibration);
        assert_eq!(streamed, eager);
    }
}
