//! Streaming arrival sources: O(1)-memory event generation.
//!
//! Everything upstream of this module used to materialise a full
//! [`Vec<WorkloadEvent>`](crate::WorkloadEvent) before the simulator consumed
//! a single event, so memory scaled with *horizon × arrival rate* and capped
//! experiments at short-horizon smoke scenarios. This module inverts that: an
//! [`ArrivalStream`] is an ordered, possibly-unbounded iterator of
//! [`WorkloadEvent`]s with a known horizon, produced **on demand**:
//!
//! ```text
//!   per-function generators          k-way merge             consumer
//!  ┌──────────────────────┐   ┌──────────────────────┐   ┌──────────────┐
//!  │ timer: t += period   │   │                      │   │ engine       │
//!  │ poisson: hour window ├──▶│ SyntheticStream      ├──▶│ run_streamed │
//!  │ (own forked RNG)     │   │ (binary-heap merge)  │   │              │
//!  └──────────────────────┘   └──────────────────────┘   └──────────────┘
//! ```
//!
//! Memory while streaming is proportional to the *function population* (one
//! heap entry plus at most one hour's pending arrivals per function), never
//! to the horizon — a 7-day or 31-day trace generates in the same footprint
//! as a 1-hour one. [`WorkloadSpec::from_population`] routes through the same
//! merge and simply collects it, so the materialised and streamed event
//! sequences are identical by construction (property-tested in this module
//! and in `tests/session_determinism.rs`).
//!
//! The implementations cover every origin the experiment layers use:
//!
//! | Stream | Origin |
//! |---|---|
//! | [`SyntheticStream`] | k-way heap merge of per-function generators |
//! | [`FunctionEventStream`] | one function's lazy timer / Poisson arrivals |
//! | [`ReplayStream`] | trace request records, lowered in timestamp order |
//! | [`SliceStream`] | a borrowed, already-sorted event slice |
//! | [`SpecStream`] | a shared `Arc<WorkloadSpec>` (optionally one chunk window) |
//! | [`StreamedWorkload`] | header + repeatable synthetic stream, no event vec |
//!
//! # Quick start: a 7-day horizon without the 7-day allocation
//!
//! ```
//! use faas_workload::population::PopulationConfig;
//! use faas_workload::profile::RegionProfile;
//! use faas_workload::stream::{ArrivalStream, StreamedWorkload};
//! use faas_workload::ScenarioPreset;
//!
//! let preset = ScenarioPreset::Diurnal;
//! let workload = StreamedWorkload::generate(
//!     &preset.profile(&RegionProfile::r2()),
//!     preset.calibration(7),
//!     &PopulationConfig {
//!         function_scale: 0.002,
//!         volume_scale: 2.0e-6,
//!         max_requests_per_day: 2_000.0,
//!         min_functions: 15,
//!     },
//!     7,
//! );
//! let mut stream = workload.stream();
//! assert_eq!(stream.horizon_ms(), 7 * fntrace::MILLIS_PER_DAY);
//! let first = stream.next().expect("a week of diurnal traffic has events");
//! // Events arrive in (timestamp, function) order, generated on demand.
//! assert!(stream.all(|e| e.timestamp_ms >= first.timestamp_ms));
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use faas_stats::rng::Xoshiro256pp;
use fntrace::{RegionTrace, TriggerType, MILLIS_PER_HOUR};

use crate::arrivals::ArrivalGenerator;
use crate::population::{FunctionPopulation, FunctionSpec, PopulationConfig};
use crate::profile::{Calibration, RegionProfile};
use crate::simio::{WorkloadEvent, WorkloadSource, WorkloadSpec};

/// An ordered, possibly-unbounded source of invocation events.
///
/// Implementations yield [`WorkloadEvent`]s in non-decreasing
/// `(timestamp_ms, function)` order and know the simulation horizon up
/// front, so the engine can run periodic ticks and settle final state
/// without ever holding the event list in memory.
pub trait ArrivalStream: Iterator<Item = WorkloadEvent> {
    /// Simulation horizon in milliseconds (the calibrated trace duration).
    ///
    /// The horizon is metadata, not a filter: a stream may yield events at
    /// or past it, exactly as a materialised spec may hold them.
    fn horizon_ms(&self) -> u64;

    /// Number of events the stream will yield, when cheaply known.
    ///
    /// Slice- and spec-backed streams know their exact length and also feed
    /// it through [`Iterator::size_hint`], so collecting them preallocates;
    /// generative streams return `None` rather than paying to find out.
    fn events_hint(&self) -> Option<u64> {
        None
    }
}

impl<S: ArrivalStream + ?Sized> ArrivalStream for Box<S> {
    fn horizon_ms(&self) -> u64 {
        (**self).horizon_ms()
    }

    fn events_hint(&self) -> Option<u64> {
        (**self).events_hint()
    }
}

/// A borrowed, already-sorted event slice as a stream.
///
/// This is the adapter [`SimulationEngine::run`] wraps a materialised
/// [`WorkloadSpec`]'s events in — the legacy eager path is just this stream
/// fed to the streaming loop.
///
/// [`SimulationEngine::run`]: ../../faas_platform/struct.SimulationEngine.html
#[derive(Debug, Clone)]
pub struct SliceStream<'a> {
    events: &'a [WorkloadEvent],
    pos: usize,
    horizon_ms: u64,
}

impl<'a> SliceStream<'a> {
    /// Wraps a sorted event slice with its simulation horizon.
    pub fn new(events: &'a [WorkloadEvent], horizon_ms: u64) -> Self {
        Self {
            events,
            pos: 0,
            horizon_ms,
        }
    }
}

impl Iterator for SliceStream<'_> {
    type Item = WorkloadEvent;

    fn next(&mut self) -> Option<WorkloadEvent> {
        let event = self.events.get(self.pos).copied()?;
        self.pos += 1;
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.events.len() - self.pos;
        (remaining, Some(remaining))
    }
}

impl ArrivalStream for SliceStream<'_> {
    fn horizon_ms(&self) -> u64 {
        self.horizon_ms
    }

    fn events_hint(&self) -> Option<u64> {
        Some((self.events.len() - self.pos) as u64)
    }
}

/// A shared materialised workload (or one chunk window of it) as a stream.
///
/// Holds the `Arc` plus a cursor — no event copying. This is how the session
/// layer streams pre-built workloads (replayed traces, fixed specs) and how
/// chunk sources stream one window of a shared base without duplicating it.
#[derive(Debug, Clone)]
pub struct SpecStream {
    spec: Arc<WorkloadSpec>,
    pos: usize,
    end: usize,
}

impl SpecStream {
    /// Streams every event of the shared spec.
    pub fn new(spec: Arc<WorkloadSpec>) -> Self {
        let end = spec.events.len();
        Self { spec, pos: 0, end }
    }

    /// Streams one half-open index range of the shared spec's events (the
    /// form [`WorkloadSpec::chunk_ranges`] produces). Out-of-bounds ends are
    /// clamped.
    pub fn range(spec: Arc<WorkloadSpec>, start: usize, end: usize) -> Self {
        let end = end.min(spec.events.len());
        Self {
            spec,
            pos: start.min(end),
            end,
        }
    }
}

impl Iterator for SpecStream {
    type Item = WorkloadEvent;

    fn next(&mut self) -> Option<WorkloadEvent> {
        if self.pos >= self.end {
            return None;
        }
        let event = self.spec.events[self.pos];
        self.pos += 1;
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.end - self.pos;
        (remaining, Some(remaining))
    }
}

impl ArrivalStream for SpecStream {
    fn horizon_ms(&self) -> u64 {
        self.spec.duration_ms()
    }

    fn events_hint(&self) -> Option<u64> {
        Some((self.end - self.pos) as u64)
    }
}

/// Lazy per-function arrival state: a timer's arithmetic progression, or a
/// Poisson process generating one hour's window at a time from its own RNG.
#[derive(Debug, Clone)]
enum FnState {
    Timer {
        next_ms: u64,
        period_ms: u64,
    },
    Poisson {
        rng: Xoshiro256pp,
        next_hour: u64,
        /// The not-yet-emitted arrivals of the current hour, reversed so the
        /// next timestamp pops from the end.
        pending: Vec<u64>,
    },
}

impl FnState {
    /// Builds the state for one function, consuming the stream's own RNG
    /// exactly as the eager generators did (timer phase draw up front;
    /// Poisson draws deferred to each hour window).
    fn new(spec: &FunctionSpec, mut rng: Xoshiro256pp) -> Self {
        if spec.primary_trigger() == TriggerType::Timer {
            let period_ms = (spec.timer_period_secs.max(1.0) * 1000.0) as u64;
            let phase = rng.uniform_usize(period_ms as usize) as u64;
            FnState::Timer {
                next_ms: phase,
                period_ms,
            }
        } else {
            FnState::Poisson {
                rng,
                next_hour: 0,
                pending: Vec::new(),
            }
        }
    }

    /// Next arrival timestamp of this function, or `None` when exhausted.
    ///
    /// Poisson hours are generated lazily: the state holds at most one
    /// hour's arrivals at a time, so memory is bounded by the peak hourly
    /// rate rather than the horizon.
    fn next_timestamp(&mut self, generator: &ArrivalGenerator, spec: &FunctionSpec) -> Option<u64> {
        match self {
            FnState::Timer { next_ms, period_ms } => {
                if *next_ms >= generator.calibration().duration_ms() {
                    return None;
                }
                let t = *next_ms;
                *next_ms += *period_ms;
                Some(t)
            }
            FnState::Poisson {
                rng,
                next_hour,
                pending,
            } => {
                if let Some(t) = pending.pop() {
                    return Some(t);
                }
                let hours = u64::from(generator.calibration().duration_days) * 24;
                let base_per_hour = spec.base_requests_per_day / 24.0;
                while *next_hour < hours {
                    let hour = *next_hour;
                    *next_hour += 1;
                    let rate = base_per_hour * generator.rate_multiplier(spec, hour);
                    if rate <= 0.0 {
                        continue;
                    }
                    let count = rng.poisson(rate);
                    if count == 0 {
                        continue;
                    }
                    let hour_start = hour * MILLIS_PER_HOUR;
                    pending.clear();
                    for _ in 0..count {
                        pending
                            .push(hour_start + rng.uniform_usize(MILLIS_PER_HOUR as usize) as u64);
                    }
                    // Hours are disjoint windows, so sorting each window
                    // independently yields the same order as the eager
                    // generator's whole-stream sort.
                    pending.sort_unstable();
                    pending.reverse();
                    return pending.pop();
                }
                None
            }
        }
    }
}

/// One function's arrivals, generated lazily in timestamp order.
///
/// [`ArrivalGenerator::generate`] is this stream collected; the stream form
/// is what [`SyntheticStream`] merges.
#[derive(Debug, Clone)]
pub struct FunctionEventStream<'a> {
    generator: &'a ArrivalGenerator,
    spec: &'a FunctionSpec,
    state: FnState,
}

impl<'a> FunctionEventStream<'a> {
    /// Creates the stream with its own (already forked) RNG.
    pub fn new(generator: &'a ArrivalGenerator, spec: &'a FunctionSpec, rng: Xoshiro256pp) -> Self {
        Self {
            generator,
            spec,
            state: FnState::new(spec, rng),
        }
    }
}

impl Iterator for FunctionEventStream<'_> {
    type Item = WorkloadEvent;

    fn next(&mut self) -> Option<WorkloadEvent> {
        self.state
            .next_timestamp(self.generator, self.spec)
            .map(|timestamp_ms| WorkloadEvent {
                timestamp_ms,
                function: self.spec.function,
            })
    }
}

impl ArrivalStream for FunctionEventStream<'_> {
    fn horizon_ms(&self) -> u64 {
        self.generator.calibration().duration_ms()
    }
}

/// A region's merged synthetic arrivals: a k-way binary-heap merge of every
/// function's lazy stream, in `(timestamp, function)` order.
///
/// Replaces the collect-then-sort construction: instead of materialising
/// every function's full arrival vector and sorting the union, the heap
/// holds exactly one candidate event per live function and each function
/// regenerates at most one hour of arrivals at a time. Memory is `O(k)` in
/// the population size `k` and independent of the horizon.
pub struct SyntheticStream {
    generator: Arc<ArrivalGenerator>,
    functions: Arc<Vec<FunctionSpec>>,
    /// Arrival state per function, parallel to `functions`.
    states: Vec<FnState>,
    /// Min-heap of `(timestamp, function id, table index)`; the id keeps
    /// the pop order identical to the materialised `(timestamp, function)`
    /// sort, and the index makes it total even for duplicate ids.
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
}

impl SyntheticStream {
    /// Builds the merge, forking one RNG per function (in declaration order)
    /// from the shared arrival RNG.
    pub fn new(
        generator: Arc<ArrivalGenerator>,
        functions: Arc<Vec<FunctionSpec>>,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        let mut states: Vec<FnState> = functions
            .iter()
            .map(|spec| FnState::new(spec, rng.fork(spec.function.raw())))
            .collect();
        let mut heap = BinaryHeap::with_capacity(states.len());
        for (i, (state, spec)) in states.iter_mut().zip(functions.iter()).enumerate() {
            if let Some(t) = state.next_timestamp(&generator, spec) {
                heap.push(Reverse((t, spec.function.raw(), i)));
            }
        }
        Self {
            generator,
            functions,
            states,
            heap,
        }
    }

    /// Number of functions still producing events.
    pub fn live_functions(&self) -> usize {
        self.heap.len()
    }
}

impl Iterator for SyntheticStream {
    type Item = WorkloadEvent;

    fn next(&mut self) -> Option<WorkloadEvent> {
        let Reverse((timestamp_ms, raw, i)) = self.heap.pop()?;
        let spec = &self.functions[i];
        if let Some(t) = self.states[i].next_timestamp(&self.generator, spec) {
            self.heap.push(Reverse((t, raw, i)));
        }
        Some(WorkloadEvent {
            timestamp_ms,
            function: spec.function,
        })
    }
}

impl ArrivalStream for SyntheticStream {
    fn horizon_ms(&self) -> u64 {
        self.generator.calibration().duration_ms()
    }
}

/// Trace request records lowered into replay events in timestamp order.
///
/// Holds the borrowed request table plus a sorted `u32` index permutation —
/// no second copy of the events — and yields windows of the trace exactly as
/// [`TraceReplayWorkload::build`](crate::replay::TraceReplayWorkload::build)
/// would have materialised them (same `(timestamp, function)` order, ties in
/// record order).
pub struct ReplayStream<'a> {
    requests: &'a [fntrace::RequestRecord],
    order: Vec<u32>,
    pos: usize,
    horizon_ms: u64,
}

impl<'a> ReplayStream<'a> {
    /// Sorts the trace's request indices by `(timestamp, function)` and
    /// streams them under the given horizon.
    pub fn new(trace: &'a RegionTrace, horizon_ms: u64) -> Self {
        let requests = trace.requests.records();
        assert!(
            u32::try_from(requests.len()).is_ok(),
            "replay streams index requests with u32"
        );
        let mut order: Vec<u32> = (0..requests.len() as u32).collect();
        order.sort_by_key(|&i| {
            let r = &requests[i as usize];
            (r.timestamp_ms, r.function.raw(), i)
        });
        Self {
            requests,
            order,
            pos: 0,
            horizon_ms,
        }
    }
}

impl Iterator for ReplayStream<'_> {
    type Item = WorkloadEvent;

    fn next(&mut self) -> Option<WorkloadEvent> {
        let &i = self.order.get(self.pos)?;
        self.pos += 1;
        let r = &self.requests[i as usize];
        Some(WorkloadEvent {
            timestamp_ms: r.timestamp_ms,
            function: r.function,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.order.len() - self.pos;
        (remaining, Some(remaining))
    }
}

impl ArrivalStream for ReplayStream<'_> {
    fn horizon_ms(&self) -> u64 {
        self.horizon_ms
    }

    fn events_hint(&self) -> Option<u64> {
        Some((self.order.len() - self.pos) as u64)
    }
}

/// A synthetic workload held as *header + repeatable stream* instead of a
/// materialised event vector.
///
/// The header is a [`WorkloadSpec`] with an **empty** `events` list: region,
/// profile, calibration, and the function table are all present, so the
/// simulator's static state builds from it unchanged, while the events are
/// produced on demand by [`stream`](Self::stream). Calling `stream` twice
/// yields the same sequence (the arrival RNG snapshot is replayed), and
/// [`materialize`](Self::materialize) collects it into the exact spec
/// [`WorkloadSpec::generate`] would have built — that equality is what makes
/// streamed and materialised experiment cells byte-identical.
#[derive(Debug, Clone)]
pub struct StreamedWorkload {
    header: Arc<WorkloadSpec>,
    generator: Arc<ArrivalGenerator>,
    functions: Arc<Vec<FunctionSpec>>,
    arrival_rng: Xoshiro256pp,
}

impl StreamedWorkload {
    /// Builds the header and arrival-RNG snapshot from an already generated
    /// population. Forks the caller's RNG once, exactly like the
    /// materialising [`WorkloadSpec::from_population`] (which routes through
    /// this type).
    pub fn from_population(
        population: &FunctionPopulation,
        calibration: Calibration,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        let profile = population.profile.clone();
        let functions = Arc::new(population.functions.clone());
        let header = Arc::new(WorkloadSpec {
            region: profile.region,
            profile: profile.clone(),
            calibration,
            functions: population.functions.clone(),
            events: Vec::new(),
            source: WorkloadSource::Synthetic,
        });
        Self {
            generator: Arc::new(ArrivalGenerator::new(profile, calibration)),
            functions,
            header,
            arrival_rng: rng.fork(ARRIVAL_STREAM_LABEL),
        }
    }

    /// Generates the population and header directly from a region profile —
    /// the streaming form of [`WorkloadSpec::generate`], byte-compatible
    /// with it: `StreamedWorkload::generate(..).materialize()` equals
    /// `WorkloadSpec::generate(..)` with the same arguments.
    pub fn generate(
        profile: &RegionProfile,
        calibration: Calibration,
        config: &PopulationConfig,
        seed: u64,
    ) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ (u64::from(profile.region.index()) << 32));
        let population = FunctionPopulation::generate(profile, &calibration, config, &mut rng);
        Self::from_population(&population, calibration, &mut rng)
    }

    /// The event-free header spec (static tables, profile, calibration).
    pub fn header(&self) -> &Arc<WorkloadSpec> {
        &self.header
    }

    /// A fresh stream of the workload's events. Every call replays the same
    /// deterministic sequence.
    pub fn stream(&self) -> SyntheticStream {
        let mut rng = self.arrival_rng.clone();
        SyntheticStream::new(
            Arc::clone(&self.generator),
            Arc::clone(&self.functions),
            &mut rng,
        )
    }

    /// Collects the stream into a complete [`WorkloadSpec`].
    pub fn materialize(&self) -> WorkloadSpec {
        WorkloadSpec {
            region: self.header.region,
            profile: self.header.profile.clone(),
            calibration: self.header.calibration,
            functions: self.header.functions.clone(),
            events: self.stream().collect(),
            source: self.header.source,
        }
    }
}

/// Stream label used to fork the arrival RNG off the population RNG (see
/// [`StreamedWorkload::from_population`]).
const ARRIVAL_STREAM_LABEL: u64 = 0x5354_5245_414d; // "STREAM"

#[cfg(test)]
mod tests {
    use super::*;
    use fntrace::synth::{SynthShape, SynthTraceSpec};
    use fntrace::RegionId;

    fn tiny_config() -> PopulationConfig {
        PopulationConfig {
            function_scale: 0.002,
            volume_scale: 2.0e-6,
            max_requests_per_day: 2_000.0,
            min_functions: 15,
        }
    }

    fn two_days() -> Calibration {
        Calibration {
            duration_days: 2,
            ..Calibration::default()
        }
    }

    fn sorted_by_key(events: &[WorkloadEvent]) -> bool {
        events.windows(2).all(|w| {
            (w[0].timestamp_ms, w[0].function.raw()) <= (w[1].timestamp_ms, w[1].function.raw())
        })
    }

    #[test]
    fn synthetic_stream_matches_materialised_generation_exactly() {
        let spec = WorkloadSpec::generate(&RegionProfile::r2(), two_days(), &tiny_config(), 11);
        let streamed =
            StreamedWorkload::generate(&RegionProfile::r2(), two_days(), &tiny_config(), 11);
        assert!(streamed.header().events.is_empty());
        assert_eq!(streamed.header().functions, spec.functions);
        let events: Vec<WorkloadEvent> = streamed.stream().collect();
        assert_eq!(events, spec.events);
        assert_eq!(streamed.materialize(), spec);
        // Repeated streams replay the same sequence.
        let again: Vec<WorkloadEvent> = streamed.stream().collect();
        assert_eq!(again, events);
    }

    #[test]
    fn synthetic_stream_is_ordered_and_bounded_by_population() {
        let streamed =
            StreamedWorkload::generate(&RegionProfile::r3(), two_days(), &tiny_config(), 5);
        let mut stream = streamed.stream();
        assert!(stream.live_functions() <= streamed.header().functions.len());
        assert_eq!(stream.horizon_ms(), two_days().duration_ms());
        let events: Vec<WorkloadEvent> = stream.by_ref().collect();
        assert!(!events.is_empty());
        assert!(sorted_by_key(&events));
        assert_eq!(stream.live_functions(), 0);
    }

    #[test]
    fn function_stream_agrees_with_the_eager_generator() {
        let generator = ArrivalGenerator::new(RegionProfile::r2(), two_days());
        let streamed =
            StreamedWorkload::generate(&RegionProfile::r2(), two_days(), &tiny_config(), 9);
        for spec in streamed.header().functions.iter().take(8) {
            let mut rng = Xoshiro256pp::seed_from_u64(77);
            let arrivals = generator.generate(spec, &mut rng);
            let mut rng = Xoshiro256pp::seed_from_u64(77);
            let stream = FunctionEventStream::new(&generator, spec, rng.fork(spec.function.raw()));
            let times: Vec<u64> = stream.map(|e| e.timestamp_ms).collect();
            assert_eq!(times, arrivals.timestamps_ms, "{}", spec.function);
        }
    }

    #[test]
    fn slice_and_spec_streams_replay_the_events_verbatim() {
        let spec = WorkloadSpec::generate(&RegionProfile::r2(), two_days(), &tiny_config(), 3);
        let slice = SliceStream::new(&spec.events, spec.duration_ms());
        assert_eq!(slice.events_hint(), Some(spec.events.len() as u64));
        // collect() preallocates off the exact size hint.
        assert_eq!(
            slice.size_hint(),
            (spec.events.len(), Some(spec.events.len()))
        );
        assert_eq!(slice.horizon_ms(), spec.duration_ms());
        let from_slice: Vec<WorkloadEvent> = slice.collect();
        assert_eq!(from_slice, spec.events);

        let shared = Arc::new(spec);
        let from_spec: Vec<WorkloadEvent> = SpecStream::new(Arc::clone(&shared)).collect();
        assert_eq!(from_spec, shared.events);
        // Ranged spec streams cover exactly the chunk windows.
        let mut rebuilt = Vec::new();
        for (start, end) in shared.chunk_ranges(MILLIS_PER_HOUR) {
            let window = SpecStream::range(Arc::clone(&shared), start, end);
            assert_eq!(window.events_hint(), Some((end - start) as u64));
            rebuilt.extend(window);
        }
        assert_eq!(rebuilt, shared.events);
        // Out-of-bounds ranges clamp instead of panicking.
        assert_eq!(
            SpecStream::range(Arc::clone(&shared), 0, usize::MAX).count(),
            shared.events.len()
        );
    }

    #[test]
    fn replay_stream_matches_the_materialised_replay_lowering() {
        let trace = SynthTraceSpec {
            region: RegionId::new(3),
            shape: SynthShape::Diurnal,
            functions: 8,
            duration_days: 1,
            mean_requests_per_day: 150.0,
            keep_alive_secs: 60.0,
            seed: 21,
        }
        .generate();
        let workload = crate::replay::TraceReplayWorkload::new()
            .build(&trace)
            .unwrap();
        let stream = ReplayStream::new(&trace, workload.duration_ms());
        assert_eq!(stream.events_hint(), Some(trace.requests.len() as u64));
        let events: Vec<WorkloadEvent> = stream.collect();
        assert_eq!(events, workload.events);
        assert!(sorted_by_key(&events));
    }

    #[test]
    fn boxed_streams_preserve_horizon_and_hint() {
        let spec = Arc::new(WorkloadSpec::generate(
            &RegionProfile::r2(),
            two_days(),
            &tiny_config(),
            2,
        ));
        let boxed: Box<dyn ArrivalStream + Send> = Box::new(SpecStream::new(Arc::clone(&spec)));
        assert_eq!(boxed.horizon_ms(), spec.duration_ms());
        assert_eq!(boxed.events_hint(), Some(spec.events.len() as u64));
        assert_eq!(boxed.count(), spec.events.len());
    }
}
