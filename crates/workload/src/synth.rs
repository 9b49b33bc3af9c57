//! Direct synthesis of a complete multi-region trace.
//!
//! [`SyntheticTraceBuilder`] combines the function population, the arrival
//! generator, the platform keep-alive rule, and the cold-start latency model
//! into a full [`fntrace::Dataset`] with the three tables of Table 1. Cold
//! starts are *not* sampled independently: they are produced by replaying
//! each function's arrivals against the keep-alive rule (one-minute default),
//! so the relation between request rate and cold-start count — the diagonal
//! of Figure 14, the timer effect, the peak-to-trough coupling of Figure 6 —
//! emerges from the same mechanism as in the real platform.

use serde::{Deserialize, Serialize};

use faas_stats::rng::Xoshiro256pp;
use fntrace::{
    ColdStartRecord, Dataset, FunctionMeta, PodId, RegionTrace, RequestId, RequestRecord,
    MILLIS_PER_DAY, MILLIS_PER_HOUR,
};

use crate::arrivals::ArrivalGenerator;
use crate::latency::ColdStartLatencyModel;
use crate::population::{FunctionPopulation, FunctionSpec, PopulationConfig};
use crate::profile::{Calibration, RegionProfile};

/// Scale of the generated trace relative to production volumes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceScale {
    /// Fraction of the profile's production function count to generate.
    pub function_scale: f64,
    /// Scale factor on per-function request volumes.
    pub volume_scale: f64,
    /// Cap on any single function's requests per day after scaling.
    pub max_requests_per_day: f64,
    /// Minimum number of functions per region.
    pub min_functions: usize,
}

impl Default for TraceScale {
    fn default() -> Self {
        TraceScale::standard()
    }
}

impl TraceScale {
    /// Standard laptop-scale trace: on the order of a million requests across
    /// all five regions for the full 31 days.
    pub fn standard() -> Self {
        Self {
            function_scale: 0.02,
            volume_scale: 2.0e-5,
            max_requests_per_day: 20_000.0,
            min_functions: 40,
        }
    }

    /// Small trace for examples: a few hundred thousand requests.
    pub fn small() -> Self {
        Self {
            function_scale: 0.01,
            volume_scale: 1.0e-5,
            max_requests_per_day: 8_000.0,
            min_functions: 30,
        }
    }

    /// Tiny trace for unit and integration tests (seconds to generate).
    pub fn tiny() -> Self {
        Self {
            function_scale: 0.002,
            volume_scale: 2.0e-6,
            max_requests_per_day: 3_000.0,
            min_functions: 20,
        }
    }

    fn population_config(&self) -> PopulationConfig {
        PopulationConfig {
            function_scale: self.function_scale,
            volume_scale: self.volume_scale,
            max_requests_per_day: self.max_requests_per_day,
            min_functions: self.min_functions,
        }
    }
}

/// Builder for synthetic multi-region traces.
///
/// # Examples
///
/// ```
/// use faas_workload::{SyntheticTraceBuilder, TraceScale};
/// use faas_workload::profile::{Calibration, RegionProfile};
///
/// let calibration = Calibration { duration_days: 2, ..Calibration::default() };
/// let dataset = SyntheticTraceBuilder::new()
///     .with_regions(vec![RegionProfile::r2()])
///     .with_scale(TraceScale::tiny())
///     .with_calibration(calibration)
///     .with_seed(7)
///     .build();
/// assert_eq!(dataset.region_count(), 1);
/// assert!(dataset.total_requests() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticTraceBuilder {
    regions: Vec<RegionProfile>,
    calibration: Calibration,
    scale: TraceScale,
    seed: u64,
}

impl Default for SyntheticTraceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SyntheticTraceBuilder {
    /// Creates a builder covering all five paper regions at standard scale.
    pub fn new() -> Self {
        Self {
            regions: RegionProfile::paper_regions(),
            calibration: Calibration::default(),
            scale: TraceScale::standard(),
            seed: 42,
        }
    }

    /// Restricts generation to the given regions.
    pub fn with_regions(mut self, regions: Vec<RegionProfile>) -> Self {
        self.regions = regions;
        self
    }

    /// Sets the trace scale.
    pub fn with_scale(mut self, scale: TraceScale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the calibration (duration, holiday window, keep-alive).
    pub fn with_calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = calibration;
        self
    }

    /// Sets the random seed; identical seeds give identical datasets.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The calibration that will be used.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Generates the dataset.
    ///
    /// Each region draws from its own fork of the root stream. The forks are
    /// taken in region order before any region is built, and the regions are
    /// then built in parallel through [`fntrace::par::map`], so the dataset
    /// does not depend on how many cores built it.
    pub fn build(&self) -> Dataset {
        let mut root = Xoshiro256pp::seed_from_u64(self.seed);
        let forks: Vec<Xoshiro256pp> = self
            .regions
            .iter()
            .map(|profile| root.fork(u64::from(profile.region.index())))
            .collect();
        let traces = fntrace::par::map(self.regions.len(), 0, |i| {
            self.build_region(&self.regions[i], &mut forks[i].clone())
        });
        let mut dataset = Dataset::new();
        for trace in traces {
            dataset.insert_region(trace);
        }
        dataset
    }

    /// Generates the population of one region (useful for feeding the
    /// simulator with the same functions the trace was generated from).
    pub fn build_population(&self, profile: &RegionProfile) -> FunctionPopulation {
        let mut root = Xoshiro256pp::seed_from_u64(self.seed);
        let mut rng = root.fork(u64::from(profile.region.index()));
        FunctionPopulation::generate(
            profile,
            &self.calibration,
            &self.scale.population_config(),
            &mut rng,
        )
    }

    /// Generates one region's trace with the provided random stream.
    pub fn build_region(&self, profile: &RegionProfile, rng: &mut Xoshiro256pp) -> RegionTrace {
        let population = FunctionPopulation::generate(
            profile,
            &self.calibration,
            &self.scale.population_config(),
            rng,
        );
        let arrival_gen = ArrivalGenerator::new(profile.clone(), self.calibration);
        let latency_model = ColdStartLatencyModel::new(profile.clone());
        let keep_alive_ms = (self.calibration.keep_alive_secs * 1000.0) as u64;
        let region_offset = u64::from(profile.region.index()) << 48;

        let mut trace = RegionTrace::new(profile.region);
        let mut pod_counter: u64 = 0;
        let mut request_counter: u64 = 0;

        for spec in &population.functions {
            let arrivals = arrival_gen.generate(spec, rng);
            synthesize_function(
                spec,
                &arrivals.timestamps_ms,
                profile,
                &self.calibration,
                &latency_model,
                keep_alive_ms,
                region_offset,
                &mut pod_counter,
                &mut request_counter,
                &mut trace,
                rng,
            );
            trace.functions.insert(FunctionMeta {
                function: spec.function,
                user: spec.user,
                runtime: spec.runtime,
                triggers: spec.triggers.clone(),
                config: spec.config,
            });
        }
        trace.sort_by_time();
        trace
    }
}

/// A pod currently alive for one function during synthesis.
struct ActivePod {
    pod: PodId,
    /// End times (ms) of requests currently in flight on this pod.
    in_flight_ends_ms: Vec<u64>,
    /// Time the pod last finished serving a request (keep-alive anchor).
    last_activity_ms: u64,
}

/// Replays one function's arrivals against the keep-alive rule, emitting
/// request and cold-start records into `trace`.
#[allow(clippy::too_many_arguments)]
fn synthesize_function(
    spec: &FunctionSpec,
    arrivals: &[u64],
    profile: &RegionProfile,
    calibration: &Calibration,
    latency_model: &ColdStartLatencyModel,
    keep_alive_ms: u64,
    region_offset: u64,
    pod_counter: &mut u64,
    request_counter: &mut u64,
    trace: &mut RegionTrace,
    rng: &mut Xoshiro256pp,
) {
    let cluster = (spec.function.raw() % 4) as u8;
    let mut pods: Vec<ActivePod> = Vec::new();

    for &t in arrivals {
        // Expire pods whose keep-alive elapsed and that have nothing in flight.
        pods.retain(|p| {
            let in_flight = p.in_flight_ends_ms.iter().any(|&e| e > t);
            in_flight || p.last_activity_ms + keep_alive_ms > t
        });
        for p in &mut pods {
            p.in_flight_ends_ms.retain(|&e| e > t);
        }

        // Sample this request's execution time and resource usage.
        let exec_secs =
            (spec.median_execution_secs * (0.6 * rng.standard_normal()).exp()).clamp(1e-4, 600.0);
        let execution_time_us = (exec_secs * 1e6) as u64;
        let cpu = (spec.cpu_millicores * (0.3 * rng.standard_normal()).exp())
            .clamp(5.0, spec.config.millicores as f64);
        let memory = ((spec.memory_bytes as f64) * (0.9 + 0.2 * rng.next_f64())).round() as u64;

        // Find a warm pod with spare concurrency.
        let warm = pods
            .iter()
            .position(|p| (p.in_flight_ends_ms.len() as u32) < spec.concurrency);

        let (pod_id, startup_us) = match warm {
            Some(i) => (pods[i].pod, 0u64),
            None => {
                *pod_counter += 1;
                let pod = PodId::new(region_offset | *pod_counter);
                let day = (t / MILLIS_PER_DAY) as u32;
                let hour = ((t % MILLIS_PER_DAY) / MILLIS_PER_HOUR) as f64;
                let load_factor = profile.load_multiplier(calibration, day, hour);
                let components = latency_model.sample(
                    spec.runtime,
                    spec.config.size_class(),
                    spec.has_dependencies,
                    load_factor,
                    rng,
                );
                trace.cold_starts.push(ColdStartRecord {
                    timestamp_ms: t,
                    pod,
                    cluster,
                    function: spec.function,
                    user: spec.user,
                    cold_start_us: components.total_us(),
                    pod_alloc_us: components.pod_alloc_us,
                    deploy_code_us: components.deploy_code_us,
                    deploy_dep_us: components.deploy_dep_us,
                    scheduling_us: components.scheduling_us,
                });
                pods.push(ActivePod {
                    pod,
                    in_flight_ends_ms: Vec::new(),
                    last_activity_ms: t,
                });
                (pod, components.total_us())
            }
        };

        let end_ms = t + (startup_us + execution_time_us).div_ceil(1000);
        let pod_entry = pods
            .iter_mut()
            .find(|p| p.pod == pod_id)
            .expect("pod just selected or created");
        pod_entry.in_flight_ends_ms.push(end_ms);
        pod_entry.last_activity_ms = pod_entry.last_activity_ms.max(end_ms);

        *request_counter += 1;
        trace.requests.push(RequestRecord {
            timestamp_ms: t,
            pod: pod_id,
            cluster,
            function: spec.function,
            user: spec.user,
            request: RequestId::new(region_offset | *request_counter),
            execution_time_us,
            cpu_usage_millicores: cpu,
            memory_usage_bytes: memory,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fntrace::{RegionId, TriggerType};
    use std::collections::{HashMap, HashSet};

    fn short_calibration(days: u32) -> Calibration {
        Calibration {
            duration_days: days,
            ..Calibration::default()
        }
    }

    fn tiny_r2(days: u32, seed: u64) -> Dataset {
        SyntheticTraceBuilder::new()
            .with_regions(vec![RegionProfile::r2()])
            .with_scale(TraceScale::tiny())
            .with_calibration(short_calibration(days))
            .with_seed(seed)
            .build()
    }

    #[test]
    fn build_is_deterministic() {
        let a = tiny_r2(2, 9);
        let b = tiny_r2(2, 9);
        assert_eq!(a, b);
        let c = tiny_r2(2, 10);
        assert_ne!(a.total_requests(), 0);
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_build_equals_the_regions_built_one_at_a_time() {
        let builder = SyntheticTraceBuilder::new()
            .with_scale(TraceScale::tiny())
            .with_calibration(short_calibration(1))
            .with_seed(8);
        // The root forks once per region, in region order.
        let mut root = Xoshiro256pp::seed_from_u64(8);
        let mut sequential = Dataset::new();
        for profile in RegionProfile::paper_regions() {
            let mut rng = root.fork(u64::from(profile.region.index()));
            sequential.insert_region(builder.build_region(&profile, &mut rng));
        }
        let built = builder.build();
        assert_eq!(built.region_count(), 5);
        assert_eq!(built, sequential);
    }

    #[test]
    fn every_cold_start_pod_serves_at_least_one_request() {
        let ds = tiny_r2(2, 11);
        let region = ds.region(RegionId::new(2)).unwrap();
        let request_pods: HashSet<_> = region.requests.records().iter().map(|r| r.pod).collect();
        for cs in region.cold_starts.records() {
            assert!(
                request_pods.contains(&cs.pod),
                "cold-started pod never used"
            );
        }
        // Pods are unique per cold start.
        let pods: HashSet<_> = region.cold_starts.records().iter().map(|r| r.pod).collect();
        assert_eq!(pods.len(), region.cold_starts.len());
    }

    #[test]
    fn component_sums_equal_totals() {
        let ds = tiny_r2(2, 12);
        let region = ds.region(RegionId::new(2)).unwrap();
        assert!(!region.cold_starts.is_empty());
        for cs in region.cold_starts.records() {
            assert_eq!(cs.component_sum_us(), cs.cold_start_us);
        }
    }

    #[test]
    fn cold_starts_do_not_exceed_requests_per_function() {
        let ds = tiny_r2(2, 13);
        let region = ds.region(RegionId::new(2)).unwrap();
        let requests = region.requests.requests_per_function();
        let cold = region.cold_starts.cold_starts_per_function();
        for (f, &c) in &cold {
            let r = requests.get(f).copied().unwrap_or(0);
            assert!(c <= r, "function {f} has {c} cold starts but {r} requests");
        }
    }

    #[test]
    fn slow_timers_cold_start_on_every_invocation() {
        let ds = tiny_r2(2, 14);
        let region = ds.region(RegionId::new(2)).unwrap();
        let requests = region.requests.requests_per_function();
        let cold = region.cold_starts.cold_starts_per_function();
        let mut checked = 0;
        for meta in region.functions.iter() {
            if meta.primary_trigger() != TriggerType::Timer {
                continue;
            }
            let r = requests.get(&meta.function).copied().unwrap_or(0);
            let c = cold.get(&meta.function).copied().unwrap_or(0);
            if r < 5 {
                continue;
            }
            // Timers fire at fixed periods; periods above the keep-alive mean
            // every invocation is a cold start, periods at or below it mean
            // almost none (after the first).
            let timestamps: Vec<u64> = region
                .requests
                .for_function(meta.function)
                .map(|x| x.timestamp_ms)
                .collect();
            let mut sorted = timestamps.clone();
            sorted.sort_unstable();
            let gap_ms = sorted.windows(2).map(|w| w[1] - w[0]).min().unwrap_or(0);
            // Long-running executions or very slow cold starts can keep a pod
            // alive past the next timer firing, so only demand
            // cold-start-per-invocation when the gap clears keep-alive plus
            // the function's longest execution and cold-start durations.
            let max_exec_ms = region
                .requests
                .for_function(meta.function)
                .map(|x| x.execution_time_us / 1000)
                .max()
                .unwrap_or(0);
            let max_cold_ms = region
                .cold_starts
                .records()
                .iter()
                .filter(|x| x.function == meta.function)
                .map(|x| x.cold_start_us / 1000)
                .max()
                .unwrap_or(0);
            if gap_ms > 61_000 + max_exec_ms + max_cold_ms {
                assert_eq!(c, r, "slow timer should cold start every time");
                checked += 1;
            } else if gap_ms > 0 && gap_ms <= 60_000 {
                assert!(c <= 2, "fast timer should stay warm, got {c} cold starts");
                checked += 1;
            }
        }
        assert!(checked > 0, "no timer functions checked");
    }

    #[test]
    fn high_rate_functions_reuse_pods() {
        let ds = tiny_r2(2, 15);
        let region = ds.region(RegionId::new(2)).unwrap();
        let requests = region.requests.requests_per_function();
        let cold = region.cold_starts.cold_starts_per_function();
        // The busiest function exceeds one request per minute on average, so
        // the keep-alive rule must make pods serve many requests each
        // (Figure 14's upper region lies far below the 1:1 diagonal).
        let (busiest, &r) = requests
            .iter()
            .max_by_key(|(_, &count)| count)
            .expect("trace has requests");
        assert!(r > 500, "busiest function only has {r} requests");
        let c = cold.get(busiest).copied().unwrap_or(0);
        assert!(
            c * 3 < r,
            "busiest function {busiest}: {c} cold starts for {r} requests"
        );
    }

    #[test]
    fn five_region_dataset_has_distinct_scales() {
        let ds = SyntheticTraceBuilder::new()
            .with_scale(TraceScale::tiny())
            .with_calibration(short_calibration(1))
            .with_seed(3)
            .build();
        assert_eq!(ds.region_count(), 5);
        let summary = ds.summary();
        assert_eq!(summary.per_region.len(), 5);
        for r in &summary.per_region {
            assert!(r.requests > 0, "region {} has no requests", r.region);
            assert!(r.functions > 0);
        }
        // Functions differ across regions (R4 has the most, R5 the fewest).
        let functions: HashMap<u16, u64> = summary
            .per_region
            .iter()
            .map(|r| (r.region.index(), r.functions))
            .collect();
        assert!(functions[&4] >= functions[&5]);
    }

    #[test]
    fn request_records_are_well_formed() {
        let ds = tiny_r2(1, 21);
        let region = ds.region(RegionId::new(2)).unwrap();
        let duration = short_calibration(1).duration_ms();
        for r in region.requests.records() {
            assert!(r.timestamp_ms < duration);
            assert!(r.execution_time_us > 0);
            assert!(r.cpu_usage_millicores > 0.0);
            assert!(r.memory_usage_bytes > 0);
        }
        // Requests are sorted by time after build.
        let ts: Vec<u64> = region
            .requests
            .records()
            .iter()
            .map(|r| r.timestamp_ms)
            .collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn function_table_covers_all_functions_with_requests() {
        let ds = tiny_r2(1, 22);
        let region = ds.region(RegionId::new(2)).unwrap();
        for f in region.requests.distinct_functions() {
            assert!(
                region.functions.get(f).is_some(),
                "missing metadata for {f}"
            );
        }
    }

    #[test]
    fn population_access_matches_trace_functions() {
        let builder = SyntheticTraceBuilder::new()
            .with_regions(vec![RegionProfile::r2()])
            .with_scale(TraceScale::tiny())
            .with_calibration(short_calibration(1))
            .with_seed(5);
        let pop = builder.build_population(&RegionProfile::r2());
        let ds = builder.build();
        let region = ds.region(RegionId::new(2)).unwrap();
        assert_eq!(pop.len(), region.functions.len());
        for spec in &pop.functions {
            assert!(region.functions.get(spec.function).is_some());
        }
    }
}
