//! Deterministic synthetic trace datasets.
//!
//! Production FaaS traces are proprietary, so the test and benchmark suites
//! need valid datasets they can regenerate from a seed. [`SynthTraceSpec`]
//! emits a complete [`RegionTrace`] — request, cold-start, and function
//! tables in the Table 1 layout — from a handful of knobs and a
//! [`Xoshiro256pp`] stream, so two runs with the same spec are identical to
//! the byte once written with [`RegionTrace::write_csv_dir`].
//!
//! The generator mirrors the platform mechanics that make real traces
//! internally consistent: cold starts are produced by replaying each
//! function's arrivals against a keep-alive rule (never sampled
//! independently), every cold-started pod serves at least one request, and
//! the four cold-start component times always sum to the recorded total.
//! [`SynthShape`] mirrors the scenario presets of the workload crate
//! (steady / diurnal / bursty / timer-heavy) at the trace level, which is
//! what lets `faas_workload::replay` round-trip tests run without shipping
//! proprietary data.
//!
//! # Examples
//!
//! ```
//! use fntrace::synth::{SynthShape, SynthTraceSpec};
//! use fntrace::RegionId;
//!
//! let spec = SynthTraceSpec {
//!     region: RegionId::new(9),
//!     shape: SynthShape::Diurnal,
//!     functions: 6,
//!     duration_days: 1,
//!     mean_requests_per_day: 300.0,
//!     keep_alive_secs: 60.0,
//!     seed: 7,
//! };
//! let trace = spec.generate();
//! assert_eq!(trace.region, RegionId::new(9));
//! assert!(!trace.requests.is_empty());
//! // Identical specs generate identical traces.
//! assert_eq!(trace, spec.generate());
//! ```

use faas_stats::rng::Xoshiro256pp;

use crate::dataset::RegionTrace;
use crate::ids::{FunctionId, PodId, RegionId, RequestId, UserId};
use crate::record::{ColdStartRecord, FunctionMeta, RequestRecord};
use crate::timebin::{MILLIS_PER_DAY, MILLIS_PER_HOUR};
use crate::types::{ResourceConfig, Runtime, TriggerType};

use serde::{Deserialize, Serialize};

/// Traffic shape of a synthetic trace, mirroring the workload crate's
/// scenario presets at the trace level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SynthShape {
    /// Flat hourly rates.
    #[default]
    Steady,
    /// Strong day/night swing around an afternoon peak.
    Diurnal,
    /// Flat base load with occasional hour-long surges.
    Bursty,
    /// Mostly timer-triggered functions firing on fixed periods.
    TimerHeavy,
}

impl SynthShape {
    /// All shapes in deterministic order.
    pub const ALL: [SynthShape; 4] = [
        SynthShape::Steady,
        SynthShape::Diurnal,
        SynthShape::Bursty,
        SynthShape::TimerHeavy,
    ];

    /// Stable machine-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            SynthShape::Steady => "steady",
            SynthShape::Diurnal => "diurnal",
            SynthShape::Bursty => "bursty",
            SynthShape::TimerHeavy => "timer-heavy",
        }
    }

    /// Fraction of functions whose primary trigger is a timer.
    fn timer_fraction(&self) -> f64 {
        match self {
            SynthShape::TimerHeavy => 0.7,
            _ => 0.3,
        }
    }

    /// Hourly rate multiplier for user-driven functions.
    fn rate_multiplier(&self, hour_of_day: f64, rng: &mut Xoshiro256pp) -> f64 {
        match self {
            SynthShape::Steady | SynthShape::TimerHeavy => 1.0,
            SynthShape::Diurnal => {
                let phase = (hour_of_day - 14.0) / 24.0 * std::f64::consts::TAU;
                1.0 + 0.8 * phase.cos()
            }
            SynthShape::Bursty => {
                if rng.bernoulli(0.08) {
                    5.0
                } else {
                    0.7
                }
            }
        }
    }
}

/// Specification of one synthetic region trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthTraceSpec {
    /// Region the trace is generated for.
    pub region: RegionId,
    /// Traffic shape.
    pub shape: SynthShape,
    /// Number of functions to generate.
    pub functions: usize,
    /// Trace duration in days.
    pub duration_days: u32,
    /// Mean requests per function per day before shape modulation.
    pub mean_requests_per_day: f64,
    /// Keep-alive used when replaying arrivals into cold starts, seconds.
    pub keep_alive_secs: f64,
    /// Random seed; identical seeds give identical traces.
    pub seed: u64,
}

impl Default for SynthTraceSpec {
    fn default() -> Self {
        Self {
            region: RegionId::new(1),
            shape: SynthShape::Steady,
            functions: 20,
            duration_days: 1,
            mean_requests_per_day: 500.0,
            keep_alive_secs: 60.0,
            seed: 42,
        }
    }
}

/// Weighted runtime mix for synthetic functions.
const RUNTIMES: [(Runtime, f64); 5] = [
    (Runtime::Python3, 0.50),
    (Runtime::NodeJs, 0.20),
    (Runtime::Java, 0.15),
    (Runtime::Go1x, 0.10),
    (Runtime::Custom, 0.05),
];

/// Timer periods (seconds) sampled for timer-triggered functions. Most are
/// above the default one-minute keep-alive, matching the paper's observation
/// that slow timers cold start on every firing.
const TIMER_PERIODS: [f64; 4] = [120.0, 300.0, 600.0, 1800.0];

impl SynthTraceSpec {
    /// Generates the region trace described by this spec.
    pub fn generate(&self) -> RegionTrace {
        let mut rng =
            Xoshiro256pp::seed_from_u64(self.seed ^ (u64::from(self.region.index()) << 32));
        let duration_ms = u64::from(self.duration_days.max(1)) * MILLIS_PER_DAY;
        let keep_alive_ms = (self.keep_alive_secs.max(0.0) * 1000.0) as u64;
        let region_offset = u64::from(self.region.index()) << 48;

        let mut trace = RegionTrace::new(self.region);
        let mut pod_counter = 0u64;
        let mut request_counter = 0u64;

        for i in 0..self.functions.max(1) {
            let function = FunctionId::new(region_offset | (i as u64 + 1));
            let user = UserId::new(region_offset | (1 + i as u64 / 3));
            let runtime = pick_weighted(&RUNTIMES, &mut rng);
            let is_timer = rng.bernoulli(self.shape.timer_fraction());
            let trigger = if is_timer {
                TriggerType::Timer
            } else {
                TriggerType::ApigSync
            };
            let config = *rng
                .choose(&ResourceConfig::STANDARD)
                .expect("standard configs are non-empty");
            let has_dependencies = rng.bernoulli(0.5);

            let arrivals = if is_timer {
                let period_ms =
                    (TIMER_PERIODS[rng.uniform_usize(TIMER_PERIODS.len())] * 1000.0) as u64;
                let phase = rng.uniform_usize(period_ms as usize) as u64;
                (0..)
                    .map(|k| phase + k * period_ms)
                    .take_while(|&t| t < duration_ms)
                    .collect::<Vec<u64>>()
            } else {
                // Log-uniform per-function volume around the configured mean.
                let rpd = self.mean_requests_per_day.max(1.0) * (rng.uniform(-1.0, 1.0)).exp2();
                let per_hour = rpd / 24.0;
                let hours = u64::from(self.duration_days.max(1)) * 24;
                let mut out = Vec::new();
                for hour in 0..hours {
                    let hour_of_day = (hour % 24) as f64;
                    let rate = per_hour * self.shape.rate_multiplier(hour_of_day, &mut rng);
                    for _ in 0..rng.poisson(rate.max(0.0)) {
                        out.push(
                            hour * MILLIS_PER_HOUR
                                + rng.uniform_usize(MILLIS_PER_HOUR as usize) as u64,
                        );
                    }
                }
                out.sort_unstable();
                out
            };

            self.replay_function(
                function,
                user,
                runtime,
                config,
                has_dependencies,
                &arrivals,
                keep_alive_ms,
                region_offset,
                &mut pod_counter,
                &mut request_counter,
                &mut trace,
                &mut rng,
            );
            trace.functions.insert(FunctionMeta {
                function,
                user,
                runtime,
                triggers: vec![trigger],
                config,
            });
        }
        trace.sort_by_time();
        trace
    }

    /// Replays one function's arrivals against the keep-alive rule, emitting
    /// the request and cold-start records.
    #[allow(clippy::too_many_arguments)]
    fn replay_function(
        &self,
        function: FunctionId,
        user: UserId,
        runtime: Runtime,
        config: ResourceConfig,
        has_dependencies: bool,
        arrivals: &[u64],
        keep_alive_ms: u64,
        region_offset: u64,
        pod_counter: &mut u64,
        request_counter: &mut u64,
        trace: &mut RegionTrace,
        rng: &mut Xoshiro256pp,
    ) {
        let cluster = (function.raw() % 4) as u8;
        // One pod per function: (pod id, time it stops being warm).
        let mut warm: Option<(PodId, u64)> = None;
        for &t in arrivals {
            let pod = match warm {
                Some((pod, until)) if until > t => pod,
                _ => {
                    *pod_counter += 1;
                    let pod = PodId::new(region_offset | *pod_counter);
                    let base_us = match runtime {
                        Runtime::Custom => 900_000.0,
                        Runtime::Java => 500_000.0,
                        _ => 250_000.0,
                    };
                    let scale = (0.4 * rng.standard_normal()).exp();
                    let pod_alloc_us = (base_us * 0.5 * scale) as u64;
                    let deploy_code_us = (base_us * 0.2 * scale) as u64;
                    let deploy_dep_us = if has_dependencies {
                        (base_us * 0.2 * scale) as u64
                    } else {
                        0
                    };
                    let scheduling_us = (base_us * 0.1 * scale) as u64;
                    trace.cold_starts.push(ColdStartRecord {
                        timestamp_ms: t,
                        pod,
                        cluster,
                        function,
                        user,
                        cold_start_us: pod_alloc_us
                            + deploy_code_us
                            + deploy_dep_us
                            + scheduling_us,
                        pod_alloc_us,
                        deploy_code_us,
                        deploy_dep_us,
                        scheduling_us,
                    });
                    pod
                }
            };

            let exec_us =
                (30_000.0 * (0.6 * rng.standard_normal()).exp()).clamp(100.0, 600_000_000.0) as u64;
            *request_counter += 1;
            trace.requests.push(RequestRecord {
                timestamp_ms: t,
                pod,
                cluster,
                function,
                user,
                request: RequestId::new(region_offset | *request_counter),
                execution_time_us: exec_us,
                cpu_usage_millicores: ((config.millicores as f64) * (0.1 + 0.4 * rng.next_f64()))
                    .max(5.0),
                memory_usage_bytes: ((config.memory_mb as u64) << 20) / 4
                    + rng.uniform_usize(((config.memory_mb as u64) << 20) as usize / 2) as u64,
            });
            let end_ms = t + exec_us.div_ceil(1000);
            warm = Some((pod, end_ms + keep_alive_ms));
        }
    }
}

fn pick_weighted(table: &[(Runtime, f64)], rng: &mut Xoshiro256pp) -> Runtime {
    let total: f64 = table.iter().map(|(_, w)| w).sum();
    let mut x = rng.next_f64() * total;
    for (value, w) in table {
        x -= w;
        if x <= 0.0 {
            return *value;
        }
    }
    table.last().map(|(v, _)| *v).unwrap_or(Runtime::Unknown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tiny(shape: SynthShape, seed: u64) -> SynthTraceSpec {
        SynthTraceSpec {
            region: RegionId::new(6),
            shape,
            functions: 12,
            duration_days: 1,
            mean_requests_per_day: 200.0,
            keep_alive_secs: 60.0,
            seed,
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = tiny(SynthShape::Diurnal, 1).generate();
        let b = tiny(SynthShape::Diurnal, 1).generate();
        assert_eq!(a, b);
        let c = tiny(SynthShape::Diurnal, 2).generate();
        assert_ne!(a, c);
        assert!(a.requests.len() > 10);
    }

    #[test]
    fn tables_are_internally_consistent() {
        for shape in SynthShape::ALL {
            let trace = tiny(shape, 3).generate();
            let duration = MILLIS_PER_DAY;
            let request_pods: HashSet<_> = trace.requests.records().iter().map(|r| r.pod).collect();
            for cs in trace.cold_starts.records() {
                assert_eq!(cs.component_sum_us(), cs.cold_start_us, "{}", shape.name());
                assert!(cs.timestamp_ms < duration);
                assert!(request_pods.contains(&cs.pod), "cold pod never served");
            }
            assert!(
                trace.cold_starts.len() as u64 <= trace.requests.len() as u64,
                "{}",
                shape.name()
            );
            for r in trace.requests.records() {
                assert!(r.timestamp_ms < duration);
                assert!(r.execution_time_us > 0);
                assert!(trace.functions.get(r.function).is_some());
            }
        }
    }

    #[test]
    fn timer_heavy_shape_has_more_timers() {
        let timers = |trace: &RegionTrace| {
            trace
                .functions
                .iter()
                .filter(|m| m.primary_trigger() == TriggerType::Timer)
                .count()
        };
        let heavy = tiny(SynthShape::TimerHeavy, 5).generate();
        let steady = tiny(SynthShape::Steady, 5).generate();
        assert!(timers(&heavy) > timers(&steady));
    }

    #[test]
    fn csv_roundtrip_preserves_the_trace() {
        let dir = std::env::temp_dir().join(format!("fntrace_synth_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let trace = tiny(SynthShape::Bursty, 7).generate();
        trace.write_csv_dir(&dir).unwrap();
        let loaded = RegionTrace::read_csv_dir(trace.region, &dir).unwrap();
        assert_eq!(loaded.requests.len(), trace.requests.len());
        assert_eq!(loaded.cold_starts.records(), trace.cold_starts.records());
        assert_eq!(loaded.functions.len(), trace.functions.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shape_names_are_stable_and_unique() {
        let names: HashSet<&str> = SynthShape::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), SynthShape::ALL.len());
    }
}
