//! Concurrency adjustment advisor.
//!
//! Each function has a user-set concurrency value bounding how many requests
//! one pod may execute simultaneously. The paper notes that "for many
//! functions, the resource utilization can be improved by increasing
//! concurrency as long as the total execution time remains acceptable",
//! which also avoids the cold starts caused purely by concurrency overflow.
//! [`ConcurrencyAdvisor`] scans a region trace for cold starts that happened
//! while another pod of the same function was already running (overflow cold
//! starts) and recommends a higher concurrency for the worst offenders.

use serde::{Deserialize, Serialize};

use fntrace::{FunctionId, RegionTrace};

use crate::analysis::pods::PodLifetimes;

/// Recommendation for one function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConcurrencyRecommendation {
    /// The function.
    pub function: FunctionId,
    /// Cold starts that occurred while another pod of the function was live
    /// (and therefore could have been absorbed by higher concurrency).
    pub overflow_cold_starts: u64,
    /// Total cold starts of the function.
    pub total_cold_starts: u64,
    /// Suggested additional concurrent requests per pod.
    pub suggested_extra_concurrency: u32,
}

impl ConcurrencyRecommendation {
    /// Fraction of the function's cold starts attributable to concurrency
    /// overflow.
    pub fn overflow_fraction(&self) -> f64 {
        if self.total_cold_starts == 0 {
            0.0
        } else {
            self.overflow_cold_starts as f64 / self.total_cold_starts as f64
        }
    }
}

/// Scans for functions whose cold starts are driven by concurrency overflow.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrencyAdvisor {
    /// Minimum overflow cold starts for a function to be reported.
    pub min_overflow: u64,
    /// Keep-alive used to decide whether another pod was live, milliseconds.
    pub keep_alive_ms: u64,
}

impl Default for ConcurrencyAdvisor {
    fn default() -> Self {
        Self {
            min_overflow: 5,
            keep_alive_ms: 60_000,
        }
    }
}

impl ConcurrencyAdvisor {
    /// Produces recommendations sorted by the number of overflow cold starts,
    /// most first; functions with equal counts come in ascending id order.
    pub fn recommend(&self, trace: &RegionTrace) -> Vec<ConcurrencyRecommendation> {
        let lifetimes = PodLifetimes::from_trace(trace);
        // Index pod active intervals per function.
        let mut per_function: std::collections::HashMap<FunctionId, Vec<(u64, u64)>> =
            std::collections::HashMap::new();
        for life in lifetimes.iter() {
            per_function
                .entry(life.function)
                .or_default()
                .push((life.created_ms, life.deleted_ms(self.keep_alive_ms)));
        }
        let cold_per_function = trace.cold_starts.cold_starts_per_function();

        let mut out: Vec<ConcurrencyRecommendation> = Vec::new();
        for (&function, &total) in &cold_per_function {
            let Some(intervals) = per_function.get(&function) else {
                continue;
            };
            let mut overflow = 0u64;
            for cs in trace
                .cold_starts
                .records()
                .iter()
                .filter(|r| r.function == function)
            {
                // Another pod of the same function was live at the moment of
                // this cold start.
                let concurrent = intervals
                    .iter()
                    .filter(|(start, end)| *start < cs.timestamp_ms && cs.timestamp_ms < *end)
                    .count();
                if concurrent > 0 {
                    overflow += 1;
                }
            }
            if overflow >= self.min_overflow {
                out.push(ConcurrencyRecommendation {
                    function,
                    overflow_cold_starts: overflow,
                    total_cold_starts: total,
                    suggested_extra_concurrency: ((overflow as f64 / total.max(1) as f64 * 4.0)
                        .ceil() as u32)
                        .clamp(1, 8),
                });
            }
        }
        out.sort_by_key(|a| (std::cmp::Reverse(a.overflow_cold_starts), a.function));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_workload::profile::{Calibration, RegionProfile};
    use faas_workload::{SyntheticTraceBuilder, TraceScale};
    use fntrace::RegionId;

    #[test]
    fn recommendations_identify_overflow_heavy_functions() {
        let ds = SyntheticTraceBuilder::new()
            .with_regions(vec![RegionProfile::r1()])
            .with_scale(TraceScale::tiny())
            .with_calibration(Calibration {
                duration_days: 2,
                ..Calibration::default()
            })
            .with_seed(12)
            .build();
        let trace = ds.region(RegionId::new(1)).unwrap();
        let advisor = ConcurrencyAdvisor::default();
        let recs = advisor.recommend(trace);
        // High-rate functions in R1 produce concurrency-overflow cold starts.
        assert!(!recs.is_empty(), "expected at least one recommendation");
        for r in &recs {
            assert!(r.overflow_cold_starts >= advisor.min_overflow);
            assert!(r.overflow_cold_starts <= r.total_cold_starts);
            assert!(r.overflow_fraction() <= 1.0);
            assert!((1..=8).contains(&r.suggested_extra_concurrency));
        }
        // Sorted by overflow count, descending.
        for w in recs.windows(2) {
            assert!(w[0].overflow_cold_starts >= w[1].overflow_cold_starts);
        }
    }

    #[test]
    fn ties_come_back_in_ascending_function_order_on_every_call() {
        let ds = SyntheticTraceBuilder::new()
            .with_regions(vec![RegionProfile::r2()])
            .with_scale(TraceScale::tiny())
            .with_calibration(Calibration {
                duration_days: 2,
                ..Calibration::default()
            })
            .with_seed(2)
            .build();
        let trace = ds.region(RegionId::new(2)).unwrap();
        let advisor = ConcurrencyAdvisor {
            min_overflow: 1,
            ..ConcurrencyAdvisor::default()
        };
        let recs = advisor.recommend(trace);
        let ties = recs
            .windows(2)
            .filter(|w| w[0].overflow_cold_starts == w[1].overflow_cold_starts)
            .count();
        assert!(ties > 0, "the case must hold equal overflow counts");
        for w in recs.windows(2) {
            assert!(
                (std::cmp::Reverse(w[0].overflow_cold_starts), w[0].function)
                    < (std::cmp::Reverse(w[1].overflow_cold_starts), w[1].function)
            );
        }
        // Each call hashes into fresh maps; the order must not follow them.
        for _ in 0..5 {
            assert_eq!(advisor.recommend(trace), recs);
        }
    }

    #[test]
    fn empty_trace_produces_no_recommendations() {
        let trace = RegionTrace::new(RegionId::new(9));
        let recs = ConcurrencyAdvisor::default().recommend(&trace);
        assert!(recs.is_empty());
    }
}
