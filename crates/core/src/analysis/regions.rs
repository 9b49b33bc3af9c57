//! Region statistics: Figures 1, 3, and 4.
//!
//! * Figure 1 — number of requests, functions, and pods per region.
//! * Figure 3 — CDFs of requests per function per day, mean execution time
//!   per minute, and mean CPU usage per minute, per region.
//! * Figure 4 — CDFs of functions per user and requests per user.

use serde::{Deserialize, Serialize};

use fntrace::dataset::RegionSummary;
use fntrace::{Dataset, RegionTrace, TimeBinner, MILLIS_PER_DAY, MILLIS_PER_MIN};

use super::CdfSummary;

/// One row of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionSizeRow {
    /// Region label index.
    pub region: u16,
    /// Distinct functions.
    pub functions: u64,
    /// Total requests.
    pub requests: u64,
    /// Distinct pods.
    pub pods: u64,
    /// Total cold starts.
    pub cold_starts: u64,
    /// Distinct users.
    pub users: u64,
}

/// Per-region load statistics backing Figures 3 and 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionLoadProfile {
    /// Region index.
    pub region: u16,
    /// Requests per function per day (Figure 3a).
    pub requests_per_function_per_day: CdfSummary,
    /// Fraction of functions averaging at least one request per minute.
    pub high_load_function_fraction: f64,
    /// Mean execution time per minute in seconds (Figure 3b).
    pub execution_time_per_minute_s: CdfSummary,
    /// Mean CPU usage per minute in cores (Figure 3c).
    pub cpu_usage_per_minute_cores: CdfSummary,
    /// Functions per user (Figure 4a).
    pub functions_per_user: CdfSummary,
    /// Fraction of users owning exactly one function.
    pub single_function_user_fraction: f64,
    /// Requests per user (Figure 4b).
    pub requests_per_user: CdfSummary,
}

/// Complete region statistics (Figures 1, 3, 4) for a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionStatistics {
    /// Figure 1 rows, ordered by region.
    pub sizes: Vec<RegionSizeRow>,
    /// Figures 3 and 4 per region.
    pub load_profiles: Vec<RegionLoadProfile>,
}

impl From<&RegionSummary> for RegionSizeRow {
    fn from(summary: &RegionSummary) -> Self {
        Self {
            region: summary.region.index(),
            functions: summary.functions,
            requests: summary.requests,
            pods: summary.pods,
            cold_starts: summary.cold_starts,
            users: summary.users,
        }
    }
}

impl RegionStatistics {
    /// Computes the statistics for every region of the dataset, one region
    /// per worker.
    pub fn compute(dataset: &Dataset) -> Self {
        let (sizes, load_profiles) = dataset
            .map_regions(|trace| (RegionSizeRow::from(&trace.summary()), load_profile(trace)))
            .into_iter()
            .unzip();
        Self {
            sizes,
            load_profiles,
        }
    }

    /// Looks up a region's load profile.
    pub fn load_profile(&self, region: u16) -> Option<&RegionLoadProfile> {
        self.load_profiles.iter().find(|p| p.region == region)
    }
}

/// Figures 3 and 4 for one region.
pub(crate) fn load_profile(trace: &RegionTrace) -> RegionLoadProfile {
    let duration_days = trace
        .time_span_ms()
        .map(|(lo, hi)| ((hi - lo) as f64 / MILLIS_PER_DAY as f64).max(1.0 / 24.0))
        .unwrap_or(1.0);

    // Figure 3a: requests per function per day.
    let per_function: Vec<f64> = trace
        .requests
        .requests_per_function()
        .values()
        .map(|&c| c as f64 / duration_days)
        .collect();
    let high_load = if per_function.is_empty() {
        0.0
    } else {
        per_function.iter().filter(|&&rpd| rpd >= 1440.0).count() as f64 / per_function.len() as f64
    };

    // Figures 3b and 3c: per-minute means of execution time and CPU usage.
    let (exec_summary, cpu_summary) = match trace.requests.time_span_ms() {
        Some((lo, hi)) => {
            let binner = TimeBinner::new(lo, hi + 1, MILLIS_PER_MIN);
            let exec = binner.mean(
                trace
                    .requests
                    .records()
                    .iter()
                    .map(|r| (r.timestamp_ms, r.execution_time_secs())),
            );
            let cpu = binner.mean(
                trace
                    .requests
                    .records()
                    .iter()
                    .map(|r| (r.timestamp_ms, r.cpu_usage_cores())),
            );
            // Only minutes that actually saw traffic enter the CDF.
            let exec_nonzero: Vec<f64> = exec.into_iter().filter(|v| *v > 0.0).collect();
            let cpu_nonzero: Vec<f64> = cpu.into_iter().filter(|v| *v > 0.0).collect();
            (
                CdfSummary::from_values(&exec_nonzero),
                CdfSummary::from_values(&cpu_nonzero),
            )
        }
        None => (CdfSummary::default(), CdfSummary::default()),
    };

    // Figure 4: user concentration.
    let functions_per_user: Vec<f64> = trace
        .functions
        .functions_per_user()
        .values()
        .map(|&c| c as f64)
        .collect();
    let single_user_fraction = if functions_per_user.is_empty() {
        0.0
    } else {
        functions_per_user.iter().filter(|&&c| c == 1.0).count() as f64
            / functions_per_user.len() as f64
    };
    let requests_per_user: Vec<f64> = trace
        .requests
        .requests_per_user()
        .values()
        .map(|&c| c as f64)
        .collect();

    RegionLoadProfile {
        region: trace.region.index(),
        requests_per_function_per_day: CdfSummary::from_values(&per_function),
        high_load_function_fraction: high_load,
        execution_time_per_minute_s: exec_summary,
        cpu_usage_per_minute_cores: cpu_summary,
        functions_per_user: CdfSummary::from_values(&functions_per_user),
        single_function_user_fraction: single_user_fraction,
        requests_per_user: CdfSummary::from_values(&requests_per_user),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_workload::profile::{Calibration, RegionProfile};
    use faas_workload::{SyntheticTraceBuilder, TraceScale};

    fn dataset() -> Dataset {
        SyntheticTraceBuilder::new()
            .with_regions(vec![RegionProfile::r1(), RegionProfile::r4()])
            .with_scale(TraceScale::tiny())
            .with_calibration(Calibration {
                duration_days: 2,
                ..Calibration::default()
            })
            .with_seed(77)
            .build()
    }

    #[test]
    fn sizes_cover_all_regions_and_are_consistent() {
        let ds = dataset();
        let stats = RegionStatistics::compute(&ds);
        assert_eq!(stats.sizes.len(), 2);
        for row in &stats.sizes {
            assert!(row.requests > 0);
            assert!(row.functions > 0);
            assert!(row.pods > 0);
            assert!(row.cold_starts > 0);
            assert!(row.users > 0);
            // Pods are created by cold starts, so counts match in synthesis.
            assert!(row.pods <= row.requests);
        }
    }

    #[test]
    fn r1_has_more_high_load_functions_than_r4() {
        let ds = dataset();
        let stats = RegionStatistics::compute(&ds);
        let r1 = stats.load_profile(1).unwrap();
        let r4 = stats.load_profile(4).unwrap();
        assert!(
            r1.high_load_function_fraction >= r4.high_load_function_fraction,
            "r1 {} r4 {}",
            r1.high_load_function_fraction,
            r4.high_load_function_fraction
        );
        // Median requests per function per day is positive and heavy-tailed.
        assert!(r1.requests_per_function_per_day.p50 > 0.0);
        assert!(r1.requests_per_function_per_day.max > 3.0 * r1.requests_per_function_per_day.p50);
    }

    #[test]
    fn execution_and_cpu_summaries_are_positive() {
        let ds = dataset();
        let stats = RegionStatistics::compute(&ds);
        for profile in &stats.load_profiles {
            assert!(profile.execution_time_per_minute_s.count > 0);
            assert!(profile.execution_time_per_minute_s.p50 > 0.0);
            assert!(profile.cpu_usage_per_minute_cores.p50 > 0.0);
            assert!(profile.cpu_usage_per_minute_cores.p50 < 30.0);
        }
    }

    #[test]
    fn most_users_own_one_function() {
        let ds = dataset();
        let stats = RegionStatistics::compute(&ds);
        for profile in &stats.load_profiles {
            assert!(
                profile.single_function_user_fraction > 0.4,
                "region {} single-user fraction {}",
                profile.region,
                profile.single_function_user_fraction
            );
            assert!(profile.functions_per_user.p50 >= 1.0);
            assert!(profile.requests_per_user.count > 0);
        }
    }

    #[test]
    fn empty_dataset_is_benign() {
        let ds = Dataset::new();
        let stats = RegionStatistics::compute(&ds);
        assert!(stats.sizes.is_empty());
        assert!(stats.load_profiles.is_empty());
        assert!(stats.load_profile(1).is_none());
    }
}
