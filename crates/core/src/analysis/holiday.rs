//! Holiday effect analysis: Figure 7.
//!
//! The paper's dataset contains a week-long holiday (days 14–23, with day 13
//! the last working day and day 24 the first working day after). Figure 7
//! shows the number of allocated pods and the mean CPU usage per day,
//! normalized to their pre-holiday maximum: Regions 1, 2, 4, and 5 peak just
//! before the holiday, dip through it, and rebound after; Region 3 surges
//! during the holiday instead.

use serde::{Deserialize, Serialize};

use faas_workload::profile::Calibration;
use fntrace::{Dataset, RegionTrace, TimeBinner, MILLIS_PER_DAY};

use super::pods::PodLifetimes;

/// Per-day, normalized pod and CPU series of one region (Figure 7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionHolidayEffect {
    /// Region index.
    pub region: u16,
    /// Allocated (active) pods per day, normalized to the pre-holiday max.
    pub pods_per_day: Vec<f64>,
    /// Mean CPU usage per day in cores, normalized to the pre-holiday max.
    pub cpu_per_day: Vec<f64>,
    /// Mean of the normalized pod series over the holiday days.
    pub holiday_pod_level: f64,
    /// Mean of the normalized pod series over non-holiday weekdays.
    pub workday_pod_level: f64,
}

impl RegionHolidayEffect {
    /// Ratio of holiday to workday pod levels; below 1 indicates the dip the
    /// paper observes for most regions.
    pub fn holiday_ratio(&self) -> f64 {
        if self.workday_pod_level <= 0.0 {
            0.0
        } else {
            self.holiday_pod_level / self.workday_pod_level
        }
    }
}

/// Holiday analysis over all regions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HolidayAnalysis {
    /// Per-region series.
    pub regions: Vec<RegionHolidayEffect>,
    /// The calibration describing the holiday window.
    pub calibration: Calibration,
}

impl HolidayAnalysis {
    /// Computes the per-day normalized pod and CPU series for every region,
    /// one region per worker.
    pub fn compute(dataset: &Dataset, calibration: &Calibration) -> Self {
        let regions = dataset.map_regions(|trace| {
            region_effect(trace, &PodLifetimes::from_trace(trace), calibration)
        });
        Self {
            regions,
            calibration: *calibration,
        }
    }
}

/// Figure 7 for one region, from its pod lives.
pub(crate) fn region_effect(
    trace: &RegionTrace,
    lifetimes: &PodLifetimes,
    calibration: &Calibration,
) -> RegionHolidayEffect {
    let duration_ms = u64::from(calibration.duration_days).max(1) * MILLIS_PER_DAY;
    let binner = TimeBinner::new(0, duration_ms, MILLIS_PER_DAY);

    // Pods active per day.
    let keep_alive_ms = (calibration.keep_alive_secs * 1000.0) as u64;
    let pods = binner.count_active(lifetimes.active_intervals(keep_alive_ms));

    // Mean CPU usage per day.
    let cpu = binner.mean(
        trace
            .requests
            .records()
            .iter()
            .map(|r| (r.timestamp_ms, r.cpu_usage_cores())),
    );

    // Normalize to the pre-holiday maximum, as in the paper.
    let pre_holiday_bins = calibration.holiday_start_day.min(calibration.duration_days) as usize;
    let pods_norm = normalize_to_prefix_max(&pods, pre_holiday_bins);
    let cpu_norm = normalize_to_prefix_max(&cpu, pre_holiday_bins);

    let mut holiday_sum = 0.0;
    let mut holiday_n = 0usize;
    let mut workday_sum = 0.0;
    let mut workday_n = 0usize;
    for (day, &v) in pods_norm.iter().enumerate() {
        let day = day as u32;
        if calibration.is_holiday(day) {
            holiday_sum += v;
            holiday_n += 1;
        } else if !calibration.is_weekend(day) {
            workday_sum += v;
            workday_n += 1;
        }
    }

    RegionHolidayEffect {
        region: trace.region.index(),
        pods_per_day: pods_norm,
        cpu_per_day: cpu_norm,
        holiday_pod_level: if holiday_n == 0 {
            0.0
        } else {
            holiday_sum / holiday_n as f64
        },
        workday_pod_level: if workday_n == 0 {
            0.0
        } else {
            workday_sum / workday_n as f64
        },
    }
}

/// Normalizes a series by the maximum of its first `prefix` elements (or the
/// global maximum when the prefix is empty or all-zero).
fn normalize_to_prefix_max(series: &[f64], prefix: usize) -> Vec<f64> {
    let prefix_max = series
        .iter()
        .take(prefix.max(1))
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    let max = if prefix_max.is_finite() && prefix_max > 0.0 {
        prefix_max
    } else {
        series.iter().cloned().fold(0.0f64, f64::max)
    };
    if max <= 0.0 {
        return vec![0.0; series.len()];
    }
    series.iter().map(|v| v / max).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_workload::profile::RegionProfile;
    use faas_workload::{SyntheticTraceBuilder, TraceScale};

    #[test]
    fn normalization_uses_prefix_max() {
        let series = vec![1.0, 2.0, 4.0, 8.0];
        let norm = normalize_to_prefix_max(&series, 2);
        assert_eq!(norm, vec![0.5, 1.0, 2.0, 4.0]);
        let norm_all = normalize_to_prefix_max(&series, 0);
        assert_eq!(norm_all[0], 1.0);
        assert_eq!(normalize_to_prefix_max(&[0.0, 0.0], 1), vec![0.0, 0.0]);
    }

    #[test]
    fn holiday_dip_for_r1_like_regions() {
        // Full 31-day calibration so the holiday window exists; tiny scale
        // keeps this test fast (single region, low volume).
        let calibration = Calibration::default();
        let ds = SyntheticTraceBuilder::new()
            .with_regions(vec![RegionProfile::r1()])
            .with_scale(TraceScale::tiny())
            .with_calibration(calibration)
            .with_seed(41)
            .build();
        let analysis = HolidayAnalysis::compute(&ds, &calibration);
        assert_eq!(analysis.regions.len(), 1);
        let r1 = &analysis.regions[0];
        assert_eq!(r1.pods_per_day.len(), 31);
        assert_eq!(r1.cpu_per_day.len(), 31);
        // Region 1 dips during the holiday.
        assert!(
            r1.holiday_ratio() < 0.95,
            "expected a holiday dip, ratio {}",
            r1.holiday_ratio()
        );
        // Values are normalized: the pre-holiday maximum is exactly 1.
        let pre_max = r1
            .pods_per_day
            .iter()
            .take(14)
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((pre_max - 1.0).abs() < 1e-9);
    }

    #[test]
    fn surge_region_increases_during_holiday() {
        let calibration = Calibration::default();
        let ds = SyntheticTraceBuilder::new()
            .with_regions(vec![RegionProfile::r3()])
            .with_scale(TraceScale::tiny())
            .with_calibration(calibration)
            .with_seed(43)
            .build();
        let analysis = HolidayAnalysis::compute(&ds, &calibration);
        let r3 = &analysis.regions[0];
        assert!(
            r3.holiday_ratio() > 1.0,
            "expected a holiday surge, ratio {}",
            r3.holiday_ratio()
        );
    }

    #[test]
    fn empty_dataset_is_benign() {
        let calibration = Calibration::default();
        let analysis = HolidayAnalysis::compute(&Dataset::new(), &calibration);
        assert!(analysis.regions.is_empty());
    }
}
