//! Peak-time analysis: Figures 5 and 6.
//!
//! * Figure 5 — normalized per-minute request series per region with the
//!   largest peak of every 24-hour window highlighted; regions peak at
//!   different times of day.
//! * Figure 6 — per-function peak-to-trough ratio against (a) median requests
//!   per day and (b) the total number of cold starts.

use serde::{Deserialize, Serialize};

use faas_stats::timeseries::{normalize_by_max, PeakDetector};
use fntrace::{Dataset, RegionTrace, TimeBinner, MILLIS_PER_DAY, MILLIS_PER_HOUR, MILLIS_PER_MIN};

/// One region's request time series and detected daily peaks (Figure 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionPeaks {
    /// Region index.
    pub region: u16,
    /// Normalized requests per minute (max = 1).
    pub normalized_requests_per_minute: Vec<f64>,
    /// Indices (minute bins) of the largest peak in each 24-hour window.
    pub daily_peak_bins: Vec<usize>,
    /// Hour of day (0–24) of each daily peak.
    pub daily_peak_hours: Vec<f64>,
    /// Circular mean of the daily peak hours (the region's typical peak time).
    pub typical_peak_hour: f64,
}

/// One point of the Figure 6 scatter plots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FunctionPeakiness {
    /// The function (raw id).
    pub function: u64,
    /// Median requests per day.
    pub requests_per_day: f64,
    /// Peak-to-trough ratio of the function's hourly request series.
    pub peak_to_trough: f64,
    /// Total cold starts of the function over the trace.
    pub cold_starts: u64,
}

/// Peak-time analysis results for a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeakAnalysis {
    /// Figure 5 per region.
    pub region_peaks: Vec<RegionPeaks>,
    /// Figure 6 scatter points for the region of interest.
    pub function_peakiness: Vec<FunctionPeakiness>,
}

impl PeakAnalysis {
    /// Runs the analysis: Figure 5 on every region (one region per worker),
    /// Figure 6 on `region_of_interest` (falling back to the first region
    /// present).
    pub fn compute(dataset: &Dataset, region_of_interest: fntrace::RegionId) -> Self {
        let region_peaks = dataset.map_regions(region_peaks);
        let function_peakiness = peakiness_region(dataset, region_of_interest)
            .map(function_peakiness)
            .unwrap_or_default();
        Self {
            region_peaks,
            function_peakiness,
        }
    }

    /// Spread (in hours, on the 24-hour circle) between the earliest and
    /// latest regional peak hours — the cross-region scheduling opportunity.
    pub fn peak_hour_spread(&self) -> f64 {
        let hours: Vec<f64> = self
            .region_peaks
            .iter()
            .map(|r| r.typical_peak_hour)
            .collect();
        if hours.len() < 2 {
            return 0.0;
        }
        let mut max_gap = 0.0f64;
        for &a in &hours {
            for &b in &hours {
                let diff = (a - b).abs();
                let circular = diff.min(24.0 - diff);
                max_gap = max_gap.max(circular);
            }
        }
        max_gap
    }
}

/// The region Figure 6 is drawn for: the region of interest, or the first
/// region when the dataset lacks it.
pub(crate) fn peakiness_region(
    dataset: &Dataset,
    region_of_interest: fntrace::RegionId,
) -> Option<&RegionTrace> {
    dataset
        .region(region_of_interest)
        .or_else(|| dataset.regions().next())
}

/// Figure 5 for one region.
pub(crate) fn region_peaks(trace: &RegionTrace) -> RegionPeaks {
    let span = trace.requests.time_span_ms();
    let (lo, hi) = span.unwrap_or((0, 1));
    let binner = TimeBinner::new(lo, hi + 1, MILLIS_PER_MIN);
    let per_minute = binner.count(trace.requests.records().iter().map(|r| r.timestamp_ms));
    let normalized = normalize_by_max(&per_minute);

    let detector = PeakDetector {
        smoothing_half_window: 30,
        min_separation: 360,
        min_relative_height: 0.2,
    };
    let bins_per_day = (MILLIS_PER_DAY / MILLIS_PER_MIN) as usize;
    let peaks = detector.largest_peak_per_period(&per_minute, bins_per_day);
    let daily_peak_bins: Vec<usize> = peaks.iter().map(|p| p.index).collect();
    let daily_peak_hours: Vec<f64> = daily_peak_bins
        .iter()
        .map(|&bin| {
            let ts = binner.bin_start_ms(bin);
            ((ts % MILLIS_PER_DAY) / MILLIS_PER_HOUR) as f64
                + ((ts % MILLIS_PER_HOUR) as f64 / MILLIS_PER_HOUR as f64)
        })
        .collect();
    let typical_peak_hour = circular_mean_hour(&daily_peak_hours);

    RegionPeaks {
        region: trace.region.index(),
        normalized_requests_per_minute: normalized,
        daily_peak_bins,
        daily_peak_hours,
        typical_peak_hour,
    }
}

/// Circular mean of hours on the 24-hour clock.
fn circular_mean_hour(hours: &[f64]) -> f64 {
    if hours.is_empty() {
        return 0.0;
    }
    let (mut s, mut c) = (0.0, 0.0);
    for &h in hours {
        let angle = h / 24.0 * std::f64::consts::TAU;
        s += angle.sin();
        c += angle.cos();
    }
    let mean_angle = s.atan2(c);
    let mut hour = mean_angle / std::f64::consts::TAU * 24.0;
    if hour < 0.0 {
        hour += 24.0;
    }
    hour
}

/// Figure 6 for one region.
pub(crate) fn function_peakiness(trace: &RegionTrace) -> Vec<FunctionPeakiness> {
    let span = trace.requests.time_span_ms();
    let Some((lo, hi)) = span else {
        return Vec::new();
    };
    let duration_days = ((hi - lo) as f64 / MILLIS_PER_DAY as f64).max(1.0 / 24.0);
    let binner = TimeBinner::new(lo, hi + 1, MILLIS_PER_HOUR);
    let cold_per_function = trace.cold_starts.cold_starts_per_function();

    // Group request timestamps per function, then build hourly series.
    let mut per_function: std::collections::HashMap<fntrace::FunctionId, Vec<u64>> =
        std::collections::HashMap::new();
    for r in trace.requests.records() {
        per_function
            .entry(r.function)
            .or_default()
            .push(r.timestamp_ms);
    }

    let mut out: Vec<FunctionPeakiness> = per_function
        .into_iter()
        .map(|(function, timestamps)| {
            let requests_per_day = timestamps.len() as f64 / duration_days;
            let hourly = binner.count(timestamps.iter().copied());
            // The paper assigns ratio 1 to functions without identifiable
            // peaks (fewer than ~1 request per minute on average).
            let peak_to_trough = if requests_per_day < 1440.0 && timestamps.len() < 48 {
                1.0
            } else {
                faas_stats::peak_to_trough_ratio(&hourly, 2, 1.0)
            };
            FunctionPeakiness {
                function: function.raw(),
                requests_per_day,
                peak_to_trough,
                cold_starts: cold_per_function.get(&function).copied().unwrap_or(0),
            }
        })
        .collect();
    out.sort_by_key(|p| p.function);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_workload::profile::{Calibration, RegionProfile};
    use faas_workload::{SyntheticTraceBuilder, TraceScale};
    use fntrace::RegionId;

    fn dataset(days: u32) -> Dataset {
        SyntheticTraceBuilder::new()
            .with_regions(vec![RegionProfile::r1(), RegionProfile::r2()])
            .with_scale(TraceScale::tiny())
            .with_calibration(Calibration {
                duration_days: days,
                ..Calibration::default()
            })
            .with_seed(5)
            .build()
    }

    #[test]
    fn daily_peaks_detected_once_per_day() {
        let ds = dataset(3);
        let analysis = PeakAnalysis::compute(&ds, RegionId::new(2));
        assert_eq!(analysis.region_peaks.len(), 2);
        for r in &analysis.region_peaks {
            assert_eq!(r.daily_peak_bins.len(), 3, "region {}", r.region);
            assert_eq!(r.daily_peak_hours.len(), 3);
            for &h in &r.daily_peak_hours {
                assert!((0.0..24.0).contains(&h));
            }
            // Normalized series peaks at exactly 1.
            let max = r
                .normalized_requests_per_minute
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            assert!((max - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn regions_peak_at_different_hours() {
        let ds = dataset(3);
        let analysis = PeakAnalysis::compute(&ds, RegionId::new(2));
        // R1 is calibrated to peak around hour 10, R2 around hour 14.
        let spread = analysis.peak_hour_spread();
        assert!(spread > 1.5, "spread {spread}");
    }

    #[test]
    fn function_peakiness_points_are_sane() {
        let ds = dataset(2);
        let analysis = PeakAnalysis::compute(&ds, RegionId::new(2));
        assert!(!analysis.function_peakiness.is_empty());
        for p in &analysis.function_peakiness {
            assert!(p.requests_per_day > 0.0);
            assert!(p.peak_to_trough >= 1.0);
        }
        // Timer-like flat functions exist with ratio exactly 1.
        let flat = analysis
            .function_peakiness
            .iter()
            .filter(|p| (p.peak_to_trough - 1.0).abs() < 1e-9)
            .count();
        assert!(flat > 0, "expected some flat functions");
    }

    #[test]
    fn circular_mean_handles_wraparound() {
        assert!((circular_mean_hour(&[23.0, 1.0]) - 0.0).abs() < 1e-6);
        assert!((circular_mean_hour(&[10.0, 14.0]) - 12.0).abs() < 1e-6);
        assert_eq!(circular_mean_hour(&[]), 0.0);
    }

    #[test]
    fn empty_dataset_is_benign() {
        let ds = Dataset::new();
        let analysis = PeakAnalysis::compute(&ds, RegionId::new(1));
        assert!(analysis.region_peaks.is_empty());
        assert!(analysis.function_peakiness.is_empty());
        assert_eq!(analysis.peak_hour_spread(), 0.0);
    }
}
