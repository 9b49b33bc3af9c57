//! Cold-start distributions and fits: Figure 10.
//!
//! Per-region CDFs of cold-start durations and of inter-arrival times between
//! cold starts, plus the all-region LogNormal fit for durations and Weibull
//! fit for inter-arrival times the paper recommends for simulation use
//! (reported there as mean 3.24 / std 7.10 and mean 1.25 / std 3.66).

use serde::{Deserialize, Serialize};

use faas_stats::dist::{ContinuousDistribution, LogNormal, Weibull};
use faas_stats::ks::ks_statistic;
use fntrace::{par, Dataset, RegionId, RegionTrace};

use super::CdfSummary;

/// Fitted-distribution description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct FitResult {
    /// Number of observations used in the fit.
    pub sample_count: u64,
    /// Mean of the fitted distribution.
    pub fitted_mean: f64,
    /// Standard deviation of the fitted distribution.
    pub fitted_std: f64,
    /// First shape/location parameter (`mu` for LogNormal, shape for Weibull).
    pub param_a: f64,
    /// Second parameter (`sigma` for LogNormal, scale for Weibull).
    pub param_b: f64,
    /// Kolmogorov–Smirnov distance between the data and the fit.
    pub ks_distance: f64,
}

/// One region's distributions (Figures 10a and 10c).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionDistribution {
    /// Region index.
    pub region: u16,
    /// Cold-start duration summary in seconds.
    pub cold_start_secs: CdfSummary,
    /// Inter-arrival time summary in seconds.
    pub inter_arrival_secs: CdfSummary,
}

/// Figure 10 analysis: per-region distributions plus all-region fits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributionAnalysis {
    /// Per-region summaries.
    pub per_region: Vec<RegionDistribution>,
    /// LogNormal fit of all cold-start durations (Figure 10b).
    pub overall_fit: FitResult,
    /// Weibull fit of all inter-arrival times (Figure 10d).
    pub inter_arrival_fit: FitResult,
}

impl DistributionAnalysis {
    /// Computes the analysis over the whole dataset: the per-region
    /// summaries one region per worker, then the two all-region fits side by
    /// side.
    pub fn compute(dataset: &Dataset) -> Self {
        Self::pool(dataset.map_regions(region_samples))
    }

    /// Assembles the analysis from every region's samples, in region order:
    /// the pooled samples concatenate the regions in that order, and the two
    /// all-region fits run side by side.
    pub(crate) fn pool(regions: Vec<RegionSamples>) -> Self {
        let mut per_region = Vec::with_capacity(regions.len());
        let mut all_durations: Vec<f64> = Vec::new();
        let mut all_iat: Vec<f64> = Vec::new();
        for region in regions {
            per_region.push(region.summary);
            all_durations.extend(region.durations);
            all_iat.extend(region.inter_arrivals);
        }
        let fits = par::map(2, 0, |i| match i {
            0 => fit_lognormal(&all_durations),
            _ => fit_weibull(&all_iat),
        });
        Self {
            per_region,
            overall_fit: fits[0],
            inter_arrival_fit: fits[1],
        }
    }

    /// Looks up one region's distribution summary.
    pub fn region(&self, region: RegionId) -> Option<&RegionDistribution> {
        self.per_region.iter().find(|r| r.region == region.index())
    }
}

/// One region's Figure 10 summaries and the samples it adds to the pooled
/// fits.
pub(crate) struct RegionSamples {
    summary: RegionDistribution,
    durations: Vec<f64>,
    inter_arrivals: Vec<f64>,
}

/// Figure 10's per-region step.
pub(crate) fn region_samples(trace: &RegionTrace) -> RegionSamples {
    let durations = trace.cold_starts.cold_start_secs();
    let inter_arrivals: Vec<f64> = trace
        .cold_starts
        .inter_arrival_secs()
        .into_iter()
        .filter(|x| *x > 0.0)
        .collect();
    RegionSamples {
        summary: RegionDistribution {
            region: trace.region.index(),
            cold_start_secs: CdfSummary::from_values(&durations),
            inter_arrival_secs: CdfSummary::from_values(&inter_arrivals),
        },
        durations,
        inter_arrivals,
    }
}

fn fit_lognormal(durations: &[f64]) -> FitResult {
    let positive: Vec<f64> = durations.iter().copied().filter(|x| *x > 0.0).collect();
    match LogNormal::fit_mle(&positive) {
        Ok(fit) => FitResult {
            sample_count: positive.len() as u64,
            fitted_mean: fit.mean(),
            fitted_std: fit.std_dev(),
            param_a: fit.mu(),
            param_b: fit.sigma(),
            ks_distance: ks_statistic(&positive, &fit).unwrap_or(1.0),
        },
        Err(_) => FitResult::default(),
    }
}

fn fit_weibull(iat: &[f64]) -> FitResult {
    let positive: Vec<f64> = iat.iter().copied().filter(|x| *x > 0.0).collect();
    match Weibull::fit_mle(&positive) {
        Ok(fit) => FitResult {
            sample_count: positive.len() as u64,
            fitted_mean: fit.mean(),
            fitted_std: fit.std_dev(),
            param_a: fit.shape(),
            param_b: fit.scale(),
            ks_distance: ks_statistic(&positive, &fit).unwrap_or(1.0),
        },
        Err(_) => FitResult::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_workload::profile::{Calibration, RegionProfile};
    use faas_workload::{SyntheticTraceBuilder, TraceScale};

    fn dataset(days: u32) -> Dataset {
        SyntheticTraceBuilder::new()
            .with_regions(vec![RegionProfile::r1(), RegionProfile::r3()])
            .with_scale(TraceScale::tiny())
            .with_calibration(Calibration {
                duration_days: days,
                ..Calibration::default()
            })
            .with_seed(2)
            .build()
    }

    #[test]
    fn fits_are_produced_and_reasonable() {
        let ds = dataset(2);
        let analysis = DistributionAnalysis::compute(&ds);
        assert_eq!(analysis.per_region.len(), 2);
        assert!(analysis.overall_fit.sample_count > 100);
        assert!(analysis.overall_fit.fitted_mean > 0.0);
        assert!(analysis.overall_fit.fitted_std > 0.0);
        assert!(analysis.overall_fit.param_b > 0.0, "sigma positive");
        // A LogNormal is a decent description of our cold-start mixture; the
        // KS distance should be modest (well under a degenerate 0.5).
        assert!(
            analysis.overall_fit.ks_distance < 0.35,
            "ks {}",
            analysis.overall_fit.ks_distance
        );
        assert!(analysis.inter_arrival_fit.sample_count > 100);
        assert!(analysis.inter_arrival_fit.param_a > 0.0, "weibull shape");
        // Bursty cold-start arrivals have a Weibull shape below 1.
        assert!(
            analysis.inter_arrival_fit.param_a < 1.2,
            "shape {}",
            analysis.inter_arrival_fit.param_a
        );
    }

    #[test]
    fn r1_cold_starts_are_slower_than_r3() {
        let ds = dataset(2);
        let analysis = DistributionAnalysis::compute(&ds);
        let r1 = analysis.region(RegionId::new(1)).unwrap();
        let r3 = analysis.region(RegionId::new(3)).unwrap();
        assert!(
            r1.cold_start_secs.p50 > 3.0 * r3.cold_start_secs.p50,
            "r1 {} r3 {}",
            r1.cold_start_secs.p50,
            r3.cold_start_secs.p50
        );
        // Long tails in both regions.
        assert!(r1.cold_start_secs.p99 > 2.0 * r1.cold_start_secs.p50);
        assert!(r1.inter_arrival_secs.count > 0);
    }

    #[test]
    fn empty_dataset_yields_defaults() {
        let analysis = DistributionAnalysis::compute(&Dataset::new());
        assert!(analysis.per_region.is_empty());
        assert_eq!(analysis.overall_fit.sample_count, 0);
        assert_eq!(analysis.inter_arrival_fit.sample_count, 0);
        assert!(analysis.region(RegionId::new(1)).is_none());
    }
}
