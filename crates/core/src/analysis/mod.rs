//! Analysis modules, one per figure family of the paper.

pub mod attribution;
pub mod components;
pub mod composition;
pub mod distributions;
pub mod holiday;
pub mod peaks;
pub mod pods;
pub mod regions;
pub mod utility;

use serde::{Deserialize, Serialize};

use faas_stats::Ecdf;

/// Compact summary of a distribution, used wherever the paper draws a CDF or
/// violin: count, mean, and key quantiles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct CdfSummary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl CdfSummary {
    /// Computes the summary from raw observations; an empty slice yields the
    /// all-zero summary.
    pub fn from_values(values: &[f64]) -> Self {
        match Ecdf::from_slice(values) {
            Ok(e) => Self {
                count: values.len() as u64,
                mean: e.mean(),
                min: e.min(),
                p25: e.quantile(0.25),
                p50: e.quantile(0.5),
                p75: e.quantile(0.75),
                p90: e.quantile(0.9),
                p99: e.quantile(0.99),
                max: e.max(),
            },
            Err(_) => Self::default(),
        }
    }
}

/// A labelled time series (one per group in a stacked / multi-line figure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabelledSeries {
    /// Group label.
    pub label: String,
    /// One value per time bin.
    pub values: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_summary_from_values() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = CdfSummary::from_values(&values);
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p25, 25.0);
        assert_eq!(s.p90, 90.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        let empty = CdfSummary::from_values(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);
    }
}
