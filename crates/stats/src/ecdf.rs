//! Empirical cumulative distribution functions and quantiles.
//!
//! Every CDF figure in the paper (Figures 3, 4, 10, 15, 16, 17) is an ECDF
//! over some grouping of the trace; this module provides the shared
//! machinery: construction from raw samples, evaluation, quantiles, and
//! export of plot-ready `(x, F(x))` series on linear or logarithmic grids.

use serde::{Deserialize, Serialize};

use crate::StatsError;

/// An empirical cumulative distribution function built from a sample.
///
/// # Examples
///
/// ```
/// use faas_stats::Ecdf;
/// let ecdf = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0]).unwrap();
/// assert_eq!(ecdf.len(), 4);
/// assert!((ecdf.eval(2.0) - 0.75).abs() < 1e-12);
/// assert_eq!(ecdf.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample, taking ownership and sorting it.
    ///
    /// Non-finite values are rejected.
    pub fn new(mut data: Vec<f64>) -> Result<Self, StatsError> {
        if data.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        for (i, &x) in data.iter().enumerate() {
            if !x.is_finite() {
                return Err(StatsError::InvalidObservation { index: i, value: x });
            }
        }
        data.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Ok(Self { sorted: data })
    }

    /// Builds an ECDF from a slice by copying it.
    pub fn from_slice(data: &[f64]) -> Result<Self, StatsError> {
        Self::new(data.to_vec())
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if the ECDF has no observations (never true for a
    /// successfully constructed value).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.len() as f64
    }

    /// Evaluates `F(x) = P(X <= x)`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives the count of elements <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.len() as f64
    }

    /// Empirical quantile using the inverse-CDF (type 1) definition.
    ///
    /// `p` is clamped to `[0, 1]`; `quantile(0.0)` is the minimum and
    /// `quantile(1.0)` the maximum.
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if p <= 0.0 {
            return self.min();
        }
        let n = self.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// Median, i.e. `quantile(0.5)`.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The quartiles `(q25, q50, q75)`, as drawn in the paper's violin plots
    /// (Figure 13).
    pub fn quartiles(&self) -> (f64, f64, f64) {
        (self.quantile(0.25), self.quantile(0.5), self.quantile(0.75))
    }

    /// Plot-ready series of `(x, F(x))` at each distinct observation.
    pub fn steps(&self) -> Vec<(f64, f64)> {
        let n = self.len() as f64;
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.sorted.len() {
            let x = self.sorted[i];
            let mut j = i;
            while j + 1 < self.sorted.len() && self.sorted[j + 1] == x {
                j += 1;
            }
            out.push((x, (j + 1) as f64 / n));
            i = j + 1;
        }
        out
    }

    /// Samples the ECDF on a logarithmically spaced grid of `points` values
    /// between `lo` and `hi`, as used for the paper's log-x CDF figures.
    ///
    /// Returns an empty vector when the bounds are invalid.
    pub fn log_grid(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        if !(lo > 0.0 && hi > lo && points >= 2) {
            return Vec::new();
        }
        let llo = lo.ln();
        let lhi = hi.ln();
        (0..points)
            .map(|i| {
                let x = (llo + (lhi - llo) * i as f64 / (points - 1) as f64).exp();
                (x, self.eval(x))
            })
            .collect()
    }

    /// Samples the ECDF on a linear grid of `points` values between `lo` and
    /// `hi` inclusive.
    pub fn linear_grid(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        if !(hi > lo && points >= 2) {
            return Vec::new();
        }
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }

    /// Fraction of observations strictly below `x`.
    pub fn fraction_below(&self, x: f64) -> f64 {
        let count = self.sorted.partition_point(|&v| v < x);
        count as f64 / self.len() as f64
    }
}

/// Computes a single empirical quantile of a slice without building an
/// [`Ecdf`]; convenient for one-off percentiles.
pub fn quantile_of(data: &[f64], p: f64) -> Result<f64, StatsError> {
    Ecdf::from_slice(data).map(|e| e.quantile(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_nan() {
        assert!(Ecdf::new(vec![]).is_err());
        assert!(Ecdf::new(vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn eval_matches_definition() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 5.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
        assert!((e.eval(1.0) - 0.25).abs() < 1e-12);
        assert!((e.eval(2.0) - 0.75).abs() < 1e-12);
        assert!((e.eval(4.9) - 0.75).abs() < 1e-12);
        assert_eq!(e.eval(5.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn quantiles_are_order_statistics() {
        let e = Ecdf::new((1..=10).map(|i| i as f64).collect()).unwrap();
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(0.1), 1.0);
        assert_eq!(e.quantile(0.5), 5.0);
        assert_eq!(e.quantile(1.0), 10.0);
        assert_eq!(e.median(), 5.0);
        let (q1, q2, q3) = e.quartiles();
        assert_eq!((q1, q2, q3), (3.0, 5.0, 8.0));
    }

    #[test]
    fn steps_deduplicate_and_end_at_one() {
        let e = Ecdf::new(vec![1.0, 1.0, 2.0, 3.0, 3.0, 3.0]).unwrap();
        let steps = e.steps();
        assert_eq!(steps.len(), 3);
        assert!((steps[0].1 - 2.0 / 6.0).abs() < 1e-12);
        assert!((steps.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grids_are_monotone() {
        let e = Ecdf::new((1..200).map(|i| i as f64).collect()).unwrap();
        let grid = e.log_grid(0.1, 1000.0, 50);
        assert_eq!(grid.len(), 50);
        for w in grid.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 > w[0].0);
        }
        let lin = e.linear_grid(0.0, 250.0, 26);
        assert_eq!(lin.len(), 26);
        assert_eq!(lin.last().unwrap().1, 1.0);
        assert!(e.log_grid(-1.0, 5.0, 10).is_empty());
        assert!(e.linear_grid(5.0, 5.0, 10).is_empty());
    }

    #[test]
    fn fraction_below_is_strict() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 3.0]).unwrap();
        assert!((e.fraction_below(2.0) - 0.25).abs() < 1e-12);
        assert!((e.eval(2.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn summary_stats() {
        let e = Ecdf::new(vec![4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 4.0);
        assert!((e.mean() - 2.5).abs() < 1e-12);
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
    }

    #[test]
    fn quantile_of_helper() {
        assert_eq!(quantile_of(&[5.0, 1.0, 3.0], 0.5).unwrap(), 3.0);
        assert!(quantile_of(&[], 0.5).is_err());
    }
}
