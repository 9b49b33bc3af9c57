//! Parametric continuous distributions with maximum-likelihood fitting.
//!
//! The paper fits a LogNormal to cold-start durations and a Weibull to
//! cold-start inter-arrival times (Figure 10) and recommends both for
//! simulation use; this module provides those two families plus the
//! Exponential, Pareto, and Uniform distributions used in tests and
//! sensitivity checks. Every distribution exposes its CDF/PDF, moments,
//! inverse-CDF sampling from the workspace RNG, and (where standard
//! estimators exist) an MLE fit.

use crate::rng::Xoshiro256pp;
use crate::special::{gamma, standard_normal_cdf, standard_normal_pdf};
use crate::StatsError;

/// Shared interface of all continuous distributions in this module.
pub trait ContinuousDistribution {
    /// Probability density function at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function at `x`.
    fn cdf(&self, x: f64) -> f64;

    /// Mean of the distribution (may be infinite, e.g. Pareto with shape
    /// at most one).
    fn mean(&self) -> f64;

    /// Standard deviation of the distribution (may be infinite).
    fn std_dev(&self) -> f64;

    /// Draws one value.
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64;

    /// Draws `n` values.
    fn sample_n(&self, rng: &mut Xoshiro256pp, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

fn require_positive(name: &'static str, value: f64) -> Result<(), StatsError> {
    if value > 0.0 && value.is_finite() {
        Ok(())
    } else {
        Err(StatsError::InvalidParameter { name, value })
    }
}

fn require_all_positive(data: &[f64]) -> Result<(), StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    for (index, &value) in data.iter().enumerate() {
        if !(value > 0.0 && value.is_finite()) {
            return Err(StatsError::InvalidObservation { index, value });
        }
    }
    Ok(())
}

/// LogNormal distribution: `ln X ~ Normal(mu, sigma)`.
///
/// The paper's recommended model for cold-start durations.
///
/// # Examples
///
/// ```
/// use faas_stats::dist::{ContinuousDistribution, LogNormal};
/// use faas_stats::rng::Xoshiro256pp;
///
/// let d = LogNormal::from_mean_std(3.24, 7.10).unwrap();
/// assert!((d.mean() - 3.24).abs() < 1e-9);
/// let mut rng = Xoshiro256pp::seed_from_u64(1);
/// assert!(d.sample(&mut rng) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a LogNormal from its log-space location and scale.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, StatsError> {
        if !mu.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mu",
                value: mu,
            });
        }
        require_positive("sigma", sigma)?;
        Ok(Self { mu, sigma })
    }

    /// Creates the LogNormal whose real-space mean and standard deviation
    /// match the given values.
    pub fn from_mean_std(mean: f64, std_dev: f64) -> Result<Self, StatsError> {
        require_positive("mean", mean)?;
        require_positive("std_dev", std_dev)?;
        let cv2 = (std_dev / mean).powi(2);
        let sigma2 = cv2.ln_1p();
        Ok(Self {
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        })
    }

    /// Maximum-likelihood fit: sample mean and standard deviation of `ln x`.
    pub fn fit_mle(data: &[f64]) -> Result<Self, StatsError> {
        require_all_positive(data)?;
        if data.len() < 2 {
            return Err(StatsError::NotEnoughData {
                required: 2,
                provided: data.len(),
            });
        }
        let n = data.len() as f64;
        let mu = data.iter().map(|x| x.ln()).sum::<f64>() / n;
        let var = data.iter().map(|x| (x.ln() - mu).powi(2)).sum::<f64>() / n;
        let sigma = var.sqrt();
        if sigma <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "sigma",
                value: sigma,
            });
        }
        Ok(Self { mu, sigma })
    }

    /// Log-space location parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-space scale parameter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl ContinuousDistribution for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        standard_normal_pdf(z) / (x * self.sigma)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        standard_normal_cdf((x.ln() - self.mu) / self.sigma)
    }

    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    fn std_dev(&self) -> f64 {
        self.mean() * (self.sigma * self.sigma).exp_m1().sqrt()
    }

    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }
}

/// Weibull distribution with shape `k` and scale `lambda`.
///
/// The paper's recommended model for cold-start inter-arrival times; shapes
/// below one capture their burstiness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull from its shape and scale.
    pub fn new(shape: f64, scale: f64) -> Result<Self, StatsError> {
        require_positive("shape", shape)?;
        require_positive("scale", scale)?;
        Ok(Self { shape, scale })
    }

    /// Maximum-likelihood fit via Newton iteration on the profile likelihood
    /// of the shape, then the closed-form scale.
    pub fn fit_mle(data: &[f64]) -> Result<Self, StatsError> {
        require_all_positive(data)?;
        if data.len() < 2 {
            return Err(StatsError::NotEnoughData {
                required: 2,
                provided: data.len(),
            });
        }
        let n = data.len() as f64;
        // Every sum below runs over ln x; take the logs once.
        let logs: Vec<f64> = data.iter().map(|x| x.ln()).collect();
        let mean_ln = logs.iter().sum::<f64>() / n;
        // Method-of-moments style start from the coefficient of variation of
        // ln x keeps the iteration in the basin for both k < 1 and k > 1.
        let var_ln = logs.iter().map(|lx| (lx - mean_ln).powi(2)).sum::<f64>() / n;
        let mut k = if var_ln > 0.0 {
            (1.2 / var_ln.sqrt()).clamp(0.02, 50.0)
        } else {
            return Err(StatsError::InvalidParameter {
                name: "variance",
                value: var_ln,
            });
        };
        const MAX_ITERS: usize = 200;
        let mut converged = false;
        for _ in 0..MAX_ITERS {
            // f(k) = S1/S0 - 1/k - mean_ln, with S0 = sum x^k,
            // S1 = sum x^k ln x, S2 = sum x^k (ln x)^2.
            let (mut s0, mut s1, mut s2) = (0.0f64, 0.0f64, 0.0f64);
            for &lx in &logs {
                let w = (k * lx).exp();
                s0 += w;
                s1 += w * lx;
                s2 += w * lx * lx;
            }
            if !(s0.is_finite() && s1.is_finite() && s2.is_finite()) || s0 <= 0.0 {
                break;
            }
            let f = s1 / s0 - 1.0 / k - mean_ln;
            let fp = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k);
            if fp <= 0.0 {
                break;
            }
            let step = f / fp;
            let next = (k - step).clamp(k / 3.0, k * 3.0);
            let delta = (next - k).abs();
            k = next.max(1e-6);
            if delta < 1e-10 * k.max(1.0) {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(StatsError::NoConvergence {
                routine: "weibull_fit_mle",
                iterations: MAX_ITERS,
            });
        }
        let mean_pow = logs.iter().map(|lx| (k * lx).exp()).sum::<f64>() / n;
        let scale = mean_pow.powf(1.0 / k);
        Self::new(k, scale)
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `lambda`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl ContinuousDistribution for Weibull {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let t = x / self.scale;
        (self.shape / self.scale) * t.powf(self.shape - 1.0) * (-t.powf(self.shape)).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        -(-(x / self.scale).powf(self.shape)).exp_m1()
    }

    fn mean(&self) -> f64 {
        self.scale * gamma(1.0 + 1.0 / self.shape)
    }

    fn std_dev(&self) -> f64 {
        let g1 = gamma(1.0 + 1.0 / self.shape);
        let g2 = gamma(1.0 + 2.0 / self.shape);
        (self.scale * self.scale * (g2 - g1 * g1)).max(0.0).sqrt()
    }

    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        let u = rng.next_open_f64();
        self.scale * (-u.ln()).powf(1.0 / self.shape)
    }
}

/// Exponential distribution with rate `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an Exponential from its rate.
    pub fn new(rate: f64) -> Result<Self, StatsError> {
        require_positive("rate", rate)?;
        Ok(Self { rate })
    }

    /// Maximum-likelihood fit: the reciprocal of the sample mean.
    pub fn fit_mle(data: &[f64]) -> Result<Self, StatsError> {
        require_all_positive(data)?;
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        Self::new(1.0 / mean)
    }

    /// Rate parameter `lambda`.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl ContinuousDistribution for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-self.rate * x).exp_m1()
        }
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn std_dev(&self) -> f64 {
        1.0 / self.rate
    }

    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        rng.exponential(self.rate)
    }
}

/// Pareto (type I) distribution with minimum `scale` and tail index `shape`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Creates a Pareto from its minimum value and tail index.
    pub fn new(scale: f64, shape: f64) -> Result<Self, StatsError> {
        require_positive("scale", scale)?;
        require_positive("shape", shape)?;
        Ok(Self { scale, shape })
    }

    /// Maximum-likelihood fit: minimum observation and the Hill estimator.
    pub fn fit_mle(data: &[f64]) -> Result<Self, StatsError> {
        require_all_positive(data)?;
        if data.len() < 2 {
            return Err(StatsError::NotEnoughData {
                required: 2,
                provided: data.len(),
            });
        }
        let scale = data.iter().copied().fold(f64::INFINITY, f64::min);
        let log_sum: f64 = data.iter().map(|x| (x / scale).ln()).sum();
        if log_sum <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "log_sum",
                value: log_sum,
            });
        }
        Self::new(scale, data.len() as f64 / log_sum)
    }

    /// Minimum value parameter.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Tail index parameter.
    pub fn shape(&self) -> f64 {
        self.shape
    }
}

impl ContinuousDistribution for Pareto {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.scale {
            0.0
        } else {
            self.shape * self.scale.powf(self.shape) / x.powf(self.shape + 1.0)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.scale {
            0.0
        } else {
            1.0 - (self.scale / x).powf(self.shape)
        }
    }

    fn mean(&self) -> f64 {
        if self.shape <= 1.0 {
            f64::INFINITY
        } else {
            self.shape * self.scale / (self.shape - 1.0)
        }
    }

    fn std_dev(&self) -> f64 {
        if self.shape <= 2.0 {
            f64::INFINITY
        } else {
            let a = self.shape;
            (self.scale * self.scale * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))).sqrt()
        }
    }

    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        self.scale * rng.next_open_f64().powf(-1.0 / self.shape)
    }
}

/// Continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a Uniform on `[lo, hi)`; requires `lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Result<Self, StatsError> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(StatsError::InvalidParameter {
                name: "hi - lo",
                value: hi - lo,
            });
        }
        Ok(Self { lo, hi })
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl ContinuousDistribution for Uniform {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x >= self.hi {
            0.0
        } else {
            1.0 / (self.hi - self.lo)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    fn mean(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }

    fn std_dev(&self) -> f64 {
        (self.hi - self.lo) / 12f64.sqrt()
    }

    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        rng.uniform(self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::new(f64::NAN, 1.0).is_err());
        assert!(LogNormal::from_mean_std(-1.0, 1.0).is_err());
        assert!(Weibull::new(1.0, -2.0).is_err());
        assert!(Exponential::new(0.0).is_err());
        assert!(Pareto::new(1.0, f64::INFINITY).is_err());
        assert!(Uniform::new(2.0, 2.0).is_err());
    }

    #[test]
    fn fits_reject_bad_data() {
        assert_eq!(LogNormal::fit_mle(&[]), Err(StatsError::EmptyInput));
        assert!(LogNormal::fit_mle(&[1.0, -2.0]).is_err());
        assert!(LogNormal::fit_mle(&[3.0]).is_err());
        assert!(Weibull::fit_mle(&[1.0, f64::NAN]).is_err());
        assert!(Pareto::fit_mle(&[2.0]).is_err());
    }

    #[test]
    fn lognormal_from_mean_std_matches_moments() {
        let d = LogNormal::from_mean_std(3.24, 7.10).unwrap();
        assert!((d.mean() - 3.24).abs() < 1e-9);
        assert!((d.std_dev() - 7.10).abs() < 1e-9);
        assert!(d.sigma() > 0.0);
    }

    #[test]
    fn lognormal_fit_recovers_parameters() {
        let truth = LogNormal::new(0.7, 0.5).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(71);
        let xs = truth.sample_n(&mut rng, 50_000);
        let fit = LogNormal::fit_mle(&xs).unwrap();
        assert!((fit.mu() - 0.7).abs() < 0.02, "mu {}", fit.mu());
        assert!((fit.sigma() - 0.5).abs() < 0.02, "sigma {}", fit.sigma());
        let (sample_mean, _) = moments(&xs);
        assert!((fit.mean() - sample_mean).abs() / sample_mean < 0.02);
    }

    #[test]
    fn lognormal_cdf_is_monotone_and_bounded() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        assert_eq!(d.cdf(-1.0), 0.0);
        assert!((d.cdf(1.0) - 0.5).abs() < 1e-7);
        let mut last = 0.0;
        for i in 1..200 {
            let c = d.cdf(i as f64 * 0.1);
            assert!(c >= last && c <= 1.0);
            last = c;
        }
        assert!(d.pdf(1.0) > 0.0);
        assert_eq!(d.pdf(-2.0), 0.0);
    }

    #[test]
    fn weibull_fit_recovers_parameters_above_and_below_one() {
        for &(k, lambda) in &[(0.6f64, 2.0f64), (1.7, 0.8)] {
            let truth = Weibull::new(k, lambda).unwrap();
            let mut rng = Xoshiro256pp::seed_from_u64(73);
            let xs = truth.sample_n(&mut rng, 50_000);
            let fit = Weibull::fit_mle(&xs).unwrap();
            assert!((fit.shape() - k).abs() / k < 0.05, "shape {}", fit.shape());
            assert!(
                (fit.scale() - lambda).abs() / lambda < 0.05,
                "scale {}",
                fit.scale()
            );
        }
    }

    #[test]
    fn weibull_moments_match_samples() {
        let d = Weibull::new(1.5, 3.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(79);
        let xs = d.sample_n(&mut rng, 100_000);
        let (mean, std) = moments(&xs);
        assert!((d.mean() - mean).abs() / mean < 0.02, "mean {mean}");
        assert!((d.std_dev() - std).abs() / std < 0.03, "std {std}");
        assert!((d.cdf(d.scale()) - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
    }

    #[test]
    fn exponential_fit_and_moments() {
        let d = Exponential::new(2.5).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(83);
        let xs = d.sample_n(&mut rng, 50_000);
        let fit = Exponential::fit_mle(&xs).unwrap();
        assert!((fit.rate() - 2.5).abs() < 0.05, "rate {}", fit.rate());
        assert!((d.mean() - 0.4).abs() < 1e-12);
        assert!((d.cdf(d.mean()) - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
    }

    #[test]
    fn pareto_fit_and_tail() {
        let d = Pareto::new(1.5, 2.5).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(89);
        let xs = d.sample_n(&mut rng, 50_000);
        assert!(xs.iter().all(|x| *x >= 1.5));
        let fit = Pareto::fit_mle(&xs).unwrap();
        assert!((fit.shape() - 2.5).abs() < 0.1, "shape {}", fit.shape());
        assert!((fit.scale() - 1.5).abs() < 0.01);
        assert!(d.mean().is_finite());
        assert!(Pareto::new(1.0, 0.5).unwrap().mean().is_infinite());
        assert!(Pareto::new(1.0, 1.5).unwrap().std_dev().is_infinite());
    }

    #[test]
    fn uniform_cdf_and_sampling_stay_in_range() {
        let d = Uniform::new(2.0, 6.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(97);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
        }
        assert_eq!(d.cdf(1.0), 0.0);
        assert_eq!(d.cdf(7.0), 1.0);
        assert!((d.cdf(4.0) - 0.5).abs() < 1e-12);
        assert!((d.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sample_n_is_deterministic_per_seed() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        let a = d.sample_n(&mut Xoshiro256pp::seed_from_u64(5), 100);
        let b = d.sample_n(&mut Xoshiro256pp::seed_from_u64(5), 100);
        assert_eq!(a, b);
    }
}
