//! Online, adaptive policies: the autonomic layer that learns each
//! function's behaviour *during* the run instead of being configured ahead
//! of it.
//!
//! Three policies cooperate (and sweep as the `adaptive` family):
//!
//! * [`QuantileKeepAlive`] — histogram-based adaptive keep-alive. Each
//!   function's idle-time distribution is already tracked by the engine in
//!   [`FunctionHistory`]'s inter-arrival ring with its sorted percentile
//!   cache, brought up to date on query; this policy reads a configurable
//!   quantile of it, applies a safety margin, and holds the resulting
//!   keep-alive inside a hysteresis band so the target does not thrash on
//!   every arrival.
//! * [`ForecastPrewarm`] — forecast-driven pre-warming. Every pre-warm tick
//!   delivers each function's bucketed arrival count
//!   ([`FunctionView::recent_arrivals`](faas_platform::FunctionView::recent_arrivals));
//!   a per-function
//!   [`faas_stats::timeseries::Forecaster`] (trend + diurnal seasonality)
//!   fits that rate series online, and pods are created ahead of predicted
//!   bursts inside the configured horizon.
//! * [`HybridAdaptive`] — a per-function switcher. Functions are classified
//!   into a [`TrafficClass`] (timer-heavy / bursty / tail) from observed
//!   inter-arrival statistics, and each class is routed to the sub-policy
//!   that suits it: regular traffic gets a tight quantile keep-alive, bursty
//!   traffic gets a generous quantile plus forecasted pre-warming, and tail
//!   traffic releases pods quickly instead of idling. The keep-alive half is
//!   [`HybridKeepAlive`]; the pre-warm half is [`HybridPrewarm`].
//!
//! # Determinism
//!
//! All three policies keep **per-function state only** — maps keyed by the
//! function id, exactly the `AsyncPeakShaving` pattern — and every decision
//! for a function reads only that function's own view/history. Policy
//! objects are built fresh for every run by the policy factory, and
//! requests are emitted in the table order of the [`PlatformView`], so two
//! runs of one spec are byte-identical (pinned by
//! `tests/adaptive_policies.rs`). The committed sweep bytes depend on both
//! the per-function keying and the emission order.

use std::cell::RefCell;
use std::collections::HashMap;

use faas_platform::keepalive::FunctionHistory;
use faas_platform::{KeepAlivePolicy, PlatformView, PrewarmPolicy, PrewarmRequest};
use faas_stats::timeseries::{ForecastConfig, Forecaster};
use fntrace::{FunctionId, TriggerType};

use super::prewarm::next_firing_ms;

/// Traffic class of one function, learned from its observed arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Metronomic arrivals (timers and timer-like cadences): low
    /// inter-arrival dispersion, or an explicitly configured timer trigger.
    TimerHeavy,
    /// Irregular arrivals with heavy spread between the typical and the
    /// long gaps — retention and pre-warming pay off.
    Bursty,
    /// Sparse, long-gap traffic (or not enough history to say otherwise):
    /// pods idling between arrivals are almost pure waste.
    Tail,
}

impl TrafficClass {
    /// Stable machine-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficClass::TimerHeavy => "timer-heavy",
            TrafficClass::Bursty => "bursty",
            TrafficClass::Tail => "tail",
        }
    }
}

/// Classifier thresholds shared by the hybrid policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classifier {
    /// p90 / median inter-arrival ratio at or above which traffic counts as
    /// bursty.
    pub burst_dispersion: f64,
    /// Median inter-arrival time (ms) at or above which traffic counts as
    /// tail.
    pub tail_median_ms: u64,
}

impl Default for Classifier {
    fn default() -> Self {
        Self {
            burst_dispersion: 3.0,
            tail_median_ms: 600_000,
        }
    }
}

impl Classifier {
    /// Classifies one function from its inter-arrival statistics. Functions
    /// without enough history (under four inter-arrival samples) are treated
    /// as tail: sparse by observation.
    pub fn classify(&self, history: &FunctionHistory) -> TrafficClass {
        let Some(median) = history.iat_median_ms() else {
            return TrafficClass::Tail;
        };
        if median >= self.tail_median_ms {
            return TrafficClass::Tail;
        }
        match history.iat_dispersion() {
            Some(d) if d >= self.burst_dispersion => TrafficClass::Bursty,
            Some(_) => TrafficClass::TimerHeavy,
            // Zero-median bursts have no defined dispersion: same-instant
            // fan-outs are bursty by construction.
            None => TrafficClass::Bursty,
        }
    }
}

/// Histogram-based adaptive keep-alive with a hysteresis band.
///
/// The target keep-alive is `margin ×` the configured quantile of the
/// function's recent inter-arrival distribution, clamped into
/// `[min_ms, max_ms]`. To keep expiry scheduling stable, the previously
/// applied value is retained as long as the new target stays within
/// `hysteresis ×` the applied value; only a move outside the band commits a
/// new keep-alive. Functions without enough history use `default_ms`.
#[derive(Debug)]
pub struct QuantileKeepAlive {
    /// Fallback keep-alive before enough history accumulates, ms.
    pub default_ms: u64,
    /// Lower clamp, ms.
    pub min_ms: u64,
    /// Upper clamp, ms.
    pub max_ms: u64,
    /// Quantile of the inter-arrival distribution to track, in `[0, 1]`.
    pub quantile: f64,
    /// Multiplier applied to the observed quantile.
    pub margin: f64,
    /// Relative width of the hysteresis band (0.2 keeps the applied value
    /// while the target stays within ±20 % of it; 0 disables hysteresis).
    pub hysteresis: f64,
    /// Last applied keep-alive per function. Interior mutability because
    /// [`KeepAlivePolicy::keep_alive_ms`] takes `&self`.
    applied: RefCell<HashMap<u64, u64>>,
}

impl Clone for QuantileKeepAlive {
    fn clone(&self) -> Self {
        Self {
            applied: RefCell::new(self.applied.borrow().clone()),
            ..*self
        }
    }
}

impl Default for QuantileKeepAlive {
    fn default() -> Self {
        Self {
            default_ms: 60_000,
            min_ms: 2_000,
            max_ms: 900_000,
            quantile: 0.9,
            margin: 1.2,
            hysteresis: 0.2,
            applied: RefCell::new(HashMap::new()),
        }
    }
}

impl QuantileKeepAlive {
    /// A quantile keep-alive at the given quantile and hysteresis band, with
    /// default clamps and margin.
    pub fn new(quantile: f64, hysteresis: f64) -> Self {
        Self {
            quantile,
            hysteresis,
            ..Self::default()
        }
    }

    fn target_ms(&self, history: &FunctionHistory) -> Option<u64> {
        let q = history.iat_quantile_ms(self.quantile)?;
        Some((((q as f64) * self.margin) as u64).clamp(self.min_ms, self.max_ms))
    }
}

impl KeepAlivePolicy for QuantileKeepAlive {
    fn keep_alive_ms(&self, function: FunctionId, history: &FunctionHistory) -> u64 {
        let Some(target) = self.target_ms(history) else {
            return self.default_ms;
        };
        let mut applied = self.applied.borrow_mut();
        let slot = applied.entry(function.raw()).or_insert(target);
        let band = ((*slot as f64) * self.hysteresis) as u64;
        if target.abs_diff(*slot) > band {
            *slot = target;
        }
        *slot
    }

    fn name(&self) -> &'static str {
        "quantile-keepalive"
    }
}

/// Forecast-driven pre-warming over the observed arrival process.
///
/// Each pre-warm tick is one bucket: the engine resets
/// `recent_arrivals` per tick, so the sequence of views is exactly the
/// bucketed per-function rate series. A per-function [`Forecaster`] fits
/// level, trend, and (optionally) diurnal seasonality over that series; when
/// the predicted peak rate inside the horizon reaches `threshold` and the
/// function has no warm pod, pods are created ahead of the burst.
#[derive(Debug, Clone)]
pub struct ForecastPrewarm {
    /// How many future ticks the forecast looks across.
    pub horizon_ticks: u64,
    /// Predicted arrivals per tick at which pre-warming fires.
    pub threshold: f64,
    /// Cap on pods created per function per tick.
    pub max_pods_per_function: u32,
    /// Buckets observed before the model is trusted.
    pub warmup_ticks: u64,
    config: ForecastConfig,
    models: HashMap<u64, Forecaster>,
}

impl Default for ForecastPrewarm {
    fn default() -> Self {
        Self::new(2, ForecastConfig::default())
    }
}

impl ForecastPrewarm {
    /// A forecast pre-warmer looking `horizon_ticks` ahead with the given
    /// smoothing configuration.
    pub fn new(horizon_ticks: u64, config: ForecastConfig) -> Self {
        Self {
            horizon_ticks: horizon_ticks.max(1),
            threshold: 0.5,
            max_pods_per_function: 2,
            warmup_ticks: 4,
            config,
            models: HashMap::new(),
        }
    }

    /// Number of functions with a fitted model.
    pub fn tracked_functions(&self) -> usize {
        self.models.len()
    }

    /// Observes one function's bucket and returns the predicted peak rate
    /// inside the horizon (`None` while the model is still warming up).
    fn observe_and_predict(&mut self, function: FunctionId, recent: u64) -> Option<f64> {
        let model = self
            .models
            .entry(function.raw())
            .or_insert_with(|| Forecaster::new(self.config));
        model.observe(recent as f64);
        if model.observations() < self.warmup_ticks {
            return None;
        }
        Some(model.forecast_peak(self.horizon_ticks))
    }
}

impl PrewarmPolicy for ForecastPrewarm {
    fn prewarm(&mut self, view: &PlatformView) -> Vec<PrewarmRequest> {
        let mut out = Vec::new();
        // Table order; every decision reads one function's own series only.
        for f in &view.functions {
            let Some(predicted) = self.observe_and_predict(f.function, f.recent_arrivals) else {
                continue;
            };
            if predicted < self.threshold || f.warm_pods > 0 {
                continue;
            }
            let count = (predicted.ceil() as u32).clamp(1, self.max_pods_per_function.max(1));
            out.push(PrewarmRequest {
                function: f.function,
                count,
            });
        }
        out
    }

    fn name(&self) -> &'static str {
        "forecast-prewarm"
    }
}

/// Configuration shared by the two halves of the hybrid switcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridAdaptive {
    /// Classifier thresholds.
    pub classifier: Classifier,
    /// Quantile + hysteresis settings for the bursty class (the timer-heavy
    /// class reuses the quantile and hysteresis with a tighter margin).
    pub quantile: f64,
    /// Hysteresis band width shared by both retention classes.
    pub hysteresis: f64,
    /// Forecast horizon (pre-warm ticks) for the bursty class.
    pub horizon_ticks: u64,
    /// Pre-warm tick interval, ms; should match the platform's
    /// `prewarm_interval_ms` so `horizon_ticks` converts to wall time.
    pub prewarm_interval_ms: u64,
    /// Keep-alive for tail functions, ms: release quickly.
    pub tail_release_ms: u64,
    /// Fallback keep-alive before classification has history, ms.
    pub default_ms: u64,
}

impl Default for HybridAdaptive {
    fn default() -> Self {
        Self {
            classifier: Classifier::default(),
            quantile: 0.9,
            hysteresis: 0.2,
            horizon_ticks: 2,
            prewarm_interval_ms: 60_000,
            tail_release_ms: 5_000,
            default_ms: 60_000,
        }
    }
}

impl HybridAdaptive {
    /// The keep-alive half of the switcher.
    pub fn keep_alive(&self) -> HybridKeepAlive {
        HybridKeepAlive {
            config: *self,
            regular: QuantileKeepAlive {
                default_ms: self.default_ms,
                quantile: self.quantile,
                // Timer-like cadences are predictable: holding just past the
                // observed quantile is enough.
                margin: 1.1,
                hysteresis: self.hysteresis,
                ..QuantileKeepAlive::default()
            },
            bursty: QuantileKeepAlive {
                default_ms: self.default_ms,
                quantile: self.quantile,
                margin: 1.5,
                hysteresis: self.hysteresis,
                ..QuantileKeepAlive::default()
            },
        }
    }

    /// The pre-warm half of the switcher.
    pub fn prewarm(&self) -> HybridPrewarm {
        HybridPrewarm {
            config: *self,
            forecast: ForecastPrewarm::new(self.horizon_ticks, ForecastConfig::default()),
        }
    }
}

/// Keep-alive half of [`HybridAdaptive`]: classify, then route.
#[derive(Debug, Clone)]
pub struct HybridKeepAlive {
    config: HybridAdaptive,
    regular: QuantileKeepAlive,
    bursty: QuantileKeepAlive,
}

impl KeepAlivePolicy for HybridKeepAlive {
    fn keep_alive_ms(&self, function: FunctionId, history: &FunctionHistory) -> u64 {
        if history.iat_median_ms().is_none() {
            return self.config.default_ms;
        }
        match self.config.classifier.classify(history) {
            TrafficClass::TimerHeavy => self.regular.keep_alive_ms(function, history),
            TrafficClass::Bursty => self.bursty.keep_alive_ms(function, history),
            TrafficClass::Tail => self.config.tail_release_ms,
        }
    }

    fn name(&self) -> &'static str {
        "hybrid-keepalive"
    }
}

/// Pre-warm half of [`HybridAdaptive`].
///
/// Timer-heavy functions (a configured timer trigger with a known period)
/// are pre-warmed just before their next firing; everything else feeds the
/// forecaster, which fires only when it predicts a burst — so tail
/// functions, whose predicted rate stays under the threshold, never hold
/// pre-warmed pods.
#[derive(Debug, Clone)]
pub struct HybridPrewarm {
    config: HybridAdaptive,
    forecast: ForecastPrewarm,
}

impl PrewarmPolicy for HybridPrewarm {
    fn prewarm(&mut self, view: &PlatformView) -> Vec<PrewarmRequest> {
        let mut out = Vec::new();
        let horizon_ms = self
            .config
            .horizon_ticks
            .saturating_mul(self.config.prewarm_interval_ms);
        for f in &view.functions {
            let timer_period_ms = (f.timer_period_secs * 1000.0) as u64;
            if f.trigger == TriggerType::Timer && timer_period_ms > 0 {
                // Known cadence beats any forecast: warm up just before the
                // next firing (conservatively before the first one).
                let due_soon = match f.last_arrival_ms {
                    Some(last) => {
                        next_firing_ms(last, timer_period_ms, view.now_ms)
                            <= view.now_ms + horizon_ms
                    }
                    None => true,
                };
                if due_soon && f.warm_pods == 0 {
                    out.push(PrewarmRequest {
                        function: f.function,
                        count: 1,
                    });
                }
                continue;
            }
            let Some(predicted) = self
                .forecast
                .observe_and_predict(f.function, f.recent_arrivals)
            else {
                continue;
            };
            if predicted >= self.forecast.threshold && f.warm_pods == 0 {
                let count =
                    (predicted.ceil() as u32).clamp(1, self.forecast.max_pods_per_function.max(1));
                out.push(PrewarmRequest {
                    function: f.function,
                    count,
                });
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "hybrid-prewarm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_platform::FunctionView;
    use fntrace::{ResourceConfig, Runtime};

    fn history_with_iats(iats: &[u64]) -> FunctionHistory {
        let mut h = FunctionHistory::default();
        let mut t = 0;
        h.observe_arrival(t);
        for &iat in iats {
            t += iat;
            h.observe_arrival(t);
        }
        h
    }

    fn fview(
        id: u64,
        trigger: TriggerType,
        period: f64,
        warm: u32,
        recent: u64,
        last: Option<u64>,
    ) -> FunctionView {
        FunctionView {
            function: FunctionId::new(id),
            runtime: Runtime::Python3,
            trigger,
            config: ResourceConfig::SMALL_300_128,
            timer_period_secs: period,
            warm_pods: warm,
            arrivals: 10,
            cold_starts: 5,
            recent_arrivals: recent,
            last_arrival_ms: last,
        }
    }

    fn platform(functions: Vec<FunctionView>, now_ms: u64) -> PlatformView {
        PlatformView {
            now_ms,
            total_warm_pods: functions.iter().map(|f| f.warm_pods).sum(),
            pooled_idle_pods: 8,
            functions,
        }
    }

    #[test]
    fn classifier_covers_the_three_classes() {
        let c = Classifier::default();
        // Metronomic 5-minute cadence.
        let timer = history_with_iats(&[300_000; 8]);
        assert_eq!(c.classify(&timer), TrafficClass::TimerHeavy);
        // Tight bursts separated by long gaps.
        let bursty = history_with_iats(&[100, 100, 100, 100, 100, 100, 100, 40_000]);
        assert_eq!(c.classify(&bursty), TrafficClass::Bursty);
        // Sparse: median gap past the tail threshold.
        let tail = history_with_iats(&[3_600_000; 6]);
        assert_eq!(c.classify(&tail), TrafficClass::Tail);
        // No history defaults to tail.
        assert_eq!(c.classify(&FunctionHistory::default()), TrafficClass::Tail);
        // Same-instant fan-outs (zero median) are bursty.
        let zeros = history_with_iats(&[0, 0, 0, 0, 0]);
        assert_eq!(c.classify(&zeros), TrafficClass::Bursty);
        let names: Vec<_> = [
            TrafficClass::TimerHeavy,
            TrafficClass::Bursty,
            TrafficClass::Tail,
        ]
        .iter()
        .map(|t| t.name())
        .collect();
        assert_eq!(names, vec!["timer-heavy", "bursty", "tail"]);
    }

    #[test]
    fn quantile_keepalive_tracks_the_configured_quantile() {
        let p = QuantileKeepAlive::default();
        let f = FunctionId::new(1);
        // Regular 10 s cadence: keep-alive just past it (p90 * 1.2).
        let regular = history_with_iats(&[10_000; 10]);
        assert_eq!(p.keep_alive_ms(f, &regular), 12_000);
        // No history: default.
        assert_eq!(p.keep_alive_ms(f, &FunctionHistory::default()), 60_000);
        // Clamps hold.
        let fast = history_with_iats(&[10; 10]);
        assert_eq!(p.keep_alive_ms(FunctionId::new(2), &fast), p.min_ms);
        let slow = history_with_iats(&[10_000_000; 10]);
        assert_eq!(p.keep_alive_ms(FunctionId::new(3), &slow), p.max_ms);
        assert_eq!(p.name(), "quantile-keepalive");
    }

    #[test]
    fn hysteresis_band_suppresses_small_target_moves() {
        let p = QuantileKeepAlive {
            hysteresis: 0.25,
            ..QuantileKeepAlive::default()
        };
        let f = FunctionId::new(7);
        let base = history_with_iats(&[10_000; 10]);
        let applied = p.keep_alive_ms(f, &base);
        assert_eq!(applied, 12_000);
        // Nudge the distribution: target moves to 12_600 (+5 %), inside the
        // ±25 % band, so the applied value must not change.
        let nudged = history_with_iats(&[10_000, 10_000, 10_000, 10_000, 10_500, 10_500]);
        assert_eq!(p.keep_alive_ms(f, &nudged), applied);
        // A big move (target 36 000, +200 %) escapes the band and commits.
        let shifted = history_with_iats(&[30_000; 10]);
        assert_eq!(p.keep_alive_ms(f, &shifted), 36_000);
        // And the new value is sticky in its own band.
        assert_eq!(p.keep_alive_ms(f, &nudged), 12_600);
        // Another function is tracked independently.
        assert_eq!(p.keep_alive_ms(FunctionId::new(8), &base), 12_000);
    }

    #[test]
    fn forecast_prewarm_fires_ahead_of_predicted_demand() {
        let mut p = ForecastPrewarm::default();
        // Steady 3-arrivals-per-tick traffic, pod currently cold: after the
        // warm-up buckets the model predicts ~3 and pre-warms.
        let mut requests = Vec::new();
        for tick in 0..8u64 {
            let view = platform(
                vec![fview(
                    1,
                    TriggerType::ApigSync,
                    0.0,
                    0,
                    3,
                    Some(tick * 60_000),
                )],
                (tick + 1) * 60_000,
            );
            requests = p.prewarm(&view);
        }
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].function, FunctionId::new(1));
        assert_eq!(requests[0].count, p.max_pods_per_function);
        assert_eq!(p.tracked_functions(), 1);
        // A warm pod suppresses the request; an idle series predicts nothing.
        let warm = platform(
            vec![
                fview(1, TriggerType::ApigSync, 0.0, 1, 3, Some(0)),
                fview(2, TriggerType::ApigSync, 0.0, 0, 0, None),
            ],
            9 * 60_000,
        );
        for _ in 0..6 {
            requests = p.prewarm(&warm);
        }
        assert!(requests.is_empty());
        assert_eq!(p.name(), "forecast-prewarm");
    }

    #[test]
    fn hybrid_keepalive_routes_by_class() {
        let hybrid = HybridAdaptive::default();
        let ka = hybrid.keep_alive();
        let f = FunctionId::new(1);
        // Timer-like: just past the cadence (10 s * 1.1).
        let regular = history_with_iats(&[10_000; 10]);
        assert_eq!(ka.keep_alive_ms(f, &regular), 11_000);
        // Bursty: generous retention (p90 40 s * 1.5).
        let bursty = history_with_iats(&[100, 100, 100, 100, 100, 100, 100, 40_000]);
        assert_eq!(ka.keep_alive_ms(FunctionId::new(2), &bursty), 60_000);
        // Tail: fast release.
        let tail = history_with_iats(&[3_600_000; 6]);
        assert_eq!(
            ka.keep_alive_ms(FunctionId::new(3), &tail),
            hybrid.tail_release_ms
        );
        // No history yet: default.
        assert_eq!(
            ka.keep_alive_ms(FunctionId::new(4), &FunctionHistory::default()),
            hybrid.default_ms
        );
        assert_eq!(ka.name(), "hybrid-keepalive");
    }

    #[test]
    fn hybrid_prewarm_prefers_timer_schedules_and_forecasts_the_rest() {
        let hybrid = HybridAdaptive::default();
        let mut p = hybrid.prewarm();
        // A 5-minute timer that fired at t=0 is due within the horizon at
        // t=250 s; a 1-hour timer is not.
        let view = platform(
            vec![
                fview(1, TriggerType::Timer, 300.0, 0, 0, Some(0)),
                fview(2, TriggerType::Timer, 3_600.0, 0, 0, Some(0)),
            ],
            250_000,
        );
        let requests = p.prewarm(&view);
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].function, FunctionId::new(1));
        // Non-timer traffic goes through the forecaster: steady demand with
        // no warm pod eventually pre-warms.
        let mut requests = Vec::new();
        for tick in 0..8u64 {
            let view = platform(
                vec![fview(
                    3,
                    TriggerType::ApigSync,
                    0.0,
                    0,
                    2,
                    Some(tick * 60_000),
                )],
                (tick + 1) * 60_000,
            );
            requests = p.prewarm(&view);
        }
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].function, FunctionId::new(3));
        assert_eq!(p.name(), "hybrid-prewarm");
    }
}
