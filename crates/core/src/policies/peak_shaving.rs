//! Peak shaving of asynchronous triggers.
//!
//! Asynchronous triggers such as OBS and LTS often run non-latency-critical
//! work (log batch analysis, object post-processing) yet contribute strongly
//! to the daily pod-allocation peak (Figure 8a). The paper suggests delaying
//! such requests slightly during the peak: "given the narrow peak widths,
//! even a short delay could significantly reduce peak pod allocations."
//! [`AsyncPeakShaving`] implements exactly that as an admission policy.

use std::collections::HashMap;

use faas_platform::{AdmissionPolicy, FunctionView};
use fntrace::{TriggerType, MILLIS_PER_HOUR};

/// Delays asynchronous, non-timer, non-workflow requests that arrive inside
/// the region's daily peak window, spreading them over the configured delay.
#[derive(Debug, Clone)]
pub struct AsyncPeakShaving {
    /// Centre of the daily peak, as an hour of day (0–24).
    pub peak_hour: f64,
    /// Half-width of the peak window in hours.
    pub window_hours: f64,
    /// Maximum delay applied to a deferred request, in milliseconds.
    pub max_delay_ms: u64,
    /// Per-function counters used to spread deferred requests
    /// deterministically.
    ///
    /// Keyed by function so each function's delay sequence depends only on
    /// its own arrival history, not on how its arrivals interleave with
    /// other functions'. Committed output bytes depend on this keying.
    spread_counters: HashMap<u64, u64>,
}

impl AsyncPeakShaving {
    /// Creates the policy for a region peaking at `peak_hour`.
    pub fn new(peak_hour: f64, window_hours: f64, max_delay_ms: u64) -> Self {
        Self {
            peak_hour,
            window_hours,
            max_delay_ms,
            spread_counters: HashMap::new(),
        }
    }

    /// Whether a timestamp falls inside the peak window.
    pub fn in_peak_window(&self, now_ms: u64) -> bool {
        let hour_of_day = (now_ms % (24 * MILLIS_PER_HOUR)) as f64 / MILLIS_PER_HOUR as f64;
        let diff = (hour_of_day - self.peak_hour).abs();
        diff.min(24.0 - diff) <= self.window_hours
    }

    fn is_deferrable(trigger: TriggerType) -> bool {
        matches!(
            trigger,
            TriggerType::Obs
                | TriggerType::Lts
                | TriggerType::Cts
                | TriggerType::Dis
                | TriggerType::Smn
                | TriggerType::Kafka
                | TriggerType::ApigAsync
        )
    }
}

impl AdmissionPolicy for AsyncPeakShaving {
    fn delay_ms(&mut self, view: &FunctionView, now_ms: u64) -> u64 {
        if self.max_delay_ms == 0
            || !Self::is_deferrable(view.trigger)
            || !self.in_peak_window(now_ms)
        {
            return 0;
        }
        // Spread each function's deferred requests across the delay budget
        // deterministically, independent of other functions' arrivals.
        let counter = self.spread_counters.entry(view.function.raw()).or_insert(0);
        *counter = counter.wrapping_add(0x9E37_79B9);
        1 + *counter % self.max_delay_ms
    }

    fn name(&self) -> &'static str {
        "async-peak-shaving"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fntrace::{FunctionId, ResourceConfig, Runtime};

    fn view(trigger: TriggerType) -> FunctionView {
        FunctionView {
            function: FunctionId::new(1),
            runtime: Runtime::Python3,
            trigger,
            config: ResourceConfig::SMALL_300_128,
            timer_period_secs: 0.0,
            warm_pods: 0,
            arrivals: 10,
            cold_starts: 5,
            recent_arrivals: 2,
            last_arrival_ms: Some(0),
        }
    }

    #[test]
    fn peak_window_detection_wraps_midnight() {
        let p = AsyncPeakShaving::new(23.0, 2.0, 60_000);
        assert!(p.in_peak_window(23 * MILLIS_PER_HOUR));
        assert!(
            p.in_peak_window(MILLIS_PER_HOUR / 2),
            "00:30 is within 2 h of 23:00"
        );
        assert!(!p.in_peak_window(12 * MILLIS_PER_HOUR));
    }

    #[test]
    fn only_deferrable_triggers_in_peak_are_delayed() {
        let mut p = AsyncPeakShaving::new(14.0, 1.5, 120_000);
        let peak_time = 14 * MILLIS_PER_HOUR;
        let off_peak = 3 * MILLIS_PER_HOUR;
        // OBS in the peak: delayed, bounded by the budget.
        let d = p.delay_ms(&view(TriggerType::Obs), peak_time);
        assert!(d > 0 && d <= 120_000);
        // Different requests get spread to different delays.
        let d2 = p.delay_ms(&view(TriggerType::Obs), peak_time);
        assert_ne!(d, d2);
        // OBS off peak: admitted immediately.
        assert_eq!(p.delay_ms(&view(TriggerType::Obs), off_peak), 0);
        // Synchronous and timer triggers are never delayed.
        assert_eq!(p.delay_ms(&view(TriggerType::ApigSync), peak_time), 0);
        assert_eq!(p.delay_ms(&view(TriggerType::Timer), peak_time), 0);
        assert_eq!(p.delay_ms(&view(TriggerType::WorkflowSync), peak_time), 0);
        assert_eq!(p.name(), "async-peak-shaving");
    }

    #[test]
    fn zero_budget_disables_the_policy() {
        let mut p = AsyncPeakShaving::new(14.0, 1.5, 0);
        assert_eq!(p.delay_ms(&view(TriggerType::Obs), 14 * MILLIS_PER_HOUR), 0);
    }
}
