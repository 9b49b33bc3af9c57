//! Workload composition: Figures 8 and 9.
//!
//! * Figures 8a–c — running pods per hour grouped by trigger group, runtime,
//!   and resource configuration.
//! * Figures 8d–f — proportions of running pods, cold starts, and functions
//!   accounted for by each trigger group, runtime, and configuration.
//! * Figure 9 — trigger-group mix within each runtime.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use faas_workload::profile::Calibration;
use fntrace::{
    Dataset, RegionId, RegionTrace, Runtime, TimeBinner, TriggerGroup, MILLIS_PER_DAY,
    MILLIS_PER_HOUR,
};

use super::pods::PodLifetimes;
use super::LabelledSeries;

/// Proportions of pods, cold starts, and functions for one group label
/// (one bar triple of Figures 8d–f).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupShare {
    /// Group label (trigger group, runtime, or configuration).
    pub label: String,
    /// Share of mean running pods, in `[0, 1]`.
    pub pod_share: f64,
    /// Share of cold starts, in `[0, 1]`.
    pub cold_start_share: f64,
    /// Share of functions, in `[0, 1]`.
    pub function_share: f64,
}

/// Figure 9: trigger mix of one runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeTriggerMix {
    /// Runtime label.
    pub runtime: String,
    /// Number of functions with this runtime.
    pub functions: u64,
    /// Share of each trigger group among those functions (sums to 1).
    pub trigger_shares: Vec<(String, f64)>,
}

/// Composition analysis of one region (the paper uses Region 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompositionAnalysis {
    /// Region analysed.
    pub region: u16,
    /// Figure 8a: running pods per hour per trigger group.
    pub pods_by_trigger: Vec<LabelledSeries>,
    /// Figure 8b: running pods per hour per runtime.
    pub pods_by_runtime: Vec<LabelledSeries>,
    /// Figure 8c: running pods per hour per resource configuration.
    pub pods_by_config: Vec<LabelledSeries>,
    /// Figure 8d: shares by trigger group.
    pub shares_by_trigger: Vec<GroupShare>,
    /// Figure 8e: shares by runtime.
    pub shares_by_runtime: Vec<GroupShare>,
    /// Figure 8f: shares by configuration.
    pub shares_by_config: Vec<GroupShare>,
    /// Figure 9: trigger mix per runtime.
    pub trigger_by_runtime: Vec<RuntimeTriggerMix>,
}

impl CompositionAnalysis {
    /// Runs the composition analysis on one region of the dataset.
    pub fn compute(dataset: &Dataset, region: RegionId, calibration: &Calibration) -> Option<Self> {
        let trace = dataset.region(region)?;
        Some(Self::compute_region(trace, calibration))
    }

    /// Runs the composition analysis on a region trace.
    pub fn compute_region(trace: &RegionTrace, calibration: &Calibration) -> Self {
        Self::from_lives(trace, &PodLifetimes::from_trace(trace), calibration)
    }

    /// Runs the composition analysis on a region trace whose pod lives are
    /// already joined.
    pub(crate) fn from_lives(
        trace: &RegionTrace,
        lifetimes: &PodLifetimes,
        calibration: &Calibration,
    ) -> Self {
        let keep_alive_ms = (calibration.keep_alive_secs * 1000.0) as u64;
        let duration_ms = u64::from(calibration.duration_days).max(1) * MILLIS_PER_DAY;
        let binner = TimeBinner::new(0, duration_ms, MILLIS_PER_HOUR);

        // Group pod active intervals by each of the three groupings.
        let mut by_trigger: HashMap<String, Vec<(u64, u64)>> = HashMap::new();
        let mut by_runtime: HashMap<String, Vec<(u64, u64)>> = HashMap::new();
        let mut by_config: HashMap<String, Vec<(u64, u64)>> = HashMap::new();
        // Mean running pods per group (for shares).
        for life in lifetimes.iter() {
            let interval = (life.created_ms, life.deleted_ms(keep_alive_ms));
            let trigger = trace.functions.trigger_of(life.function).group();
            let runtime = trace.functions.runtime_of(life.function);
            let config = trace.functions.config_of(life.function);
            by_trigger
                .entry(trigger.label().to_string())
                .or_default()
                .push(interval);
            by_runtime
                .entry(runtime.label().to_string())
                .or_default()
                .push(interval);
            by_config
                .entry(config.figure_label())
                .or_default()
                .push(interval);
        }

        let series_of = |groups: &HashMap<String, Vec<(u64, u64)>>| -> Vec<LabelledSeries> {
            let mut out: Vec<LabelledSeries> = groups
                .iter()
                .map(|(label, intervals)| LabelledSeries {
                    label: label.clone(),
                    values: binner.count_active(intervals.iter().copied()),
                })
                .collect();
            out.sort_by(|a, b| a.label.cmp(&b.label));
            out
        };
        let pods_by_trigger = series_of(&by_trigger);
        let pods_by_runtime = series_of(&by_runtime);
        let pods_by_config = series_of(&by_config);

        // Shares: pods (mean active), cold starts, functions.
        let cold_by_function = trace.cold_starts.cold_starts_per_function();
        let total_cold: f64 = cold_by_function.values().map(|&c| c as f64).sum();
        let total_functions = trace.functions.len() as f64;

        let shares = |label_of: &dyn Fn(fntrace::FunctionId) -> String,
                      pod_series: &[LabelledSeries]|
         -> Vec<GroupShare> {
            // Pod share from the mean of the per-hour series.
            let mean_of = |s: &LabelledSeries| {
                if s.values.is_empty() {
                    0.0
                } else {
                    s.values.iter().sum::<f64>() / s.values.len() as f64
                }
            };
            let total_pod_mean: f64 = pod_series.iter().map(mean_of).sum();
            // Cold-start and function shares by label.
            let mut cold: HashMap<String, f64> = HashMap::new();
            for (f, &c) in &cold_by_function {
                *cold.entry(label_of(*f)).or_insert(0.0) += c as f64;
            }
            let mut funcs: HashMap<String, f64> = HashMap::new();
            for meta in trace.functions.iter() {
                *funcs.entry(label_of(meta.function)).or_insert(0.0) += 1.0;
            }
            let mut labels: Vec<String> = pod_series.iter().map(|s| s.label.clone()).collect();
            for l in cold.keys().chain(funcs.keys()) {
                if !labels.contains(l) {
                    labels.push(l.clone());
                }
            }
            labels.sort();
            labels
                .into_iter()
                .map(|label| GroupShare {
                    pod_share: if total_pod_mean > 0.0 {
                        pod_series
                            .iter()
                            .find(|s| s.label == label)
                            .map(mean_of)
                            .unwrap_or(0.0)
                            / total_pod_mean
                    } else {
                        0.0
                    },
                    cold_start_share: if total_cold > 0.0 {
                        cold.get(&label).copied().unwrap_or(0.0) / total_cold
                    } else {
                        0.0
                    },
                    function_share: if total_functions > 0.0 {
                        funcs.get(&label).copied().unwrap_or(0.0) / total_functions
                    } else {
                        0.0
                    },
                    label,
                })
                .collect()
        };

        let trigger_label = |f| trace.functions.trigger_of(f).group().label().to_string();
        let runtime_label = |f| trace.functions.runtime_of(f).label().to_string();
        let config_label = |f| trace.functions.config_of(f).figure_label();
        let shares_by_trigger = shares(&trigger_label, &pods_by_trigger);
        let shares_by_runtime = shares(&runtime_label, &pods_by_runtime);
        let shares_by_config = shares(&config_label, &pods_by_config);

        // Figure 9: trigger mix per runtime.
        let mut per_runtime: HashMap<Runtime, HashMap<TriggerGroup, u64>> = HashMap::new();
        for meta in trace.functions.iter() {
            *per_runtime
                .entry(meta.runtime)
                .or_default()
                .entry(meta.primary_trigger().group())
                .or_insert(0) += 1;
        }
        let mut trigger_by_runtime: Vec<RuntimeTriggerMix> = per_runtime
            .into_iter()
            .map(|(runtime, counts)| {
                let total: u64 = counts.values().sum();
                let mut trigger_shares: Vec<(String, f64)> = TriggerGroup::ALL
                    .iter()
                    .filter_map(|g| {
                        counts
                            .get(g)
                            .map(|&c| (g.label().to_string(), c as f64 / total.max(1) as f64))
                    })
                    .collect();
                trigger_shares.sort_by(|a, b| a.0.cmp(&b.0));
                RuntimeTriggerMix {
                    runtime: runtime.label().to_string(),
                    functions: total,
                    trigger_shares,
                }
            })
            .collect();
        trigger_by_runtime.sort_by(|a, b| a.runtime.cmp(&b.runtime));

        Self {
            region: trace.region.index(),
            pods_by_trigger,
            pods_by_runtime,
            pods_by_config,
            shares_by_trigger,
            shares_by_runtime,
            shares_by_config,
            trigger_by_runtime,
        }
    }

    /// Looks up the share entry for a trigger-group label.
    pub fn trigger_share(&self, label: &str) -> Option<&GroupShare> {
        self.shares_by_trigger.iter().find(|s| s.label == label)
    }

    /// Looks up the share entry for a runtime label.
    pub fn runtime_share(&self, label: &str) -> Option<&GroupShare> {
        self.shares_by_runtime.iter().find(|s| s.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_workload::profile::RegionProfile;
    use faas_workload::{SyntheticTraceBuilder, TraceScale};

    fn analysis(days: u32, seed: u64) -> CompositionAnalysis {
        let calibration = Calibration {
            duration_days: days,
            ..Calibration::default()
        };
        let ds = SyntheticTraceBuilder::new()
            .with_regions(vec![RegionProfile::r2()])
            .with_scale(TraceScale::tiny())
            .with_calibration(calibration)
            .with_seed(seed)
            .build();
        CompositionAnalysis::compute(&ds, RegionId::new(2), &calibration).unwrap()
    }

    fn share_sum(shares: &[GroupShare], f: impl Fn(&GroupShare) -> f64) -> f64 {
        shares.iter().map(f).sum()
    }

    #[test]
    fn shares_sum_to_one() {
        let a = analysis(2, 31);
        for shares in [
            &a.shares_by_trigger,
            &a.shares_by_runtime,
            &a.shares_by_config,
        ] {
            assert!((share_sum(shares, |s| s.pod_share) - 1.0).abs() < 1e-6);
            assert!((share_sum(shares, |s| s.cold_start_share) - 1.0).abs() < 1e-6);
            assert!((share_sum(shares, |s| s.function_share) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn timers_dominate_functions_but_not_pods() {
        let a = analysis(2, 33);
        let timer = a.trigger_share("TIMER-A").expect("timer share present");
        assert!(
            timer.function_share > 0.25,
            "timer function share {}",
            timer.function_share
        );
        // Figure 8d: timers account for a far smaller share of running pods
        // than of functions.
        assert!(
            timer.pod_share < timer.function_share,
            "pods {} functions {}",
            timer.pod_share,
            timer.function_share
        );
    }

    #[test]
    fn python3_accounts_for_large_share_of_cold_starts() {
        let a = analysis(2, 35);
        let py = a.runtime_share("Python3").expect("python3 present");
        assert!(
            py.cold_start_share > 0.25,
            "python3 cold-start share {}",
            py.cold_start_share
        );
    }

    #[test]
    fn small_configs_dominate_cold_starts() {
        let a = analysis(2, 37);
        let small: f64 = a
            .shares_by_config
            .iter()
            .filter(|s| s.label.starts_with("300CPU") || s.label.starts_with("400CPU"))
            .map(|s| s.cold_start_share)
            .sum();
        assert!(small > 0.5, "small-config cold-start share {small}");
    }

    #[test]
    fn pod_time_series_have_expected_length() {
        let a = analysis(2, 39);
        let expected_bins = 2 * 24;
        for series in a
            .pods_by_trigger
            .iter()
            .chain(&a.pods_by_runtime)
            .chain(&a.pods_by_config)
        {
            assert_eq!(
                series.values.len(),
                expected_bins,
                "series {}",
                series.label
            );
            assert!(series.values.iter().all(|v| *v >= 0.0));
        }
    }

    #[test]
    fn trigger_mix_per_runtime_matches_calibration() {
        let a = analysis(2, 41);
        let python = a
            .trigger_by_runtime
            .iter()
            .find(|m| m.runtime == "Python3")
            .expect("python3 runtime present");
        assert!(python.functions > 0);
        let timer_share = python
            .trigger_shares
            .iter()
            .find(|(l, _)| l == "TIMER-A")
            .map(|(_, s)| *s)
            .unwrap_or(0.0);
        assert!(timer_share > 0.3, "python timer share {timer_share}");
        // Shares sum to one per runtime.
        for mix in &a.trigger_by_runtime {
            let sum: f64 = mix.trigger_shares.iter().map(|(_, s)| s).sum();
            assert!((sum - 1.0).abs() < 1e-9, "runtime {}", mix.runtime);
        }
    }

    #[test]
    fn missing_region_returns_none() {
        let ds = Dataset::new();
        assert!(
            CompositionAnalysis::compute(&ds, RegionId::new(2), &Calibration::default()).is_none()
        );
    }
}
