//! Pod utility ratio: Figure 17.
//!
//! The paper introduces the *pod utility ratio* — a pod's useful lifetime
//! (total lifetime minus the trailing keep-alive) divided by its cold-start
//! time — to capture that a slow cold start is a better investment when the
//! pod then lives long and serves many requests. Figure 17 shows the ratio's
//! distribution by runtime and by trigger type for Region 2; roughly 20 % of
//! pods have a ratio below one and the median is about 4.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use faas_workload::profile::Calibration;
use fntrace::{Dataset, RegionId, RegionTrace};

use super::pods::PodLifetimes;
use super::CdfSummary;

/// Utility-ratio distribution of one group (runtime or trigger group).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupUtility {
    /// Group label.
    pub label: String,
    /// Number of pods in the group.
    pub pods: u64,
    /// Utility-ratio distribution.
    pub ratio: CdfSummary,
    /// Fraction of pods with a utility ratio below one.
    pub below_one_fraction: f64,
    /// Fraction of pods with a utility ratio above one hundred.
    pub above_hundred_fraction: f64,
}

/// Figure 17 analysis for one region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilityAnalysis {
    /// Region analysed.
    pub region: u16,
    /// Overall utility-ratio distribution (the `"all"` curve).
    pub overall: GroupUtility,
    /// Per-runtime distributions (Figure 17a).
    pub by_runtime: Vec<GroupUtility>,
    /// Per-trigger-group distributions (Figure 17b).
    pub by_trigger: Vec<GroupUtility>,
}

impl UtilityAnalysis {
    /// Runs the analysis on one region of the dataset.
    pub fn compute(dataset: &Dataset, region: RegionId, calibration: &Calibration) -> Option<Self> {
        dataset
            .region(region)
            .map(|t| Self::compute_region(t, calibration))
    }

    /// Runs the analysis on a region trace.
    pub fn compute_region(trace: &RegionTrace, calibration: &Calibration) -> Self {
        Self::from_lives(trace, &PodLifetimes::from_trace(trace), calibration)
    }

    /// Runs the analysis on a region trace whose pod lives are already
    /// joined.
    pub(crate) fn from_lives(
        trace: &RegionTrace,
        lifetimes: &PodLifetimes,
        calibration: &Calibration,
    ) -> Self {
        let keep_alive_ms = (calibration.keep_alive_secs * 1000.0) as u64;

        let mut all: Vec<f64> = Vec::new();
        let mut by_runtime: HashMap<String, Vec<f64>> = HashMap::new();
        let mut by_trigger: HashMap<String, Vec<f64>> = HashMap::new();
        for life in lifetimes.iter() {
            let Some(ratio) = life.utility_ratio(keep_alive_ms) else {
                continue;
            };
            let runtime = trace
                .functions
                .runtime_of(life.function)
                .label()
                .to_string();
            let trigger = trace
                .functions
                .trigger_of(life.function)
                .group()
                .label()
                .to_string();
            all.push(ratio);
            by_runtime.entry(runtime).or_default().push(ratio);
            by_trigger.entry(trigger).or_default().push(ratio);
        }

        UtilityAnalysis {
            region: trace.region.index(),
            overall: group_utility("all".to_string(), &all),
            by_runtime: grouped(by_runtime),
            by_trigger: grouped(by_trigger),
        }
    }

    /// Looks up one runtime group.
    pub fn runtime(&self, label: &str) -> Option<&GroupUtility> {
        self.by_runtime.iter().find(|g| g.label == label)
    }

    /// Looks up one trigger group.
    pub fn trigger(&self, label: &str) -> Option<&GroupUtility> {
        self.by_trigger.iter().find(|g| g.label == label)
    }
}

fn grouped(groups: HashMap<String, Vec<f64>>) -> Vec<GroupUtility> {
    let mut out: Vec<GroupUtility> = groups
        .into_iter()
        .map(|(label, ratios)| group_utility(label, &ratios))
        .collect();
    out.sort_by(|a, b| a.label.cmp(&b.label));
    out
}

fn group_utility(label: String, ratios: &[f64]) -> GroupUtility {
    let below_one = if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().filter(|&&r| r < 1.0).count() as f64 / ratios.len() as f64
    };
    let above_hundred = if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().filter(|&&r| r > 100.0).count() as f64 / ratios.len() as f64
    };
    GroupUtility {
        label,
        pods: ratios.len() as u64,
        ratio: CdfSummary::from_values(ratios),
        below_one_fraction: below_one,
        above_hundred_fraction: above_hundred,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_workload::profile::RegionProfile;
    use faas_workload::{SyntheticTraceBuilder, TraceScale};

    fn analysis(days: u32, seed: u64) -> UtilityAnalysis {
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
        UtilityAnalysis::compute(&ds, RegionId::new(2), &calibration).unwrap()
    }

    #[test]
    fn overall_distribution_is_populated() {
        let a = analysis(2, 11);
        assert!(a.overall.pods > 100);
        assert!(a.overall.ratio.p50 > 0.0);
        // A meaningful fraction of pods has low utility, and some pods are
        // clearly worth their cold start.
        assert!(a.overall.below_one_fraction > 0.01);
        assert!(a.overall.below_one_fraction < 0.9);
        assert!(a.overall.ratio.max > 10.0);
        // Fractions are consistent with the summary quantiles.
        if a.overall.below_one_fraction < 0.5 {
            assert!(a.overall.ratio.p50 >= 1.0);
        }
    }

    #[test]
    fn groups_partition_the_pods() {
        let a = analysis(2, 13);
        let runtime_total: u64 = a.by_runtime.iter().map(|g| g.pods).sum();
        let trigger_total: u64 = a.by_trigger.iter().map(|g| g.pods).sum();
        assert_eq!(runtime_total, a.overall.pods);
        assert_eq!(trigger_total, a.overall.pods);
    }

    #[test]
    fn timers_have_low_utility_ratios() {
        let a = analysis(2, 17);
        let timer = a.trigger("TIMER-A").expect("timer group present");
        assert!(timer.pods > 10);
        // Timer pods serve a single request and then idle out, so their
        // median utility ratio is below the overall median (Figure 17b).
        assert!(
            timer.ratio.p50 <= a.overall.ratio.p50 * 1.5,
            "timer median {} overall {}",
            timer.ratio.p50,
            a.overall.ratio.p50
        );
    }

    #[test]
    fn missing_region_returns_none() {
        assert!(UtilityAnalysis::compute(
            &Dataset::new(),
            RegionId::new(2),
            &Calibration::default()
        )
        .is_none());
    }
}
