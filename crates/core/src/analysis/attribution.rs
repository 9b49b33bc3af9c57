//! Cold-start attribution: Figures 14, 15, and 16.
//!
//! * Figure 14 — per-function total requests versus number of cold starts,
//!   coloured by trigger group: infrequently invoked functions sit on the
//!   1:1 diagonal (every request is a cold start), frequent ones fall far
//!   below it thanks to the keep-alive.
//! * Figure 15 — cold-start time and component distributions by runtime.
//! * Figure 16 — the same by trigger group.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use fntrace::{
    ColdStartRecord, Dataset, RegionId, RegionTrace, Runtime, TriggerGroup, TriggerType,
};

use super::CdfSummary;

/// One point of the Figure 14 scatter plot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FunctionColdStartPoint {
    /// The function (raw id).
    pub function: u64,
    /// Total requests over the trace.
    pub requests: u64,
    /// Total cold starts over the trace.
    pub cold_starts: u64,
    /// Trigger group of the function.
    pub trigger: TriggerGroup,
}

impl FunctionColdStartPoint {
    /// Whether effectively every request was a cold start (the paper's 1:1
    /// diagonal, with a small tolerance for the very first warm reuse).
    pub fn on_diagonal(&self) -> bool {
        self.requests > 0 && self.cold_starts * 10 >= self.requests * 9
    }
}

/// Cold-start time and component distributions for one group (one curve per
/// panel of Figures 15 / 16).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupComponentDistributions {
    /// Group label (runtime or trigger group).
    pub label: String,
    /// Number of cold starts in the group.
    pub cold_starts: u64,
    /// Total cold-start time, seconds.
    pub total: CdfSummary,
    /// Pod allocation time, seconds.
    pub pod_alloc: CdfSummary,
    /// Code deployment time, seconds.
    pub deploy_code: CdfSummary,
    /// Dependency deployment time (only cold starts with layers), seconds.
    pub deploy_dep: CdfSummary,
    /// Scheduling time, seconds.
    pub scheduling: CdfSummary,
}

/// Attribution analysis of one region (the paper uses Region 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributionAnalysis {
    /// Region analysed.
    pub region: u16,
    /// Figure 14 scatter points.
    pub per_function: Vec<FunctionColdStartPoint>,
    /// Figure 15: distributions by runtime (plus an `"all"` entry).
    pub by_runtime: Vec<GroupComponentDistributions>,
    /// Figure 16: distributions by trigger group (plus an `"all"` entry).
    pub by_trigger: Vec<GroupComponentDistributions>,
}

impl AttributionAnalysis {
    /// Runs the attribution analysis on one region of the dataset.
    pub fn compute(dataset: &Dataset, region: RegionId) -> Option<Self> {
        dataset.region(region).map(Self::compute_region)
    }

    /// Runs the attribution analysis on a region trace.
    pub fn compute_region(trace: &RegionTrace) -> Self {
        // Figure 14.
        let requests = trace.requests.requests_per_function();
        let cold = trace.cold_starts.cold_starts_per_function();
        let mut per_function: Vec<FunctionColdStartPoint> = requests
            .iter()
            .map(|(f, &r)| FunctionColdStartPoint {
                function: f.raw(),
                requests: r,
                cold_starts: cold.get(f).copied().unwrap_or(0),
                trigger: trace.functions.trigger_of(*f).group(),
            })
            .collect();
        per_function.sort_by_key(|p| p.function);

        // Figures 15 and 16: one group per runtime and per trigger group,
        // plus the `"all"` group both lists share, built once.
        let records = trace.cold_starts.records();
        let mut by_runtime_groups: HashMap<&'static str, Vec<&ColdStartRecord>> = HashMap::new();
        let mut by_trigger_groups: HashMap<&'static str, Vec<&ColdStartRecord>> = HashMap::new();
        for record in records {
            let (runtime, trigger) = match trace.functions.get(record.function) {
                Some(meta) => (meta.runtime, meta.primary_trigger()),
                None => (Runtime::Unknown, TriggerType::Unknown),
            };
            by_runtime_groups
                .entry(runtime.label())
                .or_default()
                .push(record);
            by_trigger_groups
                .entry(trigger.group().label())
                .or_default()
                .push(record);
        }
        let all = (!records.is_empty()).then(|| group_distribution("all", records.iter()));

        AttributionAnalysis {
            region: trace.region.index(),
            per_function,
            by_runtime: group_distributions(by_runtime_groups, all.as_ref()),
            by_trigger: group_distributions(by_trigger_groups, all.as_ref()),
        }
    }

    /// Fraction of functions that are on the 1:1 request/cold-start diagonal.
    pub fn diagonal_fraction(&self) -> f64 {
        if self.per_function.is_empty() {
            return 0.0;
        }
        self.per_function.iter().filter(|p| p.on_diagonal()).count() as f64
            / self.per_function.len() as f64
    }

    /// Looks up one runtime's distributions.
    pub fn runtime(&self, label: &str) -> Option<&GroupComponentDistributions> {
        self.by_runtime.iter().find(|g| g.label == label)
    }

    /// Looks up one trigger group's distributions.
    pub fn trigger(&self, label: &str) -> Option<&GroupComponentDistributions> {
        self.by_trigger.iter().find(|g| g.label == label)
    }
}

/// One distribution entry per group plus `all`, sorted by label.
fn group_distributions(
    groups: HashMap<&'static str, Vec<&ColdStartRecord>>,
    all: Option<&GroupComponentDistributions>,
) -> Vec<GroupComponentDistributions> {
    let mut out: Vec<GroupComponentDistributions> = groups
        .into_iter()
        .map(|(label, records)| group_distribution(label, records.iter().copied()))
        .chain(all.cloned())
        .collect();
    out.sort_by(|a, b| a.label.cmp(&b.label));
    out
}

fn group_distribution<'a>(
    label: &str,
    records: impl ExactSizeIterator<Item = &'a ColdStartRecord> + Clone,
) -> GroupComponentDistributions {
    let column = |f: fn(&ColdStartRecord) -> f64| -> Vec<f64> { records.clone().map(f).collect() };
    let dep: Vec<f64> = records
        .clone()
        .filter(|r| r.deploy_dep_us > 0)
        .map(|r| r.deploy_dep_secs())
        .collect();
    GroupComponentDistributions {
        label: label.to_string(),
        cold_starts: records.len() as u64,
        total: CdfSummary::from_values(&column(ColdStartRecord::cold_start_secs)),
        pod_alloc: CdfSummary::from_values(&column(ColdStartRecord::pod_alloc_secs)),
        deploy_code: CdfSummary::from_values(&column(ColdStartRecord::deploy_code_secs)),
        deploy_dep: CdfSummary::from_values(&dep),
        scheduling: CdfSummary::from_values(&column(ColdStartRecord::scheduling_secs)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_workload::profile::{Calibration, RegionProfile};
    use faas_workload::{SyntheticTraceBuilder, TraceScale};

    fn analysis(days: u32, seed: u64) -> AttributionAnalysis {
        let ds = SyntheticTraceBuilder::new()
            .with_regions(vec![RegionProfile::r2()])
            .with_scale(TraceScale::tiny())
            .with_calibration(Calibration {
                duration_days: days,
                ..Calibration::default()
            })
            .with_seed(seed)
            .build();
        AttributionAnalysis::compute(&ds, RegionId::new(2)).unwrap()
    }

    #[test]
    fn figure14_points_respect_bounds() {
        let a = analysis(2, 1);
        assert!(!a.per_function.is_empty());
        for p in &a.per_function {
            assert!(p.cold_starts <= p.requests, "function {}", p.function);
            assert!(p.requests > 0);
        }
        // Slow timers put a meaningful fraction of functions on the diagonal.
        assert!(
            a.diagonal_fraction() > 0.2,
            "diagonal fraction {}",
            a.diagonal_fraction()
        );
        // And busy functions exist well below the diagonal.
        assert!(a
            .per_function
            .iter()
            .any(|p| p.requests > 100 && p.cold_starts * 5 < p.requests));
    }

    #[test]
    fn custom_and_http_runtimes_are_slowest() {
        let a = analysis(2, 2);
        let all = a.runtime("all").expect("all group present");
        assert!(all.cold_starts > 0);
        for label in ["Custom", "http"] {
            if let Some(group) = a.runtime(label) {
                if group.cold_starts >= 5 {
                    assert!(
                        group.total.p50 > 3.0 * all.total.p50,
                        "{label} median {} vs all {}",
                        group.total.p50,
                        all.total.p50
                    );
                    // Dominated by pod allocation.
                    assert!(group.pod_alloc.p50 > group.scheduling.p50);
                }
            }
        }
    }

    #[test]
    fn obs_triggers_have_long_cold_starts() {
        let a = analysis(2, 3);
        let all = a.trigger("all").unwrap();
        if let Some(obs) = a.trigger("OBS-A") {
            if obs.cold_starts >= 5 {
                assert!(
                    obs.total.p50 > all.total.p50,
                    "OBS median {} vs all {}",
                    obs.total.p50,
                    all.total.p50
                );
            }
        }
        // The TIMER-A group exists and has plenty of cold starts.
        let timer = a.trigger("TIMER-A").expect("timer group");
        assert!(timer.cold_starts > 10);
    }

    #[test]
    fn group_counts_are_consistent() {
        let a = analysis(1, 4);
        let all_runtime = a.runtime("all").unwrap().cold_starts;
        let all_trigger = a.trigger("all").unwrap().cold_starts;
        assert_eq!(all_runtime, all_trigger);
        let sum_runtime: u64 = a
            .by_runtime
            .iter()
            .filter(|g| g.label != "all")
            .map(|g| g.cold_starts)
            .sum();
        assert_eq!(sum_runtime, all_runtime);
    }

    #[test]
    fn missing_region_returns_none() {
        assert!(AttributionAnalysis::compute(&Dataset::new(), RegionId::new(2)).is_none());
    }
}
