//! The complete characterization report.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use faas_workload::profile::Calibration;
use fntrace::{par, Dataset, DatasetSummary, RegionId, RegionTrace};

use crate::analysis::attribution::AttributionAnalysis;
use crate::analysis::components::{self, ComponentAnalysis, RegionComponents};
use crate::analysis::composition::CompositionAnalysis;
use crate::analysis::distributions::{self, DistributionAnalysis, RegionSamples};
use crate::analysis::holiday::{self, HolidayAnalysis};
use crate::analysis::peaks::{self, FunctionPeakiness, PeakAnalysis, RegionPeaks};
use crate::analysis::pods::PodLifetimes;
use crate::analysis::regions::{self, RegionLoadProfile, RegionSizeRow, RegionStatistics};
use crate::analysis::utility::UtilityAnalysis;

/// Everything the paper's evaluation section reports, computed from one
/// dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationReport {
    /// Table 1-style dataset overview.
    pub dataset_summary: DatasetSummary,
    /// Figures 1, 3, 4.
    pub regions: RegionStatistics,
    /// Figures 5, 6.
    pub peaks: PeakAnalysis,
    /// Figure 7.
    pub holiday: HolidayAnalysis,
    /// Figures 8, 9 (region of interest).
    pub composition: Option<CompositionAnalysis>,
    /// Figure 10.
    pub distributions: DistributionAnalysis,
    /// Figures 11, 12, 13.
    pub components: ComponentAnalysis,
    /// Figures 14, 15, 16 (region of interest).
    pub attribution: Option<AttributionAnalysis>,
    /// Figure 17 (region of interest).
    pub utility: Option<UtilityAnalysis>,
    /// The region the single-region figures were computed on.
    pub region_of_interest: u16,
}

/// One result of the report's flat fan-out.
enum Step {
    Load(RegionLoadProfile),
    Peaks(RegionPeaks),
    Components(Option<RegionComponents>),
    Samples(RegionSamples),
    Composition(CompositionAnalysis),
    Attribution(AttributionAnalysis),
    Utility(UtilityAnalysis),
    Peakiness(Vec<FunctionPeakiness>),
}

/// One item of the report's flat fan-out.
type Item<'a> = Box<dyn Fn() -> Step + Sync + 'a>;

impl CharacterizationReport {
    /// Computes the full report: one pass per region, then one flat fan-out
    /// over the remaining per-region and region-of-interest steps, then the
    /// two pooled fits.
    ///
    /// The per-region pass joins each region's pod lives once, counts its
    /// distinct functions, pods and users once for both Table 1 and
    /// Figure 1, and derives Figure 7 from those lives; only the region of
    /// interest keeps its lives, for Figures 8 and 17. Every step is the one
    /// its analysis's own `compute` runs, so the report equals the analyses
    /// computed one by one.
    pub fn compute(
        dataset: &Dataset,
        calibration: &Calibration,
        region_of_interest: RegionId,
    ) -> Self {
        let mut summaries = Vec::with_capacity(dataset.region_count());
        let mut holiday = Vec::with_capacity(dataset.region_count());
        let mut roi_lives = None;
        for (summary, effect, lives) in dataset.map_regions(|trace| {
            let lives = PodLifetimes::from_trace(trace);
            let effect = holiday::region_effect(trace, &lives, calibration);
            let pods = lives.len() as u64;
            // Other regions' lives go before the distinct counts allocate.
            let lives = (trace.region == region_of_interest).then_some(lives);
            (trace.summary_with_pods(pods), effect, lives)
        }) {
            summaries.push(summary);
            holiday.push(effect);
            roi_lives = roi_lives.or(lives);
        }
        let roi = dataset.region(region_of_interest).zip(roi_lives.as_ref());

        // Largest steps first, so the workers finish close together.
        let traces: Vec<&RegionTrace> = dataset.regions().collect();
        let mut items: Vec<Item<'_>> = Vec::with_capacity(4 * traces.len() + 4);
        if let Some((trace, lives)) = roi {
            items.push(Box::new(move || {
                Step::Attribution(AttributionAnalysis::compute_region(trace))
            }));
            items.push(Box::new(move || {
                Step::Composition(CompositionAnalysis::from_lives(trace, lives, calibration))
            }));
            items.push(Box::new(move || {
                Step::Utility(UtilityAnalysis::from_lives(trace, lives, calibration))
            }));
        }
        if let Some(trace) = peaks::peakiness_region(dataset, region_of_interest) {
            items.push(Box::new(move || {
                Step::Peakiness(peaks::function_peakiness(trace))
            }));
        }
        let per_region: [fn(&RegionTrace, &Calibration) -> Step; 4] = [
            |trace, calibration| {
                Step::Components(components::region_components(trace, calibration))
            },
            |trace, _| Step::Load(regions::load_profile(trace)),
            |trace, _| Step::Peaks(peaks::region_peaks(trace)),
            // Last: the samples stay alive until the pooled fits.
            |trace, _| Step::Samples(distributions::region_samples(trace)),
        ];
        for step in per_region {
            for &trace in &traces {
                items.push(Box::new(move || step(trace, calibration)));
            }
        }

        let mut load_profiles = Vec::with_capacity(traces.len());
        let mut region_peaks = Vec::with_capacity(traces.len());
        let mut component_regions = Vec::with_capacity(traces.len());
        let mut samples = Vec::with_capacity(traces.len());
        let (mut composition, mut attribution, mut utility) = (None, None, None);
        let mut function_peakiness = Vec::new();
        for step in par::map(items.len(), 0, |i| items[i]()) {
            match step {
                Step::Load(profile) => load_profiles.push(profile),
                Step::Peaks(peaks) => region_peaks.push(peaks),
                Step::Components(components) => component_regions.extend(components),
                Step::Samples(region) => samples.push(region),
                Step::Composition(c) => composition = Some(c),
                Step::Attribution(a) => attribution = Some(a),
                Step::Utility(u) => utility = Some(u),
                Step::Peakiness(points) => function_peakiness = points,
            }
        }
        // The region of interest's lives are done with: free them before the
        // pooled fits copy and sort every region's samples.
        drop(items);
        drop(roi_lives);

        Self {
            regions: RegionStatistics {
                sizes: summaries.iter().map(RegionSizeRow::from).collect(),
                load_profiles,
            },
            dataset_summary: DatasetSummary {
                per_region: summaries,
            },
            peaks: PeakAnalysis {
                region_peaks,
                function_peakiness,
            },
            holiday: HolidayAnalysis {
                regions: holiday,
                calibration: *calibration,
            },
            composition,
            distributions: DistributionAnalysis::pool(samples),
            components: ComponentAnalysis {
                regions: component_regions,
            },
            attribution,
            utility,
            region_of_interest: region_of_interest.index(),
        }
    }

    /// Renders a multi-section plain-text report with the headline numbers of
    /// every figure.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== Dataset overview (Table 1 / Figure 1) ==");
        out.push_str(&self.dataset_summary.render());

        let _ = writeln!(out, "\n== Region load (Figures 3, 4) ==");
        for p in &self.regions.load_profiles {
            let _ = writeln!(
                out,
                "R{}: median req/fn/day {:.1}, >=1/min {:.1}%, median exec {:.4}s, median CPU {:.2} cores, single-fn users {:.0}%",
                p.region,
                p.requests_per_function_per_day.p50,
                100.0 * p.high_load_function_fraction,
                p.execution_time_per_minute_s.p50,
                p.cpu_usage_per_minute_cores.p50,
                100.0 * p.single_function_user_fraction,
            );
        }

        let _ = writeln!(out, "\n== Peaks (Figures 5, 6) ==");
        for r in &self.peaks.region_peaks {
            let _ = writeln!(
                out,
                "R{}: typical daily peak at hour {:.1} ({} daily peaks found)",
                r.region,
                r.typical_peak_hour,
                r.daily_peak_bins.len()
            );
        }
        let _ = writeln!(
            out,
            "peak-hour spread across regions: {:.1} h",
            self.peaks.peak_hour_spread()
        );

        let _ = writeln!(out, "\n== Holiday (Figure 7) ==");
        for r in &self.holiday.regions {
            let _ = writeln!(
                out,
                "R{}: holiday/workday pod level ratio {:.2}",
                r.region,
                r.holiday_ratio()
            );
        }

        if let Some(composition) = &self.composition {
            let _ = writeln!(
                out,
                "\n== Composition, Region {} (Figures 8, 9) ==",
                composition.region
            );
            for share in &composition.shares_by_trigger {
                let _ = writeln!(
                    out,
                    "{:<12} pods {:>5.1}%  cold starts {:>5.1}%  functions {:>5.1}%",
                    share.label,
                    100.0 * share.pod_share,
                    100.0 * share.cold_start_share,
                    100.0 * share.function_share
                );
            }
        }

        let _ = writeln!(out, "\n== Cold-start distributions (Figure 10) ==");
        for r in &self.distributions.per_region {
            let _ = writeln!(
                out,
                "R{}: cold start p50 {:.3}s p99 {:.3}s | inter-arrival p50 {:.3}s",
                r.region, r.cold_start_secs.p50, r.cold_start_secs.p99, r.inter_arrival_secs.p50
            );
        }
        let f = &self.distributions.overall_fit;
        let _ = writeln!(
            out,
            "LogNormal fit: mean {:.2} std {:.2} (mu {:.3}, sigma {:.3}), KS {:.3}",
            f.fitted_mean, f.fitted_std, f.param_a, f.param_b, f.ks_distance
        );
        let w = &self.distributions.inter_arrival_fit;
        let _ = writeln!(
            out,
            "Weibull fit: mean {:.2} std {:.2} (shape {:.3}, scale {:.3}), KS {:.3}",
            w.fitted_mean, w.fitted_std, w.param_a, w.param_b, w.ks_distance
        );

        let _ = writeln!(out, "\n== Components (Figures 11-13) ==");
        for r in &self.components.regions {
            let shares = r.time_series.mean_component_shares();
            let _ = writeln!(
                out,
                "R{}: mean cold start {:.2}s; shares alloc {:.0}% code {:.0}% dep {:.0}% sched {:.0}%",
                r.region,
                r.time_series.mean_total_s(),
                100.0 * shares[0],
                100.0 * shares[1],
                100.0 * shares[2],
                100.0 * shares[3]
            );
        }

        if let Some(attribution) = &self.attribution {
            let _ = writeln!(
                out,
                "\n== Attribution, Region {} (Figures 14-16) ==",
                attribution.region
            );
            let _ = writeln!(
                out,
                "functions on the 1:1 request=cold-start diagonal: {:.0}%",
                100.0 * attribution.diagonal_fraction()
            );
            for g in &attribution.by_runtime {
                let _ = writeln!(
                    out,
                    "runtime {:<9} cold starts {:>7}  median {:.3}s  p99 {:.3}s",
                    g.label, g.cold_starts, g.total.p50, g.total.p99
                );
            }
        }

        if let Some(utility) = &self.utility {
            let _ = writeln!(out, "\n== Pod utility ratio (Figure 17) ==");
            let _ = writeln!(
                out,
                "overall: median {:.1}, below 1: {:.0}%, above 100: {:.0}%",
                utility.overall.ratio.p50,
                100.0 * utility.overall.below_one_fraction,
                100.0 * utility.overall.above_hundred_fraction
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_workload::profile::RegionProfile;
    use faas_workload::{SyntheticTraceBuilder, TraceScale};

    #[test]
    fn full_report_computes_and_renders() {
        let calibration = Calibration {
            duration_days: 2,
            ..Calibration::default()
        };
        let ds = SyntheticTraceBuilder::new()
            .with_regions(vec![RegionProfile::r2(), RegionProfile::r3()])
            .with_scale(TraceScale::tiny())
            .with_calibration(calibration)
            .with_seed(4)
            .build();
        let report = CharacterizationReport::compute(&ds, &calibration, RegionId::new(2));
        assert_eq!(report.region_of_interest, 2);
        assert!(report.composition.is_some());
        assert!(report.attribution.is_some());
        assert!(report.utility.is_some());
        assert_eq!(report.regions.sizes.len(), 2);
        let text = report.render();
        for section in [
            "Dataset overview",
            "Region load",
            "Peaks",
            "Holiday",
            "Composition",
            "Cold-start distributions",
            "Components",
            "Attribution",
            "utility ratio",
        ] {
            assert!(text.contains(section), "missing section {section}");
        }
    }

    #[test]
    fn report_on_empty_dataset_is_benign() {
        let calibration = Calibration::default();
        let report =
            CharacterizationReport::compute(&Dataset::new(), &calibration, RegionId::new(1));
        assert!(report.composition.is_none());
        assert!(report.attribution.is_none());
        assert!(report.utility.is_none());
        let text = report.render();
        assert!(text.contains("Dataset overview"));
    }
}
