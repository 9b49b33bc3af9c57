//! `characterize-week`: the paper's own analysis. A one-week, five-region
//! synthetic dataset with a two-day holiday is built with
//! `SyntheticTraceBuilder` and analysed by `CharacterizationPipeline::analyze`;
//! the traced pass calls the eight analyses one by one and times each.
//!
//! A week rather than the paper's month: at the record count a pass can
//! afford, a month holds a dozen functions per region, and which of them are
//! timers or heavy hitters moves the analysis cost per record by a quarter
//! from seed to seed. A week holds five times as many functions.

use coldstarts::analysis::attribution::AttributionAnalysis;
use coldstarts::analysis::components::ComponentAnalysis;
use coldstarts::analysis::composition::CompositionAnalysis;
use coldstarts::analysis::distributions::DistributionAnalysis;
use coldstarts::analysis::holiday::HolidayAnalysis;
use coldstarts::analysis::peaks::PeakAnalysis;
use coldstarts::analysis::regions::RegionStatistics;
use coldstarts::analysis::utility::UtilityAnalysis;
use coldstarts::{CharacterizationPipeline, CharacterizationReport};
use faas_workload::{Calibration, SyntheticTraceBuilder, TraceScale};
use fntrace::{Dataset, RegionId};

use super::{secs, sized_seed, timed, Ops, Pass, TracedPass, Workload};
use crate::check::Digest;

const SCALE: TraceScale = TraceScale {
    function_scale: 0.001,
    volume_scale: 1.0e-5,
    max_requests_per_day: 8_000.0,
    min_functions: 60,
};
const CALIBRATION: Calibration = Calibration {
    duration_days: 7,
    holiday_start_day: 3,
    holiday_end_day: 5,
    keep_alive_secs: 60.0,
};
const REGION_OF_INTEREST: u16 = 2;
/// Request records and cold starts in the dataset (see [`sized_seed`]): the
/// two tables the analyses' cost follows.
const NOMINAL_SIZE: [u64; 2] = [900_000, 420_000];
/// Output digest at the default seed.
const PINNED: u64 = 0x5d03_44a6_6b06_14a2;

/// The analyses, in the order the report computes them.
const ANALYSES: [&str; 8] = [
    "regions",
    "peaks",
    "holiday",
    "composition",
    "distributions",
    "components",
    "attribution",
    "utility",
];

pub struct Characterize {
    seed: u64,
    size: [u64; 2],
}

impl Characterize {
    pub fn new(seed: u64) -> Result<Self, String> {
        let (seed, size) = sized_seed(seed, NOMINAL_SIZE, |s| {
            let dataset = Self::builder(s).build();
            [dataset.total_requests(), dataset.total_cold_starts()]
        })?;
        Ok(Self { seed, size })
    }

    fn builder(seed: u64) -> SyntheticTraceBuilder {
        SyntheticTraceBuilder::new()
            .with_scale(SCALE)
            .with_calibration(CALIBRATION)
            .with_seed(seed)
    }

    fn build(&self) -> Dataset {
        Self::builder(self.seed).build()
    }

    fn finish(dataset: &Dataset, report: &CharacterizationReport, setup_s: f64) -> Pass {
        let mut ops = Ops::default();
        for (name, result) in ANALYSES.iter().zip(check_analyses(dataset, report)) {
            ops.record(format!("analysis {name}"), result);
        }
        Pass {
            setup_s,
            records: dataset.total_requests(),
            ops,
            digest: digest(report),
            repeat_s: 0.0,
        }
    }
}

impl Workload for Characterize {
    fn provenance(&self) -> Vec<(&'static str, String)> {
        vec![
            ("regions", "5".to_string()),
            ("days", CALIBRATION.duration_days.to_string()),
            ("functions_per_region", SCALE.min_functions.to_string()),
            ("region_of_interest", format!("r{REGION_OF_INTEREST}")),
            ("input_seed", self.seed.to_string()),
            ("records", self.size[0].to_string()),
            ("cold_starts", self.size[1].to_string()),
        ]
    }

    fn operations(&self) -> u64 {
        ANALYSES.len() as u64
    }

    fn pinned_digest(&self) -> u64 {
        PINNED
    }

    fn run(&self) -> Pass {
        let (dataset, setup_s) = timed(|| self.build());
        let report = CharacterizationPipeline::new()
            .with_calibration(CALIBRATION)
            .with_region_of_interest(RegionId::new(REGION_OF_INTEREST))
            .analyze(&dataset);
        Self::finish(&dataset, &report, setup_s)
    }

    fn run_traced(&self, untraced_wall_s: f64) -> TracedPass {
        let started = std::time::Instant::now();
        let (dataset, setup_s) = timed(|| self.build());
        let calibration = CALIBRATION;
        let roi = RegionId::new(REGION_OF_INTEREST);
        let d = &dataset;
        let (dataset_summary, summary_s) = timed(|| d.summary());
        let (regions, regions_s) = timed(|| RegionStatistics::compute(d));
        let (peaks, peaks_s) = timed(|| PeakAnalysis::compute(d, roi));
        let (holiday, holiday_s) = timed(|| HolidayAnalysis::compute(d, &calibration));
        let (composition, composition_s) =
            timed(|| CompositionAnalysis::compute(d, roi, &calibration));
        let (distributions, distributions_s) = timed(|| DistributionAnalysis::compute(d));
        let (components, components_s) = timed(|| ComponentAnalysis::compute(d, &calibration));
        let (attribution, attribution_s) = timed(|| AttributionAnalysis::compute(d, roi));
        let (utility, utility_s) = timed(|| UtilityAnalysis::compute(d, roi, &calibration));
        let report = CharacterizationReport {
            dataset_summary,
            regions,
            peaks,
            holiday,
            composition,
            distributions,
            components,
            attribution,
            utility,
            region_of_interest: roi.index(),
        };
        let wall_s = secs(started);

        let analysis_s = [
            regions_s,
            peaks_s,
            holiday_s,
            composition_s,
            distributions_s,
            components_s,
            attribution_s,
            utility_s,
        ];
        let mut traced = TracedPass {
            pass: Self::finish(&dataset, &report, setup_s),
            ..TracedPass::default()
        };
        for (name, s) in ANALYSES.iter().zip(analysis_s) {
            traced.layers.insert(format!("analysis.{name}.s"), s);
        }
        let direct_s = setup_s + summary_s + analysis_s.iter().sum::<f64>();
        for (name, value) in [
            ("analysis.summary.s", summary_s),
            ("synth.build_s", setup_s),
            ("trace.records", dataset.total_requests() as f64),
            ("tracing.overhead_s", wall_s - untraced_wall_s),
            ("tracing.direct_share", direct_s / wall_s),
        ] {
            traced.layers.insert(name.to_string(), value);
        }
        traced
    }
}

/// One result per analysis, in [`ANALYSES`] order: the structural facts
/// each must satisfy on a non-empty dataset.
fn check_analyses(dataset: &Dataset, r: &CharacterizationReport) -> Vec<Result<(), String>> {
    let regions = dataset.region_count();
    let expect = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
    let unit = |x: f64| (0.0..=1.0 + 1e-9).contains(&x);
    let roi_cold_starts = dataset
        .region(RegionId::new(REGION_OF_INTEREST))
        .map_or(0, |t| t.cold_starts.len() as u64);
    vec![
        expect(
            r.regions.sizes.len() == regions
                && r.regions.sizes.iter().map(|s| s.requests).sum::<u64>()
                    == dataset.total_requests(),
            "region sizes do not add up to the dataset",
        ),
        expect(
            r.peaks.region_peaks.len() == regions
                && r.peaks
                    .region_peaks
                    .iter()
                    .all(|p| (0.0..24.0).contains(&p.typical_peak_hour)),
            "a region has no peak hour in [0, 24)",
        ),
        expect(
            r.holiday.regions.len() == regions
                && r.holiday
                    .regions
                    .iter()
                    .all(|h| h.holiday_pod_level >= 0.0 && h.workday_pod_level > 0.0),
            "holiday levels missing or negative",
        ),
        expect(
            r.composition.as_ref().is_some_and(|c| {
                let total: f64 = c.shares_by_trigger.iter().map(|s| s.pod_share).sum();
                (total - 1.0).abs() < 1e-6
                    && c.shares_by_trigger
                        .iter()
                        .all(|s| unit(s.pod_share) && unit(s.cold_start_share))
            }),
            "trigger shares are not a partition",
        ),
        expect(
            r.distributions.overall_fit.sample_count > 0
                && r.distributions.overall_fit.ks_distance.is_finite()
                && unit(r.distributions.overall_fit.ks_distance),
            "no finite cold-start fit",
        ),
        expect(
            !r.components.regions.is_empty() && r.components.regions.len() <= regions,
            "no component time series",
        ),
        expect(
            r.attribution.as_ref().is_some_and(|a| {
                let (all, groups): (Vec<_>, Vec<_>) =
                    a.by_runtime.iter().partition(|g| g.label == "all");
                all.len() == 1
                    && all[0].cold_starts == roi_cold_starts
                    && groups.iter().map(|g| g.cold_starts).sum::<u64>() == roi_cold_starts
            }),
            "runtime groups do not add up to the region's cold starts",
        ),
        expect(
            r.utility.as_ref().is_some_and(|u| {
                unit(u.overall.below_one_fraction) && unit(u.overall.above_hundred_fraction)
            }),
            "utility fractions outside [0, 1]",
        ),
    ]
}

/// Digest of named analysis fields.
fn digest(r: &CharacterizationReport) -> u64 {
    let mut d = Digest::default();
    d.u64(r.dataset_summary.total_requests())
        .u64(r.dataset_summary.total_cold_starts());
    for s in &r.regions.sizes {
        d.u64(s.functions).u64(s.requests).u64(s.pods).u64(s.users);
    }
    for p in &r.regions.load_profiles {
        d.f64(p.requests_per_function_per_day.p50)
            .f64(p.high_load_function_fraction);
    }
    for p in &r.peaks.region_peaks {
        d.f64(p.typical_peak_hour);
    }
    d.u64(r.peaks.function_peakiness.len() as u64);
    for h in &r.holiday.regions {
        d.f64(h.holiday_pod_level).f64(h.workday_pod_level);
    }
    if let Some(c) = &r.composition {
        for s in &c.shares_by_trigger {
            d.str(&s.label).f64(s.pod_share).f64(s.cold_start_share);
        }
    }
    for fit in [
        &r.distributions.overall_fit,
        &r.distributions.inter_arrival_fit,
    ] {
        d.u64(fit.sample_count)
            .f64(fit.param_a)
            .f64(fit.param_b)
            .f64(fit.ks_distance);
    }
    for c in &r.components.regions {
        d.f64(c.time_series.mean_total_s());
    }
    if let Some(a) = &r.attribution {
        d.f64(a.diagonal_fraction());
        for g in &a.by_runtime {
            d.str(&g.label).u64(g.cold_starts).f64(g.total.p50);
        }
    }
    if let Some(u) = &r.utility {
        d.f64(u.overall.ratio.p50).f64(u.overall.below_one_fraction);
    }
    d.value()
}
