//! Invariants every regenerated figure must satisfy, checked on generated
//! datasets across several seeds (property-style, but with explicit seeds so
//! failures are reproducible), plus a byte-exact oracle that pins every field
//! of one five-region characterization.

use coldstarts::analysis::attribution::AttributionAnalysis;
use coldstarts::analysis::components::ComponentAnalysis;
use coldstarts::analysis::composition::CompositionAnalysis;
use coldstarts::analysis::distributions::DistributionAnalysis;
use coldstarts::analysis::holiday::HolidayAnalysis;
use coldstarts::analysis::peaks::PeakAnalysis;
use coldstarts::analysis::regions::RegionStatistics;
use coldstarts::analysis::utility::UtilityAnalysis;
use coldstarts::pipeline::CharacterizationPipeline;
use coldstarts::CharacterizationReport;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::{SyntheticTraceBuilder, TraceScale};
use fntrace::{Dataset, RegionId};

fn report_for_seed(seed: u64) -> CharacterizationReport {
    let calibration = Calibration {
        duration_days: 2,
        ..Calibration::default()
    };
    let dataset = SyntheticTraceBuilder::new()
        .with_regions(vec![RegionProfile::r1(), RegionProfile::r2()])
        .with_scale(TraceScale::tiny())
        .with_calibration(calibration)
        .with_seed(seed)
        .build();
    CharacterizationPipeline::new()
        .with_calibration(calibration)
        .with_region_of_interest(RegionId::new(2))
        .analyze(&dataset)
}

#[test]
fn figure_invariants_hold_across_seeds() {
    for seed in [1u64, 17, 99] {
        let report = report_for_seed(seed);

        // Figure 1: every region has consistent, positive counts.
        for row in &report.regions.sizes {
            assert!(row.requests > 0, "seed {seed}");
            assert!(row.cold_starts <= row.requests);
            assert!(row.pods <= row.requests);
            assert!(row.functions > 0 && row.users > 0);
        }

        // Figures 3/4: quantiles are ordered and fractions are probabilities.
        for p in &report.regions.load_profiles {
            let s = &p.requests_per_function_per_day;
            assert!(s.min <= s.p25 && s.p25 <= s.p50 && s.p50 <= s.p75 && s.p75 <= s.max);
            assert!((0.0..=1.0).contains(&p.high_load_function_fraction));
            assert!((0.0..=1.0).contains(&p.single_function_user_fraction));
        }

        // Figure 5: peak hours lie on the 24-hour clock.
        for r in &report.peaks.region_peaks {
            for &h in &r.daily_peak_hours {
                assert!((0.0..24.0).contains(&h), "seed {seed}");
            }
        }
        // Figure 6: peak-to-trough ratios are at least one.
        for p in &report.peaks.function_peakiness {
            assert!(p.peak_to_trough >= 1.0);
            assert!(p.requests_per_day > 0.0);
        }

        // Figure 7: normalized series are non-negative.
        for r in &report.holiday.regions {
            assert!(r.pods_per_day.iter().all(|v| *v >= 0.0));
            assert!(r.cpu_per_day.iter().all(|v| *v >= 0.0));
        }

        // Figure 8: shares are probabilities summing to one per grouping.
        let composition = report.composition.as_ref().expect("region 2 present");
        for shares in [
            &composition.shares_by_trigger,
            &composition.shares_by_runtime,
            &composition.shares_by_config,
        ] {
            let pods: f64 = shares.iter().map(|s| s.pod_share).sum();
            let cold: f64 = shares.iter().map(|s| s.cold_start_share).sum();
            let functions: f64 = shares.iter().map(|s| s.function_share).sum();
            assert!((pods - 1.0).abs() < 1e-6, "seed {seed}");
            assert!((cold - 1.0).abs() < 1e-6);
            assert!((functions - 1.0).abs() < 1e-6);
            for s in shares {
                assert!((0.0..=1.0).contains(&s.pod_share));
                assert!((0.0..=1.0).contains(&s.cold_start_share));
                assert!((0.0..=1.0).contains(&s.function_share));
            }
        }
        // Figure 9: per-runtime trigger mixes sum to one.
        for mix in &composition.trigger_by_runtime {
            let sum: f64 = mix.trigger_shares.iter().map(|(_, s)| s).sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }

        // Figure 10: fits exist and are positive.
        let fit = &report.distributions.overall_fit;
        assert!(fit.sample_count > 0);
        assert!(fit.fitted_mean > 0.0 && fit.fitted_std > 0.0);
        assert!((0.0..=1.0).contains(&fit.ks_distance));
        let weibull = &report.distributions.inter_arrival_fit;
        assert!(weibull.param_a > 0.0 && weibull.param_b > 0.0);

        // Figures 11-13: component shares sum to one, correlations bounded,
        // quantiles ordered.
        for r in &report.components.regions {
            let shares = r.time_series.mean_component_shares();
            assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for i in 0..r.correlations.size() {
                for j in 0..r.correlations.size() {
                    let e = r.correlations.get(i, j).unwrap();
                    assert!((-1.0..=1.0).contains(&e.coefficient));
                    assert!((0.0..=1.0).contains(&e.p_value));
                }
            }
            for s in &r.by_size {
                assert!(s.total.p25 <= s.total.p50 && s.total.p50 <= s.total.p75);
            }
        }

        // Figures 14-16: cold starts never exceed requests; grouped counts
        // partition the total.
        let attribution = report.attribution.as_ref().expect("region 2 present");
        for p in &attribution.per_function {
            assert!(p.cold_starts <= p.requests);
        }
        let all = attribution
            .by_runtime
            .iter()
            .find(|g| g.label == "all")
            .expect("all group");
        let sum: u64 = attribution
            .by_runtime
            .iter()
            .filter(|g| g.label != "all")
            .map(|g| g.cold_starts)
            .sum();
        assert_eq!(sum, all.cold_starts);

        // Figure 17: utility fractions are probabilities and group pod counts
        // partition the overall count.
        let utility = report.utility.as_ref().expect("region 2 present");
        assert!((0.0..=1.0).contains(&utility.overall.below_one_fraction));
        let by_runtime: u64 = utility.by_runtime.iter().map(|g| g.pods).sum();
        assert_eq!(by_runtime, utility.overall.pods);
    }
}

#[test]
fn characterization_is_deterministic_per_seed() {
    let a = report_for_seed(7);
    let b = report_for_seed(7);
    assert_eq!(a, b);
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Four tiny-scale days whose holiday covers days 1 and 2, so every
/// analysis, the holiday split included, sees data.
const ORACLE_CALIBRATION: Calibration = Calibration {
    duration_days: 4,
    holiday_start_day: 1,
    holiday_end_day: 3,
    keep_alive_secs: 60.0,
};

/// The oracle's dataset: the five paper regions, or the given subset.
fn oracle_dataset(regions: Option<Vec<RegionProfile>>) -> Dataset {
    let builder = SyntheticTraceBuilder::new()
        .with_scale(TraceScale::tiny())
        .with_calibration(ORACLE_CALIBRATION)
        .with_seed(11);
    match regions {
        Some(regions) => builder.with_regions(regions).build(),
        None => builder.build(),
    }
}

fn oracle_report() -> CharacterizationReport {
    let dataset = oracle_dataset(None);
    assert_eq!(dataset.region_count(), 5);
    CharacterizationPipeline::new()
        .with_calibration(ORACLE_CALIBRATION)
        .with_region_of_interest(RegionId::new(2))
        .analyze(&dataset)
}

/// The report as the nine standalone entry points compute it, one after
/// another.
fn assembled_report(
    dataset: &Dataset,
    calibration: &Calibration,
    roi: RegionId,
) -> CharacterizationReport {
    CharacterizationReport {
        dataset_summary: dataset.summary(),
        regions: RegionStatistics::compute(dataset),
        peaks: PeakAnalysis::compute(dataset, roi),
        holiday: HolidayAnalysis::compute(dataset, calibration),
        composition: CompositionAnalysis::compute(dataset, roi, calibration),
        distributions: DistributionAnalysis::compute(dataset),
        components: ComponentAnalysis::compute(dataset, calibration),
        attribution: AttributionAnalysis::compute(dataset, roi),
        utility: UtilityAnalysis::compute(dataset, roi, calibration),
        region_of_interest: roi.index(),
    }
}

/// The shared one-pass report equals, field for field, the analyses run
/// one by one: on all five regions, on a dataset without the region of
/// interest (whose single-region analyses are absent and whose Figure 6
/// falls back to the first region), and on an empty dataset.
#[test]
fn report_equals_the_standalone_analyses() {
    let roi = RegionId::new(2);
    let cases = [
        ("five regions", oracle_dataset(None)),
        (
            "no region of interest",
            oracle_dataset(Some(vec![RegionProfile::r1(), RegionProfile::r3()])),
        ),
        ("empty", Dataset::new()),
    ];
    for (case, dataset) in &cases {
        let report = CharacterizationReport::compute(dataset, &ORACLE_CALIBRATION, roi);
        let parts = assembled_report(dataset, &ORACLE_CALIBRATION, roi);
        assert_eq!(report.dataset_summary, parts.dataset_summary, "{case}");
        assert_eq!(report.regions, parts.regions, "{case}");
        assert_eq!(report.peaks, parts.peaks, "{case}");
        assert_eq!(report.holiday, parts.holiday, "{case}");
        assert_eq!(report.composition, parts.composition, "{case}");
        assert_eq!(report.distributions, parts.distributions, "{case}");
        assert_eq!(report.components, parts.components, "{case}");
        assert_eq!(report.attribution, parts.attribution, "{case}");
        assert_eq!(report.utility, parts.utility, "{case}");
        assert_eq!(report.region_of_interest, parts.region_of_interest);
        assert_eq!(report.regions.sizes.len(), dataset.region_count(), "{case}");
        let has_roi = dataset.region(roi).is_some();
        assert_eq!(report.composition.is_some(), has_roi, "{case}");
        assert_eq!(report.attribution.is_some(), has_roi, "{case}");
        assert_eq!(report.utility.is_some(), has_roi, "{case}");
        assert_eq!(
            report.peaks.function_peakiness.is_empty(),
            dataset.region_count() == 0,
            "{case}: Figure 6 has points whenever a region exists"
        );
    }
}

/// Pins one digest per report field, taken over its `{:?}` rendering: a
/// region's rows swapped with another's, a group moved within its list or
/// any value changed by one bit fails here and names the field.
#[test]
fn characterization_bytes_match_the_pinned_digests() {
    let r = oracle_report();
    let fields: [(&str, String, u64); 10] = [
        (
            "dataset_summary",
            format!("{:?}", r.dataset_summary),
            0xdb49_c708_d7bf_81a2,
        ),
        ("regions", format!("{:?}", r.regions), 0xd8e5_dfc4_465c_1c0c),
        ("peaks", format!("{:?}", r.peaks), 0x53e4_6d17_3ed6_4cff),
        ("holiday", format!("{:?}", r.holiday), 0xc36b_394c_dba9_664d),
        (
            "composition",
            format!("{:?}", r.composition),
            0xae27_9f8e_22da_3165,
        ),
        (
            "distributions",
            format!("{:?}", r.distributions),
            0x6774_15f5_1b46_2f25,
        ),
        (
            "components",
            format!("{:?}", r.components),
            0x1245_d82f_385a_7090,
        ),
        (
            "attribution",
            format!("{:?}", r.attribution),
            0x6be5_5c82_0cfe_080a,
        ),
        ("utility", format!("{:?}", r.utility), 0xe43c_a09c_c50c_4d0f),
        (
            "region_of_interest",
            format!("{:?}", r.region_of_interest),
            0xaf63_af4c_8601_a015,
        ),
    ];
    let drifted: Vec<String> = fields
        .iter()
        .filter_map(|(name, rendered, pinned)| {
            let digest = fnv1a(rendered.as_bytes());
            (digest != *pinned).then(|| format!("{name}: {digest:#018x} (pinned {pinned:#018x})"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "characterization output drifted in: {}",
        drifted.join(", ")
    );
}
