//! One generator per paper table / figure.

use std::path::Path;
use std::sync::Arc;

use coldstarts::pipeline::CharacterizationPipeline;
use coldstarts::policies::cross_region::CrossRegionScheduler;
use coldstarts::policies::pool_prediction::PoolDemandPredictor;
use coldstarts::session::{seeds, ExperimentSession, FixedWorkloadSource};
use coldstarts::{CharacterizationReport, Scenario, ScenarioOutcome};
use faas_workload::population::PopulationConfig;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::{SyntheticTraceBuilder, TraceScale, WorkloadSpec};
use fntrace::{Dataset, RegionId};

use crate::output::OutputSink;

/// All experiments (tables, figures, and the policy ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table 1: dataset field summary.
    Table1,
    /// Figure 1: requests, functions, pods per region.
    Fig01,
    /// Figure 3: per-function load, execution time, CPU usage CDFs.
    Fig03,
    /// Figure 4: functions per user and requests per user.
    Fig04,
    /// Figure 5: daily peaks per region.
    Fig05,
    /// Figure 6: peak-to-trough ratios vs load and cold starts.
    Fig06,
    /// Figure 7: holiday effect on pods and CPU.
    Fig07,
    /// Figure 8: pods / cold starts / functions by trigger, runtime, config.
    Fig08,
    /// Figure 9: trigger mix per runtime.
    Fig09,
    /// Figure 10: cold-start duration and inter-arrival distributions + fits.
    Fig10,
    /// Figure 11: component time series per region.
    Fig11,
    /// Figure 12: component Spearman correlations per region.
    Fig12,
    /// Figure 13: components by pool size.
    Fig13,
    /// Figure 14: requests vs cold starts per function.
    Fig14,
    /// Figure 15: cold starts by runtime.
    Fig15,
    /// Figure 16: cold starts by trigger type.
    Fig16,
    /// Figure 17: pod utility ratio.
    Fig17,
    /// Section 5 policy ablation (simulator-based).
    PolicyAblation,
}

impl Experiment {
    /// Command-line name of the experiment.
    pub fn name(&self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Fig01 => "fig01",
            Experiment::Fig03 => "fig03",
            Experiment::Fig04 => "fig04",
            Experiment::Fig05 => "fig05",
            Experiment::Fig06 => "fig06",
            Experiment::Fig07 => "fig07",
            Experiment::Fig08 => "fig08",
            Experiment::Fig09 => "fig09",
            Experiment::Fig10 => "fig10",
            Experiment::Fig11 => "fig11",
            Experiment::Fig12 => "fig12",
            Experiment::Fig13 => "fig13",
            Experiment::Fig14 => "fig14",
            Experiment::Fig15 => "fig15",
            Experiment::Fig16 => "fig16",
            Experiment::Fig17 => "fig17",
            Experiment::PolicyAblation => "policy-ablation",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Experiment> {
        all_experiments().into_iter().find(|e| e.name() == name)
    }
}

/// All experiments in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment::Table1,
        Experiment::Fig01,
        Experiment::Fig03,
        Experiment::Fig04,
        Experiment::Fig05,
        Experiment::Fig06,
        Experiment::Fig07,
        Experiment::Fig08,
        Experiment::Fig09,
        Experiment::Fig10,
        Experiment::Fig11,
        Experiment::Fig12,
        Experiment::Fig13,
        Experiment::Fig14,
        Experiment::Fig15,
        Experiment::Fig16,
        Experiment::Fig17,
        Experiment::PolicyAblation,
    ]
}

/// Shared context: one generated dataset and its characterization report,
/// reused by every experiment so the whole suite stays consistent.
pub struct ExperimentContext {
    /// The synthetic multi-region dataset.
    pub dataset: Dataset,
    /// Full characterization report (Region 2 as region of interest).
    pub report: CharacterizationReport,
    /// Calibration used for generation and analysis.
    pub calibration: Calibration,
    /// Scale used for generation.
    pub scale: TraceScale,
    /// Seed used for generation.
    pub seed: u64,
}

impl ExperimentContext {
    /// Generates the context at the given scale and seed over the full
    /// 31-day calibration.
    pub fn generate(scale: TraceScale, seed: u64) -> Self {
        Self::generate_with_calibration(scale, seed, Calibration::default())
    }

    /// Generates the context with a custom calibration (shorter traces are
    /// used by the test suite and the Criterion benches).
    pub fn generate_with_calibration(
        scale: TraceScale,
        seed: u64,
        calibration: Calibration,
    ) -> Self {
        let dataset = SyntheticTraceBuilder::new()
            .with_scale(scale)
            .with_calibration(calibration)
            .with_seed(seed)
            .build();
        let report = CharacterizationPipeline::new()
            .with_calibration(calibration)
            .with_region_of_interest(RegionId::new(2))
            .analyze(&dataset);
        Self {
            dataset,
            report,
            calibration,
            scale,
            seed,
        }
    }

    /// Builds the Region-2 workload spec used by the policy ablation, at a
    /// smaller volume so the eight simulated scenarios stay fast.
    pub fn ablation_workload(&self) -> WorkloadSpec {
        WorkloadSpec::generate(
            &RegionProfile::r2(),
            self.calibration,
            &PopulationConfig {
                function_scale: self.scale.function_scale.min(0.01),
                volume_scale: self.scale.volume_scale.min(1.0e-5),
                max_requests_per_day: self.scale.max_requests_per_day.min(5_000.0),
                min_functions: 30,
            },
            self.seed,
        )
    }
}

/// Runs one experiment, printing to the sink and writing its CSV artifacts.
pub fn run_experiment(experiment: Experiment, ctx: &ExperimentContext, sink: &mut OutputSink) {
    sink.line(format!("=== {} ===", experiment.name()));
    match experiment {
        Experiment::Table1 => table1(ctx, sink),
        Experiment::Fig01 => fig01(ctx, sink),
        Experiment::Fig03 => fig03(ctx, sink),
        Experiment::Fig04 => fig04(ctx, sink),
        Experiment::Fig05 => fig05(ctx, sink),
        Experiment::Fig06 => fig06(ctx, sink),
        Experiment::Fig07 => fig07(ctx, sink),
        Experiment::Fig08 => fig08(ctx, sink),
        Experiment::Fig09 => fig09(ctx, sink),
        Experiment::Fig10 => fig10(ctx, sink),
        Experiment::Fig11 => fig11(ctx, sink),
        Experiment::Fig12 => fig12(ctx, sink),
        Experiment::Fig13 => fig13(ctx, sink),
        Experiment::Fig14 => fig14(ctx, sink),
        Experiment::Fig15 => fig15(ctx, sink),
        Experiment::Fig16 => fig16(ctx, sink),
        Experiment::Fig17 => fig17(ctx, sink),
        Experiment::PolicyAblation => policy_ablation(ctx, sink),
    }
    sink.blank();
}

/// Runs every experiment against a freshly generated context.
pub fn run_all(scale: TraceScale, seed: u64, results_dir: Option<&Path>) -> OutputSink {
    let ctx = ExperimentContext::generate(scale, seed);
    let mut sink = OutputSink::new(results_dir);
    for experiment in all_experiments() {
        run_experiment(experiment, &ctx, &mut sink);
    }
    sink
}

fn table1(ctx: &ExperimentContext, sink: &mut OutputSink) {
    sink.line("Dataset tables and sizes (request / pod / function level):");
    sink.line(ctx.report.dataset_summary.render());
    let rows: Vec<String> = ctx
        .report
        .dataset_summary
        .per_region
        .iter()
        .map(|r| {
            format!(
                "{},{},{},{},{},{},{:.2}",
                r.region.index(),
                r.requests,
                r.cold_starts,
                r.functions,
                r.pods,
                r.users,
                r.duration_days
            )
        })
        .collect();
    sink.csv(
        "table1_dataset_summary.csv",
        "region,requests,cold_starts,functions,pods,users,duration_days",
        &rows,
    );
}

fn fig01(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let rows: Vec<String> = ctx
        .report
        .regions
        .sizes
        .iter()
        .map(|r| {
            sink.line(format!(
                "R{}: functions {:>6}, requests {:>10}, pods {:>8}",
                r.region, r.functions, r.requests, r.pods
            ));
            format!(
                "{},{},{},{},{}",
                r.region, r.functions, r.requests, r.pods, r.cold_starts
            )
        })
        .collect();
    sink.csv(
        "fig01_region_sizes.csv",
        "region,functions,requests,pods,cold_starts",
        &rows,
    );
}

fn fig03(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let mut rows = Vec::new();
    for p in &ctx.report.regions.load_profiles {
        sink.line(format!(
            "R{}: req/fn/day p50 {:.1} p99 {:.1}; exec p50 {:.4}s; cpu p50 {:.3} cores; >=1/min {:.1}%",
            p.region,
            p.requests_per_function_per_day.p50,
            p.requests_per_function_per_day.p99,
            p.execution_time_per_minute_s.p50,
            p.cpu_usage_per_minute_cores.p50,
            100.0 * p.high_load_function_fraction
        ));
        rows.push(format!(
            "{},{:.3},{:.3},{:.3},{:.5},{:.5},{:.4},{:.4},{:.4}",
            p.region,
            p.requests_per_function_per_day.p50,
            p.requests_per_function_per_day.p90,
            p.requests_per_function_per_day.max,
            p.execution_time_per_minute_s.p50,
            p.execution_time_per_minute_s.p90,
            p.cpu_usage_per_minute_cores.p50,
            p.cpu_usage_per_minute_cores.p90,
            p.high_load_function_fraction
        ));
    }
    sink.csv(
        "fig03_region_load.csv",
        "region,rpd_p50,rpd_p90,rpd_max,exec_p50_s,exec_p90_s,cpu_p50_cores,cpu_p90_cores,high_load_fraction",
        &rows,
    );
}

fn fig04(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let mut rows = Vec::new();
    for p in &ctx.report.regions.load_profiles {
        sink.line(format!(
            "R{}: functions/user p50 {:.0} max {:.0} (single-fn users {:.0}%); requests/user p50 {:.0} p99 {:.0}",
            p.region,
            p.functions_per_user.p50,
            p.functions_per_user.max,
            100.0 * p.single_function_user_fraction,
            p.requests_per_user.p50,
            p.requests_per_user.p99
        ));
        rows.push(format!(
            "{},{:.1},{:.1},{:.3},{:.1},{:.1}",
            p.region,
            p.functions_per_user.p50,
            p.functions_per_user.max,
            p.single_function_user_fraction,
            p.requests_per_user.p50,
            p.requests_per_user.p99
        ));
    }
    sink.csv(
        "fig04_users.csv",
        "region,functions_per_user_p50,functions_per_user_max,single_function_user_fraction,requests_per_user_p50,requests_per_user_p99",
        &rows,
    );
}

fn fig05(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let mut rows = Vec::new();
    for r in &ctx.report.peaks.region_peaks {
        sink.line(format!(
            "R{}: typical daily peak at hour {:.1}; {} daily peaks",
            r.region,
            r.typical_peak_hour,
            r.daily_peak_bins.len()
        ));
        for (day, hour) in r.daily_peak_hours.iter().enumerate() {
            rows.push(format!("{},{},{:.2}", r.region, day, hour));
        }
    }
    sink.line(format!(
        "peak-hour spread across regions: {:.1} h",
        ctx.report.peaks.peak_hour_spread()
    ));
    sink.csv("fig05_daily_peaks.csv", "region,day,peak_hour", &rows);
    // Normalized minute series per region (one file per region would be
    // large; store hourly down-samples).
    let mut series_rows = Vec::new();
    for r in &ctx.report.peaks.region_peaks {
        for (i, chunk) in r.normalized_requests_per_minute.chunks(60).enumerate() {
            let mean = chunk.iter().sum::<f64>() / chunk.len().max(1) as f64;
            series_rows.push(format!("{},{},{:.5}", r.region, i, mean));
        }
    }
    sink.csv(
        "fig05_normalized_requests_hourly.csv",
        "region,hour,normalized_requests",
        &series_rows,
    );
}

fn fig06(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let points = &ctx.report.peaks.function_peakiness;
    let high_ptt = points.iter().filter(|p| p.peak_to_trough > 10.0).count();
    sink.line(format!(
        "functions {}, with peak-to-trough > 10: {}",
        points.len(),
        high_ptt
    ));
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{},{:.2},{:.3},{}",
                p.function, p.requests_per_day, p.peak_to_trough, p.cold_starts
            )
        })
        .collect();
    sink.csv(
        "fig06_peak_trough.csv",
        "function,requests_per_day,peak_to_trough,cold_starts",
        &rows,
    );
}

fn fig07(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let mut rows = Vec::new();
    for r in &ctx.report.holiday.regions {
        sink.line(format!(
            "R{}: holiday/workday pod level ratio {:.2}",
            r.region,
            r.holiday_ratio()
        ));
        for (day, (&pods, &cpu)) in r.pods_per_day.iter().zip(&r.cpu_per_day).enumerate() {
            rows.push(format!("{},{},{:.4},{:.4}", r.region, day, pods, cpu));
        }
    }
    sink.csv(
        "fig07_holiday.csv",
        "region,day,normalized_pods,normalized_cpu",
        &rows,
    );
}

fn fig08(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let Some(c) = &ctx.report.composition else {
        sink.line("region of interest missing; no composition data");
        return;
    };
    let mut rows = Vec::new();
    for (kind, shares) in [
        ("trigger", &c.shares_by_trigger),
        ("runtime", &c.shares_by_runtime),
        ("config", &c.shares_by_config),
    ] {
        for s in shares {
            sink.line(format!(
                "{kind:<8} {:<16} pods {:>5.1}%  cold starts {:>5.1}%  functions {:>5.1}%",
                s.label,
                100.0 * s.pod_share,
                100.0 * s.cold_start_share,
                100.0 * s.function_share
            ));
            rows.push(format!(
                "{kind},{},{:.4},{:.4},{:.4}",
                s.label, s.pod_share, s.cold_start_share, s.function_share
            ));
        }
    }
    sink.csv(
        "fig08_proportions.csv",
        "grouping,label,pod_share,cold_start_share,function_share",
        &rows,
    );
    // Hourly pod series per trigger group (Figure 8a).
    let mut series_rows = Vec::new();
    for series in &c.pods_by_trigger {
        for (hour, v) in series.values.iter().enumerate() {
            series_rows.push(format!("{},{},{:.2}", series.label, hour, v));
        }
    }
    sink.csv(
        "fig08_pods_by_trigger_hourly.csv",
        "trigger,hour,running_pods",
        &series_rows,
    );
}

fn fig09(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let Some(c) = &ctx.report.composition else {
        return;
    };
    let mut rows = Vec::new();
    for mix in &c.trigger_by_runtime {
        let summary: Vec<String> = mix
            .trigger_shares
            .iter()
            .map(|(l, s)| format!("{l} {:.0}%", 100.0 * s))
            .collect();
        sink.line(format!(
            "{:<9} ({} fns): {}",
            mix.runtime,
            mix.functions,
            summary.join(", ")
        ));
        for (label, share) in &mix.trigger_shares {
            rows.push(format!("{},{},{:.4}", mix.runtime, label, share));
        }
    }
    sink.csv(
        "fig09_trigger_by_runtime.csv",
        "runtime,trigger_group,share_of_functions",
        &rows,
    );
}

fn fig10(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let d = &ctx.report.distributions;
    let mut rows = Vec::new();
    for r in &d.per_region {
        sink.line(format!(
            "R{}: cold start p50 {:.3}s p99 {:.3}s; inter-arrival p50 {:.3}s p99 {:.3}s",
            r.region,
            r.cold_start_secs.p50,
            r.cold_start_secs.p99,
            r.inter_arrival_secs.p50,
            r.inter_arrival_secs.p99
        ));
        rows.push(format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            r.region,
            r.cold_start_secs.p25,
            r.cold_start_secs.p50,
            r.cold_start_secs.p99,
            r.inter_arrival_secs.p25,
            r.inter_arrival_secs.p50,
            r.inter_arrival_secs.p99
        ));
    }
    sink.line(format!(
        "LogNormal fit of cold-start durations: mean {:.2}s std {:.2}s (mu {:.3}, sigma {:.3}), KS {:.3}  [paper: mean 3.24 std 7.10]",
        d.overall_fit.fitted_mean,
        d.overall_fit.fitted_std,
        d.overall_fit.param_a,
        d.overall_fit.param_b,
        d.overall_fit.ks_distance
    ));
    sink.line(format!(
        "Weibull fit of inter-arrival times: mean {:.2}s std {:.2}s (shape {:.3}, scale {:.3}), KS {:.3}  [paper: mean 1.25 std 3.66]",
        d.inter_arrival_fit.fitted_mean,
        d.inter_arrival_fit.fitted_std,
        d.inter_arrival_fit.param_a,
        d.inter_arrival_fit.param_b,
        d.inter_arrival_fit.ks_distance
    ));
    sink.csv(
        "fig10_distributions.csv",
        "region,cold_p25_s,cold_p50_s,cold_p99_s,iat_p25_s,iat_p50_s,iat_p99_s",
        &rows,
    );
    sink.csv(
        "fig10_fits.csv",
        "fit,samples,mean,std,param_a,param_b,ks",
        &[
            format!(
                "lognormal_cold_start,{},{:.4},{:.4},{:.4},{:.4},{:.4}",
                d.overall_fit.sample_count,
                d.overall_fit.fitted_mean,
                d.overall_fit.fitted_std,
                d.overall_fit.param_a,
                d.overall_fit.param_b,
                d.overall_fit.ks_distance
            ),
            format!(
                "weibull_inter_arrival,{},{:.4},{:.4},{:.4},{:.4},{:.4}",
                d.inter_arrival_fit.sample_count,
                d.inter_arrival_fit.fitted_mean,
                d.inter_arrival_fit.fitted_std,
                d.inter_arrival_fit.param_a,
                d.inter_arrival_fit.param_b,
                d.inter_arrival_fit.ks_distance
            ),
        ],
    );
}

fn fig11(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let mut rows = Vec::new();
    for r in &ctx.report.components.regions {
        let shares = r.time_series.mean_component_shares();
        sink.line(format!(
            "R{}: mean cold start {:.2}s; component shares alloc {:.0}% code {:.0}% dep {:.0}% sched {:.0}%",
            r.region,
            r.time_series.mean_total_s(),
            100.0 * shares[0],
            100.0 * shares[1],
            100.0 * shares[2],
            100.0 * shares[3]
        ));
        let ts = &r.time_series;
        for hour in 0..ts.total_s.len() {
            rows.push(format!(
                "{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{}",
                r.region,
                hour,
                ts.pod_alloc_s[hour],
                ts.deploy_code_s[hour],
                ts.deploy_dep_s[hour],
                ts.scheduling_s[hour],
                ts.total_s[hour],
                ts.cold_starts[hour] as u64
            ));
        }
    }
    sink.csv(
        "fig11_component_timeseries.csv",
        "region,hour,pod_alloc_s,deploy_code_s,deploy_dep_s,scheduling_s,total_s,cold_starts",
        &rows,
    );
}

fn fig12(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let mut rows = Vec::new();
    for r in &ctx.report.components.regions {
        sink.line(format!("R{} Spearman correlations:", r.region));
        sink.line(r.correlations.render());
        for i in 0..r.correlations.size() {
            for j in 0..r.correlations.size() {
                let e = r.correlations.get(i, j).expect("in range");
                rows.push(format!(
                    "{},{},{},{:.3},{:.5}",
                    r.region,
                    r.correlations.labels[i],
                    r.correlations.labels[j],
                    e.coefficient,
                    e.p_value
                ));
            }
        }
    }
    sink.csv(
        "fig12_correlations.csv",
        "region,var_a,var_b,spearman,p_value",
        &rows,
    );
}

fn fig13(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let mut rows = Vec::new();
    for r in &ctx.report.components.regions {
        for s in &r.by_size {
            sink.line(format!(
                "R{} {:<5}: total p50 {:.2}s, alloc p50 {:.2}s, code p50 {:.2}s, dep p50 {:.2}s, sched p50 {:.2}s",
                r.region,
                s.size.label(),
                s.total.p50,
                s.pod_alloc.p50,
                s.deploy_code.p50,
                s.deploy_dep.p50,
                s.scheduling.p50
            ));
            for (component, summary) in [
                ("total", &s.total),
                ("pod_alloc", &s.pod_alloc),
                ("deploy_code", &s.deploy_code),
                ("deploy_dep", &s.deploy_dep),
                ("scheduling", &s.scheduling),
            ] {
                rows.push(format!(
                    "{},{},{},{:.4},{:.4},{:.4},{}",
                    r.region,
                    s.size.label(),
                    component,
                    summary.p25,
                    summary.p50,
                    summary.p75,
                    summary.count
                ));
            }
        }
    }
    sink.csv(
        "fig13_components_by_size.csv",
        "region,size,component,p25_s,p50_s,p75_s,count",
        &rows,
    );
}

fn fig14(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let Some(a) = &ctx.report.attribution else {
        return;
    };
    sink.line(format!(
        "Region {}: {} functions, {:.0}% on the 1:1 diagonal",
        a.region,
        a.per_function.len(),
        100.0 * a.diagonal_fraction()
    ));
    let rows: Vec<String> = a
        .per_function
        .iter()
        .map(|p| {
            format!(
                "{},{},{},{}",
                p.function,
                p.requests,
                p.cold_starts,
                p.trigger.label()
            )
        })
        .collect();
    sink.csv(
        "fig14_requests_vs_cold_starts.csv",
        "function,requests,cold_starts,trigger_group",
        &rows,
    );
}

fn grouped_component_rows(
    groups: &[coldstarts::analysis::attribution::GroupComponentDistributions],
    sink: &mut OutputSink,
) -> Vec<String> {
    let mut rows = Vec::new();
    for g in groups {
        sink.line(format!(
            "{:<12} n {:>7}  total p50 {:.3}s p99 {:.3}s  alloc p50 {:.3}s  sched p50 {:.3}s",
            g.label, g.cold_starts, g.total.p50, g.total.p99, g.pod_alloc.p50, g.scheduling.p50
        ));
        for (component, s) in [
            ("total", &g.total),
            ("pod_alloc", &g.pod_alloc),
            ("deploy_code", &g.deploy_code),
            ("deploy_dep", &g.deploy_dep),
            ("scheduling", &g.scheduling),
        ] {
            rows.push(format!(
                "{},{},{},{:.4},{:.4},{:.4}",
                g.label, component, g.cold_starts, s.p50, s.p90, s.p99
            ));
        }
    }
    rows
}

fn fig15(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let Some(a) = &ctx.report.attribution else {
        return;
    };
    let rows = grouped_component_rows(&a.by_runtime, sink);
    sink.csv(
        "fig15_by_runtime.csv",
        "runtime,component,cold_starts,p50_s,p90_s,p99_s",
        &rows,
    );
}

fn fig16(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let Some(a) = &ctx.report.attribution else {
        return;
    };
    let rows = grouped_component_rows(&a.by_trigger, sink);
    sink.csv(
        "fig16_by_trigger.csv",
        "trigger_group,component,cold_starts,p50_s,p90_s,p99_s",
        &rows,
    );
}

fn fig17(ctx: &ExperimentContext, sink: &mut OutputSink) {
    let Some(u) = &ctx.report.utility else {
        return;
    };
    sink.line(format!(
        "overall: {} pods, median utility {:.2}, below 1: {:.0}%, above 100: {:.0}%",
        u.overall.pods,
        u.overall.ratio.p50,
        100.0 * u.overall.below_one_fraction,
        100.0 * u.overall.above_hundred_fraction
    ));
    let mut rows = Vec::new();
    for (grouping, groups) in [("runtime", &u.by_runtime), ("trigger", &u.by_trigger)] {
        for g in groups {
            sink.line(format!(
                "{grouping:<8} {:<12} pods {:>6}  median {:.2}  below-1 {:.0}%  above-100 {:.0}%",
                g.label,
                g.pods,
                g.ratio.p50,
                100.0 * g.below_one_fraction,
                100.0 * g.above_hundred_fraction
            ));
            rows.push(format!(
                "{grouping},{},{},{:.4},{:.4},{:.4},{:.4}",
                g.label,
                g.pods,
                g.ratio.p50,
                g.ratio.p90,
                g.below_one_fraction,
                g.above_hundred_fraction
            ));
        }
    }
    sink.csv(
        "fig17_utility_ratio.csv",
        "grouping,label,pods,median_ratio,p90_ratio,below_one_fraction,above_hundred_fraction",
        &rows,
    );
}

/// Renders the ablation table: one row per scenario, with its deltas
/// relative to the baseline.
fn render_outcomes(outcomes: &[ScenarioOutcome]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>12} {:>10} {:>14} {:>12} {:>12}\n",
        "scenario", "cold starts", "reduction", "mean added (s)", "latency red.", "idle change"
    ));
    for o in outcomes {
        out.push_str(&format!(
            "{:<24} {:>12} {:>9.1}% {:>14.4} {:>11.1}% {:>11.1}%\n",
            o.policy,
            o.report.cold_starts,
            100.0 * o.cold_start_reduction,
            o.report.mean_added_latency_s,
            100.0 * o.added_latency_reduction,
            100.0 * o.idle_time_change,
        ));
    }
    out
}

fn policy_ablation(ctx: &ExperimentContext, sink: &mut OutputSink) {
    // The context seed varies the workload only; the simulation seed stays
    // the session default whatever `--seed` says.
    let report = ExperimentSession::new()
        .scenarios(&Scenario::ALL)
        .source(FixedWorkloadSource::new(
            "workload",
            Arc::new(ctx.ablation_workload()),
        ))
        .with_seeds(vec![seeds::DEFAULT_SEED])
        .run();
    let outcomes = report
        .outcomes(0, seeds::DEFAULT_SEED)
        .expect("the baseline scenario is declared");
    sink.line(render_outcomes(&outcomes));
    let rows: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                "{},{},{:.4},{:.4},{:.6},{:.4},{}",
                o.policy,
                o.report.cold_starts,
                o.report.cold_start_rate(),
                o.cold_start_reduction,
                o.report.mean_added_latency_s,
                o.idle_time_change,
                o.report.prewarmed_pods
            )
        })
        .collect();
    sink.csv(
        "policy_ablation.csv",
        "scenario,cold_starts,cold_start_rate,cold_start_reduction,mean_added_latency_s,idle_time_change,prewarmed_pods",
        &rows,
    );

    // Cross-region migration plan and pool sizing, reported alongside the
    // simulator ablation (they operate on the characterized trace directly).
    if let (Some(r1), Some(r3)) = (
        ctx.dataset.region(RegionId::new(1)),
        ctx.dataset.region(RegionId::new(3)),
    ) {
        let plan = CrossRegionScheduler::default().plan(r1, r3);
        sink.line(format!(
            "cross-region: migrate {} functions R1 -> R3, estimated cold-start delay change {:.1}s",
            plan.len(),
            plan.estimated_delay_change_s()
        ));
    }
    if let Some(r2) = ctx.dataset.region(RegionId::new(2)) {
        let predictor = PoolDemandPredictor::default();
        let plan = predictor.recommend(&r2.cold_starts, &r2.functions);
        let fixed = PoolDemandPredictor::replay_fixed(&r2.cold_starts, &r2.functions, 8);
        let predicted = PoolDemandPredictor::replay_plan(&r2.cold_starts, &r2.functions, &plan);
        sink.line(format!(
            "pool prediction: hit rate fixed(8)={:.1}% reserved {:.0} pods vs predicted={:.1}% reserved {:.0} pods",
            100.0 * fixed.hit_rate(),
            fixed.mean_reserved_pods,
            100.0 * predicted.hit_rate(),
            predicted.mean_reserved_pods
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_roundtrip() {
        for e in all_experiments() {
            assert_eq!(Experiment::from_name(e.name()), Some(e));
        }
        assert_eq!(Experiment::from_name("nope"), None);
        assert_eq!(all_experiments().len(), 18);
    }

    #[test]
    fn all_experiments_run_on_a_tiny_context() {
        let calibration = Calibration {
            duration_days: 1,
            ..Calibration::default()
        };
        let ctx = ExperimentContext::generate_with_calibration(TraceScale::tiny(), 5, calibration);
        let dir = std::env::temp_dir().join("faas_bench_figures_test");
        std::fs::remove_dir_all(&dir).ok();
        let mut sink = OutputSink::new(Some(&dir));
        for experiment in all_experiments() {
            run_experiment(experiment, &ctx, &mut sink);
        }
        assert!(sink.report().contains("=== fig10 ==="));
        assert!(sink.report().contains("LogNormal fit"));
        assert!(sink.report().contains("policy-ablation"));
        // The ablation table has one row per scenario under its header.
        assert!(sink.report().contains("latency red."));
        for scenario in Scenario::ALL {
            assert!(sink.report().contains(scenario.name()), "{scenario:?}");
        }
        // Every experiment except the narrative-only ones writes CSV output.
        assert!(
            sink.files_written().len() >= 15,
            "{:?}",
            sink.files_written()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
