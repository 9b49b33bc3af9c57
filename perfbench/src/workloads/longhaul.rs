//! `longhaul-diurnal`: stream generation plus the engine, almost nothing
//! else. Baseline policies, no trace recording, one multi-day preset
//! workload streamed through `SimulationSpec::run_streamed`.

use std::sync::Arc;

use faas_platform::{BaselinePolicies, PlatformConfig, SimulationSpec};
use faas_workload::{PopulationConfig, RegionProfile, ScenarioPreset, StreamedWorkload};

use super::cells::EngineTotals;
use super::{secs, sized_seed, timed, timed_short, Ops, Pass, TracedPass, Workload};
use crate::check::{check_report, Digest};
use crate::layers::{PolicyClock, StreamClock, TimedStream, TracedFactory};

const PRESET: ScenarioPreset = ScenarioPreset::Diurnal;
const DAYS: u32 = 14;
const POPULATION: PopulationConfig = PopulationConfig {
    function_scale: 0.05,
    volume_scale: 2.0e-4,
    max_requests_per_day: 200_000.0,
    min_functions: 50,
};
/// Arrivals in one pass (see [`sized_seed`]).
const NOMINAL_RECORDS: u64 = 1_750_000;
/// Output digest at the default seed.
const PINNED: u64 = 0x7419_b8f6_dbfd_8d71;

pub struct Longhaul {
    seed: u64,
    functions: usize,
    records: u64,
}

impl Longhaul {
    pub fn new(seed: u64) -> Result<Self, String> {
        let (seed, [records]) = sized_seed(seed, [NOMINAL_RECORDS], |s| {
            [Self::generate(s).stream().count() as u64]
        })?;
        let functions = Self::generate(seed).header().functions.len();
        Ok(Self {
            seed,
            functions,
            records,
        })
    }

    fn generate(seed: u64) -> StreamedWorkload {
        StreamedWorkload::generate(
            &PRESET.profile(&RegionProfile::r2()),
            PRESET.calibration(DAYS),
            &POPULATION,
            seed,
        )
    }

    fn spec(&self) -> SimulationSpec {
        SimulationSpec::new()
            .with_config(PlatformConfig {
                record_trace: false,
                ..PlatformConfig::default()
            })
            .with_seed(self.seed)
    }

    fn finish(report: &faas_platform::SimReport, setup_s: f64, repeat_s: f64) -> Pass {
        let mut ops = Ops::default();
        ops.record("longhaul run", check_report(report, true));
        Pass {
            setup_s,
            records: report.events_processed,
            ops,
            digest: Digest::default().report(report).value(),
            repeat_s,
        }
    }
}

impl Workload for Longhaul {
    fn provenance(&self) -> Vec<(&'static str, String)> {
        vec![
            ("preset", PRESET.name().to_string()),
            ("region", "r2".to_string()),
            ("functions", self.functions.to_string()),
            ("days", DAYS.to_string()),
            ("input_seed", self.seed.to_string()),
            ("records", self.records.to_string()),
        ]
    }

    fn operations(&self) -> u64 {
        1
    }

    fn pinned_digest(&self) -> u64 {
        PINNED
    }

    fn run(&self) -> Pass {
        let (workload, setup_s, repeat_s) = timed_short(|| Self::generate(self.seed));
        let (report, _) = self
            .spec()
            .run_streamed(workload.header(), workload.stream());
        Self::finish(&report, setup_s, repeat_s)
    }

    fn run_traced(&self, untraced_wall_s: f64) -> TracedPass {
        let started = std::time::Instant::now();
        let (workload, setup_s, repeat_s) = timed_short(|| Self::generate(self.seed));
        let stream = StreamClock::default();
        let policy = Arc::new(PolicyClock::default());
        let spec = self.spec().with_policies(Arc::new(TracedFactory::new(
            Arc::new(BaselinePolicies),
            Arc::clone(&policy),
        )));
        let events = TimedStream::new(workload.stream(), &stream);
        let horizon_ms = faas_workload::stream::ArrivalStream::horizon_ms(&events);
        let ((report, _), run_s) = timed(|| spec.run_streamed(workload.header(), events));
        let wall_s = secs(started) - repeat_s;

        let mut totals = EngineTotals::default();
        totals.add(&report, horizon_ms, spec.config.epoch_ms, run_s);
        let mut traced = TracedPass {
            pass: Self::finish(&report, setup_s, repeat_s),
            ..TracedPass::default()
        };
        totals.put(&mut traced.layers, &stream, &policy);
        let direct_s = setup_s + stream.seconds() + policy.seconds();
        for (name, value) in [
            ("tracing.overhead_s", wall_s - untraced_wall_s),
            ("tracing.direct_share", direct_s / wall_s),
        ] {
            traced.layers.insert(name.to_string(), value);
        }
        traced
    }
}
