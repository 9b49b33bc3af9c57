//! `sweep-families`: every policy family's full parameter space over the
//! five scenario presets, run as one `ExperimentSession`, folded into a
//! `SweepReport` and serialised — the policy, node and session layers, plus
//! workload lowering per cell.

use coldstarts::{PolicyFamily, PolicySweep, SessionReport};
use faas_workload::StreamedWorkload;

use super::cells::replica_layers;
use super::{secs, sized_seed, timed, timed_short, Pass, TracedPass, Workload};
use crate::check::{check_report, Digest};

const DAYS: u32 = 2;
/// Arrivals per configuration, over all presets (see [`sized_seed`]).
const NOMINAL_RECORDS_PER_CONFIG: u64 = 59_000;
/// Output digest at the default seed.
const PINNED: u64 = 0x9e02_9b37_43c4_377c;

pub struct Sweep {
    sweep: PolicySweep,
    records_per_config: u64,
}

impl Sweep {
    pub fn new(seed: u64, threads: usize) -> Result<Self, String> {
        let mut sweep = PolicySweep {
            spaces: PolicyFamily::ALL.iter().map(|f| f.param_space()).collect(),
            duration_days: DAYS,
            threads,
            ..PolicySweep::default()
        };
        // Every configuration replays the same arrivals: those the presets'
        // sources lower to for the input seed.
        let arrivals = |s: u64| -> [u64; 1] {
            let mut n = 0;
            for preset in &sweep.presets {
                for region in &sweep.regions {
                    let workload = StreamedWorkload::generate(
                        &preset.profile(region),
                        preset.calibration(DAYS),
                        &sweep.population,
                        s,
                    );
                    n += workload.stream().count() as u64;
                }
            }
            [n]
        };
        let (seed, [records_per_config]) =
            sized_seed(seed, [NOMINAL_RECORDS_PER_CONFIG], arrivals)?;
        sweep.seeds = vec![seed];
        Ok(Self {
            sweep,
            records_per_config,
        })
    }

    /// Checks and digests every cell, then folds and serialises the sweep.
    /// Returns the pass and the fold and serialisation times.
    fn finish(&self, report: SessionReport, setup_s: f64, repeat_s: f64) -> (Pass, f64, f64) {
        let mut pass = Pass {
            setup_s,
            repeat_s,
            ..Pass::default()
        };
        let mut digest = Digest::default();
        for cell in &report.cells {
            let what = format!("cell {} x {}", cell.policy, cell.source);
            pass.ops.record(what, check_report(&cell.report, true));
            digest
                .str(&cell.policy)
                .str(&cell.source)
                .report(&cell.report);
            pass.records += cell.report.events_processed;
        }
        let (summary, fold_s) = timed(|| self.sweep.fold(report));
        let (json, envelope_s) = timed(|| summary.to_envelope().to_json());
        std::hint::black_box(json);
        for &i in &summary.pareto {
            digest.u64(i as u64);
        }
        pass.digest = digest.value();
        (pass, fold_s, envelope_s)
    }
}

impl Workload for Sweep {
    fn provenance(&self) -> Vec<(&'static str, String)> {
        let p = &self.sweep.population;
        vec![
            ("configs", self.sweep.configs().len().to_string()),
            ("presets", self.sweep.presets.len().to_string()),
            ("cells", self.sweep.cell_count().to_string()),
            ("days", DAYS.to_string()),
            ("function_scale", p.function_scale.to_string()),
            ("min_functions", p.min_functions.to_string()),
            ("input_seed", self.sweep.seeds[0].to_string()),
            (
                "records",
                (self.records_per_config * self.sweep.configs().len() as u64).to_string(),
            ),
        ]
    }

    fn operations(&self) -> u64 {
        self.sweep.cell_count() as u64
    }

    fn pinned_digest(&self) -> u64 {
        PINNED
    }

    fn run(&self) -> Pass {
        let (session, setup_s, repeat_s) = timed_short(|| self.sweep.session());
        let report = session.run();
        self.finish(report, setup_s, repeat_s).0
    }

    fn run_traced(&self, _untraced_wall_s: f64) -> TracedPass {
        let started = std::time::Instant::now();
        let (session, setup_s, repeat_s) = timed_short(|| self.sweep.session());
        let (report, phase_s) = timed(|| session.run());
        let (kept, clone_s) = timed(|| report.clone());
        let (pass, fold_s, envelope_s) = self.finish(report, setup_s, repeat_s);
        let wall_s = secs(started) - clone_s - repeat_s;

        let mut traced = TracedPass {
            pass,
            ..TracedPass::default()
        };
        replica_layers(&mut traced, &session, &kept, phase_s);
        let direct_s = setup_s + phase_s + fold_s + envelope_s;
        for (name, value) in [
            ("sweep.fold_s", fold_s),
            ("session.envelope_s", envelope_s),
            ("tracing.direct_share", direct_s / wall_s),
        ] {
            traced.layers.insert(name.to_string(), value);
        }
        traced
    }
}
