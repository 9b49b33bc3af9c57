//! The four benchmark workloads and what they share.
//!
//! Each workload is built once per process from the seed (anything it needs
//! on disk is written then, before timing), then run as repeated passes. A
//! pass is one complete execution of what a user of the repository would
//! run: its set-up (generation, trace open, dataset build) followed by the
//! work itself. The traced pass runs the same program with every layer
//! boundary timed from outside.

mod cells;
mod characterize;
mod longhaul;
mod replay;
mod sweep;

use std::collections::BTreeMap;
use std::fmt::Display;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<String, f64>;

/// Operations attempted and failed in one pass.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    /// Operations attempted (cells, runs, analyses).
    pub attempted: u64,
    /// Operations that broke an invariant or could not run.
    pub failed: u64,
    /// Why, one line per failure.
    pub errors: Vec<String>,
}

impl Ops {
    /// Counts one operation, failed when `result` is an error.
    pub fn record(&mut self, what: impl Display, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
        }
    }

    /// Counts `n` operations that all failed for one reason.
    pub fn fail_all(&mut self, n: u64, why: impl Display) {
        self.attempted += n;
        self.failed += n;
        self.errors.push(why.to_string());
    }
}

/// Outcome of one untraced pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds before the first arrival was simulated or the first analysis
    /// ran.
    pub setup_s: f64,
    /// Records processed: requests simulated or trace requests analysed.
    pub records: u64,
    /// Checked operations.
    pub ops: Ops,
    /// Digest of the named output fields.
    pub digest: u64,
    /// Seconds spent repeating a short set-up only to time it (see
    /// [`timed_short`]); not part of the pass's wall or CPU time.
    pub repeat_s: f64,
}

/// Outcome of one traced pass.
#[derive(Debug, Default)]
pub struct TracedPass {
    /// The same facts as an untraced pass, from the traced program.
    pub pass: Pass,
    /// Per-layer metrics this workload exercises.
    pub layers: Layers,
}

/// One benchmark workload.
pub trait Workload {
    /// Input size and set-up facts, as `(name, value)` lines.
    fn provenance(&self) -> Vec<(&'static str, String)>;

    /// Operations one pass attempts (charged as failed if the pass panics).
    fn operations(&self) -> u64;

    /// Output digest of a pass at the default seed.
    fn pinned_digest(&self) -> u64;

    /// One untraced pass.
    fn run(&self) -> Pass;

    /// One traced pass. `untraced_wall_s` is the wall time of an untraced
    /// pass of the same process, the base of the tracing overhead.
    fn run_traced(&self, untraced_wall_s: f64) -> TracedPass;
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "longhaul-diurnal",
    "sweep-families",
    "replay-csv-dir",
    "characterize-week",
];

/// Builds the named workload for `seed`, with at most `threads` session
/// worker threads.
pub fn build(name: &str, seed: u64, threads: usize) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "longhaul-diurnal" => Box::new(longhaul::Longhaul::new(seed)?),
        "sweep-families" => Box::new(sweep::Sweep::new(seed, threads)?),
        "replay-csv-dir" => Box::new(replay::Replay::new(seed, threads)?),
        "characterize-week" => Box::new(characterize::Characterize::new(seed)?),
        other => return Err(format!("unknown workload {other:?}; one of {NAMES:?}")),
    })
}

/// Candidate input seeds derived from one benchmark seed.
const CANDIDATES: u64 = 1_000;

/// Input sizes may differ from the nominal size by this share.
const SIZE_TOLERANCE: f64 = 0.03;

/// The input seed of a run: the first candidate derived from `seed` whose
/// input (as `size` counts it, in one or more dimensions) is within
/// [`SIZE_TOLERANCE`] of `nominal` in every dimension. The generators draw a
/// fresh function population per seed, and a few heavy functions swing the
/// record count by a third from one seed to the next; holding the input size
/// steady keeps the timings of different seeds comparable while the content
/// still varies with the seed. Returns the input seed and its size.
pub fn sized_seed<const N: usize>(
    seed: u64,
    nominal: [u64; N],
    mut size: impl FnMut(u64) -> [u64; N],
) -> Result<(u64, [u64; N]), String> {
    let near = |n: u64, want: u64| (n as f64 - want as f64).abs() <= want as f64 * SIZE_TOLERANCE;
    (0..CANDIDATES)
        .map(|k| seed.wrapping_mul(CANDIDATES).wrapping_add(k))
        .map(|candidate| (candidate, size(candidate)))
        .find(|(_, n)| n.iter().zip(nominal).all(|(&n, want)| near(n, want)))
        .ok_or_else(|| {
            format!("no input of size {nominal:?} (±{SIZE_TOLERANCE}) among the seeds of {seed}")
        })
}

/// Seconds elapsed since `started`.
pub fn secs(started: std::time::Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

/// Times one call.
pub fn timed<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let started = std::time::Instant::now();
    let out = call();
    (out, secs(started))
}

/// Runs a set-up too short to time once (well under a millisecond) this
/// many times per pass, and reports the median.
const SHORT_SETUP_REPEATS: usize = 101;

/// Times `setup` [`SHORT_SETUP_REPEATS`] times; returns the last result,
/// the median time, and the time of the extra repeats.
pub fn timed_short<T>(mut setup: impl FnMut() -> T) -> (T, f64, f64) {
    let mut times = Vec::with_capacity(SHORT_SETUP_REPEATS);
    let mut out = None;
    for _ in 0..SHORT_SETUP_REPEATS {
        let (value, s) = timed(&mut setup);
        out = Some(value);
        times.push(s);
    }
    let out = out.expect("at least one repeat");
    let median = crate::stats::median(&times);
    let extra = times.iter().sum::<f64>() - times[times.len() - 1];
    (out, median, extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_seed_takes_the_first_candidate_of_nominal_size() {
        // Candidate k of seed 3 is 3000 + k and has size 10 * k.
        let size = |candidate: u64| [(candidate - 3 * CANDIDATES) * 10];
        assert_eq!(sized_seed(3, [50], size), Ok((3005, [50])));
        // The window is 3 % wide, so 4850 already qualifies for 5000.
        assert_eq!(sized_seed(3, [5000], size), Ok((3485, [4850])));
        assert!(sized_seed(3, [50], |_| [1000]).is_err());
        // Every dimension must match.
        let two = |candidate: u64| [candidate % 10, candidate % 7];
        assert_eq!(sized_seed(0, [3, 3], two), Ok((3, [3, 3])));
        assert_eq!(sized_seed(0, [3, 4], two), Ok((53, [3, 4])));
    }
}
