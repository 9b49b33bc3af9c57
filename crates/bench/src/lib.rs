//! Figure and table regeneration harness.
//!
//! Every table and figure of the paper's evaluation maps to one generator in
//! [`figures`]; the `figures` binary runs one or all of them, printing the
//! series/rows to stdout and writing CSV files under `results/`;
//! [`all_experiments`] lists them. `README.md` shows how to run the
//! binaries, and `ARCHITECTURE.md` maps each layer of the stack to its code.
//!
//! The crate has four binaries: `figures`, and three that drive the stack
//! end to end. `sweep` (policy grid) and `replay` (synthesize → replay
//! round trip) write the committed `BENCH_sweep.json` and
//! `BENCH_replay.json`, which CI validates and requires a fresh smoke run
//! to reproduce byte for byte (schemas in `docs/bench-schemas.md`);
//! `longhaul` runs month-scale streaming simulations in O(1) memory and
//! prints its wall time and peak RSS. Timings that compare two commits come
//! from the repository benchmark, `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod output;

pub use figures::{all_experiments, run_experiment, Experiment, ExperimentContext};
pub use output::OutputSink;
