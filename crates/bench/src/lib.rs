//! Figure and table regeneration harness.
//!
//! Every table and figure of the paper's evaluation maps to one generator in
//! [`figures`]; the `figures` binary runs one or all of them, printing the
//! series/rows to stdout and writing CSV files under `results/`. The mapping
//! from experiment id to generator is listed in `DESIGN.md` and the measured
//! values are recorded in `EXPERIMENTS.md`.
//!
//! Four sibling binaries exercise the stack end to end and write the
//! committed `BENCH_*.json` baselines that CI validates and perf-gates
//! (schemas documented in `docs/bench-schemas.md`): `sweep` (policy grid),
//! `replay` (synthesize → replay round trip), `scheduler` (timing-wheel
//! microbenchmarks plus two end-to-end engine rows), and `longhaul`
//! (month-scale O(1)-memory streaming runs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod output;

pub use figures::{all_experiments, run_experiment, Experiment, ExperimentContext};
pub use output::OutputSink;
