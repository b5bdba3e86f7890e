//! `perfbench`: the simulator's host-time benchmark.
//!
//! A workload is a fixed set of experiment cells ([`workload::WORKLOADS`]).
//! One run sets up the inputs from the workload seed and runs every cell,
//! one at a time on one thread, repeating these passes for the measured
//! window. Caches start empty in every cell (each builds a fresh machine).
//!
//! * The untraced run ([`measure::untraced`]) calls each cell's public
//!   entry point, `RunSpec::run`, and reports the end-to-end metrics as
//!   medians over passes.
//! * The traced run ([`measure::traced`]) calls the stages of
//!   `run_app_full` one by one and times each from outside, then runs the
//!   per-layer probes ([`probe`]). Nothing inside the simulator is
//!   instrumented.
//!
//! A cell fails if it panics, wedges, fails validation, produces a
//! `RunReport::to_kv` digest other than the one in `record.json`, or — when
//! traced — an outcome other than its untraced twin's.

pub mod cell;
pub mod host;
pub mod json;
pub mod measure;
pub mod probe;
pub mod spec;
pub mod workload;
