#![warn(missing_docs)]
//! Irregular applications on SpZip: the evaluation workloads.
//!
//! This crate implements the paper's seven benchmarks (Sec. IV) on a
//! Ligra-style runtime, under every execution strategy the evaluation
//! compares:
//!
//! * [`scheme`] — Push, Update Batching (UB), and PHI, each with and
//!   without SpZip, plus the ablation switches of Figs. 19–21.
//! * [`alg`] — the algorithm interface (payload / apply / combine) that
//!   all seven applications implement; application code is scheme-agnostic,
//!   like the paper's framework.
//! * [`apps`] — PageRank (PR), PageRank-Delta (PRD), Connected Components
//!   (CC), Radii Estimation (RE), Degree Counting (DC), BFS, and SpMV (SP).
//! * [`layout`] — the workload's memory image: adjacency (raw and
//!   entropy-compressed), vertex data, frontiers, and update bins.
//! * [`pipelines`] — the DCL programs each scheme loads into the fetcher
//!   and compressor (the Figs. 2–6, 11, 13, 14 shapes).
//! * [`runtime`] — phase executors: traversal/binning, accumulation, and
//!   vertex phases; generates core events and engine firing traces, and
//!   feeds the `spzip-sim` machine with dynamically scheduled chunks.
//! * [`cost`] — the core instruction-cost model.
//! * [`run`] — the top-level entry: run one (app, dataset, scheme)
//!   configuration, validate results against a reference execution, and
//!   report cycles and traffic.
//! * [`spec`] — keyed run specifications: a [`spec::RunSpec`] names one
//!   experiment cell, fingerprints it for deduplication/memoization, and
//!   serializes its [`RunOutcome`] as stable `key value` text.

pub mod alg;
pub mod apps;
pub mod cost;
pub mod layout;
pub mod perf;
pub mod pipelines;
pub mod run;
pub mod runtime;
pub mod sanitize;
pub mod scheme;
pub mod spec;

pub use run::{run_app, run_app_full, AppName, RunOutcome};
pub use scheme::{Scheme, SchemeConfig};
pub use spec::{MachineSpec, RunSpec};
