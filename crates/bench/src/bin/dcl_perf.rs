//! `dcl-perf`: static traffic/throughput analysis for DCL pipelines.
//!
//! ```text
//! dcl-perf examples/dcl/*.dcl          # analyze text files
//! dcl-perf --all-builtin               # analyze every built-in pipeline
//! dcl-perf --all-builtin --format json # machine-readable report
//! dcl-perf --crosscheck                # model-vs-simulator traffic gate
//! dcl-perf --auto-gate                 # auto-selected vs default codecs
//! ```
//!
//! Exits 0 when every pipeline is clean (warnings allowed unless
//! `--deny-warnings`) and, under `--crosscheck`, when every cell of the
//! gate matrix predicts within tolerance; 1 when any `P0xx` diagnostic
//! fails the run or any cross-check misses; 2 when the tool could not do
//! its job — a usage error, an unreadable file or nothing to analyze.

fn main() {
    let args = spzip_bench::cli::parse(true, &[]);
    std::process::exit(spzip_bench::dcl_perf::run(&args));
}
