//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md Sec. 3 for the experiment index).
//!
//! The harness is layered as one *run plan*:
//!
//! * [`figures`] — each figure/table declares its experiment cells as
//!   [`spzip_apps::RunSpec`] values and renders its text output from the
//!   memoized outcomes; it never runs simulations itself.
//! * [`driver`] — unions cells across figures, deduplicates them by
//!   fingerprint, executes the unique ones on a worker pool over shared
//!   inputs, and memoizes serialized outcomes under `results/cache/`.
//! * [`cli`] — the shared flag parser every binary uses.
//!
//! Each figure still has a standalone binary in `src/bin/`; `bench_all`
//! regenerates everything in one process so overlapping cells (e.g. the
//! Fig. 15/16/17 sweeps) are simulated exactly once. The [`dcl_lint`]
//! module backs the `dcl-lint` binary, which statically analyzes `.dcl`
//! files and every built-in pipeline with [`spzip_core::lint`] and the
//! shape-and-bounds verifier ([`spzip_core::shape`]); the
//! [`dcl_perf`] module backs `dcl-perf`, the static traffic/throughput
//! analyzer ([`spzip_core::perf`]), [`crosscheck`] is its
//! model-vs-simulator gate, [`corpus`] is `dcl-lint --corpus`'s one
//! seeded-bug differential gate harness over the [`shape_corpus`],
//! [`liveness_corpus`] and [`equiv_corpus`] seeds, and [`explain`] is
//! the `--explain CODE` registry spanning every diagnostic family.

pub mod cli;
pub mod codec_bench;
pub mod corpus;
pub mod crosscheck;
pub mod dcl_lint;
pub mod dcl_perf;
pub mod driver;
pub mod equiv_corpus;
pub mod explain;
pub mod figures;
pub mod liveness_corpus;
pub mod sanitize_bench;
pub mod shape_corpus;
pub mod suggest_sweep;

use spzip_apps::{RunOutcome, Scheme};
use spzip_mem::DataClass;
use spzip_sim::MachineConfig;
use std::fmt::Write as _;

/// Seed used to randomize vertex ids for the non-preprocessed variants
/// ("we randomize the vertex ids of the input graph").
pub const RANDOMIZE_SEED: u64 = 0x5EED;

/// Whether this binary was built with the SimSanitizer compiled in.
/// Binaries gate `--sanitize` on this and point the user at
/// `--features sanitize` when it is off.
pub fn sanitize_supported() -> bool {
    cfg!(feature = "sanitize")
}

/// The standard scaled Table II machine.
pub fn machine_config() -> MachineConfig {
    MachineConfig::paper_scaled()
}

/// Speedup table row: per-scheme cycles normalized to the first scheme.
pub fn speedups_over_first(outcomes: &[(Scheme, &RunOutcome)]) -> Vec<(Scheme, f64)> {
    let base = outcomes[0].1.report.cycles.max(1) as f64;
    outcomes
        .iter()
        .map(|(s, o)| (*s, base / o.report.cycles.max(1) as f64))
        .collect()
}

/// Traffic normalized to the first scheme, broken down by data class.
pub fn traffic_breakdown(outcomes: &[(Scheme, &RunOutcome)]) -> Vec<(Scheme, [f64; 6])> {
    let base = outcomes[0].1.report.traffic.total_bytes().max(1);
    outcomes
        .iter()
        .map(|(s, o)| (*s, o.report.breakdown(base)))
        .collect()
}

/// Renders a speedup + traffic table in the paper's layout.
pub fn render_scheme_table(title: &str, outcomes: &[(Scheme, &RunOutcome)]) -> String {
    let mut out = String::new();
    writeln!(out, "\n=== {title} ===").unwrap();
    writeln!(
        out,
        "{:<12} {:>9} {:>9} {:>8} | {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "scheme", "cycles", "speedup", "traffic", "Adj", "Src", "Dst", "Upd", "Fro", "Oth"
    )
    .unwrap();
    let base_cycles = outcomes[0].1.report.cycles.max(1) as f64;
    let base_traffic = outcomes[0].1.report.traffic.total_bytes().max(1);
    for (s, o) in outcomes {
        let b = o.report.breakdown(base_traffic);
        writeln!(
            out,
            "{:<12} {:>9} {:>8.2}x {:>7.2}x | {:>6.3} {:>6.3} {:>6.3} {:>6.3} {:>6.3} {:>6.3}{}",
            s.to_string(),
            o.report.cycles,
            base_cycles / o.report.cycles.max(1) as f64,
            o.report.traffic.total_bytes() as f64 / base_traffic as f64,
            b[0],
            b[1],
            b[2],
            b[3],
            b[4],
            b[5],
            if o.validated {
                ""
            } else {
                "  !! VALIDATION FAILED"
            }
        )
        .unwrap();
    }
    if std::env::var("SPZIP_DIAG").is_ok() {
        for (s, o) in outcomes {
            writeln!(
                out,
                "  [diag] {:<12} total {:>12} B  dram-util {:>5.1}%  stalls {:>12}  f-fired {:>10}  c-fired {:>10}",
                s.to_string(),
                o.report.traffic.total_bytes(),
                o.report.dram_utilization * 100.0,
                o.report.core_stall_cycles,
                o.report.fetcher_fired,
                o.report.compressor_fired,
            )
            .unwrap();
        }
    }
    out
}

/// Per-class byte totals, for breakdowns across runs.
pub fn class_bytes(o: &RunOutcome) -> [u64; 6] {
    let mut out = [0u64; 6];
    for (i, c) in DataClass::all().into_iter().enumerate() {
        out[i] = o.report.traffic.class_bytes(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use driver::{Driver, DriverOptions, InputCache};
    use spzip_apps::{AppName, RunSpec};
    use spzip_graph::datasets::Scale;
    use spzip_graph::reorder::Preprocessing;

    #[test]
    fn input_cache_caches() {
        let cache = InputCache::new();
        let a = cache.get("ukl", Preprocessing::None, Scale::Tiny);
        let b = cache.get("ukl", Preprocessing::None, Scale::Tiny);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        let c = cache.get("ukl", Preprocessing::Dfs, Scale::Tiny);
        assert_ne!(*a, *c);
    }

    #[test]
    fn speedup_helpers() {
        let driver = Driver::new(DriverOptions::in_memory());
        let specs: Vec<RunSpec> = [Scheme::Push, Scheme::PushSpzip]
            .iter()
            .map(|&s| {
                RunSpec::new(
                    AppName::Dc,
                    "arb",
                    s.config(),
                    Preprocessing::None,
                    Scale::Tiny,
                )
            })
            .collect();
        let memo = driver.execute(&specs);
        let outcomes: Vec<(Scheme, &RunOutcome)> = [Scheme::Push, Scheme::PushSpzip]
            .iter()
            .zip(&specs)
            .map(|(&s, spec)| (s, memo.get(spec)))
            .collect();
        assert!(outcomes.iter().all(|(_, o)| o.validated));
        let sp = speedups_over_first(&outcomes);
        assert_eq!(sp[0].1, 1.0);
        let tb = traffic_breakdown(&outcomes);
        assert_eq!(tb.len(), 2);
    }
}
