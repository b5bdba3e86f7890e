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
//! * [`cli`] — the one flag parser every binary uses.
//!
//! `bench_all` is the one figure entry point: it regenerates every output
//! of [`figures::all_outputs`] in one process, so overlapping cells (e.g.
//! the Fig. 15/16/17 sweeps) are simulated exactly once, and
//! `bench_all --only <name>` renders a single one. The [`dcl_lint`]
//! module backs the `dcl-lint` binary, which statically analyzes `.dcl`
//! files and every built-in pipeline with [`spzip_core::lint`] and the
//! shape-and-bounds verifier ([`spzip_core::shape`]); the
//! [`dcl_perf`] module backs `dcl-perf`, the static traffic/throughput
//! analyzer ([`spzip_core::perf`]); both tools report through one
//! [`batch`] report. [`crosscheck`] is `dcl-perf`'s
//! model-vs-simulator gate, [`corpus`] is `dcl-lint --corpus`'s one
//! seeded-bug differential gate harness over the [`shape_corpus`],
//! [`liveness_corpus`] and [`equiv_corpus`] seeds, and [`explain`] is
//! the `--explain CODE` registry spanning every diagnostic family.

pub mod batch;
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
use std::fmt::Write as _;

/// Seed used to randomize vertex ids for the non-preprocessed variants
/// ("we randomize the vertex ids of the input graph").
pub const RANDOMIZE_SEED: u64 = 0x5EED;

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
    let base = &outcomes[0].1.report;
    for (s, o) in outcomes {
        let b = o.report.breakdown(base.traffic.total_bytes());
        writeln!(
            out,
            "{:<12} {:>9} {:>8.2}x {:>7.2}x | {:>6.3} {:>6.3} {:>6.3} {:>6.3} {:>6.3} {:>6.3}{}",
            s.to_string(),
            o.report.cycles,
            o.report.speedup_over(base),
            o.report.traffic_vs(base),
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use driver::InputCache;
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
}
